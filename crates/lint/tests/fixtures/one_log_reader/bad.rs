//! Fixture: a private log reader growing next to the real one.
use clio_entrymap::BlockSource;
use clio_format::{BlockView, ParsedBlock};

struct RawSource {
    vol: std::sync::Arc<Volume>,
}

impl BlockSource for RawSource {
    fn read(&self, db: u64) -> Result<std::sync::Arc<Vec<u8>>> {
        self.vol.read_data_block(db)
    }
}

impl<'a> clio_entrymap::BlockSource for &'a RawSource {}

fn collect(src: &RawSource, db: u64) -> usize {
    let img = src.read(db).unwrap();
    let n = BlockView::parse(&img).map_or(0, |v| v.entries().count());
    n + usize::from(clio_format::ParsedBlock::parse(img).is_ok())
}
