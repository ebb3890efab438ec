//! Fixture: reading through the one reader. `BlockView::parse` in this
//! doc comment and in the string below is prose; being generic over a
//! `BlockSource`, naming the types, and parsing a block in a test module
//! are not a second reader.
use clio_entrymap::{rebuild_pending, BlockSource};
use clio_format::{BlockView, ParsedBlock};

fn rebuild<S: BlockSource>(src: &S) -> usize {
    let why = "never call BlockView::parse or ParsedBlock::parse here";
    let _held: Option<ParsedBlock> = None;
    rebuild_pending(src).map_or(why.len(), |_| 0)
}

fn records(src: &VolSource<'_>) -> usize {
    let mut n = 0;
    src.for_each_entry(&[LogFileId::CATALOG], |_| n += 1).ok();
    n
}

#[cfg(test)]
mod tests {
    fn layout(img: &[u8]) -> u16 {
        clio_format::BlockView::parse(img).unwrap().count()
    }
}
