//! Fixture: an entrymap search checking the blocks it reads itself.
use clio_format::{BlockView, ParsedBlock};

fn contains<S: BlockSource>(src: &S, db: u64, id: LogFileId) -> Result<bool> {
    let img = src.read(db)?;
    let Ok(view) = BlockView::parse(&img) else {
        return Ok(false);
    };
    Ok(view.entries().flatten().any(|e| e.header.id == id))
}

fn first_ts<S: BlockSource>(src: &S, db: u64) -> Result<Option<Timestamp>> {
    let held = clio_format::ParsedBlock::parse(src.read(db)?);
    Ok(held.ok().map(|b| b.view().first_ts()))
}

fn through_the_source<S: BlockSource>(src: &S, db: u64) -> Result<bool> {
    Ok(src.verified(db)?.is_ok())
}

impl BlockSource for Shifted {}

#[cfg(test)]
mod tests {
    fn layout(img: &[u8]) -> u16 {
        clio_format::BlockView::parse(img).unwrap().count()
    }
}
