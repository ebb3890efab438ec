//! Fixture: reading maps through the one reader. `EntrymapRecord::decode`
//! in this doc comment and in the string below is prose; naming the types,
//! building and encoding records, and decoding one in a test module are
//! not a second reader.
use clio_format::{EntrymapRecord, EntrymapRecordView};

fn union<S: BlockSource>(src: &S, geo: Geometry, ids: &[LogFileId]) -> Result<SmallBitmap> {
    let why = "never call EntrymapRecordView::parse or EntrymapRecord::decode here";
    let mut acc = SmallBitmap::new(why.len());
    let mut reads = 0;
    chain::read_map(src, geo, (1, 0), &mut reads, |rec: &EntrymapRecordView<'_>| {
        for id in ids {
            if let Some(bytes) = rec.map_for(*id) {
                acc.union_with_bytes(bytes);
            }
        }
    })?;
    Ok(acc)
}

fn emit(level: u8, group: u64) -> Vec<u8> {
    EntrymapRecord::new(level, group, 16, Vec::new()).encode()
}

#[cfg(test)]
mod tests {
    fn round_trip(bytes: &[u8]) -> u8 {
        clio_format::EntrymapRecord::decode(bytes).unwrap().level
    }
}
