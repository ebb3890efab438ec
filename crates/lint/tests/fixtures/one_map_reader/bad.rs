//! Fixture: a search walking a map's record chain with a loop of its own.
use clio_format::{BlockView, EntrymapRecord, EntrymapRecordView};

fn maps_at<S: BlockSource>(src: &S, map_block: u64) -> Vec<EntrymapRecord> {
    let mut found = Vec::new();
    for cand in map_block..map_block + 4 {
        let img = src.read(cand).unwrap();
        let Ok(view) = BlockView::parse(&img) else { continue };
        for e in view.entries().flatten() {
            if let Ok(rec) = EntrymapRecord::decode(e.payload) {
                found.push(rec);
            }
        }
    }
    found
}

fn lists(payload: &[u8], id: LogFileId) -> bool {
    clio_format::EntrymapRecordView::parse(payload).is_ok_and(|rec| rec.map_for(id).is_some())
}
