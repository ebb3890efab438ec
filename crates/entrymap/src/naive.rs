//! The exhaustive-scan baseline.
//!
//! "In principle, a log server could locate the entries that are members of
//! a particular log file by examining every entry in every block of the
//! volume sequence. This, of course, would be prohibitively expensive,
//! especially if a desired entry is far away." (§2.1) — implemented here
//! both as the cost floor for the locator benchmarks and as the oracle the
//! entrymap locator is property-tested against.

use clio_types::{LogFileId, Result};

use crate::source::BlockSource;

fn contains<S: BlockSource>(src: &S, db: u64, ids: &[LogFileId]) -> Result<bool> {
    let Ok(block) = src.verified(db)? else {
        return Ok(false);
    };
    for e in block.view().entries() {
        let Ok(e) = e else { break };
        if ids.contains(&e.header.id) {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Scans backward from `from` for the nearest block containing `ids`.
/// Returns the hit (if any) and the number of blocks read.
pub fn locate_before<S: BlockSource>(
    src: &S,
    ids: &[LogFileId],
    from: u64,
) -> Result<(Option<u64>, u64)> {
    let end = src.data_end();
    if end == 0 {
        return Ok((None, 0));
    }
    let mut reads = 0;
    let mut db = from.min(end - 1);
    loop {
        reads += 1;
        if contains(src, db, ids)? {
            return Ok((Some(db), reads));
        }
        match db.checked_sub(1) {
            Some(prev) => db = prev,
            None => return Ok((None, reads)),
        }
    }
}

/// Scans forward from `from` for the nearest block containing `ids`.
pub fn locate_at_or_after<S: BlockSource>(
    src: &S,
    ids: &[LogFileId],
    from: u64,
) -> Result<(Option<u64>, u64)> {
    let end = src.data_end();
    let mut reads = 0;
    let mut db = from;
    while db < end {
        reads += 1;
        if contains(src, db, ids)? {
            return Ok((Some(db), reads));
        }
        db += 1;
    }
    Ok((None, reads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::build_log;

    #[test]
    fn scan_costs_are_linear_in_distance() {
        let mut plan: Vec<Vec<u16>> = (0..100).map(|_| vec![]).collect();
        plan[10] = vec![8];
        let (src, _) = build_log(4, 512, &plan);
        let (hit, reads) = locate_before(&src, &[LogFileId(8)], 99).unwrap();
        assert_eq!(hit, Some(10));
        assert_eq!(reads, 90); // 99 down to 10 inclusive
        let (hit, reads) = locate_at_or_after(&src, &[LogFileId(8)], 0).unwrap();
        assert_eq!(hit, Some(10));
        assert_eq!(reads, 11);
    }

    #[test]
    fn misses_cost_the_whole_range() {
        let plan: Vec<Vec<u16>> = (0..50).map(|_| vec![]).collect();
        let (src, _) = build_log(4, 512, &plan);
        let (hit, reads) = locate_before(&src, &[LogFileId(8)], 49).unwrap();
        assert_eq!(hit, None);
        assert_eq!(reads, 50);
    }
}
