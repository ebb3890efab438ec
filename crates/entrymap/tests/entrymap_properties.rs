//! Property tests for the entrymap subsystem: the locator and timestamp
//! search against brute-force oracles, including under block corruption.
//!
//! Runs on `clio_testkit::prop`; case counts follow `CLIO_PROP_CASES`,
//! failures print a `CLIO_PROP_SEED` for exact replay, and formerly
//! checked-in regression seed entries live on as the explicit
//! `regression_*` tests at the bottom.

use std::sync::Arc;

use clio_entrymap::harness::{build_log, BLOCK_TIME_STEP};
use clio_entrymap::{naive, rebuild_pending, tsearch, Locator, MapMemo};
use clio_testkit::prop::{
    any_u64, bools, check, check_case, just, one_of, pair, quad, triple, u16s, vec_of, Gen,
};
use clio_types::{LogFileId, Timestamp};

/// `(fanout, per-block file-id plan)` — the shared test-log shape.
fn arb_plan() -> Gen<(usize, Vec<Vec<u16>>)> {
    pair(
        &one_of(vec![just(2usize), just(4), just(16)]),
        &vec_of(&vec_of(&u16s(8..12), 0..3), 1..260),
    )
}

fn prop_locator_matches_oracle(n: usize, plan: &[Vec<u16>], from: u64, id: u16) {
    let (src, pending) = build_log(n, 1024, plan);
    let from = from % plan.len() as u64;
    let ids = [LogFileId(id)];
    let mut loc = Locator::new(&src, Some(&pending));
    let back = loc.locate_before(&ids, from).expect("in-memory reads");
    let (want_back, _) = naive::locate_before(&src, &ids, from).expect("oracle");
    assert_eq!(back, want_back);
    let mut loc = Locator::new(&src, Some(&pending));
    let fwd = loc.locate_at_or_after(&ids, from).expect("in-memory reads");
    let (want_fwd, _) = naive::locate_at_or_after(&src, &ids, from).expect("oracle");
    assert_eq!(fwd, want_fwd);
}

#[test]
fn locator_matches_oracle() {
    let g = triple(&arb_plan(), &any_u64(), &u16s(8..12));
    check("locator_matches_oracle", 48, &g, |((n, plan), from, id)| {
        prop_locator_matches_oracle(*n, plan, *from, *id);
    });
}

fn prop_locator_tolerates_invalidated_blocks(
    n: usize,
    plan: &[Vec<u16>],
    holes: &[u64],
    from: u64,
) {
    // Burn random blocks to all-1s (§2.3.2 invalidation); the locator
    // must agree with the oracle over what is still readable, with
    // *stale* pending state (recovered from the damaged log) too.
    let (mut src, _) = build_log(n, 1024, plan);
    for h in holes {
        let at = (*h % plan.len() as u64) as usize;
        src.blocks[at] = Arc::new(vec![0xFF; 1024]);
    }
    let (pending, _) = rebuild_pending(&src).expect("rebuild");
    let from = from % plan.len() as u64;
    let ids = [LogFileId(9)];
    let mut loc = Locator::new(&src, Some(&pending));
    let got = loc.locate_before(&ids, from).expect("reads");
    let (want, _) = naive::locate_before(&src, &ids, from).expect("oracle");
    assert_eq!(got, want);
}

#[test]
fn locator_tolerates_invalidated_blocks() {
    let g = triple(&arb_plan(), &vec_of(&any_u64(), 0..8), &any_u64());
    check(
        "locator_tolerates_invalidated_blocks",
        48,
        &g,
        |((n, plan), holes, from)| {
            prop_locator_tolerates_invalidated_blocks(*n, plan, holes, *from);
        },
    );
}

/// `(fanout, per-block file-id plan)` over many log files — up to 120,
/// so that a map lists far more files than a search asks about. The id
/// universe is what the deepest boundary block of a 300-block log can
/// hold in one 1 KiB block at each degree (the harness writes no
/// `continued` chains; `clio-core`'s writer does, and its own property
/// covers them).
fn arb_many_id_plan() -> Gen<(usize, Vec<Vec<u16>>)> {
    one_of(
        [(2usize, 40u16), (4, 120), (16, 120)]
            .into_iter()
            .map(|(n, universe)| {
                pair(
                    &just(n),
                    &vec_of(&vec_of(&u16s(8..8 + universe), 0..3), 1..300),
                )
            })
            .collect(),
    )
}

/// One memo, carried over a walk of forward and backward searches the way
/// a cursor carries it, must never change an answer and never cost a read.
#[test]
fn memo_carried_across_a_walk_changes_no_answer() {
    let walk = vec_of(&triple(&bools(), &bools(), &any_u64()), 1..40);
    let g = quad(
        &arb_many_id_plan(),
        &vec_of(&any_u64(), 0..8),
        &pair(&vec_of(&any_u64(), 1..4), &any_u64()),
        &walk,
    );
    check(
        "memo_carried_across_a_walk_changes_no_answer",
        48,
        &g,
        |((n, plan), holes, (id_picks, final_pick), walk)| {
            let total = plan.len() as u64;
            // Burn random blocks — map blocks among them — and search
            // with the pending state recovered from the damaged log.
            let (mut src, _) = build_log(*n, 1024, plan);
            for h in holes {
                src.blocks[(*h % total) as usize] = Arc::new(vec![0xFF; 1024]);
            }
            let (pending, _) = rebuild_pending(&src).expect("rebuild");
            // The ids searched for: ones the log has, when it has any.
            let present: Vec<u16> = plan.iter().flatten().copied().collect();
            let ids: Vec<LogFileId> = id_picks
                .iter()
                .map(|p| match present.len() {
                    0 => LogFileId(8),
                    len => LogFileId(present[(*p % len as u64) as usize]),
                })
                .collect();
            // Any boundary is sound over an immutable source; a random
            // one makes the walk cross it.
            let final_end = match final_pick % 3 {
                0 => u64::MAX,
                _ => final_pick % (total + 1),
            };
            let mut memo = MapMemo::default();
            let mut at = 0u64;
            for (forward, jump, pick) in walk {
                if *jump {
                    at = pick % total;
                }
                let mut with = Locator::new(&src, Some(&pending)).with_memo(&mut memo, final_end);
                let mut without = Locator::new(&src, Some(&pending));
                let (got, plain, want) = if *forward {
                    (
                        with.locate_at_or_after(&ids, at).expect("reads"),
                        without.locate_at_or_after(&ids, at).expect("reads"),
                        naive::locate_at_or_after(&src, &ids, at).expect("oracle").0,
                    )
                } else {
                    (
                        with.locate_before(&ids, at).expect("reads"),
                        without.locate_before(&ids, at).expect("reads"),
                        naive::locate_before(&src, &ids, at).expect("oracle").0,
                    )
                };
                assert_eq!(got, want, "forward={forward} from {at}");
                assert_eq!(plain, want, "memo-less, forward={forward} from {at}");
                assert!(
                    with.stats.blocks_read <= without.stats.blocks_read,
                    "the memo cost reads: {:?} against {:?}",
                    with.stats,
                    without.stats
                );
                assert_eq!(without.stats.memo_hits, 0);
                // The block a search names is the block it hands over.
                assert_eq!(with.take_block().is_some(), got.is_some());
                // Step past the hit as a cursor would, or stay put.
                at = match (got, *forward) {
                    (Some(db), true) => (db + 1).min(total - 1),
                    (Some(db), false) => db.saturating_sub(1),
                    (None, _) => at,
                };
            }
        },
    );
}

#[test]
fn timestamp_search_matches_oracle() {
    let g = pair(&arb_plan(), &any_u64());
    check(
        "timestamp_search_matches_oracle",
        48,
        &g,
        |((n, plan), tsq)| {
            let (src, _) = build_log(*n, 1024, plan);
            let total = plan.len() as u64;
            let ts = Timestamp(tsq % (total * BLOCK_TIME_STEP + 2 * BLOCK_TIME_STEP));
            let (got, _) = tsearch::find_block_by_time(&src, ts).expect("search");
            // Oracle: greatest block whose first_ts (db * STEP) <= ts.
            let want = if ts.0 / BLOCK_TIME_STEP >= total {
                Some(total - 1)
            } else {
                Some(ts.0 / BLOCK_TIME_STEP)
            };
            assert_eq!(got, want);
        },
    );
}

#[test]
fn rebuild_is_idempotent() {
    check("rebuild_is_idempotent", 48, &arb_plan(), |(n, plan)| {
        let (src, live) = build_log(*n, 1024, plan);
        let (a, _) = rebuild_pending(&src).expect("rebuild");
        let (b, _) = rebuild_pending(&src).expect("rebuild");
        assert_eq!(&a, &b);
        // And answers match the live writer for the current groups.
        let end = plan.len() as u64;
        if end > 0 {
            let geo = clio_entrymap::Geometry::new(*n);
            for level in 1..=geo.levels_for(end) {
                let group = geo.group_of(level, end - 1);
                for id in 8u16..12 {
                    let ids = [LogFileId(id)];
                    assert_eq!(
                        a.union_for(level, group, &ids),
                        live.union_for(level, group, &ids)
                    );
                }
            }
        }
    });
}

/// The shrunken witness from the retired
/// regression seed file (case
/// `542e6c2644e1c0c6…`): a fanout-2 log of 161 blocks with five
/// invalidated holes, which once desynchronized the locator from the
/// oracle. Plan blocks are comma-separated, `-` meaning an empty block.
#[test]
fn regression_invalidated_blocks_fanout2_161_blocks() {
    const PLAN: &str = "-,-,8 10,8 9,10,8 10,-,8,11 9,10,11,-,10 10,-,-,10,-,11 11,-,-,\
                        8 11,-,9,-,8,10 8,-,8 11,-,11,8 8,10 9,-,10,11,-,-,-,8 11,11 8,\
                        10 10,-,11,8 11,-,11,-,8,11 8,10 11,10 10,9 10,10,10,8 8,-,11,\
                        8 9,10,-,-,11,9,11,9 11,11,-,11 11,-,10,-,-,10,10 11,-,8,10,\
                        10 9,-,-,8 10,-,11,8,-,-,10,10 8,10,11,-,11 10,-,10,-,11,9 11,9,\
                        10 11,-,-,10,10 8,10 10,9,9,8 8,8 10,-,11,-,-,-,8 10,-,9 11,9 8,\
                        -,10 11,10,8,-,10,10,-,-,-,-,9 8,8,11 11,-,9,-,-,11,-,8 8,11 11,\
                        10,11 8,9,8,9,-,-,-,-,9,-,9,-,10 9,-,10,8,10,9 10,-,11,10";
    let plan: Vec<Vec<u16>> = PLAN
        .split(',')
        .map(|blk| match blk.trim() {
            "-" => Vec::new(),
            ids => ids
                .split_whitespace()
                .map(|id| id.parse().expect("plan id"))
                .collect(),
        })
        .collect();
    assert_eq!(plan.len(), 161);
    let holes = [
        7215697391289052106,
        18429194546216482861,
        18308026888230111011,
        2986290794617250036,
        1789684241888312814,
    ];
    let from = 18242198941372730298;
    check_case(
        "invalidated_blocks_fanout2_161_blocks",
        &(2usize, &plan, &holes, from),
        |(n, plan, holes, from)| {
            prop_locator_tolerates_invalidated_blocks(*n, plan, *holes, *from);
        },
    );
}
