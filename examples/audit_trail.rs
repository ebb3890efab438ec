//! A security audit trail (§1's motivating use): per-user sublogs of one
//! audit log, queried by user, by time, and in aggregate.
//!
//! Run with: `cargo run --example audit_trail`

use std::sync::Arc;

use clio::core::service::{AppendOpts, LogService};
use clio::core::ServiceConfig;
use clio::costmodel::LoginWorkload;
use clio::types::{ManualClock, Timestamp, VolumeSeqId};
use clio::volume::MemDevicePool;

fn main() -> clio::types::Result<()> {
    let clock = Arc::new(ManualClock::starting_at(Timestamp::from_secs(100)));
    let svc = LogService::create(
        VolumeSeqId(7),
        Arc::new(MemDevicePool::new(1024, 1 << 16)),
        ServiceConfig::default(),
        clock,
    )?;

    // /audit is the whole trail; /audit/userN are sublogs (§2.1): an entry
    // logged in a sublog also belongs to the parent, so the auditor can
    // read everything while each user's trail stays individually cheap to
    // query.
    svc.create_log("/audit")?;
    let mut wl = LoginWorkload::paper_calibrated(1);
    for u in 0..wl.n_users {
        svc.create_log(&format!("/audit/user{u}"))?;
    }

    let mut mid_ts = Timestamp::ZERO;
    let events = wl.events(3000);
    for (i, (user, payload)) in events.iter().enumerate() {
        let r = svc.append_path(
            &format!("/audit/user{user}"),
            payload,
            AppendOpts::standard(),
        )?;
        if i == events.len() / 2 {
            mid_ts = r.timestamp;
        }
    }
    svc.flush()?;

    // Aggregate query: everything in the trail.
    let mut cur = svc.cursor("/audit")?;
    let total = cur.collect_remaining()?.len();
    println!(
        "audit trail holds {total} events across {} users",
        wl.n_users
    );

    // Per-user query: only user3's events, located via the entrymap tree.
    let mut cur = svc.cursor("/audit/user3")?;
    let user3 = cur.collect_remaining()?;
    println!(
        "user3 generated {} events; first: {:?}",
        user3.len(),
        String::from_utf8_lossy(&user3[0].data[..40.min(user3[0].data.len())])
    );

    // Time-bounded query: suspicious-activity review of the second half.
    let mut cur = svc.cursor_from_time("/audit", mid_ts)?;
    let recent = cur.collect_remaining()?;
    println!("{} events at or after the review point", recent.len());

    // Monitoring from the tail backwards: the paper notes most accesses go
    // to recent entries (§1).
    let mut cur = svc.cursor_from_end("/audit")?;
    print!("last 3 events: ");
    for _ in 0..3 {
        if let Some(e) = cur.prev()? {
            print!(
                "[{}] ",
                String::from_utf8_lossy(&e.data[..20.min(e.data.len())])
            );
        }
    }
    println!();

    let r = svc.report();
    println!(
        "space overhead: header {:.2} B/entry, entrymap {:.3} B/entry ({:.3}% of data)",
        r.avg_header_overhead,
        r.avg_entrymap_overhead,
        100.0 * r.avg_entrymap_overhead / r.avg_entry_size
    );
    Ok(())
}
