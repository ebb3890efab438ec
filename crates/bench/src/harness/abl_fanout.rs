//! Ablation (§6): the time–space trade-off in choosing N.
//!
//! "We have provided some insight into the time-space trade-off that
//! arises when trying to provide fast read access to log files." A larger
//! degree N makes distant lookups cheaper (Figure 3) but entrymap entries
//! bigger (bitmaps are N bits per active file, §3.5) and recovery dearer
//! (Figure 4). This harness runs the same audit workload at several N on
//! the *real service* and reports all three axes side by side.

use std::io::{self, Write};
use std::sync::Arc;

use clio_core::service::{AppendOpts, LogService};
use clio_core::ServiceConfig;
use clio_costmodel::LoginWorkload;
use clio_types::{ManualClock, Timestamp, VolumeSeqId};
use clio_volume::{MemDevicePool, RecordingPool};

use crate::table;

pub fn run(out: &mut impl Write, _args: &[String]) -> io::Result<()> {
    let mut rows = Vec::new();
    for n in [4u16, 8, 16, 32, 64] {
        let cfg = ServiceConfig {
            fanout: n,
            shards: 1,
            ..ServiceConfig::default()
        };
        let pool = Arc::new(RecordingPool::new(Arc::new(MemDevicePool::new(
            cfg.block_size,
            1 << 18,
        ))));
        let clock = Arc::new(ManualClock::starting_at(Timestamp::from_secs(1)));
        let svc = LogService::create(VolumeSeqId(1), pool.clone(), cfg.clone(), clock.clone())
            .expect("service");
        svc.create_log("/audit").expect("create");
        let mut wl = LoginWorkload::paper_calibrated(5);
        for u in 0..wl.n_users {
            svc.create_log(&format!("/audit/user{u}"))
                .expect("create user");
        }
        // A rare log file whose single old entry forces a distant lookup.
        svc.create_log("/rare").expect("create rare");
        svc.append_path("/rare", b"the needle", AppendOpts::standard())
            .expect("append");
        for (user, payload) in wl.events(10_000) {
            svc.append_path(
                &format!("/audit/user{user}"),
                &payload,
                AppendOpts::standard(),
            )
            .expect("append");
        }
        svc.flush().expect("flush");
        let r = svc.report();

        // Time axis: cold-cache block reads to find /rare's entry from the
        // end of the log.
        svc.cache().clear();
        let misses_before = svc.cache().stats().misses;
        let mut cur = svc.cursor_from_end("/rare").expect("cursor");
        let hit = cur.prev().expect("prev").expect("the needle exists");
        assert_eq!(hit.data, b"the needle");
        let cold_misses = svc.cache().stats().misses - misses_before;

        // Recovery axis: crash and measure the entrymap rebuild (Fig. 4).
        drop(svc);
        let (_svc, report) =
            LogService::recover(pool.devices(), pool.clone(), cfg, clock).expect("recover");

        rows.push(vec![
            format!("{n}"),
            format!("{}", r.blocks_sealed),
            format!("{:.3}", r.avg_entrymap_overhead),
            format!("{}", r.entrymap_entries),
            format!("{cold_misses}"),
            format!("{}", report.rebuild_blocks_read),
        ]);
    }
    writeln!(
        out,
        "§6 ablation — the N time–space trade-off (10,000 audit entries + 1 distant needle)\n"
    )?;
    let header = [
        "N",
        "blocks used",
        "entrymap B/entry",
        "entrymap entries",
        "cold lookup reads",
        "recovery reads",
    ];
    write!(out, "{}", table::render(&header, &rows))?;
    writeln!(
        out,
        "\nBoth search cost and per-entry entrymap bytes fall with N (the §3.5 formula"
    )?;
    writeln!(
        out,
        "o_e ≈ (h + a(N/8 + c'))/(N−1) is dominated by its 1/(N−1) factor while a is"
    )?;
    writeln!(
        out,
        "fixed) — but recovery cost *rises* with N (Figure 4), which is why the paper"
    )?;
    writeln!(
        out,
        "settles on N = 16–32 (§3.4): past that, lookups barely improve while every"
    )?;
    writeln!(out, "reboot pays N·log_N(b)/2 block reads.")?;
    Ok(())
}
