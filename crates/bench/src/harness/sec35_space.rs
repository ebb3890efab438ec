//! §3.5: space overhead on the login/logout audit file system.
//!
//! Paper: the per-entry overhead is (1) the average header size `h` and
//! (2) the entrymap share `o_e ≤ (h + a(N/8 + c')) / (N − 1)`. For the
//! V-System login/logout file system, measured `c ≈ 1/15` (average entry
//! ≈ 1/15 block) and `a ≈ 8` (log files per entrymap entry), giving
//! `o_e < 0.16` bytes per entry — under 0.2 % of the average entry size.
//!
//! We drive the real service with the calibrated workload and *measure*
//! every quantity from the bytes actually written to the device.

use std::io::{self, Write};
use std::sync::Arc;

use clio_core::service::{AppendOpts, LogService};
use clio_core::ServiceConfig;
use clio_costmodel::LoginWorkload;
use clio_format::EntrymapRecord;
use clio_types::{LogFileId, ManualClock, Timestamp, VolumeSeqId};
use clio_volume::MemDevicePool;

use crate::table;

pub fn run(out: &mut impl Write, _args: &[String]) -> io::Result<()> {
    let cfg = ServiceConfig::default().with_shards(1); // 1 KiB, N = 16
    let n = cfg.fanout as f64;
    let block_size = cfg.block_size as f64;
    let svc = LogService::create(
        VolumeSeqId(1),
        Arc::new(MemDevicePool::new(cfg.block_size, 1 << 20)),
        cfg,
        Arc::new(ManualClock::starting_at(Timestamp::from_secs(1))),
    )
    .expect("fresh in-memory service");

    // The audit hierarchy: one sublog per user under /audit (§2.1's
    // sublog-per-subject pattern).
    svc.create_log("/audit").expect("create /audit");
    let mut wl = LoginWorkload::paper_calibrated(42);
    for u in 0..wl.n_users {
        svc.create_log(&format!("/audit/user{u}"))
            .expect("create user log");
    }
    let events = wl.events(20_000);
    for (user, payload) in &events {
        svc.append_path(
            &format!("/audit/user{user}"),
            payload,
            AppendOpts::standard(),
        )
        .expect("append audit event");
    }
    svc.flush().expect("flush");

    let r = svc.report();
    // Measure `a` (log files per entrymap entry) straight off the device.
    let vol = svc.volumes().volume(0).expect("volume 0");
    let mut recs = 0u64;
    let mut files = 0u64;
    for db in 0..vol.data_end() {
        let Ok(block) = vol.read_data_block(db) else {
            continue;
        };
        for e in block.view().entries() {
            let Ok(e) = e else { break };
            if e.header.id == LogFileId::ENTRYMAP {
                if let Ok(rec) = EntrymapRecord::decode(e.payload) {
                    recs += 1;
                    files += rec.maps.len() as u64;
                }
            }
        }
    }
    let a = files as f64 / recs.max(1) as f64;
    let h = r.avg_header_overhead;
    let d = r.avg_entry_size;
    let c = (d + h) / block_size;
    let o_e = r.avg_entrymap_overhead;
    let o_e_pct = 100.0 * o_e / d;
    // The paper's bound: o_e ≤ (h + a(N/8 + c')) / (N − 1), c' = 2-byte id
    // per bitmap (our per-map constant).
    let bound = (h + a * (n / 8.0 + 2.0)) / (n - 1.0);

    let rows = vec![
        vec![
            "avg entry size d (B)".into(),
            table::f2(d),
            "~64 (c=1/15 of 1 KiB)".into(),
        ],
        vec![
            "c = (d+h)/blocksize".into(),
            format!("{:.4} (~1/{})", c, (1.0 / c).round()),
            "1/15".into(),
        ],
        vec![
            "a (files per entrymap entry)".into(),
            table::f2(a),
            "8".into(),
        ],
        vec![
            "avg header overhead h (B/entry)".into(),
            table::f2(h),
            "4 (minimal) … 14 (full)".into(),
        ],
        vec![
            "entrymap overhead o_e (B/entry)".into(),
            table::f2(o_e),
            "< 0.16 … paper bound".into(),
        ],
        vec![
            "o_e as % of entry size".into(),
            format!("{o_e_pct:.3} %"),
            "< 0.2 %".into(),
        ],
        vec![
            "paper bound (h+a(N/8+c'))/(N-1)".into(),
            table::f2(bound),
            "—".into(),
        ],
    ];
    writeln!(out, "§3.5 — space overhead on the login/logout audit workload (20,000 entries, 1 KiB blocks, N=16)\n")?;
    write!(
        out,
        "{}",
        table::render(&["quantity", "measured", "paper"], &rows)
    )?;
    // The service's own one-line space report (same data, Display form).
    writeln!(out, "\n{r}")?;
    writeln!(
        out,
        "Paper's conclusion holds if o_e ≪ h: measured o_e/h = {:.3}",
        o_e / h
    )?;
    Ok(())
}
