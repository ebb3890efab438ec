//! §3.3.2: the cost of an *uncached* distant read, measured end-to-end.
//!
//! "If, on the other hand, a log entry that is being read is located a
//! large distance away, then neither the lower levels of the entrymap
//! search tree nor the log data itself can be expected to be cached. A
//! read of this type is expected to cost several hundred milliseconds."
//!
//! Here the whole service runs on a [`clio_costmodel::TimedDevice`]: every
//! physical access pays the optical-disk seek/transfer costs on a virtual
//! clock, so the number below is *measured* by driving the real read path
//! cold, not computed from a formula.

use std::sync::Arc;

use clio_bench::report::Report;
use clio_bench::table;
use clio_core::service::{AppendOpts, LogService};
use clio_core::ServiceConfig;
use clio_costmodel::{CostClock, CostModel, TimedDevice};
use clio_device::SharedDevice;
use clio_types::{Timestamp, VolumeSeqId};
use clio_volume::{MemDevicePool, RecordingPool};

fn main() {
    let mut report = Report::new(
        "sec33_cold",
        "§3.3.2 — cost of an uncached distant read, measured end-to-end",
    );
    let model = CostModel::default();
    let clock = Arc::new(CostClock::starting_at(Timestamp::from_secs(1)));
    let timed_clock = clock.clone();
    let pool = Arc::new(RecordingPool::wrapping(
        Arc::new(MemDevicePool::new(1024, 1 << 20)),
        move |base| Arc::new(TimedDevice::new(base, timed_clock.clone(), model)) as SharedDevice,
    ));
    let svc = LogService::create(
        VolumeSeqId(1),
        pool,
        ServiceConfig::default().with_shards(1),
        clock.clone(),
    )
    .expect("service");
    svc.create_log("/needle").expect("create");
    svc.create_log("/hay").expect("create");
    svc.append_path("/needle", b"distant entry", AppendOpts::forced())
        .expect("append");
    // ~20k blocks of hay between the needle and the reader.
    let filler = vec![0x68u8; 480];
    for _ in 0..40_000 {
        svc.append_path("/hay", &filler, AppendOpts::standard())
            .expect("append");
    }
    svc.flush().expect("flush");
    let distance = svc.volumes().active().data_end();

    let mut rows = Vec::new();
    for (label, clear) in [("cold (cache dropped)", true), ("warm (repeat)", false)] {
        if clear {
            svc.cache().clear();
        }
        let before = svc.cache().stats();
        let t0 = Timestamp(clock.elapsed_since(Timestamp::ZERO));
        let mut cur = svc.cursor_from_end("/needle").expect("cursor");
        let hit = cur.prev().expect("prev").expect("needle exists");
        assert_eq!(hit.data, b"distant entry");
        let elapsed_us = clock.elapsed_since(Timestamp::ZERO) - t0.0;
        let s = svc.cache().stats();
        rows.push(vec![
            label.to_owned(),
            format!("{}", s.misses - before.misses),
            format!("{}", s.hits - before.hits),
            table::ms(elapsed_us),
        ]);
    }
    println!("§3.3.2 — reading one entry ~{distance} blocks back through the real service");
    println!(
        "on a timed optical device ({} ms seek, {} ms transfer)\n",
        model.optical_seek_us / 1000,
        model.optical_transfer_us / 1000
    );
    let header = [
        "read",
        "device reads (misses)",
        "cache hits",
        "modelled time (ms)",
    ];
    print!("{}", table::render(&header, &rows));
    println!("\nPaper's claim holds if the cold read costs several hundred milliseconds and");
    println!("the repeat costs (near) nothing — \"the cost of a log read operation is");
    println!("determined primarily by the number of cache misses\".");
    report.scalar("distance_blocks", distance);
    report.scalar("optical_seek_us", model.optical_seek_us);
    report.scalar("optical_transfer_us", model.optical_transfer_us);
    report.table("cold_vs_warm", &header, &rows);
    report.note("Read cost is determined primarily by the number of cache misses (§3.3.2).");
    report.emit();
}
