//! Ablation (§2.3.1): forced writes on a pure write-once device vs one
//! with a battery-backed RAM tail.
//!
//! "On a (purely) write-once log device, frequent forced writes can lead
//! to considerable internal fragmentation, since a block, once written,
//! cannot be rewritten to fill in additional contents. Ideally, in order
//! to efficiently support frequent forced writes, the tail end of the log
//! device is implemented as rewriteable non-volatile storage."
//!
//! We run the same transaction workload (buffered updates + forced commit)
//! against both device configurations and compare blocks consumed and
//! internal fragmentation.

use std::io::{self, Write};
use std::sync::Arc;

use clio_core::service::{AppendOpts, LogService};
use clio_core::ServiceConfig;
use clio_costmodel::workload::TxnWorkload;
use clio_device::{RamTailDevice, SharedDevice};
use clio_types::{ManualClock, Timestamp, VolumeSeqId};
use clio_volume::{DevicePool, MemDevicePool, RecordingPool};

use crate::table;

fn run_txns(ram_tail: bool, txns: usize) -> (u64, u64, u64) {
    let cfg = ServiceConfig::default().with_shards(1);
    let mut pool: Arc<dyn DevicePool> = Arc::new(MemDevicePool::new(cfg.block_size, 1 << 20));
    if ram_tail {
        pool = Arc::new(RecordingPool::wrapping(pool, |base| {
            Arc::new(RamTailDevice::new(base)) as SharedDevice
        }));
    }
    let svc = LogService::create(
        VolumeSeqId(1),
        pool,
        cfg,
        Arc::new(ManualClock::starting_at(Timestamp::from_secs(1))),
    )
    .expect("fresh service");
    svc.create_log("/txn").expect("create log");
    let mut wl = TxnWorkload::new(11, 4, 48);
    for txn in wl.transactions(txns) {
        for up in &txn.updates {
            svc.append_path("/txn", up, AppendOpts::standard())
                .expect("update");
        }
        // The commit forces the log (§2.3.1).
        svc.append_path("/txn", &txn.commit, AppendOpts::forced())
            .expect("commit");
    }
    svc.flush().expect("flush");
    let r = svc.report();
    (r.blocks_sealed, r.padding_bytes, r.device_bytes)
}

pub fn run(out: &mut impl Write, _args: &[String]) -> io::Result<()> {
    let txns = 500;
    let (worm_blocks, worm_pad, worm_bytes) = run_txns(false, txns);
    let (ram_blocks, ram_pad, ram_bytes) = run_txns(true, txns);
    let rows = vec![
        vec![
            "pure write-once".into(),
            format!("{worm_blocks}"),
            format!("{worm_pad}"),
            format!("{worm_bytes}"),
        ],
        vec![
            "battery-backed RAM tail".into(),
            format!("{ram_blocks}"),
            format!("{ram_pad}"),
            format!("{ram_bytes}"),
        ],
    ];
    writeln!(out, "§2.3.1 ablation — {txns} transactions (4 buffered updates + 1 forced commit each), 1 KiB blocks\n")?;
    let header = ["device", "blocks sealed", "padding bytes", "device bytes"];
    write!(out, "{}", table::render(&header, &rows))?;
    let saving = 100.0 * (1.0 - ram_bytes as f64 / worm_bytes as f64);
    writeln!(
        out,
        "\nRAM-tail staging eliminates the early-seal fragmentation: {:.1}% fewer device bytes,",
        saving
    )?;
    writeln!(
        out,
        "{:.1}x fewer sealed blocks for identical durability.",
        worm_blocks as f64 / ram_blocks.max(1) as f64
    )?;
    Ok(())
}
