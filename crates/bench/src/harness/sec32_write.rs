//! §3.2: the cost of a synchronous log write.
//!
//! Paper: writing a 'null' log entry (header only, full 14-byte header
//! with 64-bit timestamp, N=16, 1 KiB blocks) took 2.0 ms on average;
//! a 50-byte entry 2.9 ms. Of that, 0.5–1 ms was the local IPC, ~400 µs
//! the timestamp, and ~70 µs/entry the entrymap bookkeeping.
//!
//! We run the same experiment against the real service behind the real
//! server boundary (counting actual IPC round trips and entrymap records),
//! then report the modelled 1987 latency decomposition alongside the raw
//! 2026-hardware numbers.

use std::io::{self, Write};
use std::sync::Arc;
use std::time::Instant;

use clio_core::server::LogServer;
use clio_core::service::LogService;
use clio_core::ServiceConfig;
use clio_costmodel::CostModel;
use clio_types::{ManualClock, Timestamp, VolumeSeqId};
use clio_volume::MemDevicePool;

use crate::table;

pub fn run(out: &mut impl Write, _args: &[String]) -> io::Result<()> {
    let model = CostModel::default();
    let clock = Arc::new(ManualClock::starting_at(Timestamp::from_secs(1)));
    let svc = LogService::create(
        VolumeSeqId(1),
        Arc::new(MemDevicePool::new(1024, 1 << 20)),
        ServiceConfig::default().with_shards(1), // 1 KiB blocks, N = 16, as in §3.2
        clock,
    )
    .expect("fresh in-memory service");
    svc.create_log("/bench").expect("create log");
    let server = LogServer::spawn(svc, None);
    let client = server.client();

    let rounds = 2_000u64;
    let mut rows = Vec::new();
    for (label, payload, paper_ms) in [
        ("null entry", vec![], 2.0f64),
        ("50-byte entry", vec![0x42u8; 50], 2.9),
    ] {
        let t0 = Instant::now();
        for _ in 0..rounds {
            client.append_sync("/bench", &payload).expect("sync append");
        }
        let wall_us = t0.elapsed().as_micros() as f64 / rounds as f64;
        let modelled = model.sync_write_us(payload.len());
        rows.push(vec![
            label.to_owned(),
            format!("{}", payload.len()),
            format!("{} (paper {paper_ms:.1})", table::ms(modelled)),
            format!("{wall_us:.1}"),
        ]);
    }
    writeln!(
        out,
        "§3.2 — synchronous log write cost (client and server on one machine)\n"
    )?;
    let header = ["write", "payload B", "modelled 1987 ms", "measured 2026 µs"];
    write!(out, "{}", table::render(&header, &rows))?;
    writeln!(
        out,
        "\nModelled decomposition (paper's measured components):"
    )?;
    writeln!(
        out,
        "  IPC (local)          {:>6} µs   (paper 0.5–1 ms)",
        model.ipc_local_us
    )?;
    writeln!(
        out,
        "  timestamp generation {:>6} µs   (paper ~400 µs)",
        model.timestamp_gen_us
    )?;
    writeln!(
        out,
        "  server append work   {:>6} µs",
        model.server_append_us
    )?;
    writeln!(
        out,
        "  entrymap bookkeeping {:>6} µs   (paper ~70 µs/entry)",
        model.entrymap_note_us
    )?;
    writeln!(
        out,
        "  copy (per byte)      {:>6} µs",
        model.copy_per_byte_us
    )?;
    writeln!(
        out,
        "\nActual IPC round trips observed: {}",
        server.ipc_round_trips()
    )?;
    server.shutdown();
    Ok(())
}
