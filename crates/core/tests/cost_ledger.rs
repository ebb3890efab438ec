//! The cost ledger: what an operation costs, counted rather than timed.
//!
//! The paper prices its operations by counting them and multiplying by a
//! cost table (§3.2, §3.3). Counts repeat exactly on any host, so they are
//! pinned here the way `metrics_surface.txt` pins the `/metrics` surface:
//! `cost_ledger.txt` holds one line per (operation, shard count, count),
//! and a change that moves a count must re-pin the file (replace it with
//! the "actual" text a failing run prints) and say why.
//!
//! This slice covers service start-up: `LogService::create` and
//! `LogService::recover` of a small crashed image, at 1 and 4 shards, with
//! `ServiceConfig::default()`, a `ManualClock` and in-memory devices. Each
//! line is one of the allocations and bytes the calling thread made, the
//! calls into the metrics registry, the device reads, and the recovery
//! report's block and record counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::Arc;

use clio_core::service::{AppendOpts, LogService};
use clio_core::ServiceConfig;
use clio_obs::MetricValue;
use clio_types::{ManualClock, Timestamp, VolumeSeqId};
use clio_volume::{MemDevicePool, RecordingPool};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts each allocation, and its bytes, on the thread that makes it.
struct Counting;

fn note(bytes: usize) {
    // `try_with`: an allocation made while the thread's locals are torn
    // down is not counted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counting
// touches only const-initialised thread-locals of `Cell<_>` type, which
// never allocate and have no destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded; the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size.saturating_sub(layout.size()));
        // SAFETY: forwarded; `ptr` and `layout` come from this allocator,
        // which is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded; `ptr` was allocated by `System` through us.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs `op` and returns its result with the (allocations, bytes) the
/// calling thread made inside it.
fn tallied<T>(op: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, b0) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let out = op();
    let (a1, b1) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    (out, a1 - a0, b1 - b0)
}

fn device_reads(svc: &LogService) -> u64 {
    svc.metrics()
        .gather()
        .into_iter()
        .find_map(|s| match s.value {
            MetricValue::Counter(v) if s.name == "clio_device_reads_total" => Some(v),
            _ => None,
        })
        .expect("the service counts its device reads")
}

/// One service lifetime at `shards` shards: create, write a little,
/// crash, recover. Appends its ledger lines to `out`.
fn lifetime(shards: usize, out: &mut String) {
    let cfg = ServiceConfig::default().with_shards(shards);
    let pool = Arc::new(RecordingPool::new(Arc::new(MemDevicePool::new(
        cfg.block_size,
        1 << 12,
    ))));
    let clock = Arc::new(ManualClock::starting_at(Timestamp::from_secs(1)));
    let (svc, allocs, bytes) = tallied(|| {
        LogService::create(VolumeSeqId(1), pool.clone(), cfg.clone(), clock.clone()).unwrap()
    });
    let mut line = |op: &str, what: &str, n: u64| {
        let _ = writeln!(out, "{op}/{shards} {what} {n}");
    };
    line("create", "allocs", allocs);
    line("create", "alloc_bytes", bytes);
    line(
        "create",
        "registrations",
        svc.metrics().registrations() as u64,
    );
    line("create", "device_reads", device_reads(&svc));

    let logs: Vec<_> = (0..8)
        .map(|i| svc.create_log(&format!("/l{i}")).unwrap())
        .collect();
    for i in 0..400u32 {
        let opts = if i % 16 == 0 {
            AppendOpts::forced()
        } else {
            AppendOpts::standard()
        };
        let mut payload = i.to_le_bytes().to_vec();
        payload.resize(100, b'x');
        svc.append(logs[i as usize % logs.len()], &payload, opts)
            .unwrap();
    }
    svc.flush().unwrap();
    drop(svc);

    let ((svc, report), allocs, bytes) =
        tallied(|| LogService::recover(pool.devices(), pool.clone(), cfg, clock).unwrap());
    line("recover", "allocs", allocs);
    line("recover", "alloc_bytes", bytes);
    line(
        "recover",
        "registrations",
        svc.metrics().registrations() as u64,
    );
    line("recover", "device_reads", device_reads(&svc));
    line("recover", "volumes", u64::from(report.volumes));
    line("recover", "end_probes", report.end_probes);
    line("recover", "rebuild_blocks_read", report.rebuild_blocks_read);
    line("recover", "invalidated", report.invalidated.len() as u64);
    line("recover", "catalog_records", report.catalog_records);
}

#[test]
fn cost_ledger_is_pinned() {
    // A first lifetime pays each first-use cost of this thread (its
    // locals, the lock-order validator's classes) so the counted one
    // prices the operations alone.
    lifetime(4, &mut String::new());
    let mut actual = String::new();
    for shards in [1, 4] {
        lifetime(shards, &mut actual);
    }
    let pinned = include_str!("cost_ledger.txt");
    assert!(
        actual == pinned,
        "the cost ledger moved (-pinned +now):\n{}\nactual:\n{actual}",
        clio_testkit::diff::line_diff(pinned, &actual)
            .lines()
            .filter(|l| !l.starts_with(' '))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
