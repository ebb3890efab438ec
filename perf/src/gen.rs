//! Workload definitions and the seeded op-trace generator.
//!
//! Everything the program is fed comes from here and is a pure function of
//! `(workload, seed)`: the catalog to create, each client's append trace
//! (target log, payload size, forced or buffered) and the read plan. A
//! payload's bytes are a function of `(seed, client, op index)` and carry
//! that key in their first eight bytes, so any entry read back can be
//! checked without the payloads being stored.

use crate::rng::Rng;

/// The four scenarios. Each is append → crash + recover → read-back on one
/// service; see `perf/README.md` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One client, one log, buffered 64 B appends, one final flush; dense
    /// forward scans.
    AuditBuffered,
    /// Two clients forcing every append to sublogs of one shard; random
    /// reads by address over far more blocks than the cache holds.
    TxnForced,
    /// One client scattering entries over 512 sublogs with a cubic skew;
    /// sparse scans, time lookups and random reads across many volumes.
    MultilogSparse,
    /// A writer round-robining four feeds beside a reader of mostly-recent
    /// receipts; one forward pass per feed after recovery.
    TailMixed,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::AuditBuffered,
        Workload::TxnForced,
        Workload::MultilogSparse,
        Workload::TailMixed,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AuditBuffered => "audit_buffered",
            Workload::TxnForced => "txn_forced",
            Workload::MultilogSparse => "multilog_sparse",
            Workload::TailMixed => "tail_mixed",
        }
    }

    /// Client threads the workload runs at once.
    pub fn client_threads(self) -> usize {
        match self {
            Workload::AuditBuffered | Workload::MultilogSparse => 1,
            Workload::TxnForced | Workload::TailMixed => 2,
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Op counts of one repetition. `Sizing::bench` is what the benchmark
/// runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizing {
    /// Appends issued by each appending client.
    pub appends_per_client: usize,
    /// `read_entry` calls per reading client in the read-back phase
    /// (`txn_forced`: per thread; `multilog_sparse`: the uniform part).
    pub random_reads: usize,
    /// Device capacity in blocks (label included) of every volume.
    pub volume_blocks: u64,
}

impl Sizing {
    /// The benchmark's sizing: one repetition of all three phases takes
    /// two to three seconds on the 2-core sandbox.
    pub fn bench(w: Workload) -> Sizing {
        match w {
            Workload::AuditBuffered => Sizing {
                appends_per_client: 50_000,
                random_reads: 0,
                volume_blocks: 1 << 16,
            },
            Workload::TxnForced => Sizing {
                appends_per_client: 40_000,
                random_reads: 60_000,
                volume_blocks: 1 << 16,
            },
            Workload::MultilogSparse => Sizing {
                appends_per_client: 100_000,
                random_reads: 25_000,
                volume_blocks: 4096,
            },
            Workload::TailMixed => Sizing {
                appends_per_client: 150_000,
                random_reads: 0,
                volume_blocks: 1 << 16,
            },
        }
    }

    /// `multilog_sparse` as ISSUE 12 probed it, four times the benchmark's
    /// size: the smallest sizing known to reach the baseline's fragment-chain
    /// read failure (see `known-failure`).
    pub const KNOWN_FAILURE: Sizing = Sizing {
        appends_per_client: 400_000,
        random_reads: 100_000,
        volume_blocks: 16_384,
    };
}

/// Top-level logs of `multilog_sparse`.
pub const SPARSE_TOPS: usize = 64;
/// Sublogs under each top-level log of `multilog_sparse`.
pub const SPARSE_SUBS: usize = 8;
/// Rarest sublogs scanned in `multilog_sparse`'s read-back.
pub const SPARSE_RARE_SCANS: usize = 128;
/// `cursor_from_time` lookups in `multilog_sparse`'s read-back.
pub const SPARSE_TIME_LOOKUPS: usize = 64;
/// Entries read after each time lookup.
pub const SPARSE_TIME_RUN: usize = 32;
/// Forward passes over `/audit` in `audit_buffered`'s read-back.
pub const AUDIT_PASSES: usize = 3;
/// The reader of `tail_mixed` draws this share (percent) of its reads from
/// the newest `TAIL_RECENT` receipts and the rest uniformly.
pub const TAIL_RECENT_PCT: u64 = 80;
/// Size of the "recent" window of `tail_mixed`'s reader.
pub const TAIL_RECENT: usize = 1024;

/// One append of a client's trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Index into [`Trace::logs`] of the log file appended to.
    pub log: u16,
    /// Payload size in bytes (at least 8: the payload carries its key).
    pub size: u16,
    /// Forced (synchronous) or buffered.
    pub forced: bool,
}

/// The generated inputs of one workload.
#[derive(Debug, Clone)]
pub struct Trace {
    /// The workload these inputs belong to.
    pub workload: Workload,
    /// The seed they were generated from.
    pub seed: u64,
    /// Log files to create, parents before children.
    pub logs: Vec<String>,
    /// One append trace per appending client thread.
    pub clients: Vec<Vec<Op>>,
    /// Pre-drawn receipt indexes for uniform `read_entry` phases, one list
    /// per reading thread. An index `i` names client `i % clients`, op
    /// `i / clients`.
    pub read_plan: Vec<Vec<u32>>,
    /// Pre-drawn global op indexes for `cursor_from_time` lookups.
    pub time_plan: Vec<u32>,
    /// Hash of all of the above: same `(workload, seed, sizing)` ⇒ same
    /// hash on any commit.
    pub hash: u64,
}

impl Trace {
    /// Generates the inputs of `workload` from `seed`.
    pub fn generate(workload: Workload, seed: u64, sizing: Sizing) -> Trace {
        let n = sizing.appends_per_client;
        let mut logs = Vec::new();
        let mut clients = Vec::new();
        let mut read_plan = Vec::new();
        let mut time_plan = Vec::new();
        match workload {
            Workload::AuditBuffered => {
                logs.push("/audit".to_string());
                clients.push(
                    (0..n)
                        .map(|_| Op {
                            log: 0,
                            size: 64,
                            forced: false,
                        })
                        .collect(),
                );
            }
            Workload::TxnForced => {
                logs.extend(["/txn", "/txn/c0", "/txn/c1"].map(String::from));
                for c in 0..2u64 {
                    let mut r = Rng::derive(seed, 0x100 + c);
                    clients.push(
                        (0..n)
                            .map(|_| Op {
                                log: 1 + c as u16,
                                size: r.range(100, 299) as u16,
                                forced: true,
                            })
                            .collect(),
                    );
                    let mut r = Rng::derive(seed, 0x200 + c);
                    read_plan.push(
                        (0..sizing.random_reads)
                            .map(|_| r.below(2 * n as u64) as u32)
                            .collect(),
                    );
                }
            }
            Workload::MultilogSparse => {
                for t in 0..SPARSE_TOPS {
                    logs.push(format!("/p{t}"));
                }
                // Sublog `i` lives under top-level `i % 64`, so the hottest
                // sublogs are spread over every top-level log (and shard).
                let subs = SPARSE_TOPS * SPARSE_SUBS;
                for i in 0..subs {
                    logs.push(format!("/p{}/s{}", i % SPARSE_TOPS, i / SPARSE_TOPS));
                }
                let mut r = Rng::derive(seed, 0x300);
                clients.push(
                    (0..n)
                        .map(|i| {
                            let u = r.unit();
                            let sub = ((u * u * u) * subs as f64) as usize;
                            Op {
                                log: (SPARSE_TOPS + sub.min(subs - 1)) as u16,
                                size: r.range(16, 215) as u16,
                                forced: i % 32 == 31,
                            }
                        })
                        .collect(),
                );
                let mut r = Rng::derive(seed, 0x301);
                time_plan = (0..SPARSE_TIME_LOOKUPS)
                    .map(|_| r.below(n as u64) as u32)
                    .collect();
                let mut r = Rng::derive(seed, 0x302);
                read_plan.push(
                    (0..sizing.random_reads)
                        .map(|_| r.below(n as u64) as u32)
                        .collect(),
                );
            }
            Workload::TailMixed => {
                for f in 0..4 {
                    logs.push(format!("/feed{f}"));
                }
                let mut r = Rng::derive(seed, 0x400);
                clients.push(
                    (0..n)
                        .map(|i| Op {
                            log: (i % 4) as u16,
                            size: r.range(32, 191) as u16,
                            forced: i % 17 == 16,
                        })
                        .collect(),
                );
            }
        }
        let mut t = Trace {
            workload,
            seed,
            logs,
            clients,
            read_plan,
            time_plan,
            hash: 0,
        };
        t.hash = t.compute_hash();
        t
    }

    /// The op a payload key names, if it is in range.
    pub fn op(&self, client: usize, index: usize) -> Option<Op> {
        self.clients.get(client)?.get(index).copied()
    }

    fn compute_hash(&self) -> u64 {
        let mut h = Fnv::new();
        h.write(self.workload.name().as_bytes());
        for path in &self.logs {
            h.write(path.as_bytes());
            h.write(&[0]);
        }
        for ops in &self.clients {
            h.write(&(ops.len() as u64).to_le_bytes());
            for op in ops {
                h.write(&op.log.to_le_bytes());
                h.write(&op.size.to_le_bytes());
                h.write(&[u8::from(op.forced)]);
            }
        }
        for plan in &self.read_plan {
            h.write(&(plan.len() as u64).to_le_bytes());
            for i in plan {
                h.write(&i.to_le_bytes());
            }
        }
        for i in &self.time_plan {
            h.write(&i.to_le_bytes());
        }
        // The payload function is part of the inputs: pin it through the
        // first op's bytes.
        let mut buf = Vec::new();
        if let Some(op) = self.op(0, 0) {
            fill_payload(self.seed, 0, 0, usize::from(op.size), &mut buf);
            h.write(&buf);
        }
        h.finish()
    }
}

/// FNV-1a, 64-bit: enough to tell two traces apart, and trivially stable.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Bits of a payload key holding the op index; the client sits above.
const KEY_CLIENT_SHIFT: u32 = 40;

/// Writes the payload of `(seed, client, index)` into `buf` (cleared
/// first): the key, then seeded bytes up to `size`.
pub fn fill_payload(seed: u64, client: usize, index: usize, size: usize, buf: &mut Vec<u8>) {
    let key = ((client as u64) << KEY_CLIENT_SHIFT) | index as u64;
    buf.clear();
    buf.extend_from_slice(&key.to_le_bytes());
    let mut r = Rng::derive(seed, key ^ 0x5EED_0000_0000_0000);
    while buf.len() < size {
        let word = r.next_u64().to_le_bytes();
        let take = (size - buf.len()).min(8);
        buf.extend_from_slice(&word[..take]);
    }
    buf.truncate(size);
}

/// The `(client, index)` a payload claims to be, from its first 8 bytes.
pub fn payload_key(data: &[u8]) -> Option<(usize, usize)> {
    let key = u64::from_le_bytes(data.get(..8)?.try_into().ok()?);
    Some((
        (key >> KEY_CLIENT_SHIFT) as usize,
        (key & ((1 << KEY_CLIENT_SHIFT) - 1)) as usize,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_trace_and_hash() {
        for w in Workload::ALL {
            let a = Trace::generate(w, 1, Sizing::bench(w));
            let b = Trace::generate(w, 1, Sizing::bench(w));
            assert_eq!(a.hash, b.hash, "{}", w.name());
            assert_eq!(a.clients, b.clients);
            assert_eq!(a.read_plan, b.read_plan);
        }
    }

    #[test]
    fn the_seed_changes_every_seeded_workload() {
        for w in [
            Workload::TxnForced,
            Workload::MultilogSparse,
            Workload::TailMixed,
        ] {
            let a = Trace::generate(w, 1, Sizing::bench(w));
            let b = Trace::generate(w, 2, Sizing::bench(w));
            assert_ne!(a.clients, b.clients, "{}", w.name());
            assert_ne!(a.hash, b.hash, "{}", w.name());
        }
        // audit_buffered has a fixed op list; only its payloads are seeded.
        let w = Workload::AuditBuffered;
        let a = Trace::generate(w, 1, Sizing::bench(w));
        let b = Trace::generate(w, 2, Sizing::bench(w));
        assert_eq!(a.clients, b.clients);
        assert_ne!(a.hash, b.hash);
    }

    #[test]
    fn the_mix_is_what_the_readme_says() {
        let w = Workload::MultilogSparse;
        let t = Trace::generate(w, 3, Sizing::bench(w));
        assert_eq!(t.logs.len(), SPARSE_TOPS + SPARSE_TOPS * SPARSE_SUBS);
        let ops = &t.clients[0];
        assert_eq!(ops.iter().filter(|o| o.forced).count(), ops.len() / 32);
        assert!(ops.iter().all(|o| (16..=215).contains(&o.size)));
        // Cubic skew: the hottest sublog takes about an eighth of appends.
        let hottest = ops
            .iter()
            .filter(|o| usize::from(o.log) == SPARSE_TOPS)
            .count();
        let share = hottest as f64 / ops.len() as f64;
        assert!((0.11..0.14).contains(&share), "share {share}");

        let w = Workload::TxnForced;
        let t = Trace::generate(w, 3, Sizing::bench(w));
        assert_eq!(t.clients.len(), 2);
        assert!(t
            .clients
            .iter()
            .flatten()
            .all(|o| o.forced && (100..=299).contains(&o.size)));

        let w = Workload::TailMixed;
        let t = Trace::generate(w, 3, Sizing::bench(w));
        let ops = &t.clients[0];
        assert!(ops
            .iter()
            .enumerate()
            .all(|(i, o)| usize::from(o.log) == i % 4
                && o.forced == (i % 17 == 16)
                && (32..=191).contains(&o.size)));
    }

    #[test]
    fn payloads_are_a_function_of_their_key() {
        let (mut a, mut b, mut c) = (Vec::new(), Vec::new(), Vec::new());
        fill_payload(1, 1, 77, 100, &mut a);
        fill_payload(1, 1, 77, 100, &mut b);
        fill_payload(2, 1, 77, 100, &mut c);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        assert_ne!(a[8..], c[8..]);
        assert_eq!(payload_key(&a), Some((1, 77)));
        assert_eq!(payload_key(&a[..4]), None);
        // A shorter payload of the same key is a prefix of a longer one.
        fill_payload(1, 1, 77, 19, &mut b);
        assert_eq!(a[..19], b[..]);
    }
}
