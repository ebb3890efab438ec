//! Seeded workload generators for the evaluation harness.

use clio_testkit::rng::StdRng;

/// The §3.5 login/logout audit workload: "a file system that we have been
/// using to record user access (i.e. login/logout) to the V-System.
/// Measured values of c and a for this file system are roughly 1/15 and 8"
/// — i.e. the average entry occupies about 1/15 of a block, and an average
/// entrymap entry mentions about 8 log files.
pub struct LoginWorkload {
    rng: StdRng,
    /// Per-user log files to spread entries over.
    pub n_users: usize,
    /// Mean entry payload size in bytes.
    pub mean_entry: usize,
}

impl LoginWorkload {
    /// The paper-calibrated configuration for 1 KiB blocks: entries of
    /// ~64 bytes (c ≈ 1/15 with header) spread over enough concurrently
    /// active users that a ≈ 8 per 16-block window.
    #[must_use]
    pub fn paper_calibrated(seed: u64) -> LoginWorkload {
        LoginWorkload {
            rng: StdRng::seed_from_u64(seed),
            n_users: 10,
            mean_entry: 64,
        }
    }

    /// Generates `count` events of `(user index, payload)`.
    pub fn events(&mut self, count: usize) -> Vec<(usize, Vec<u8>)> {
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            let user = self.rng.gen_range(0..self.n_users);
            // Entry sizes jitter ±25% around the mean.
            let jitter = self.mean_entry / 4;
            let len = self.mean_entry - jitter + self.rng.gen_range(0..=2 * jitter);
            let mut payload = format!("login user{user} session{i} tty{} ", i % 64).into_bytes();
            payload.resize(len, b'.');
            out.push((user, payload));
        }
        out
    }
}

/// A transaction-processing workload: bursts of buffered records followed
/// by a forced commit record (§2.3.1's motivating use).
pub struct TxnWorkload {
    rng: StdRng,
    /// Records per transaction (before the commit record).
    pub records_per_txn: usize,
    /// Mean record payload size.
    pub mean_record: usize,
}

/// One generated transaction: its update records plus a commit marker.
#[derive(Debug, Clone)]
pub struct Txn {
    /// Update record payloads (buffered writes).
    pub updates: Vec<Vec<u8>>,
    /// The commit record payload (forced write).
    pub commit: Vec<u8>,
}

impl TxnWorkload {
    /// A seeded generator.
    #[must_use]
    pub fn new(seed: u64, records_per_txn: usize, mean_record: usize) -> TxnWorkload {
        TxnWorkload {
            rng: StdRng::seed_from_u64(seed),
            records_per_txn,
            mean_record,
        }
    }

    /// Generates `count` transactions.
    pub fn transactions(&mut self, count: usize) -> Vec<Txn> {
        (0..count)
            .map(|t| {
                let updates = (0..self.records_per_txn)
                    .map(|u| {
                        let len = self
                            .rng
                            .gen_range(self.mean_record / 2..=self.mean_record * 2);
                        let mut p = format!("txn{t} update{u} ").into_bytes();
                        p.resize(len.max(12), b'u');
                        p
                    })
                    .collect();
                Txn {
                    updates,
                    commit: format!("txn{t} COMMIT").into_bytes(),
                }
            })
            .collect()
    }
}

/// A mail-delivery workload (§4.2): messages delivered to per-user
/// mailboxes with log-normal-ish sizes.
pub struct MailWorkload {
    rng: StdRng,
    /// Number of mailboxes.
    pub n_boxes: usize,
}

/// Body-size scales a delivery draws from, uniformly.
const MAIL_SCALES: [usize; 7] = [80, 80, 200, 200, 600, 2000, 8000];

impl MailWorkload {
    /// A seeded generator over `n_boxes` mailboxes.
    #[must_use]
    pub fn new(seed: u64, n_boxes: usize) -> MailWorkload {
        MailWorkload {
            rng: StdRng::seed_from_u64(seed),
            n_boxes,
        }
    }

    /// Generates `count` deliveries of `(mailbox, subject, body)`.
    pub fn deliveries(&mut self, count: usize) -> Vec<(usize, String, Vec<u8>)> {
        (0..count)
            .map(|i| {
                let to = self.rng.gen_range(0..self.n_boxes);
                let subject = format!("message {i}");
                // Sizes cluster small with a heavy tail, like real mail.
                let scale = MAIL_SCALES[self.rng.gen_range(0..7usize)];
                let len = self.rng.gen_range(scale / 2..=scale);
                let mut body =
                    format!("From: gen\nTo: user{to}\nSubject: {subject}\n\n").into_bytes();
                body.resize(body.len() + len, b'm');
                (to, subject, body)
            })
            .collect()
    }
}

/// One event of an Ousterhout-style file-access trace (§4.1 cites his
/// 4.2 BSD analysis: cache miss ratios under 10% at 16 MB, and "more than
/// 50% of newly-written information is deleted within 5 minutes").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// Create a file.
    Create {
        /// Trace-local file id.
        file: u64,
    },
    /// Write `bytes` to the file.
    Write {
        /// Trace-local file id.
        file: u64,
        /// Bytes written.
        bytes: u64,
    },
    /// Read `bytes` from the file.
    Read {
        /// Trace-local file id.
        file: u64,
        /// Bytes read.
        bytes: u64,
    },
    /// Delete the file.
    Delete {
        /// Trace-local file id.
        file: u64,
    },
}

/// Generates file-access traces with short-lived files and skewed reads.
pub struct TraceWorkload {
    rng: StdRng,
    /// Fraction of created files deleted shortly after writing (the paper
    /// quotes >50% within 5 minutes).
    pub short_lived_fraction: f64,
}

impl TraceWorkload {
    /// A seeded generator with the Ousterhout-calibrated deletion mix.
    #[must_use]
    pub fn new(seed: u64) -> TraceWorkload {
        TraceWorkload {
            rng: StdRng::seed_from_u64(seed),
            short_lived_fraction: 0.55,
        }
    }

    /// Generates a trace of roughly `files` file lifetimes. Reads are
    /// skewed towards recently written files (what makes small RAM caches
    /// effective, §4.1).
    pub fn trace(&mut self, files: u64) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        let mut live: Vec<u64> = Vec::new();
        for f in 0..files {
            out.push(TraceEvent::Create { file: f });
            let writes = self.rng.gen_range(1..=4);
            for _ in 0..writes {
                out.push(TraceEvent::Write {
                    file: f,
                    bytes: self.rng.gen_range(256..=8192),
                });
            }
            // Rereads concentrate on the newest files.
            for _ in 0..self.rng.gen_range(0..4) {
                let pick = if live.is_empty() || self.rng.gen_bool(0.7) {
                    f
                } else {
                    live[self.rng.gen_range(0..live.len().min(8))]
                };
                out.push(TraceEvent::Read {
                    file: pick,
                    bytes: self.rng.gen_range(256..=4096),
                });
            }
            if self.rng.gen_bool(self.short_lived_fraction) {
                out.push(TraceEvent::Delete { file: f });
            } else {
                live.insert(0, f);
                live.truncate(64);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn login_workload_hits_calibration() {
        let mut w = LoginWorkload::paper_calibrated(1);
        let events = w.events(2000);
        assert_eq!(events.len(), 2000);
        let avg: f64 =
            events.iter().map(|(_, p)| p.len() as f64).sum::<f64>() / events.len() as f64;
        // c ≈ 1/15 of a 1 KiB block ⇒ entries around 64–72 bytes with
        // headers; the payload mean should sit near 64.
        assert!((56.0..=72.0).contains(&avg), "avg = {avg}");
        // All configured users appear.
        let users: std::collections::BTreeSet<_> = events.iter().map(|(u, _)| *u).collect();
        assert_eq!(users.len(), w.n_users);
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let a = LoginWorkload::paper_calibrated(7).events(50);
        let b = LoginWorkload::paper_calibrated(7).events(50);
        let c = LoginWorkload::paper_calibrated(8).events(50);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn txn_workload_shapes() {
        let txns = TxnWorkload::new(3, 5, 60).transactions(10);
        assert_eq!(txns.len(), 10);
        assert!(txns.iter().all(|t| t.updates.len() == 5));
        assert!(txns.iter().all(|t| t.commit.ends_with(b"COMMIT")));
    }

    #[test]
    fn trace_deletion_mix() {
        let trace = TraceWorkload::new(5).trace(500);
        let creates = trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::Create { .. }))
            .count();
        let deletes = trace
            .iter()
            .filter(|e| matches!(e, TraceEvent::Delete { .. }))
            .count();
        assert_eq!(creates, 500);
        let frac = deletes as f64 / creates as f64;
        // >50% of files die young (§4.1).
        assert!((0.45..=0.7).contains(&frac), "deleted fraction = {frac}");
    }

    #[test]
    fn mail_sizes_have_a_tail() {
        let mut w = MailWorkload::new(9, 4);
        let d = w.deliveries(300);
        let max = d.iter().map(|(_, _, b)| b.len()).max().unwrap();
        let min = d.iter().map(|(_, _, b)| b.len()).min().unwrap();
        assert!(max > 10 * min, "min={min} max={max}");
        assert!(d.iter().all(|(to, _, _)| *to < 4));
    }
}
