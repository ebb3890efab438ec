//! Regression diffing for `BENCH_<name>.json` reports.
//!
//! [`diff`] compares two reports produced by [`crate::report::Report`]:
//! every numeric scalar and every numeric table cell present in both is
//! compared as a relative change, and changes past a threshold in the
//! bad direction are reported as regressions. The `bench_diff` binary
//! wraps this for CI: `bench_diff OLD.json NEW.json [--threshold=20]
//! [--direction=up]`, exiting nonzero when regressions are found.
//!
//! "Bad direction" is a property of the metric family, not of the tool —
//! a latency going up and a throughput going down are both regressions —
//! so the direction is a flag: `up` (default; bigger is worse), `down`
//! (smaller is worse), or `both` (any drift past the threshold).

use crate::report::Report;
use clio_obs::json::Value;

/// Which direction of change counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// An increase past the threshold regresses (latencies, costs).
    Up,
    /// A decrease past the threshold regresses (throughputs, ratios).
    Down,
    /// Any change past the threshold regresses.
    Both,
}

impl Direction {
    /// Parses a `--direction=` value.
    #[must_use]
    pub fn parse(s: &str) -> Option<Direction> {
        match s {
            "up" => Some(Direction::Up),
            "down" => Some(Direction::Down),
            "both" => Some(Direction::Both),
            _ => None,
        }
    }
}

/// Comparison tunables.
#[derive(Debug, Clone)]
pub struct DiffOptions {
    /// Relative change (percent) past which a bad-direction move is a
    /// regression.
    pub threshold_pct: f64,
    /// Which direction of change is bad.
    pub direction: Direction,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions {
            threshold_pct: 20.0,
            direction: Direction::Up,
        }
    }
}

/// One value that moved past the threshold in the bad direction.
#[derive(Debug, Clone)]
pub struct Regression {
    /// Where the value lives, e.g. `scalars.p99_us` or
    /// `tables.rows[3].cost`.
    pub key: String,
    /// The old (baseline) value.
    pub old: f64,
    /// The new value.
    pub new: f64,
    /// Relative change, percent (positive = increase).
    pub change_pct: f64,
}

/// The outcome of one report comparison.
#[derive(Debug, Clone, Default)]
pub struct DiffOutcome {
    /// Numeric values compared in both reports.
    pub compared: usize,
    /// Keys present in only one report, or non-numeric in either.
    pub skipped: Vec<String>,
    /// Values that regressed.
    pub regressions: Vec<Regression>,
}

/// Compares two reports (as parsed JSON documents).
#[must_use]
pub fn diff(old: &Value, new: &Value, opts: &DiffOptions) -> DiffOutcome {
    let mut out = DiffOutcome::default();
    diff_scalars(old, new, opts, &mut out);
    diff_tables(old, new, opts, &mut out);
    out
}

/// Renders an outcome as the text `bench_diff` prints.
#[must_use]
pub fn render(outcome: &DiffOutcome, opts: &DiffOptions) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "compared {} value(s), threshold {}%, direction {:?}",
        outcome.compared, opts.threshold_pct, opts.direction
    );
    for k in &outcome.skipped {
        let _ = writeln!(s, "  skipped: {k}");
    }
    if outcome.regressions.is_empty() {
        let _ = writeln!(s, "no regressions");
    } else {
        for r in &outcome.regressions {
            let _ = writeln!(
                s,
                "REGRESSION {}: {} -> {} ({:+.1}%)",
                r.key, r.old, r.new, r.change_pct
            );
        }
    }
    s
}

fn diff_scalars(old: &Value, new: &Value, opts: &DiffOptions, out: &mut DiffOutcome) {
    let (Some(Value::Obj(old_s)), Some(Value::Obj(new_s))) =
        (old.get("scalars"), new.get("scalars"))
    else {
        out.skipped.push("scalars (absent)".to_owned());
        return;
    };
    for (k, ov) in old_s {
        let key = format!("scalars.{k}");
        let Some(nv) = new_s.iter().find(|(nk, _)| nk == k).map(|(_, v)| v) else {
            out.skipped.push(format!("{key} (missing in new)"));
            continue;
        };
        compare(&key, numeric(ov), numeric(nv), opts, out);
    }
    for (k, _) in new_s {
        if !old_s.iter().any(|(ok, _)| ok == k) {
            out.skipped.push(format!("scalars.{k} (missing in old)"));
        }
    }
}

fn diff_tables(old: &Value, new: &Value, opts: &DiffOptions, out: &mut DiffOutcome) {
    let (Some(Value::Obj(old_t)), Some(Value::Obj(new_t))) = (old.get("tables"), new.get("tables"))
    else {
        return;
    };
    for (name, ot) in old_t {
        let Some(nt) = new_t.iter().find(|(nk, _)| nk == name).map(|(_, v)| v) else {
            out.skipped.push(format!("tables.{name} (missing in new)"));
            continue;
        };
        let (Some(orows), Some(nrows)) = (
            ot.get("rows").and_then(Value::as_arr),
            nt.get("rows").and_then(Value::as_arr),
        ) else {
            continue;
        };
        if orows.len() != nrows.len() {
            out.skipped.push(format!(
                "tables.{name} (row count {} vs {})",
                orows.len(),
                nrows.len()
            ));
            continue;
        }
        for (i, (orow, nrow)) in orows.iter().zip(nrows.iter()).enumerate() {
            let Value::Obj(ocells) = orow else { continue };
            for (col, ov) in ocells {
                let key = format!("tables.{name}[{i}].{col}");
                let Some(nv) = nrow.get(col) else {
                    out.skipped.push(format!("{key} (missing in new)"));
                    continue;
                };
                compare(&key, numeric(ov), numeric(nv), opts, out);
            }
        }
    }
}

fn compare(
    key: &str,
    old: Option<f64>,
    new: Option<f64>,
    opts: &DiffOptions,
    out: &mut DiffOutcome,
) {
    let (Some(o), Some(n)) = (old, new) else {
        // Non-numeric on either side (labels, modes): not comparable,
        // and not worth a skip line each — only note numeric/text
        // mismatches, where one side changed representation.
        if old.is_some() != new.is_some() {
            out.skipped
                .push(format!("{key} (numeric in one side only)"));
        }
        return;
    };
    out.compared += 1;
    let change_pct = if o == 0.0 {
        if n == 0.0 {
            0.0
        } else if n > 0.0 {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        }
    } else {
        (n - o) / o.abs() * 100.0
    };
    let bad = match opts.direction {
        Direction::Up => change_pct > opts.threshold_pct,
        Direction::Down => change_pct < -opts.threshold_pct,
        Direction::Both => change_pct.abs() > opts.threshold_pct,
    };
    if bad {
        out.regressions.push(Regression {
            key: key.to_owned(),
            old: o,
            new: n,
            change_pct,
        });
    }
}

/// The numeric reading of a report value: ints and floats directly;
/// strings when they parse wholly as a number (table cells keep their
/// printed formatting, e.g. `"1.50"`).
fn numeric(v: &Value) -> Option<f64> {
    match v {
        Value::Int(n) => {
            #[allow(clippy::cast_precision_loss)] // report values are small
            Some(*n as f64)
        }
        Value::Float(f) => Some(*f),
        Value::Str(s) => s.trim().parse::<f64>().ok(),
        _ => None,
    }
}

/// Self-comparison of a live [`Report`] — handy as a CI sanity check
/// (`bench_diff X X` must always pass).
#[must_use]
pub fn self_diff(report: &Report, opts: &DiffOptions) -> DiffOutcome {
    let v = report.to_json();
    diff(&v, &v, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(ratio: &str, p99: i64) -> Value {
        clio_obs::json::parse(&format!(
            r#"{{
              "bench": "demo",
              "scalars": {{ "p99_us": {p99}, "label": "x" }},
              "tables": {{
                "rows": {{
                  "header": ["mode", "ratio"],
                  "rows": [
                    {{ "mode": "group", "ratio": "{ratio}" }}
                  ]
                }}
              }},
              "notes": []
            }}"#
        ))
        .expect("test report parses")
    }

    #[test]
    fn identical_reports_have_no_regressions() {
        let v = report("1.50", 100);
        let out = diff(&v, &v, &DiffOptions::default());
        assert!(out.regressions.is_empty(), "{out:?}");
        // p99_us scalar + ratio cell; "label" and "mode" are text.
        assert_eq!(out.compared, 2);
    }

    #[test]
    fn upward_latency_past_threshold_regresses() {
        let old = report("1.50", 100);
        let new = report("1.50", 130);
        let out = diff(&old, &new, &DiffOptions::default());
        assert_eq!(out.regressions.len(), 1);
        let r = &out.regressions[0];
        assert_eq!(r.key, "scalars.p99_us");
        assert!((r.change_pct - 30.0).abs() < 1e-9);
        // Within threshold: fine.
        let ok = diff(&old, &report("1.50", 115), &DiffOptions::default());
        assert!(ok.regressions.is_empty());
    }

    #[test]
    fn direction_down_guards_ratios() {
        let old = report("2.00", 100);
        let new = report("1.00", 100);
        let opts = DiffOptions {
            direction: Direction::Down,
            ..DiffOptions::default()
        };
        let out = diff(&old, &new, &opts);
        assert_eq!(out.regressions.len(), 1);
        assert_eq!(out.regressions[0].key, "tables.rows[0].ratio");
        // The same drop is invisible to direction=up.
        let up = diff(&old, &new, &DiffOptions::default());
        assert!(up.regressions.is_empty());
    }

    #[test]
    fn missing_and_mismatched_keys_are_skipped_not_fatal() {
        let old = clio_obs::json::parse(
            r#"{"scalars": {"gone": 1, "stays": 2}, "tables": {}, "notes": []}"#,
        )
        .expect("parse");
        let new = clio_obs::json::parse(
            r#"{"scalars": {"stays": 2, "fresh": 3}, "tables": {}, "notes": []}"#,
        )
        .expect("parse");
        let out = diff(&old, &new, &DiffOptions::default());
        assert_eq!(out.compared, 1);
        assert!(out.skipped.iter().any(|s| s.contains("gone")));
        assert!(out.skipped.iter().any(|s| s.contains("fresh")));
        assert!(out.regressions.is_empty());
    }

    #[test]
    fn zero_baseline_growth_is_infinite_regression() {
        let old = report("1.50", 0);
        let new = report("1.50", 5);
        let out = diff(&old, &new, &DiffOptions::default());
        assert_eq!(out.regressions.len(), 1);
        assert!(out.regressions[0].change_pct.is_infinite());
    }

    #[test]
    fn self_diff_of_a_live_report_is_clean() {
        let mut r = Report::new("demo", "t", &[]);
        r.scalar("x", 5u64);
        r.table("t", &["a"], &[vec!["1.0".into()]]);
        let out = self_diff(&r, &DiffOptions::default());
        assert!(out.regressions.is_empty());
        assert_eq!(out.compared, 2);
    }
}
