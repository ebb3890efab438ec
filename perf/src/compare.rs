//! `compare a.json b.json`: does set `b` agree with set `a` within the
//! bounds `BENCHMARK.json` fixes?
//!
//! Per workload and end-to-end metric, `b`'s median may be worse than `a`'s
//! by at most the metric's bound (direction-aware). A breach is a
//! *regression* only if even `b`'s best repetition against `a`'s worst is
//! outside the bound; if the two sets' min–max ranges straddle the bound
//! the verdict is *unresolved*. Counts that must repeat exactly (the trace
//! hash, ops failed, and `write_amp` on single-client workloads) are
//! compared exactly.

use crate::json::Json;

/// One end-to-end metric's rule, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// Reads the `end_to_end` rules out of a parsed `BENCHMARK.json`.
pub fn rules(bench: &Json) -> Result<Vec<Rule>, String> {
    let list = bench
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better @ ("higher" | "lower")), Some(bound)) => Ok(Rule {
                    name: name.to_string(),
                    higher_is_better: better == "higher",
                    bound,
                }),
                _ => Err(format!("BENCHMARK.json: malformed end_to_end entry {m:?}")),
            }
        })
        .collect()
}

/// How one metric on one workload compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Unresolved,
    Regression,
}

/// By how much `new` is worse than `old`, as a share of `old` (negative
/// when it is better).
fn worse_by(rule: &Rule, old: f64, new: f64) -> f64 {
    if old == 0.0 {
        return if new == old { 0.0 } else { f64::INFINITY };
    }
    if rule.higher_is_better {
        (old - new) / old
    } else {
        (new - old) / old
    }
}

/// `(median, min, max)` of a metric in a result file.
type Reading = (f64, f64, f64);

/// The verdict for one metric: medians first, then the ranges.
pub fn judge(rule: &Rule, a: Reading, b: Reading) -> Verdict {
    if worse_by(rule, a.0, b.0) <= rule.bound {
        return Verdict::Ok;
    }
    // The pairing most favourable to `b`: its best repetition against
    // `a`'s worst.
    let (a_worst, b_best) = if rule.higher_is_better {
        (a.1, b.2)
    } else {
        (a.2, b.1)
    };
    if worse_by(rule, a_worst, b_best) <= rule.bound {
        Verdict::Unresolved
    } else {
        Verdict::Regression
    }
}

fn reading(workload: &Json, metric: &str) -> Option<Reading> {
    let m = workload.get("metrics")?.get(metric)?;
    Some((
        m.get("value")?.as_f64()?,
        m.get("min")?.as_f64()?,
        m.get("max")?.as_f64()?,
    ))
}

/// Compares two result files; returns the printed lines and whether the
/// sets agree.
pub fn compare(bench: &Json, a: &Json, b: &Json) -> Result<(Vec<String>, bool), String> {
    let rules = rules(bench)?;
    let workloads = |set: &Json| -> Result<Vec<(String, Json)>, String> {
        Ok(set
            .get("workloads")
            .and_then(Json::as_obj)
            .ok_or("result file: no workloads object")?
            .to_vec())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut lines = Vec::new();
    let mut agree = true;
    for (name, old) in &wa {
        let Some((_, new)) = wb.iter().find(|(n, _)| n == name) else {
            lines.push(format!("{name}: missing from the second set"));
            agree = false;
            continue;
        };
        for key in ["trace_hash", "failed", "lost_acked", "read_mismatch"] {
            if old.get(key) != new.get(key) {
                lines.push(format!(
                    "{name:<16} {key:<16} DIFFERS  {:?} vs {:?} (must repeat exactly)",
                    old.get(key),
                    new.get(key)
                ));
                agree = false;
            }
        }
        let single_client = old.get("clients").and_then(Json::as_f64) == Some(1.0);
        for rule in &rules {
            let (Some(ra), Some(rb)) = (reading(old, &rule.name), reading(new, &rule.name)) else {
                lines.push(format!("{name:<16} {:<16} MISSING", rule.name));
                agree = false;
                continue;
            };
            let exact = single_client && rule.name == "write_amp";
            let verdict = if exact {
                if ra.0 == rb.0 {
                    Verdict::Ok
                } else {
                    Verdict::Regression
                }
            } else {
                judge(rule, ra, rb)
            };
            agree &= verdict == Verdict::Ok;
            lines.push(format!(
                "{name:<16} {:<16} {:<10} {:>14.4} -> {:>14.4}  ({:+.2}% worse, bound {}{:.0}%)",
                rule.name,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "UNRESOLVED",
                    Verdict::Regression => "REGRESSION",
                },
                ra.0,
                rb.0,
                100.0 * worse_by(rule, ra.0, rb.0),
                if exact { "exact, not " } else { "" },
                100.0 * rule.bound,
            ));
        }
    }
    Ok((lines, agree))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn rule(higher: bool, bound: f64) -> Rule {
        Rule {
            name: "m".into(),
            higher_is_better: higher,
            bound,
        }
    }

    #[test]
    fn direction_aware_bounds() {
        // Lower is better, 10 %: 100 -> 109 ok, 100 -> 111 not.
        let lower = rule(false, 0.10);
        assert_eq!(
            judge(&lower, (100.0, 100.0, 100.0), (109.0, 109.0, 109.0)),
            Verdict::Ok
        );
        assert_eq!(
            judge(&lower, (100.0, 100.0, 100.0), (111.0, 111.0, 111.0)),
            Verdict::Regression
        );
        // Getting better is never a breach, however far.
        assert_eq!(
            judge(&lower, (100.0, 100.0, 100.0), (10.0, 10.0, 10.0)),
            Verdict::Ok
        );
        // Higher is better: 100 -> 91 ok, 100 -> 89 not.
        let higher = rule(true, 0.10);
        assert_eq!(
            judge(&higher, (100.0, 100.0, 100.0), (91.0, 91.0, 91.0)),
            Verdict::Ok
        );
        assert_eq!(
            judge(&higher, (100.0, 100.0, 100.0), (89.0, 89.0, 89.0)),
            Verdict::Regression
        );
    }

    #[test]
    fn ranges_that_straddle_the_bound_are_unresolved() {
        let lower = rule(false, 0.10);
        // Medians 100 -> 115 breach, but b's best (104) is within 10 % of
        // a's worst (110).
        assert_eq!(
            judge(&lower, (100.0, 95.0, 110.0), (115.0, 104.0, 130.0)),
            Verdict::Unresolved
        );
        // Even the kindest pairing breaches.
        assert_eq!(
            judge(&lower, (100.0, 99.0, 101.0), (130.0, 125.0, 140.0)),
            Verdict::Regression
        );
        let higher = rule(true, 0.10);
        assert_eq!(
            judge(&higher, (100.0, 90.0, 105.0), (85.0, 80.0, 88.0)),
            Verdict::Unresolved
        );
    }

    fn set(value: f64, write_amp: f64, hash: &str) -> Json {
        parse(&format!(
            r#"{{"workloads":{{"w":{{"clients":1,"trace_hash":"{hash}","failed":0,
            "lost_acked":0,"read_mismatch":0,"metrics":{{
            "lat":{{"value":{value},"min":{value},"max":{value}}},
            "write_amp":{{"value":{write_amp},"min":{write_amp},"max":{write_amp}}}}}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn whole_files_compare_with_exact_counts() {
        let bench = parse(
            r#"{"end_to_end":[{"name":"lat","unit":"us","better":"lower","bound":0.1},
            {"name":"write_amp","unit":"ratio","better":"lower","bound":0.02}]}"#,
        )
        .unwrap();
        let (lines, agree) =
            compare(&bench, &set(10.0, 1.25, "aa"), &set(10.5, 1.25, "aa")).unwrap();
        assert!(agree, "{lines:?}");
        // Within its 2 % bound, but a single-client count must be exact.
        let (lines, agree) =
            compare(&bench, &set(10.0, 1.25, "aa"), &set(10.0, 1.26, "aa")).unwrap();
        assert!(!agree);
        assert!(lines
            .iter()
            .any(|l| l.contains("write_amp") && l.contains("REGRESSION")));
        // A different trace hash means different inputs.
        let (lines, agree) =
            compare(&bench, &set(10.0, 1.25, "aa"), &set(10.0, 1.25, "bb")).unwrap();
        assert!(!agree);
        assert!(lines.iter().any(|l| l.contains("trace_hash")));
        let (_, agree) = compare(&bench, &set(10.0, 1.25, "aa"), &set(12.0, 1.25, "aa")).unwrap();
        assert!(!agree);
        assert!(rules(&parse("{}").unwrap()).is_err());
    }
}
