//! Machine-readable harness output (`--json`).
//!
//! Every bench binary prints its human-readable tables as before; when
//! invoked with `--json` it *additionally* writes `BENCH_<name>.json` to
//! the current directory so results can be diffed, plotted, or checked in
//! CI without scraping the text tables. The file is a single JSON object:
//!
//! ```json
//! {
//!   "bench": "fig3_locate",
//!   "title": "…",
//!   "scalars": { "fanout": 16, … },
//!   "tables": { "rows": { "header": […], "rows": [{col: cell, …}, …] } },
//!   "notes": ["…"]
//! }
//! ```
//!
//! Table cells stay exactly the formatted strings the text renderer shows,
//! so the JSON is a faithful record of the printed run, not a second
//! computation that could drift.

use std::io::{self, Write};

use clio_obs::json::Value;

/// Collects one binary's results and emits them as `BENCH_<name>.json`
/// when `--json` was passed on the command line.
pub struct Report {
    name: String,
    title: String,
    scalars: Vec<(String, Value)>,
    tables: Vec<(String, Value)>,
    notes: Vec<Value>,
    json: bool,
}

impl Report {
    /// Creates a report for the harness `name`, run with the command-line
    /// arguments `args` (only `--json` matters here).
    #[must_use]
    pub fn new(name: &str, title: &str, args: &[String]) -> Report {
        let json = args.iter().any(|a| a == "--json");
        Report {
            name: name.to_owned(),
            title: title.to_owned(),
            scalars: Vec::new(),
            tables: Vec::new(),
            notes: Vec::new(),
            json,
        }
    }

    /// Whether `--json` was requested.
    #[must_use]
    pub fn json_enabled(&self) -> bool {
        self.json
    }

    /// Records a named scalar result.
    pub fn scalar(&mut self, key: &str, value: impl Into<Value>) {
        self.scalars.push((key.to_owned(), value.into()));
    }

    /// Records a table under `key`: the header verbatim, plus one object
    /// per row mapping each column name to its (formatted) cell.
    pub fn table(&mut self, key: &str, header: &[&str], rows: &[Vec<String>]) {
        let header_v = Value::Arr(header.iter().map(|h| Value::from(*h)).collect());
        let rows_v = Value::Arr(
            rows.iter()
                .map(|row| {
                    Value::Obj(
                        header
                            .iter()
                            .zip(row.iter())
                            .map(|(h, cell)| ((*h).to_owned(), Value::from(cell.clone())))
                            .collect(),
                    )
                })
                .collect(),
        );
        self.tables.push((
            key.to_owned(),
            Value::obj(vec![("header", header_v), ("rows", rows_v)]),
        ));
    }

    /// Records a free-form interpretation note.
    pub fn note(&mut self, text: &str) {
        self.notes.push(Value::from(text));
    }

    /// The report as a JSON value (regardless of the `--json` flag).
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("bench", Value::from(self.name.clone())),
            ("title", Value::from(self.title.clone())),
            ("scalars", Value::Obj(self.scalars.clone())),
            ("tables", Value::Obj(self.tables.clone())),
            ("notes", Value::Arr(self.notes.clone())),
        ])
    }

    /// Writes `BENCH_<name>.json` to the current directory and says so on
    /// `out` if `--json` was requested; a no-op otherwise. Panics if the
    /// file cannot be written — in a harness, silently losing the
    /// requested output is worse than dying.
    pub fn emit(&self, out: &mut impl Write) -> io::Result<()> {
        if !self.json {
            return Ok(());
        }
        let path = format!("BENCH_{}.json", self.name);
        let mut body = self.to_json().encode_pretty();
        body.push('\n');
        std::fs::write(&path, body).unwrap_or_else(|e| panic!("write {path}: {e}"));
        writeln!(out, "\n[--json] wrote {path}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_detection() {
        let on = Report::new("x", "t", &["--json".to_owned()]);
        assert!(on.json_enabled());
        let off = Report::new("x", "t", &[]);
        assert!(!off.json_enabled());
    }

    #[test]
    fn json_round_trips_through_the_decoder() {
        let mut r = Report::new("demo", "a demo", &["--json".to_owned()]);
        r.scalar("fanout", 16u64);
        r.scalar("ratio", 0.5f64);
        r.table(
            "rows",
            &["n", "cost"],
            &[
                vec!["4".into(), "2.00".into()],
                vec!["8".into(), "1.50".into()],
            ],
        );
        r.note("shape holds");
        let v = clio_obs::json::parse(&r.to_json().encode_pretty()).expect("own output parses");
        assert_eq!(v.get("bench").and_then(Value::as_str), Some("demo"));
        assert_eq!(
            v.get("scalars")
                .and_then(|s| s.get("fanout"))
                .and_then(Value::as_i64),
            Some(16)
        );
        let rows = v
            .get("tables")
            .and_then(|t| t.get("rows"))
            .and_then(|t| t.get("rows"))
            .and_then(Value::as_arr)
            .expect("rows array");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].get("cost").and_then(Value::as_str), Some("1.50"));
    }
}
