//! The shared reporter scaffolding: one JSON schema, one CLI shape.
//!
//! Every `scrack_*` reporter binary answers the same kind of question —
//! *sweep a grid of cells, measure each, gate CI on the invariants* —
//! and before this module each grew its own hand-rolled JSON writer and
//! flag parser. This module extracts the common 80%:
//!
//! * [`TrajectoryDoc`] — a builder for the unified
//!   **`scrack-trajectory/v1`** document (see `docs/TRAJECTORY.md`):
//!   an envelope of `report` name, scalar `params`, named sweep `axes`,
//!   and one flat object per `cells` entry. The builder guarantees balanced brackets, no trailing commas, and
//!   fixed float precision, so the shape tests every reporter carries
//!   reduce to "did you put the right keys in".
//! * [`CommonCli`] — the `--smoke --check --json PATH` triple every
//!   reporter supports, extracted from the raw argument list so each
//!   binary parses only its own flags.
//! * [`median`] / [`percentile`] — the nearest-rank order statistics the
//!   timing harnesses share.
//!
//! The throughput, robustness, and txn reporters all emit
//! `scrack-trajectory/v1`.

use std::fmt::Write as _;

/// The unified reporter schema identifier.
pub const TRAJECTORY_SCHEMA: &str = "scrack-trajectory/v1";

/// A JSON value with deterministic, diff-stable rendering.
///
/// Floats carry an explicit decimal precision ([`Json::fixed`]) so a
/// regenerated baseline diffs only where a number actually moved.
#[derive(Clone, Debug)]
pub enum Json {
    /// `null` (absent measurements, e.g. a missing baseline ratio).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A float rendered with a fixed number of decimal places.
    Fixed(f64, usize),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A float with `places` decimal places.
    pub fn fixed(v: f64, places: usize) -> Json {
        Json::Fixed(v, places)
    }

    /// A string value.
    pub fn str(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// `Some` → the value, `None` → `null`.
    pub fn opt(v: Option<Json>) -> Json {
        v.unwrap_or(Json::Null)
    }

    fn render(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Fixed(v, places) => {
                if v.is_finite() {
                    let _ = write!(out, "{v:.places$}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.render(out);
                }
                out.push(']');
            }
            Json::Obj(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    let _ = write!(out, "\"{k}\": ");
                    v.render(out);
                }
                out.push('}');
            }
        }
    }
}

/// An ordered `key: value` list that renders as a JSON object; the unit
/// every cell and param block is built from.
pub fn obj(entries: Vec<(&str, Json)>) -> Json {
    Json::Obj(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Builder for a `scrack-trajectory/v1` document.
#[derive(Clone, Debug)]
pub struct TrajectoryDoc {
    report: String,
    params: Vec<(String, Json)>,
    axes: Vec<(String, Json)>,
    cells: Vec<Json>,
}

impl TrajectoryDoc {
    /// A new document for the named report family
    /// (`"throughput"`, `"robustness"`, `"txn"`).
    pub fn new(report: impl Into<String>) -> Self {
        Self {
            report: report.into(),
            params: Vec::new(),
            axes: Vec::new(),
            cells: Vec::new(),
        }
    }

    /// Records one scalar configuration parameter.
    pub fn param(mut self, key: &str, value: Json) -> Self {
        self.params.push((key.to_string(), value));
        self
    }

    /// Records one sweep axis (the full set of values a cell dimension
    /// ranges over — coverage checks compare cells against these).
    pub fn axis(mut self, name: &str, values: Vec<Json>) -> Self {
        self.axes.push((name.to_string(), Json::Arr(values)));
        self
    }

    /// Appends one measured cell (a flat object).
    pub fn cell(&mut self, cell: Json) {
        self.cells.push(cell);
    }

    /// Renders the document. Top-level keys one per line, each cell on
    /// its own line — the layout the committed `BENCH_*.json`
    /// baselines use, so regenerations diff line-per-cell.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": \"{TRAJECTORY_SCHEMA}\",");
        let _ = writeln!(s, "  \"report\": \"{}\",", self.report);
        s.push_str("  \"params\": ");
        Json::Obj(self.params.clone()).render(&mut s);
        s.push_str(",\n  \"axes\": ");
        Json::Obj(self.axes.clone()).render(&mut s);
        s.push_str(",\n  \"cells\": [");
        for (i, cell) in self.cells.iter().enumerate() {
            s.push_str(if i > 0 { ",\n    " } else { "\n    " });
            cell.render(&mut s);
        }
        s.push_str("\n  ]\n}\n");
        s
    }
}

/// The CLI flags every reporter binary shares.
#[derive(Clone, Debug, Default)]
pub struct CommonCli {
    /// `--smoke`: run at CI scale (seconds, not minutes).
    pub smoke: bool,
    /// `--check`: gate on the report's invariants, exit nonzero on any
    /// violation.
    pub check: bool,
    /// `--json PATH`: also write the machine-readable document.
    pub json: Option<String>,
}

impl CommonCli {
    /// Extracts `--smoke`, `--check`, and `--json PATH` from `args`,
    /// removing them; reporter-specific flags remain for the caller.
    pub fn extract(args: &mut Vec<String>) -> CommonCli {
        let mut cli = CommonCli::default();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--smoke" => {
                    cli.smoke = true;
                    args.remove(i);
                }
                "--check" => {
                    cli.check = true;
                    args.remove(i);
                }
                "--json" => {
                    args.remove(i);
                    if i >= args.len() {
                        eprintln!("--json requires a value (try --help)");
                        std::process::exit(2);
                    }
                    cli.json = Some(args.remove(i));
                }
                _ => i += 1,
            }
        }
        cli
    }

    /// Writes the JSON document if `--json PATH` was given; reports the
    /// path on `out`.
    pub fn write_json(&self, doc: &str, out: &mut impl std::io::Write) {
        if let Some(path) = &self.json {
            std::fs::write(path, doc).expect("write JSON report");
            let _ = writeln!(out, "wrote {path}");
        }
    }
}

/// Exits 1 with the failure list if any check failed; prints `pass_msg`
/// otherwise. The shared tail of every `--check` gate.
pub fn finish_check(kind: &str, failures: &[String], pass_msg: &str) {
    if !failures.is_empty() {
        eprintln!("{kind} check FAILED ({} violations):", failures.len());
        for f in failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
    println!("{pass_msg}");
}

/// The median of `xs` (averaging the middle pair for even lengths).
///
/// # Panics
/// On an empty slice or non-finite values.
pub fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty());
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let m = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[m]
    } else {
        (xs[m - 1] + xs[m]) / 2.0
    }
}

/// The `p`-th percentile (nearest-rank) of `xs`, sorting in place.
///
/// # Panics
/// On an empty slice or non-finite values.
pub fn percentile(xs: &mut [f64], p: f64) -> f64 {
    assert!(!xs.is_empty());
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let rank = ((p / 100.0) * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> TrajectoryDoc {
        let mut doc = TrajectoryDoc::new("sample")
            .param("n", Json::UInt(1000))
            .param("label", Json::str("a \"quoted\" name"))
            .axis("workloads", vec![Json::str("random"), Json::str("skew")]);
        doc.cell(obj(vec![
            ("workload", Json::str("random")),
            ("cost", Json::fixed(1.23456, 3)),
            ("ratio", Json::Null),
        ]));
        doc.cell(obj(vec![
            ("workload", Json::str("skew")),
            ("cost", Json::fixed(2.0, 3)),
            ("ratio", Json::fixed(0.5, 2)),
        ]));
        doc
    }

    #[test]
    fn document_is_balanced_without_trailing_commas() {
        let json = sample_doc().to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains(",\n  ]"), "trailing comma before ]");
        assert!(!json.contains(",]") && !json.contains(",}"), "{json}");
        assert!(json.contains("\"schema\": \"scrack-trajectory/v1\""));
        assert!(json.contains("\"report\": \"sample\""));
        assert!(json.contains("\"cost\": 1.235"), "fixed precision rounds");
        assert!(json.contains("\"ratio\": null"));
        assert!(json.contains("a \\\"quoted\\\" name"), "strings escaped");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut s = String::new();
        Json::fixed(f64::NAN, 2).render(&mut s);
        assert_eq!(s, "null");
    }

    #[test]
    fn common_cli_extracts_only_shared_flags() {
        let mut args: Vec<String> = ["--n", "500", "--smoke", "--json", "out.json", "--check"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let cli = CommonCli::extract(&mut args);
        assert!(cli.smoke && cli.check);
        assert_eq!(cli.json.as_deref(), Some("out.json"));
        assert_eq!(args, vec!["--n".to_string(), "500".to_string()]);
    }

    #[test]
    fn order_statistics_are_nearest_rank() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut xs, 50.0), 50.0);
        assert_eq!(percentile(&mut xs, 99.0), 99.0);
        assert_eq!(percentile(&mut xs, 99.9), 100.0);
        assert_eq!(percentile(&mut [7.0], 99.9), 7.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
