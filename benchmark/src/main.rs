//! The repo benchmark. One invocation runs one named workload for a fixed
//! run length, checks every answer, and prints every metric by name with
//! its unit; the last stdout line is the result object the pipeline reads:
//!
//! ```text
//! scrack_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! scrack_benchmark list
//! scrack_benchmark runset   [--runs 10] [--seconds S] --out FILE
//! scrack_benchmark compare  A.json B.json
//! scrack_benchmark selfcheck [--runs 10] [--seconds S]
//! ```
//!
//! See `README.md` beside this package for what is measured and why.

mod compare;
mod inputs;
mod json;
mod manifest;
mod model;
mod probe;
mod quant;
mod run;
mod sut;
mod trace;

use json::Json;
use manifest::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Where traces and run sets go: `out/` beside this package's manifest,
/// which is inside the checkout the binary was built in.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The manifest's `run_seconds`, the default run length everywhere.
fn default_seconds() -> u64 {
    Json::parse(manifest::MANIFEST)
        .ok()
        .and_then(|doc| doc.get("run_seconds").and_then(Json::as_f64))
        .map_or(20, |s| s as u64)
}

/// `--flag value` pairs after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} {v:?} is not a whole number")),
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(n, _)| !allowed.contains(&n.as_str())) {
            Some((n, _)) => Err(format!("unknown flag --{n}")),
            None => Ok(()),
        }
    }
}

/// The pipeline's result object for one run.
fn result_line(report: &run::RunReport, defs: &[MetricDef]) -> String {
    let metrics = report
        .metrics
        .iter()
        .zip(defs)
        .map(|((name, value), (def_name, unit))| {
            assert_eq!(name, def_name, "metrics are in manifest order");
            (
                *name,
                Json::obj([
                    ("value", Json::Num(*value)),
                    ("unit", Json::Str(unit.to_string())),
                ]),
            )
        });
    Json::obj([
        ("correct", Json::Bool(report.failed == 0)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .encode()
}

fn run_workload(flags: &Flags) -> Result<ExitCode, String> {
    flags.only(&["workload", "seed", "seconds", "trace"])?;
    let name = flags.get("workload").ok_or("--workload is required")?;
    let workload = manifest::workload(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let seed = flags.number("seed", 1)?;
    let seconds = flags.number("seconds", default_seconds())? as f64;
    let (report, defs): (_, &[MetricDef]) = match flags.get("trace").unwrap_or("0") {
        "0" => (run::judged(workload, seed, seconds), &END_TO_END),
        "1" => {
            std::fs::create_dir_all(out_dir())
                .map_err(|e| format!("{}: {e}", out_dir().display()))?;
            let path = out_dir().join(format!("trace-{name}.jsonl"));
            (run::traced(workload, seed, seconds, &path), &PER_LAYER)
        }
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    for note in &report.notes {
        println!("{note}");
    }
    for ((name, value), (_, unit)) in report.metrics.iter().zip(defs) {
        println!("{name} = {value} {unit}");
    }
    println!("attempted {} failed {}", report.attempted, report.failed);
    println!("{}", result_line(&report, defs));
    Ok(ExitCode::SUCCESS)
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let pass = |ok: bool| {
        if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    };
    match args.first().map(String::as_str) {
        Some("list") => {
            for w in &WORKLOADS {
                println!("workload {}", w.name);
            }
            for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
                println!("metric {name} {unit}");
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => match &args[1..] {
            [a, b] => Ok(pass(compare::compare_files(Path::new(a), Path::new(b))?)),
            _ => Err("usage: compare A.json B.json".into()),
        },
        Some("runset") => {
            let flags = Flags::parse(&args[1..])?;
            flags.only(&["runs", "seconds", "out"])?;
            let out = flags.get("out").ok_or("runset needs --out FILE")?;
            compare::runset(
                flags.number("runs", 10)?,
                flags.number("seconds", default_seconds())?,
                Path::new(out),
            )?;
            Ok(ExitCode::SUCCESS)
        }
        Some("selfcheck") => {
            let flags = Flags::parse(&args[1..])?;
            flags.only(&["runs", "seconds"])?;
            Ok(pass(compare::selfcheck(
                flags.number("runs", 10)?,
                flags.number("seconds", default_seconds())?,
                &out_dir(),
            )?))
        }
        _ => run_workload(&Flags::parse(args)?),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("scrack_benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_and_reject() {
        let f = Flags::parse(&strings(&["--workload", "seq_cold", "--seed", "7"])).unwrap();
        assert_eq!(f.get("workload"), Some("seq_cold"));
        assert_eq!(f.number("seed", 1), Ok(7));
        assert_eq!(f.number("seconds", 20), Ok(20));
        assert!(f.only(&["workload"]).is_err());
        assert!(Flags::parse(&strings(&["--seed"])).is_err());
        assert!(Flags::parse(&strings(&["seed", "1"])).is_err());
        assert!(Flags::parse(&strings(&["--seed", "x"]))
            .unwrap()
            .number("seed", 1)
            .is_err());
        assert!(run_workload(&Flags::parse(&strings(&["--workload", "nope"])).unwrap()).is_err());
        assert!(run_workload(&Flags(Vec::new())).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = run::RunReport {
            attempted: 50_000,
            failed: 0,
            metrics: END_TO_END.iter().map(|(n, _)| (*n, 1.25)).collect(),
            notes: Vec::new(),
        };
        let line = result_line(&report, &END_TO_END);
        let doc = Json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert!(
            line.contains("\"attempted\":50000,"),
            "whole numbers stay whole: {line}"
        );
        let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        for ((name, m), (def, unit)) in metrics.iter().zip(&END_TO_END) {
            assert_eq!(name, def);
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
            assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.25));
        }
        let bad = run::RunReport {
            failed: 3,
            ..report
        };
        assert!(result_line(&bad, &END_TO_END).starts_with("{\"correct\":false,"));
    }

    #[test]
    fn default_run_length_comes_from_the_manifest() {
        assert!((1..=60).contains(&default_seconds()));
    }
}
