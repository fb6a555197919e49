//! Run sets: `runset` collects the result lines of several runs per
//! workload into one file, `compare` sets two such files side by side, and
//! `selfcheck` measures two sets of *this* build interleaved (A1 B1 A2 B2 …,
//! the way the pipeline pairs parent and change) and fails unless they agree
//! within every metric's own bound.

use crate::json::Json;
use crate::manifest::{judged_metrics, Judged, WORKLOADS};
use crate::quant::{median, quartiles, spread};
use std::path::Path;
use std::process::Command;

/// One run's end-to-end metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

/// Runs this executable once and parses its result line.
pub fn spawn_run(workload: &str, seed: u64, seconds: u64) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "run of {workload} seed {seed} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("run printed nothing")?;
    parse_result_line(workload, seed, line)
}

/// Reads a run's last stdout line.
pub fn parse_result_line(workload: &str, seed: u64, line: &str) -> Result<Run, String> {
    let doc = Json::parse(line)?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result line has no metrics")?
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(Json::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("metric {name} has no value"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Run {
        workload: workload.to_string(),
        seed,
        failed: doc
            .get("failed")
            .and_then(Json::as_f64)
            .ok_or("no failed count")? as u64,
        metrics,
    })
}

fn encode_set(runs: &[Run]) -> String {
    let runs = runs
        .iter()
        .map(|r| {
            Json::obj([
                ("workload", Json::Str(r.workload.clone())),
                ("seed", Json::Num(r.seed as f64)),
                ("failed", Json::Num(r.failed as f64)),
                (
                    "metrics",
                    Json::Obj(
                        r.metrics
                            .iter()
                            .map(|(n, v)| (n.clone(), Json::Num(*v)))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("host_cpus", Json::Num(crate::run::host_cpus() as f64)),
        ("runs", Json::Arr(runs)),
    ])
    .encode()
}

fn decode_set(text: &str) -> Result<Vec<Run>, String> {
    let doc = Json::parse(text)?;
    doc.get("runs")
        .and_then(Json::as_arr)
        .ok_or("run set has no runs")?
        .iter()
        .map(|r| {
            Ok(Run {
                workload: r
                    .get("workload")
                    .and_then(Json::as_str)
                    .ok_or("run lacks workload")?
                    .into(),
                seed: r
                    .get("seed")
                    .and_then(Json::as_f64)
                    .ok_or("run lacks seed")? as u64,
                failed: r
                    .get("failed")
                    .and_then(Json::as_f64)
                    .ok_or("run lacks failed")? as u64,
                metrics: r
                    .get("metrics")
                    .and_then(Json::as_obj)
                    .ok_or("run lacks metrics")?
                    .iter()
                    .map(|(n, v)| {
                        v.as_f64()
                            .map(|v| (n.clone(), v))
                            .ok_or("metric is not a number")
                    })
                    .collect::<Result<_, _>>()?,
            })
        })
        .collect()
}

fn write_set(path: &Path, runs: &[Run]) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, encode_set(runs) + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn read_set(path: &Path) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    decode_set(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Measures `sets` run sets of this build interleaved — for every seed
/// in `1..=runs` and every workload, one run per set back to back (A1 B1
/// A2 B2 …), the way the pipeline pairs parent and change.
fn measure(sets: usize, runs: u64, seconds: u64) -> Result<Vec<Vec<Run>>, String> {
    let mut out = vec![Vec::new(); sets];
    for seed in 1..=runs {
        for w in &WORKLOADS {
            eprintln!("measuring {} seed {seed} ({sets} set(s))", w.name);
            for set in &mut out {
                set.push(spawn_run(w.name, seed, seconds)?);
            }
        }
    }
    Ok(out)
}

/// `runset`: `runs` runs of every workload, seeds `1..=runs`.
pub fn runset(runs: u64, seconds: u64, out: &Path) -> Result<(), String> {
    write_set(out, &measure(1, runs, seconds)?[0])
}

fn values(set: &[Run], workload: &str, metric: &str) -> Vec<f64> {
    set.iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| r.metrics.iter().find(|(n, _)| n == metric).map(|(_, v)| *v))
        .collect()
}

/// The verdict on one workload × metric pairing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Within,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A set's own spread exceeds the bound: the comparison says nothing.
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

fn verdict(a: &[f64], b: &[f64], j: &Judged) -> Verdict {
    // setup_s is judged on its medians alone (the pipeline does the same).
    if j.name != "setup_s" && (spread(a) > j.bound || spread(b) > j.bound) {
        Verdict::Unresolved
    } else if worsening(median(a), median(b), j.higher_is_better) > j.bound {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

/// Prints one row per workload × metric; returns the rows per verdict.
pub fn compare_sets(a: &[Run], b: &[Run]) -> Vec<(String, String, Verdict)> {
    println!(
        "{:<14} {:<12} {:>14} {:>7} {:>14} {:>7} {:>22} {:>6}  verdict",
        "workload", "metric", "A median", "A iqr", "B median", "B iqr", "B/A (base A)", "bound"
    );
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        for j in judged_metrics() {
            let (va, vb) = (values(a, w.name, &j.name), values(b, w.name, &j.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let v = verdict(&va, &vb, &j);
            let (ma, mb) = (median(&va), median(&vb));
            println!(
                "{:<14} {:<12} {:>14.4} {:>6.1}% {:>14.4} {:>6.1}% {:>8.4} of {:>10.4} {:>5.0}%  {}",
                w.name,
                j.name,
                ma,
                spread(&va) * 100.0,
                mb,
                spread(&vb) * 100.0,
                mb / ma,
                ma,
                j.bound * 100.0,
                match v {
                    Verdict::Within => "within bound",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved",
                }
            );
            let (q1a, q3a) = quartiles(&va);
            let (q1b, q3b) = quartiles(&vb);
            println!(
                "{:<27} A quartiles {q1a:.4} .. {q3a:.4} ({} runs); B quartiles {q1b:.4} .. {q3b:.4} ({} runs)",
                "",
                va.len(),
                vb.len()
            );
            rows.push((w.name.to_string(), j.name, v));
        }
    }
    let failed: u64 = a.iter().chain(b).map(|r| r.failed).sum();
    println!("failed operations across both sets: {failed}");
    rows
}

/// `compare A.json B.json`: exit code 1 when B is worse somewhere.
pub fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let rows = compare_sets(&read_set(a)?, &read_set(b)?);
    Ok(rows.iter().all(|(_, _, v)| *v != Verdict::Worse))
}

/// `selfcheck`: two interleaved sets of this build; passes only when
/// every pairing is `Within` (an unresolved pairing fails too: its bound
/// is tighter than the benchmark can resolve).
pub fn selfcheck(runs: u64, seconds: u64, out_dir: &Path) -> Result<bool, String> {
    let sets = measure(2, runs, seconds)?;
    let (a, b) = (&sets[0], &sets[1]);
    write_set(&out_dir.join("selfcheck-A.json"), a)?;
    write_set(&out_dir.join("selfcheck-B.json"), b)?;
    let rows = compare_sets(a, b);
    let clean = a.iter().chain(b).all(|r| r.failed == 0);
    Ok(clean && rows.iter().all(|(_, _, v)| *v == Verdict::Within))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn judged(name: &str, higher: bool, bound: f64) -> Judged {
        Judged {
            name: name.into(),
            higher_is_better: higher,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        let slower = [112.0, 113.0, 111.0, 112.0, 112.5];
        let noisy = [60.0, 100.0, 140.0, 80.0, 120.0];
        let lat = judged("req_p99_us", false, 0.10);
        assert_eq!(verdict(&steady, &steady, &lat), Verdict::Within);
        assert_eq!(verdict(&steady, &slower, &lat), Verdict::Worse);
        assert_eq!(
            verdict(&slower, &steady, &lat),
            Verdict::Within,
            "faster is fine"
        );
        assert_eq!(verdict(&steady, &noisy, &lat), Verdict::Unresolved);
        let tput = judged("ops_per_s", true, 0.10);
        assert_eq!(
            verdict(&slower, &steady, &tput),
            Verdict::Worse,
            "lower throughput"
        );
        assert_eq!(verdict(&steady, &slower, &tput), Verdict::Within);
        let setup = judged("setup_s", false, 0.25);
        assert_eq!(
            verdict(&steady, &noisy, &setup),
            Verdict::Within,
            "setup: medians only"
        );
    }

    #[test]
    fn result_lines_and_run_sets_round_trip() {
        let line = r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":0.25,"unit":"s"},"ops_per_s":{"value":1234.5,"unit":"ops/s"}}}"#;
        let run = parse_result_line("seq_cold", 4, line).unwrap();
        assert_eq!(
            run.metrics,
            vec![("setup_s".into(), 0.25), ("ops_per_s".into(), 1234.5)]
        );
        let set = vec![run.clone(), Run { seed: 5, ..run }];
        assert_eq!(decode_set(&encode_set(&set)).unwrap(), set);
        assert_eq!(values(&set, "seq_cold", "setup_s"), vec![0.25, 0.25]);
        assert!(values(&set, "rand_warm", "setup_s").is_empty());
        assert!(parse_result_line("x", 1, "{}").is_err());
        assert!(decode_set("{\"runs\":[{}]}").is_err());
    }

    #[test]
    fn compare_reports_every_pairing_present_in_both_sets() {
        let mk = |ops: f64| -> Vec<Run> {
            (1..=4)
                .map(|seed| Run {
                    workload: "rand_warm".into(),
                    seed,
                    failed: 0,
                    metrics: vec![
                        ("ops_per_s".into(), ops + seed as f64),
                        ("setup_s".into(), 0.5),
                    ],
                })
                .collect()
        };
        let rows = compare_sets(&mk(1000.0), &mk(700.0));
        assert_eq!(rows.len(), 2, "only metrics both sets carry");
        let of = |m: &str| rows.iter().find(|(_, n, _)| n == m).unwrap().2;
        assert_eq!(of("ops_per_s"), Verdict::Worse);
        assert_eq!(of("setup_s"), Verdict::Within);
    }
}
