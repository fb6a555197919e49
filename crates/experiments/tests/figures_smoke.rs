//! Smoke tests: every figure module runs end to end (with oracle
//! verification on) at tiny scale and emits the expected engines/sections.

use scrack_experiments::figures;
use scrack_experiments::ExpConfig;

fn cfg() -> ExpConfig {
    ExpConfig {
        n: 5_000,
        queries: 60,
        seed: 3,
        out_dir: None,
        verify: true, // every figure run doubles as a correctness check
        ..ExpConfig::default()
    }
}

#[test]
fn fig02_runs_and_reports_all_baselines() {
    let s = figures::fig02::run(&cfg());
    for needle in ["Scan", "Crack", "Sort", "tuples touched", "Sequential"] {
        assert!(s.contains(needle), "missing {needle:?} in:\n{s}");
    }
}

#[test]
fn fig08_sweeps_all_thresholds() {
    let s = figures::fig08::run(&cfg());
    for needle in ["L1/4", "L1/2", "L1", "L2", "3L2"] {
        assert!(s.contains(needle), "missing {needle:?}");
    }
}

#[test]
fn fig09_covers_all_stochastic_variants() {
    let s = figures::fig09::run(&cfg());
    for needle in ["DDC", "DDR", "DD1C", "DD1R", "P100%", "P50%", "P10%", "P1%"] {
        assert!(s.contains(needle), "missing {needle:?}");
    }
}

#[test]
fn fig10_runs() {
    let s = figures::fig10::run(&cfg());
    assert!(s.contains("MDD1R") && s.contains("Crack"));
}

#[test]
fn fig11_has_both_workload_tables() {
    let s = figures::fig11::run(&cfg());
    assert!(s.contains("Random workload") && s.contains("Sequential workload"));
    assert!(s.contains("Rand"), "random-selectivity column missing");
}

#[test]
fn fig12_covers_all_injectors() {
    let s = figures::fig12::run(&cfg());
    for needle in ["R1crack", "R2crack", "R4crack", "R8crack"] {
        assert!(s.contains(needle), "missing {needle:?}");
    }
}

#[test]
fn fig13_has_four_panels() {
    let s = figures::fig13::run(&cfg());
    for needle in [
        "(a) Periodic",
        "(b) Zoom out",
        "(c) Zoom in",
        "(d) Zoom in alternate",
    ] {
        assert!(s.contains(needle), "missing {needle:?}");
    }
}

#[test]
fn fig14_covers_all_hybrids() {
    let s = figures::fig14::run(&cfg());
    for needle in ["AICS", "AICC", "AICS1R", "AICC1R"] {
        assert!(s.contains(needle), "missing {needle:?}");
    }
}

#[test]
fn fig15_runs_updates() {
    let s = figures::fig15::run(&cfg());
    assert!(s.contains("Scrack") && s.contains("Crack"));
}

#[test]
fn fig16_reports_totals() {
    let s = figures::fig16::run(&cfg());
    assert!(s.contains("Totals:") && s.contains("Scrack="));
}

#[test]
fn fig17_covers_all_workloads_and_strategies() {
    let s = figures::fig17::run(&cfg());
    for needle in [
        "Periodic",
        "SkewZoomOutAlt",
        "Mixed",
        "SkyServer",
        "FiftyFifty",
        "FlipCoin",
    ] {
        assert!(s.contains(needle), "missing {needle:?}");
    }
}

#[test]
fn fig18_and_fig19_sweep_selectivity_of_application() {
    let s = figures::fig18::run(&cfg());
    assert!(s.contains("Every32"));
    let s = figures::fig19::run(&cfg());
    assert!(s.contains("ScrackMon500"));
}

#[test]
fn fig20_reports_tradeoff_frontier() {
    let s = figures::fig20::run(&cfg());
    for needle in ["DD1R", "P5%", "P10%", "first 32"] {
        assert!(s.contains(needle), "missing {needle:?}");
    }
}

#[test]
fn csv_series_written_when_out_dir_given() {
    let dir = std::env::temp_dir().join(format!("scrack_smoke_{}", std::process::id()));
    let cfg = ExpConfig {
        out_dir: Some(dir.clone()),
        ..cfg()
    };
    let _ = figures::fig10::run(&cfg);
    let csv = std::fs::read_to_string(dir.join("fig10.csv")).expect("series file");
    assert!(csv.starts_with("engine,query,cumulative_s,query_s,touched"));
    assert!(csv.lines().count() > 60);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn ext_updates_sweeps_frequency_and_volume() {
    let s = figures::ext_updates::run(&cfg());
    for needle in ["HF/LV", "LF/LV", "LF/HV", "HF/HV", "Crack/Scrack"] {
        assert!(s.contains(needle), "missing {needle:?}");
    }
}

#[test]
fn ext_io_reports_page_traffic_per_engine() {
    let s = figures::ext_io::run(&cfg());
    for needle in ["Scan", "Sort", "Crack", "MDD1R", "pages/query", "Sequential"] {
        assert!(s.contains(needle), "missing {needle:?}");
    }
}

#[test]
fn ext_chooser_reports_all_policies() {
    let s = figures::ext_chooser::run(&cfg());
    for needle in ["PieceAware", "EpsGreedy", "UCB1", "ZoomInAlt"] {
        assert!(s.contains(needle), "missing {needle:?}");
    }
}

#[test]
fn ext_metrics_scorecard_shape() {
    let s = figures::ext_metrics::run(&cfg());
    for needle in ["converged", "payoff vs Sort", "MDD1R", "Sequential workload"] {
        assert!(s.contains(needle), "missing {needle:?}");
    }
}

#[test]
fn fig07_renders_every_pattern_panel() {
    let s = figures::fig07::run(&cfg());
    for needle in ["Sequential", "ZoomInAlt", "SkewZoomOutAlt", "```text"] {
        assert!(s.contains(needle), "missing {needle:?}");
    }
}

#[test]
fn ext_resilience_answers_exactly_under_every_fault() {
    let s = figures::ext_resilience::run(&cfg());
    // Table columns: fault, answered, shed, wrong, panics, quarantines,
    // rebuilds.
    let row = |fault: &str| -> Vec<String> {
        let line = s
            .lines()
            .find(|l| l.starts_with(&format!("| {fault} ")))
            .unwrap_or_else(|| panic!("no {fault:?} row in:\n{s}"));
        line.split('|').map(|c| c.trim().to_string()).filter(|c| !c.is_empty()).collect()
    };
    for fault in ["none", "panic", "poison", "overload"] {
        assert_eq!(row(fault)[3], "0", "{fault}: wrong answers in:\n{s}");
    }
    for fault in ["panic", "poison"] {
        assert_eq!(row(fault)[5..7], ["1", "1"], "{fault}: quarantines/rebuilds in:\n{s}");
    }
}
