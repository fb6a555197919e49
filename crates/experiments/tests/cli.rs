//! The `experiments` CLI rejects a malformed value flag, a zero count and
//! an unknown figure with a usage error and exit code 2 before running
//! anything, never a panic (exit 101) or a silent success.

use std::process::Command;

fn exit_code(args: &[&str]) -> Option<i32> {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("run the experiments binary");
    out.status.code()
}

#[test]
fn a_trailing_value_flag_is_a_usage_error() {
    for flag in [
        "--n",
        "--queries",
        "-q",
        "--seed",
        "--out",
        "--kernel",
        "--index",
        "--update",
        "--threads",
        "--batch",
    ] {
        assert_eq!(exit_code(&[flag]), Some(2), "{flag} with no value");
    }
}

#[test]
fn an_unparsable_value_is_a_usage_error() {
    // The trailing `--help` ends a run quickly if a value is accepted.
    for args in [
        ["--kernel", "branchless", "--help"],
        ["--n", "many", "--help"],
        ["--threads", "1,,2", "--help"],
        ["--index", "radix", "--help"],
    ] {
        assert_eq!(exit_code(&args), Some(2), "{args:?}");
    }
}

#[test]
fn a_zero_count_is_a_usage_error() {
    for args in [
        ["fig2", "--n", "0"],
        ["fig2", "--queries", "0"],
        ["ext-parallel", "--threads", "0"],
        ["ext-parallel", "--threads", "1,0"],
        ["ext-parallel", "--batch", "0"],
    ] {
        assert_eq!(exit_code(&args), Some(2), "{args:?}");
    }
}

#[test]
fn an_unknown_figure_is_a_usage_error_before_anything_runs() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["fig2", "fig99", "--quick"])
        .output()
        .expect("run the experiments binary");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing runs before the check");
}

#[test]
fn help_exits_zero() {
    assert_eq!(exit_code(&["--help"]), Some(0));
}
