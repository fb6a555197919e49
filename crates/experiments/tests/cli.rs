//! The `experiments` CLI rejects a malformed value flag with a usage
//! error and exit code 2, never a panic (exit 101).

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
