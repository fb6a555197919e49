//! The reporter binaries reject a malformed value flag with a usage
//! error and exit code 2, never a panic (exit 101).

use std::process::Command;

fn exit_code(bin: &str, args: &[&str]) -> Option<i32> {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("run the reporter binary");
    out.status.code()
}

const THROUGHPUT: &str = env!("CARGO_BIN_EXE_scrack_throughput");
const ROBUSTNESS: &str = env!("CARGO_BIN_EXE_scrack_robustness");
const TXN: &str = env!("CARGO_BIN_EXE_scrack_txn");

#[test]
fn a_trailing_value_flag_is_a_usage_error() {
    let value_flags: [(&str, &[&str]); 3] = [
        (
            THROUGHPUT,
            &[
                "--threads",
                "--n",
                "--queries",
                "--batch",
                "--samples",
                "--index",
                "--json",
            ],
        ),
        (
            ROBUSTNESS,
            &[
                "--n",
                "--queries",
                "--batch",
                "--shards",
                "--capacity",
                "--loads",
                "--samples",
                "--min-recovery",
                "--index",
                "--json",
            ],
        ),
        (
            TXN,
            &[
                "--n",
                "--rounds",
                "--steps",
                "--sessions",
                "--shards",
                "--trigger",
                "--seed",
                "--scenario",
                "--json",
            ],
        ),
    ];
    for (bin, flags) in value_flags {
        for flag in flags {
            assert_eq!(
                exit_code(bin, &[flag]),
                Some(2),
                "{bin} {flag} with no value"
            );
        }
    }
}

#[test]
fn an_unparsable_value_is_a_usage_error() {
    // The trailing `--help` ends a run quickly if a value is accepted.
    for (bin, args) in [
        (THROUGHPUT, ["--n", "many", "--help"]),
        (THROUGHPUT, ["--threads", "1,,2", "--help"]),
        (THROUGHPUT, ["--index", "radix", "--help"]),
        (ROBUSTNESS, ["--n", "many", "--help"]),
        (ROBUSTNESS, ["--loads", "1,x", "--help"]),
        (ROBUSTNESS, ["--min-recovery", "most", "--help"]),
        (TXN, ["--n", "many", "--help"]),
        (TXN, ["--scenario", "nope", "--help"]),
    ] {
        assert_eq!(exit_code(bin, &args), Some(2), "{bin} {args:?}");
    }
}

#[test]
fn help_exits_zero() {
    for bin in [THROUGHPUT, ROBUSTNESS, TXN] {
        assert_eq!(exit_code(bin, &["--help"]), Some(0), "{bin} --help");
    }
}
