//! The `repro` command line: a misspelt experiment must not pass for a
//! run that measured nothing.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

#[test]
fn unknown_experiment_prints_usage_and_exits_2() {
    for typo in ["nonsense", "shard", "telemetry", "conns"] {
        let out = repro(&[typo]);
        assert_eq!(out.status.code(), Some(2), "{typo}");
        assert!(out.stdout.is_empty(), "no banner for a run of nothing");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage: repro"), "{err}");
        assert!(err.contains(typo), "names the offender: {err}");
    }
    // One bad name among good ones still runs nothing.
    assert_eq!(repro(&["model41", "nonsense"]).status.code(), Some(2));
}

#[test]
fn every_documented_name_is_accepted() {
    let help = repro(&["--help"]);
    assert!(help.status.success());
    let usage = String::from_utf8_lossy(&help.stdout).into_owned();
    for name in ["batch", "faults", "shards", "all"] {
        assert!(usage.contains(name), "{name} missing from: {usage}");
    }
    // A cheap experiment end to end: known names run and exit 0.
    let out = repro(&["model41"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("reproduction harness"));
}
