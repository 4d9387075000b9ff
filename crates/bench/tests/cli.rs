//! The `experiments` binary's exit status: a record or trace it cannot
//! write fails the run, and so does a `--scale` that is not a finite number
//! above 0, so a CI step never goes on to read a stale or malformed record.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs the `experiments` binary with `args`.
fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("the experiments binary starts")
}

/// A directory for this test binary's files, distinct per process.
fn scratch_dir() -> PathBuf {
    std::env::temp_dir().join(format!("experiments-cli-{}", std::process::id()))
}

#[test]
fn a_record_that_cannot_be_written_fails_the_run() {
    // The parent directory does not exist, so neither file can be created.
    let unwritable = scratch_dir().join("missing").join("record.json");
    let unwritable = unwritable.to_str().expect("a UTF-8 temp path");
    for flag in ["--bench-out", "--trace-out"] {
        let out = experiments(&["--scale", "0.25", "--jobs", "1", flag, unwritable, "fig3"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag}: {stderr}");
        assert!(stderr.contains("could not write"), "{flag}: {stderr}");
        assert!(!out.stdout.is_empty(), "{flag}: the experiment itself still ran");
    }

    // The same run with a writable record succeeds and writes it.
    let dir = scratch_dir();
    std::fs::create_dir_all(&dir).expect("a temp directory");
    let record = dir.join("record.json");
    let out = experiments(&[
        "--scale",
        "0.25",
        "--jobs",
        "1",
        "--bench-out",
        record.to_str().expect("a UTF-8 temp path"),
        "fig3",
    ]);
    let written = std::fs::read_to_string(&record);
    std::fs::remove_dir_all(&dir).expect("the temp directory is removable");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(written.expect("the record was written").contains("\"scale\": 0.25,"));
}

#[test]
fn a_scale_that_is_not_a_finite_number_above_zero_is_a_usage_error() {
    for scale in ["nan", "inf", "-inf", "0", "-1"] {
        let out = experiments(&["--scale", scale, "fig3"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--scale {scale}: {stderr}");
        assert!(stderr.contains("usage:"), "--scale {scale}: {stderr}");
        assert!(out.stdout.is_empty(), "--scale {scale} ran an experiment");
    }
}
