//! The workspace's integration tests live in this directory, so `cargo
//! test` on the root package runs every one of them. A crate that keeps a
//! `tests/` directory of its own hides those tests from that run. The one
//! exception is `crates/bench/tests/cli.rs`: it drives the `experiments`
//! binary through `CARGO_BIN_EXE_experiments`, which Cargo sets only for
//! the binary's own package.

use std::path::{Path, PathBuf};

/// Every `.rs` file at or below `dir`.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
    entries
        .map(|entry| entry.expect("a readable directory entry").path())
        .flat_map(|path| if path.is_dir() { rust_files(&path) } else { vec![path] })
        .filter(|path| path.extension().is_some_and(|e| e == "rs"))
        .collect()
}

#[test]
fn crate_integration_tests_live_in_the_root_package() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let cli = crates.join("bench/tests/cli.rs");
    let mut stray: Vec<PathBuf> = std::fs::read_dir(&crates)
        .expect("crates/ is readable")
        .flat_map(|entry| {
            rust_files(&entry.expect("a readable crates/ entry").path().join("tests"))
        })
        .filter(|path| *path != cli)
        .collect();
    stray.sort();
    assert!(
        stray.is_empty(),
        "{} integration test file(s) under crates/*/tests/ that `cargo test` on the root \
         package never runs; move each into tests/, prefixed with its crate's name: {stray:?}",
        stray.len()
    );
}
