//! The committed performance baseline must be a full-suite record. Any
//! single-experiment run used to overwrite `BENCH_experiments.json`, and
//! three partial baselines were committed that way; a partial baseline
//! makes every later full run look like a regression (or hides one). The
//! record must list every experiment of the catalogue, and nothing else,
//! at scale 1 and jobs 1 — the settings of the canonical regeneration
//! command in EXPERIMENTS.md.

use bench::experiments::CATALOGUE;

/// The committed record, read from the repository root.
fn baseline() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_experiments.json");
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// The value of the top-level `"key": value,` line of the record (the
/// experiments runner writes one key per line).
fn top_level<'a>(record: &'a str, key: &str) -> &'a str {
    let prefix = format!("  \"{key}\": ");
    record
        .lines()
        .find_map(|l| l.strip_prefix(prefix.as_str()))
        .map(|v| v.trim_end_matches(','))
        .unwrap_or_else(|| panic!("baseline has no top-level {key:?}"))
}

/// The experiment names of the record's `"experiments"` array, in order.
fn experiment_names(record: &str) -> Vec<&str> {
    let start = record.find("\"experiments\": [").expect("baseline has an experiments array");
    let body = &record[start..];
    let body = &body[..body.find(']').expect("experiments array is closed")];
    body.split("\"name\": \"").skip(1).map(|s| &s[..s.find('"').expect("name is quoted")]).collect()
}

#[test]
fn committed_baseline_covers_every_experiment_at_scale_1_jobs_1() {
    let record = baseline();
    assert_eq!(top_level(&record, "scale").parse::<f64>().ok(), Some(1.0), "baseline scale");
    assert_eq!(top_level(&record, "jobs"), "1", "baseline jobs");

    let recorded = experiment_names(&record);
    let missing: Vec<&str> =
        CATALOGUE.iter().map(|(name, _, _)| *name).filter(|n| !recorded.contains(n)).collect();
    let stale: Vec<&str> =
        recorded.iter().copied().filter(|n| CATALOGUE.iter().all(|(c, _, _)| c != n)).collect();
    assert!(
        missing.is_empty() && stale.is_empty(),
        "BENCH_experiments.json is not a full-suite record: missing {missing:?}, unknown \
         {stale:?}; regenerate it with `experiments --scale 1 --jobs 1 --bench-out \
         BENCH_experiments.json all`"
    );
    assert_eq!(recorded.len(), CATALOGUE.len(), "each experiment is recorded once");
}
