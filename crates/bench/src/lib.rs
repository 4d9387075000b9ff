//! Shared infrastructure for the experiment harness and Criterion benches.
//!
//! Everything the `experiments` binary needs to regenerate the paper's
//! tables and figures:
//!
//! * [`trials`] — the trial plan and the victim every experiment draws
//!   ([`trials::trial_plan`], [`trials::victim`]) and end-to-end trial
//!   runners ([`run_credential_trial`], [`eval_credentials`]);
//! * [`experiments`] — one module per paper table/figure plus the
//!   beyond-the-paper extensions and ablations;
//! * [`power`] — the Fig 26 battery model;
//! * [`report`] — ASCII tables/plots routed through a thread-local sink so
//!   parallel experiment fan-out can capture its output (the stdout
//!   byte-identity contract of the root package's
//!   `tests/bench_determinism.rs`).
//!
//! Trial runners are instrumented with `spansight` spans/counters; see
//! ARCHITECTURE.md for the observability layer and EXPERIMENTS.md for how
//! to read the exported aggregates and Chrome traces.
//!
//! ## Running one trial
//!
//! ```no_run
//! use bench::{run_credential_trial, TrialOptions};
//! use gpu_sc_attack::offline::ModelStore;
//! use gpu_sc_attack::registry::Registry;
//!
//! let registry = Registry::default();
//! let opts = TrialOptions::paper_default(5);
//! // Trains on first use; later calls for the same configuration share it.
//! let handle = registry.get_or_train(opts.sim.device, opts.sim.keyboard, opts.sim.app);
//! let store = ModelStore::from(handle);
//! let (score, result) = run_credential_trial(&store, &opts, "hunter2", 11).unwrap();
//! assert_eq!(score.total_keys, 7);
//! println!("recovered: {:?}", result.recovered_text);
//! ```

pub mod experiments;
pub mod power;
pub mod report;
pub mod trials;

pub use trials::{eval_credentials, run_credential_trial, TrialOptions};
