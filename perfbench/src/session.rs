//! What one finished session contributes: its deterministic record (digest,
//! accuracy, sim-time latencies) and its host time.

use adreno_sim::time::SimInstant;
use gpu_sc_attack::metrics::MATCH_WINDOW;
use gpu_sc_attack::service::{DegradationReport, LinkDegradationReport};
use gpu_sc_attack::InferredKey;

use crate::report::{fnv1a, FNV_BASIS};

/// How a session ended. Every session ends exactly once, as one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum End {
    /// Completed (in process, or split with the final handshake landed).
    Ok,
    /// Split session whose handshake never landed, recovered server-side
    /// from the samples that did arrive. Counts as completed.
    Salvaged,
    /// Ended in `Err`.
    Failed,
}

/// The deterministic part of a session's outcome. Two runs of the same
/// input must produce equal records, whatever the host or the tracing.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// FNV-1a of the full `SessionResult` (or error), score and ending.
    pub digest: u64,
    pub end: End,
    pub true_keys: usize,
    pub correct_keys: usize,
    pub text_exact: bool,
    /// Press-to-inference latency of each matched press, sim ms.
    pub latencies_ms: Vec<f64>,
    pub degradation: DegradationReport,
    pub link: LinkDegradationReport,
}

impl Record {
    /// Builds the record of one session. `outcome` is the `Debug` text of
    /// the session's result (or error) and score, which the digest covers:
    /// recovered text, keys with `decided_at`, candidates, Algorithm 1
    /// stats, and the degradation and link reports.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        outcome: &str,
        end: End,
        truth: &[(SimInstant, char)],
        decided: impl Iterator<Item = (InferredKey, SimInstant)>,
        correct_keys: usize,
        text_exact: bool,
        degradation: DegradationReport,
        link: LinkDegradationReport,
    ) -> Self {
        let digest = fnv1a(fnv1a(FNV_BASIS, outcome.as_bytes()), &[end as u8]);
        Record {
            digest,
            end,
            true_keys: truth.len(),
            correct_keys,
            text_exact,
            latencies_ms: press_latencies_ms(truth, decided),
            degradation,
            link,
        }
    }
}

/// Greedy time-ordered alignment of inferred presses with the true ones
/// (the rule `metrics::score_session` uses), giving each matched press's
/// latency: decision time (or, for split sessions, client-side arrival
/// time) minus the true press time, in sim ms.
fn press_latencies_ms(
    truth: &[(SimInstant, char)],
    decided: impl Iterator<Item = (InferredKey, SimInstant)>,
) -> Vec<f64> {
    let timed: Vec<(InferredKey, SimInstant)> = decided.collect();
    let mut used = vec![false; timed.len()];
    let mut latencies = Vec::with_capacity(truth.len());
    for &(t, c) in truth {
        let hit = timed.iter().enumerate().find(|(i, (k, _))| {
            !used[*i]
                && k.ch == c
                && k.at.saturating_since(t) <= MATCH_WINDOW
                && t.saturating_since(k.at) <= MATCH_WINDOW
        });
        if let Some((i, (_, at))) = hit {
            used[i] = true;
            latencies.push(at.saturating_since(t).as_nanos() as f64 / 1e6);
        }
    }
    latencies
}

/// Order-sensitive digest of a run's records.
pub fn digest_all(records: &[Record]) -> u64 {
    records.iter().fold(FNV_BASIS, |h, r| fnv1a(h, &r.digest.to_le_bytes()))
}
