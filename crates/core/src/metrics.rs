//! Scoring inferred key presses against ground truth.
//!
//! The paper reports two accuracies: **individual key press accuracy** (the
//! fraction of true presses whose character was correctly inferred,
//! Fig 17b/18) and **text input accuracy** (the fraction of credential
//! inputs recovered exactly, Fig 17a).

use adreno_sim::time::{SimDuration, SimInstant};

use crate::online::InferredKey;

/// Matching window when aligning an inferred press to a true press: popup
/// rendering (≤ one frame) plus one read interval.
pub const MATCH_WINDOW: SimDuration = SimDuration::from_millis(60);

/// Score of one eavesdropped session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionScore {
    /// True key presses correctly inferred (right char, right time).
    pub correct_keys: usize,
    /// Total true key presses.
    pub total_keys: usize,
    /// Inferred presses with no matching true press (insertions).
    pub spurious_keys: usize,
    /// Whether the recovered final text matches exactly.
    pub text_exact: bool,
    /// Edit distance between recovered and true final text.
    pub edit_distance: usize,
}

impl SessionScore {
    /// Individual key-press accuracy for this session.
    pub fn key_accuracy(&self) -> f64 {
        if self.total_keys == 0 {
            return 1.0;
        }
        self.correct_keys as f64 / self.total_keys as f64
    }
}

/// Greedily aligns inferred presses to true presses within
/// [`MATCH_WINDOW`], in time order, and scores the session.
pub fn score_session(
    truth_presses: &[(SimInstant, char)],
    truth_text: &str,
    inferred: &[InferredKey],
    recovered_text: &str,
) -> SessionScore {
    let mut used = vec![false; inferred.len()];
    let mut correct = 0usize;
    for &(t, c) in truth_presses {
        let hit = inferred
            .iter()
            .enumerate()
            .find(|(i, k)| !used[*i] && k.ch == c && within(k.at, t, MATCH_WINDOW));
        if let Some((i, _)) = hit {
            used[i] = true;
            correct += 1;
        }
    }
    let spurious = used.iter().filter(|u| !**u).count();
    SessionScore {
        correct_keys: correct,
        total_keys: truth_presses.len(),
        spurious_keys: spurious,
        text_exact: recovered_text == truth_text,
        edit_distance: edit_distance(recovered_text, truth_text),
    }
}

/// Per-character `(correct, total)` tallies across a session — the data
/// behind Fig 17(c)/18/21(c).
pub fn per_char_tallies(
    truth_presses: &[(SimInstant, char)],
    inferred: &[InferredKey],
) -> std::collections::HashMap<char, (usize, usize)> {
    let mut used = vec![false; inferred.len()];
    let mut tallies: std::collections::HashMap<char, (usize, usize)> =
        std::collections::HashMap::new();
    for &(t, c) in truth_presses {
        let e = tallies.entry(c).or_insert((0, 0));
        e.1 += 1;
        let hit = inferred
            .iter()
            .enumerate()
            .find(|(i, k)| !used[*i] && k.ch == c && within(k.at, t, MATCH_WINDOW));
        if let Some((i, _)) = hit {
            used[i] = true;
            e.0 += 1;
        }
    }
    tallies
}

fn within(a: SimInstant, b: SimInstant, window: SimDuration) -> bool {
    a.saturating_since(b) <= window && b.saturating_since(a) <= window
}

/// Levenshtein edit distance between two strings (by chars).
pub fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Aggregates many session scores into the quantities the paper's figures
/// plot.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Aggregate {
    /// Sessions folded in.
    pub sessions: usize,
    /// Sessions whose recovered text matched the typed text exactly.
    pub exact_texts: usize,
    /// Typed keys recovered in order, summed over sessions.
    pub correct_keys: usize,
    /// Keys typed, summed over sessions.
    pub total_keys: usize,
    /// Edit distance between typed and recovered text, summed.
    pub total_edit_distance: usize,
    /// Inferred keys that matched nothing typed, summed.
    pub spurious_keys: usize,
}

impl Aggregate {
    /// Folds one session in.
    pub fn add(&mut self, s: &SessionScore) {
        self.sessions += 1;
        self.exact_texts += usize::from(s.text_exact);
        self.correct_keys += s.correct_keys;
        self.total_keys += s.total_keys;
        self.total_edit_distance += s.edit_distance;
        self.spurious_keys += s.spurious_keys;
    }

    /// Merges another aggregate into this one.
    pub fn merge(&mut self, other: &Aggregate) {
        self.sessions += other.sessions;
        self.exact_texts += other.exact_texts;
        self.correct_keys += other.correct_keys;
        self.total_keys += other.total_keys;
        self.total_edit_distance += other.total_edit_distance;
        self.spurious_keys += other.spurious_keys;
    }

    /// Fraction of sessions whose text was recovered exactly (Fig 17a).
    pub fn text_accuracy(&self) -> f64 {
        if self.sessions == 0 {
            return 1.0;
        }
        self.exact_texts as f64 / self.sessions as f64
    }

    /// Individual key-press accuracy (Fig 17b's companion metric).
    pub fn key_accuracy(&self) -> f64 {
        if self.total_keys == 0 {
            return 1.0;
        }
        self.correct_keys as f64 / self.total_keys as f64
    }

    /// Mean number of wrong characters per text (Fig 17b / 21b).
    pub fn mean_errors(&self) -> f64 {
        if self.sessions == 0 {
            return 0.0;
        }
        self.total_edit_distance as f64 / self.sessions as f64
    }
}

impl Extend<SessionScore> for Aggregate {
    fn extend<T: IntoIterator<Item = SessionScore>>(&mut self, iter: T) {
        for s in iter {
            self.add(&s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(ms: u64, ch: char) -> InferredKey {
        InferredKey {
            at: SimInstant::from_millis(ms),
            decided_at: SimInstant::from_millis(ms),
            ch,
            via_split: false,
        }
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("abc", "abd"), 1);
        assert_eq!(edit_distance("abc", "ab"), 1);
        assert_eq!(edit_distance("abc", "xabc"), 1);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("", "abcd"), 4);
    }

    #[test]
    fn perfect_session_scores_perfectly() {
        let truth = vec![(SimInstant::from_millis(100), 'a'), (SimInstant::from_millis(400), 'b')];
        let inferred = vec![key(110, 'a'), key(412, 'b')];
        let s = score_session(&truth, "ab", &inferred, "ab");
        assert_eq!(s.correct_keys, 2);
        assert_eq!(s.spurious_keys, 0);
        assert!(s.text_exact);
        assert_eq!(s.key_accuracy(), 1.0);
    }

    #[test]
    fn wrong_char_does_not_match() {
        let truth = vec![(SimInstant::from_millis(100), 'a')];
        let inferred = vec![key(110, 'b')];
        let s = score_session(&truth, "a", &inferred, "b");
        assert_eq!(s.correct_keys, 0);
        assert_eq!(s.spurious_keys, 1);
        assert!(!s.text_exact);
        assert_eq!(s.edit_distance, 1);
    }

    #[test]
    fn late_match_is_rejected() {
        let truth = vec![(SimInstant::from_millis(100), 'a')];
        let inferred = vec![key(300, 'a')];
        let s = score_session(&truth, "a", &inferred, "a");
        assert_eq!(s.correct_keys, 0, "200 ms is outside the match window");
        assert!(s.text_exact, "text comparison is independent of timing");
    }

    #[test]
    fn each_inferred_key_matches_once() {
        // One inferred press cannot satisfy two true presses.
        let truth = vec![(SimInstant::from_millis(100), 'a'), (SimInstant::from_millis(120), 'a')];
        let inferred = vec![key(110, 'a')];
        let s = score_session(&truth, "aa", &inferred, "a");
        assert_eq!(s.correct_keys, 1);
    }

    #[test]
    fn aggregate_math() {
        let mut agg = Aggregate::default();
        agg.add(&SessionScore {
            correct_keys: 9,
            total_keys: 10,
            spurious_keys: 0,
            text_exact: false,
            edit_distance: 1,
        });
        agg.add(&SessionScore {
            correct_keys: 10,
            total_keys: 10,
            spurious_keys: 1,
            text_exact: true,
            edit_distance: 0,
        });
        assert_eq!(agg.sessions, 2);
        assert!((agg.text_accuracy() - 0.5).abs() < 1e-12);
        assert!((agg.key_accuracy() - 0.95).abs() < 1e-12);
        assert!((agg.mean_errors() - 0.5).abs() < 1e-12);
    }
}
