//! The streaming stage abstraction behind the online pipeline.
//!
//! The paper's online phase (§3.2, §5) runs *live* while the victim types,
//! so the pipeline is shaped as a chain of push-based stages rather than
//! sequential whole-trace passes: each stage consumes one typed input event
//! at a time, holds only bounded state (a previous sample, a one-change
//! lookahead buffer, a pending ambiguity), and emits typed events for the
//! next stage. [`Stage::finish`] flushes whatever a stage is still holding
//! when the sample stream ends.
//!
//! The stages, in pipeline order:
//!
//! | Stage | In → Out | Held state |
//! |---|---|---|
//! | [`crate::trace::DeltaStage`] | `Sample` → `Delta` | previous sample |
//! | [`crate::offline::RecognizeStage`] | `Delta` → `Delta` | warm-up prefix until a model matches |
//! | [`crate::launch::LaunchGate`] | `Delta` → `Delta` | nothing (gates on the launch burst) |
//! | [`crate::appswitch::SwitchStage`] | `Delta` → `SwitchEvent` | burst/return bookkeeping |
//! | [`crate::online::InferStage`] | `Delta` → `InferEvent` | `prev` fragment (+ one-change lookahead) |
//! | [`crate::correction::CorrectionStage`] | `InferEvent` → `CorrectionEvent` | blink grid + pending ambiguity |
//!
//! Every stage is deterministic and side-effect-free apart from telemetry,
//! so however a sample stream is cut into bursts, the chain produces
//! byte-identical output — the property
//! `pipeline_result_is_independent_of_burst_slicing` pins down.

/// A push-based streaming pipeline stage.
///
/// Implementations append their output events to the caller-supplied
/// buffer instead of returning them, so a hot pipeline can reuse one
/// scratch vector per stage and a single push usually allocates nothing.
pub trait Stage {
    /// The event type this stage consumes.
    type In;
    /// The event type this stage emits.
    type Out;

    /// Pushes one input event through the stage, appending any resulting
    /// output events to `out` in emission order.
    fn push(&mut self, input: Self::In, out: &mut Vec<Self::Out>);

    /// Signals end of stream: the stage flushes any held state as final
    /// output events. Pushing after `finish` is a logic error.
    fn finish(&mut self, out: &mut Vec<Self::Out>);
}

/// Drives a complete input sequence through `stage` and collects every
/// output event — the batch shim used by whole-trace entry points and
/// tests.
pub fn run_to_vec<S: Stage>(stage: &mut S, inputs: impl IntoIterator<Item = S::In>) -> Vec<S::Out> {
    let mut out = Vec::new();
    for input in inputs {
        stage.push(input, &mut out);
    }
    stage.finish(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Emits the running sum after each push and the final count at finish.
    struct Summer {
        sum: u64,
        n: u64,
    }

    impl Stage for Summer {
        type In = u64;
        type Out = u64;

        fn push(&mut self, input: u64, out: &mut Vec<u64>) {
            self.sum += input;
            self.n += 1;
            out.push(self.sum);
        }

        fn finish(&mut self, out: &mut Vec<u64>) {
            out.push(self.n);
        }
    }

    #[test]
    fn run_to_vec_pushes_then_finishes() {
        let mut s = Summer { sum: 0, n: 0 };
        assert_eq!(run_to_vec(&mut s, [3, 4, 5]), vec![3, 7, 12, 3]);
    }
}
