//! The versioned message set and its compact binary codec.
//!
//! Client → server: [`Message::Hello`] (session open / reconnect-resume),
//! [`Message::SampleBatch`] (the counter data itself), [`Message::Fin`]
//! (end of sampling, carrying the sampler's degradation report).
//! Server → client: [`Message::Ack`] (cumulative), [`Message::InferredKeys`]
//! (presses streamed back as they commit), [`Message::FinAck`] (the
//! recovered credential).
//!
//! # Batch encoding
//!
//! A sample batch holds its samples as rows, the form the sampler reads
//! them in and the analysis pipeline consumes them in, and goes on the wire
//! *columnar*: the timestamp column followed by one column per tracked
//! counter, each as `first value` + zigzagged delta-of-delta varints.
//! Counters are cumulative and near-linear in time, and read timestamps sit
//! on a jittered 8 ms grid — second differences of both are tiny, so almost
//! every residual fits in one byte. The encoder walks the rows once per
//! column and the decoder fills one pre-sized row buffer column by column.
//! The `exfil` experiment reports the resulting bytes-per-keystroke.

use adreno_sim::counters::{CounterSet, ALL_TRACKED, NUM_TRACKED};
use adreno_sim::time::SimInstant;
use gpu_sc_attack::online::InferredKey;
use gpu_sc_attack::registry::ModelDigest;
use gpu_sc_attack::sampler::SamplerReport;
use gpu_sc_attack::trace::Sample;

use crate::error::{WireError, WireResult};
use crate::varint;

/// Columns of a batch on the wire: the timestamp, then each tracked counter.
const COLUMNS: usize = 1 + NUM_TRACKED;

/// Bytes in the longest `u64` varint.
const MAX_VARINT: usize = 10;

/// A batch of counter samples: rows in memory, columns on the wire.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SampleBatch {
    samples: Vec<Sample>,
}

impl SampleBatch {
    /// An empty batch.
    pub fn new() -> Self {
        SampleBatch::default()
    }

    /// Builds a batch from row-form samples.
    pub fn from_samples(samples: &[Sample]) -> Self {
        SampleBatch { samples: samples.to_vec() }
    }

    /// Number of samples in the batch.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the batch holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The samples, in order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    fn decode_from(buf: &[u8], pos: &mut usize) -> WireResult<Self> {
        let count = varint::read_u64(buf, pos)?;
        // Each sample costs at least one byte in every column; reject counts
        // the buffer cannot possibly back before allocating anything.
        if u128::from(count) * COLUMNS as u128 > (buf.len() - *pos) as u128 {
            return Err(WireError::LengthMismatch);
        }
        let blank = Sample { at: SimInstant::ZERO, values: CounterSet::ZERO };
        let mut samples = vec![blank; count as usize];
        decode_column(buf, pos, &mut samples, |s, v| s.at = SimInstant::from_nanos(v))?;
        for c in ALL_TRACKED {
            decode_column(buf, pos, &mut samples, |s, v| s.values[c] = v)?;
        }
        Ok(SampleBatch { samples })
    }
}

/// A batch payload's usual size: the tag, the count, and per column a full
/// first value plus two bytes for each residual. Steady-state batches fit;
/// a burst of large residuals grows the buffer once.
fn batch_len_hint(samples: usize) -> usize {
    1 + MAX_VARINT + COLUMNS * (MAX_VARINT + 2 * samples.saturating_sub(1))
}

/// Appends the payload of `Message::SampleBatch(SampleBatch::from_samples(samples))`
/// to `buf`, byte for byte, encoded straight from the caller's rows: the
/// tag, the sample count, then each column in turn.
pub(crate) fn encode_batch(buf: &mut Vec<u8>, samples: &[Sample]) {
    buf.push(TAG_SAMPLE_BATCH);
    varint::write_u64(buf, samples.len() as u64);
    encode_column(buf, samples.iter().map(|s| s.at.as_nanos()));
    for c in ALL_TRACKED {
        encode_column(buf, samples.iter().map(|s| s.values[c]));
    }
}

/// Zigzag-maps a signed value to unsigned, so that small magnitudes of
/// either sign encode in few varint bytes: one byte for `[-64, 63]`.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// One column as `first` + zigzagged delta-of-delta residuals. Wrapping
/// arithmetic throughout: the codec is an exact bijection on any `u64`
/// sequence, monotone or not.
fn encode_column(buf: &mut Vec<u8>, mut col: impl Iterator<Item = u64>) {
    let Some(first) = col.next() else { return };
    varint::write_u64(buf, first);
    let mut prev = first;
    let mut prev_delta = 0i64;
    for v in col {
        let delta = v.wrapping_sub(prev) as i64;
        varint::write_u64(buf, zigzag(delta.wrapping_sub(prev_delta)));
        prev = v;
        prev_delta = delta;
    }
}

/// Decodes one column into `rows`, storing each value with `set`.
fn decode_column(
    buf: &[u8],
    pos: &mut usize,
    rows: &mut [Sample],
    set: impl Fn(&mut Sample, u64),
) -> WireResult<()> {
    let Some((first_row, rest)) = rows.split_first_mut() else { return Ok(()) };
    let first = varint::read_u64(buf, pos)?;
    set(first_row, first);
    let mut prev = first;
    let mut prev_delta = 0i64;
    for row in rest {
        let delta = prev_delta.wrapping_add(unzigzag(varint::read_u64(buf, pos)?));
        prev = prev.wrapping_add(delta as u64);
        set(row, prev);
        prev_delta = delta;
    }
    Ok(())
}

/// Everything that can cross the link, under one version tag (see
/// [`crate::frame::WIRE_VERSION`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Opens a session, or re-opens it after a reconnect.
    Hello {
        /// Random id binding both directions of the conversation.
        session_id: u64,
        /// The lowest client frame not yet acknowledged — where the
        /// retransmit window restarts after a reconnect.
        resume_from: u64,
        /// Content address of the classifier model the sampler was trained
        /// against. The server resolves it in its own registry-backed
        /// store; a non-zero digest it does not hold is a typed error
        /// ([`gpu_sc_attack::service::ServiceError::ModelDigestMismatch`]).
        /// [`ModelDigest::ZERO`] requests legacy device recognition.
        model_digest: ModelDigest,
    },
    /// A batch of counter samples.
    SampleBatch(SampleBatch),
    /// End of sampling; carries the sampler's own degradation report so
    /// the classifier side can assemble the full session result.
    Fin {
        /// Cumulative sampler report at session end.
        report: SamplerReport,
    },
    /// Cumulative acknowledgement: every client frame below
    /// `next_expected` has been applied.
    Ack {
        /// The next client sequence number the server will apply.
        next_expected: u64,
    },
    /// Presses the classifier committed since its last emission.
    InferredKeys {
        /// Newly committed presses, in commit order.
        keys: Vec<InferredKey>,
    },
    /// Final response: the session is finished server-side.
    FinAck {
        /// The recovered credential (empty when inference failed).
        recovered: String,
    },
}

const TAG_HELLO: u8 = 0x01;
const TAG_SAMPLE_BATCH: u8 = 0x02;
const TAG_FIN: u8 = 0x03;
const TAG_ACK: u8 = 0x04;
const TAG_INFERRED_KEYS: u8 = 0x05;
const TAG_FIN_ACK: u8 = 0x06;

/// The [`SamplerReport`] fields in wire order. One place to keep the codec
/// and the struct in sync.
fn report_fields(r: &SamplerReport) -> [u64; 11] {
    [
        r.attempted,
        r.acquired,
        r.scheduler_drops,
        r.abandoned,
        r.transient_errors,
        r.denied_reads,
        r.revocations_seen,
        r.reservation_losses,
        r.fd_reopens,
        r.reservations_reacquired,
        r.retries_spent,
    ]
}

fn report_from_fields(f: [u64; 11]) -> SamplerReport {
    SamplerReport {
        attempted: f[0],
        acquired: f[1],
        scheduler_drops: f[2],
        abandoned: f[3],
        transient_errors: f[4],
        denied_reads: f[5],
        revocations_seen: f[6],
        reservation_losses: f[7],
        fd_reopens: f[8],
        reservations_reacquired: f[9],
        retries_spent: f[10],
    }
}

fn encode_key(buf: &mut Vec<u8>, key: &InferredKey) {
    varint::write_u64(buf, key.at.as_nanos());
    // decided_at trails at by microseconds-to-milliseconds: a small delta.
    varint::write_u64(
        buf,
        zigzag(key.decided_at.as_nanos().wrapping_sub(key.at.as_nanos()) as i64),
    );
    varint::write_u64(buf, u64::from(u32::from(key.ch)));
    buf.push(u8::from(key.via_split));
}

fn decode_key(buf: &[u8], pos: &mut usize) -> WireResult<InferredKey> {
    let at = varint::read_u64(buf, pos)?;
    let decided_delta = unzigzag(varint::read_u64(buf, pos)?);
    let ch = varint::read_u64(buf, pos)?;
    let ch = u32::try_from(ch)
        .ok()
        .and_then(char::from_u32)
        .ok_or(WireError::Malformed("char code point"))?;
    let via_split = match buf.get(*pos) {
        Some(0) => false,
        Some(1) => true,
        Some(_) => return Err(WireError::Malformed("via_split flag")),
        None => return Err(WireError::Truncated),
    };
    *pos += 1;
    Ok(InferredKey {
        at: SimInstant::from_nanos(at),
        decided_at: SimInstant::from_nanos(at.wrapping_add(decided_delta as u64)),
        ch,
        via_split,
    })
}

/// Appends the payload of `Message::InferredKeys { keys }` to `buf`,
/// encoded straight from the caller's slice.
pub(crate) fn encode_inferred_keys(buf: &mut Vec<u8>, keys: &[InferredKey]) {
    buf.push(TAG_INFERRED_KEYS);
    varint::write_u64(buf, keys.len() as u64);
    for key in keys {
        encode_key(buf, key);
    }
}

impl Message {
    /// Encodes the message into a payload (to be wrapped in a
    /// [`Frame`](crate::frame::Frame)).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.len_hint());
        self.encode_into(&mut buf);
        buf
    }

    /// Appends the message's payload to `buf`.
    pub(crate) fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Message::Hello { session_id, resume_from, model_digest } => {
                buf.push(TAG_HELLO);
                varint::write_u64(buf, *session_id);
                varint::write_u64(buf, *resume_from);
                buf.extend_from_slice(model_digest.as_bytes());
            }
            Message::SampleBatch(batch) => encode_batch(buf, &batch.samples),
            Message::Fin { report } => {
                buf.push(TAG_FIN);
                for field in report_fields(report) {
                    varint::write_u64(buf, field);
                }
            }
            Message::Ack { next_expected } => {
                buf.push(TAG_ACK);
                varint::write_u64(buf, *next_expected);
            }
            Message::InferredKeys { keys } => encode_inferred_keys(buf, keys),
            Message::FinAck { recovered } => {
                buf.push(TAG_FIN_ACK);
                varint::write_u64(buf, recovered.len() as u64);
                buf.extend_from_slice(recovered.as_bytes());
            }
        }
    }

    /// A buffer size that holds the encoding: exact upper bounds, except for
    /// a batch (see [`batch_len_hint`]).
    fn len_hint(&self) -> usize {
        match self {
            Message::Hello { .. } => 1 + 2 * MAX_VARINT + 32,
            Message::SampleBatch(batch) => batch_len_hint(batch.len()),
            Message::Fin { .. } => 1 + 11 * MAX_VARINT,
            Message::Ack { .. } => 1 + MAX_VARINT,
            // Per key: two u64 varints, a code point in at most 3 bytes, a flag.
            Message::InferredKeys { keys } => 1 + MAX_VARINT + keys.len() * (2 * MAX_VARINT + 4),
            Message::FinAck { recovered } => 1 + MAX_VARINT + recovered.len(),
        }
    }

    /// Decodes a payload produced by [`Message::encode`]. The whole buffer
    /// must be consumed.
    ///
    /// # Errors
    ///
    /// A typed [`WireError`] for every malformation; this function never
    /// panics, whatever the input bytes.
    pub fn decode(buf: &[u8]) -> WireResult<Message> {
        let mut pos = 0;
        let tag = *buf.first().ok_or(WireError::Truncated)?;
        pos += 1;
        let message = match tag {
            TAG_HELLO => {
                let session_id = varint::read_u64(buf, &mut pos)?;
                let resume_from = varint::read_u64(buf, &mut pos)?;
                let end = pos.checked_add(32).ok_or(WireError::Truncated)?;
                if end > buf.len() {
                    return Err(WireError::Truncated);
                }
                let mut digest = [0u8; 32];
                digest.copy_from_slice(&buf[pos..end]);
                pos = end;
                Message::Hello {
                    session_id,
                    resume_from,
                    model_digest: ModelDigest::from_bytes(digest),
                }
            }
            TAG_SAMPLE_BATCH => Message::SampleBatch(SampleBatch::decode_from(buf, &mut pos)?),
            TAG_FIN => {
                let mut fields = [0u64; 11];
                for field in &mut fields {
                    *field = varint::read_u64(buf, &mut pos)?;
                }
                Message::Fin { report: report_from_fields(fields) }
            }
            TAG_ACK => Message::Ack { next_expected: varint::read_u64(buf, &mut pos)? },
            TAG_INFERRED_KEYS => {
                let count = varint::read_u64(buf, &mut pos)?;
                // ≥ 4 bytes per key (three varints + flag).
                if count as u128 * 4 > (buf.len() - pos) as u128 {
                    return Err(WireError::LengthMismatch);
                }
                let mut keys = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    keys.push(decode_key(buf, &mut pos)?);
                }
                Message::InferredKeys { keys }
            }
            TAG_FIN_ACK => {
                let len = varint::read_u64(buf, &mut pos)?;
                if len as u128 > (buf.len() - pos) as u128 {
                    return Err(WireError::LengthMismatch);
                }
                let end = pos + len as usize;
                let recovered = std::str::from_utf8(&buf[pos..end])
                    .map_err(|_| WireError::Malformed("utf-8 text"))?
                    .to_owned();
                pos = end;
                Message::FinAck { recovered }
            }
            other => return Err(WireError::BadTag(other)),
        };
        if pos != buf.len() {
            return Err(WireError::TrailingBytes);
        }
        Ok(message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(at_ms: u64, base: u64) -> Sample {
        let mut values = [0u64; NUM_TRACKED];
        for (i, v) in values.iter_mut().enumerate() {
            *v = base + i as u64 * 17;
        }
        Sample { at: SimInstant::from_millis(at_ms), values: CounterSet::from_array(values) }
    }

    #[test]
    fn zigzag_round_trips_and_keeps_small_magnitudes_short() {
        let mut buf = Vec::new();
        for v in [0i64, -1, 1, -64, 63, -65, 64, i64::MIN, i64::MAX] {
            buf.clear();
            varint::write_u64(&mut buf, zigzag(v));
            assert_eq!(buf.len() == 1, (-64..=63).contains(&v), "{v} takes {} bytes", buf.len());
            let mut pos = 0;
            assert_eq!(varint::read_u64(&buf, &mut pos).map(unzigzag), Ok(v));
        }
    }

    #[test]
    fn batch_round_trips_columnar() {
        let samples = vec![sample(0, 5), sample(8, 5), sample(16, 900), sample(24, 901)];
        let batch = SampleBatch::from_samples(&samples);
        let payload = Message::SampleBatch(batch.clone()).encode();
        match Message::decode(&payload) {
            Ok(Message::SampleBatch(decoded)) => {
                assert_eq!(decoded, batch);
                assert_eq!(decoded.samples(), samples);
            }
            other => panic!("unexpected decode {other:?}"),
        }
    }

    #[test]
    fn steady_grid_costs_about_a_byte_per_column_entry() {
        // 32 samples on a clean 8 ms grid with idle counters: after the
        // batch header every timestamp and value residual is zero → 1 byte.
        let samples: Vec<Sample> = (0..32).map(|i| sample(i * 8, 1000)).collect();
        let payload = Message::SampleBatch(SampleBatch::from_samples(&samples)).encode();
        // Header + 12 columns × (first value + 31 one-byte residuals).
        assert!(
            payload.len() < 12 * 40 + 16,
            "steady-state batch blew up to {} bytes",
            payload.len()
        );
    }

    #[test]
    fn empty_batch_is_valid() {
        let payload = Message::SampleBatch(SampleBatch::new()).encode();
        assert_eq!(Message::decode(&payload), Ok(Message::SampleBatch(SampleBatch::new())));
    }

    #[test]
    fn hello_round_trips_model_digest() {
        let digest = ModelDigest::of(b"some model blob");
        let hello = Message::Hello { session_id: 77, resume_from: 3, model_digest: digest };
        let payload = hello.encode();
        assert_eq!(Message::decode(&payload), Ok(hello));
    }

    #[test]
    fn hello_with_truncated_digest_rejected() {
        let digest = ModelDigest::of(b"some model blob");
        let mut payload =
            Message::Hello { session_id: 77, resume_from: 3, model_digest: digest }.encode();
        payload.truncate(payload.len() - 5);
        assert_eq!(Message::decode(&payload), Err(WireError::Truncated));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = Message::Ack { next_expected: 3 }.encode();
        payload.push(0);
        assert_eq!(Message::decode(&payload), Err(WireError::TrailingBytes));
    }

    #[test]
    fn absurd_counts_rejected_before_allocation() {
        // An InferredKeys message claiming u64::MAX keys in 3 bytes.
        let mut payload = vec![TAG_INFERRED_KEYS];
        varint::write_u64(&mut payload, u64::MAX);
        assert_eq!(Message::decode(&payload), Err(WireError::LengthMismatch));
        let mut payload = vec![TAG_SAMPLE_BATCH];
        varint::write_u64(&mut payload, u64::MAX);
        assert_eq!(Message::decode(&payload), Err(WireError::LengthMismatch));
        // Two samples take at least one byte per column entry, 24 in all.
        let mut payload = vec![TAG_SAMPLE_BATCH, 2];
        payload.extend([0; 2 * COLUMNS - 1]);
        assert_eq!(Message::decode(&payload), Err(WireError::LengthMismatch));
    }
}
