//! The versioned message set and its compact binary codec.
//!
//! Client → server, every message a data frame of one sequenced stream:
//! [`Message::Hello`] (frame 0, opening the session and naming the model),
//! [`Message::Read`] (one counter read that differs from the read before
//! it), [`Message::Fin`] (end of sampling, carrying the sampler's
//! degradation report).
//! Server → client: [`Message::Ack`] (cumulative, the only control
//! frame), [`Message::InferredKeys`] (presses streamed back as they
//! commit), [`Message::FinAck`] (the recovered credential).
//!
//! # Read encoding
//!
//! A read is self-contained: its instant in nanoseconds, then each tracked
//! counter's cumulative value, all as varints. The analysis consumes only
//! counter *changes*, so the client ships the session's first read and
//! then only reads that differ from their predecessor; about one read in
//! twenty. The `exfil` experiment reports the resulting bytes per
//! keystroke.

use adreno_sim::counters::{CounterSet, NUM_TRACKED};
use adreno_sim::time::SimInstant;
use gpu_sc_attack::online::InferredKey;
use gpu_sc_attack::registry::ModelDigest;
use gpu_sc_attack::sampler::SamplerReport;
use gpu_sc_attack::trace::Sample;

use crate::error::{WireError, WireResult};
use crate::varint;

/// Bytes in the longest `u64` varint.
const MAX_VARINT: usize = 10;

/// Zigzag-maps a signed value to unsigned, so that small magnitudes of
/// either sign encode in few varint bytes: one byte for `[-64, 63]`.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Everything that can cross the link, under one version tag (see
/// [`crate::frame::WIRE_VERSION`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Opens the session. It is frame 0 of the client's stream, sent,
    /// acknowledged and retransmitted like any other data frame, and the
    /// server applies it before any read.
    Hello {
        /// Content address of the classifier model the sampler was trained
        /// against. The server resolves it in its own registry-backed
        /// store; a non-zero digest it does not hold is a typed error
        /// ([`gpu_sc_attack::service::ServiceError::ModelDigestMismatch`]).
        /// [`ModelDigest::ZERO`] requests legacy device recognition.
        model_digest: ModelDigest,
    },
    /// One counter read, shipped because it differs from the read before
    /// it (or is the session's first).
    Read(Sample),
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
const TAG_READ: u8 = 0x02;
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
    /// Encodes the message into a payload (to be framed by
    /// [`frame::encode`](crate::frame::encode)).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.len_hint());
        self.encode_into(&mut buf);
        buf
    }

    /// Appends the message's payload to `buf`.
    pub(crate) fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Message::Hello { model_digest } => {
                buf.push(TAG_HELLO);
                buf.extend_from_slice(model_digest.as_bytes());
            }
            Message::Read(read) => {
                buf.push(TAG_READ);
                varint::write_u64(buf, read.at.as_nanos());
                for &value in read.values.as_array() {
                    varint::write_u64(buf, value);
                }
            }
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

    /// An upper bound on the encoding's length.
    fn len_hint(&self) -> usize {
        match self {
            Message::Hello { .. } => 1 + 32,
            Message::Read(_) => 1 + (1 + NUM_TRACKED) * MAX_VARINT,
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
                let digest: [u8; 32] = buf
                    .get(pos..pos + 32)
                    .and_then(|bytes| bytes.try_into().ok())
                    .ok_or(WireError::Truncated)?;
                pos += 32;
                Message::Hello { model_digest: ModelDigest::from_bytes(digest) }
            }
            TAG_READ => {
                let at = SimInstant::from_nanos(varint::read_u64(buf, &mut pos)?);
                let mut values = [0u64; NUM_TRACKED];
                for value in &mut values {
                    *value = varint::read_u64(buf, &mut pos)?;
                }
                Message::Read(Sample { at, values: CounterSet::from_array(values) })
            }
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
    fn read_round_trips_and_every_truncation_is_typed() {
        let mut values = [0u64; NUM_TRACKED];
        for (i, v) in values.iter_mut().enumerate() {
            *v = (1 << (6 * i)) + i as u64;
        }
        values[NUM_TRACKED - 1] = u64::MAX;
        let read =
            Sample { at: SimInstant::from_millis(4_321), values: CounterSet::from_array(values) };
        let payload = Message::Read(read).encode();
        assert!(payload.len() <= Message::Read(read).len_hint(), "the hint bounds the encoding");
        assert_eq!(Message::decode(&payload), Ok(Message::Read(read)));
        for cut in 0..payload.len() {
            assert_eq!(Message::decode(&payload[..cut]), Err(WireError::Truncated), "cut at {cut}");
        }
    }

    #[test]
    fn hello_round_trips_model_digest() {
        let digest = ModelDigest::of(b"some model blob");
        let hello = Message::Hello { model_digest: digest };
        let payload = hello.encode();
        assert_eq!(Message::decode(&payload), Ok(hello));
    }

    #[test]
    fn hello_with_truncated_digest_rejected() {
        let digest = ModelDigest::of(b"some model blob");
        let mut payload = Message::Hello { model_digest: digest }.encode();
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
    }
}
