//! Property-based coverage of the wire codec: every [`Message`] variant
//! round-trips through its binary encoding and the frame envelope, a
//! foreign version tag is always rejected, and the decoder never panics on
//! arbitrary bytes — every malformation maps to a typed [`WireError`].

use adreno_sim::counters::{CounterSet, NUM_TRACKED};
use adreno_sim::time::SimInstant;
use gpu_sc_attack::online::InferredKey;
use gpu_sc_attack::registry::ModelDigest;
use gpu_sc_attack::sampler::SamplerReport;
use gpu_sc_attack::trace::Sample;
use proptest::prelude::*;
use wire::{frame, Message, WireError, WIRE_VERSION};

fn arb_sample() -> impl Strategy<Value = Sample> {
    (any::<u64>(), prop::collection::vec(any::<u64>(), NUM_TRACKED)).prop_map(|(at, values)| {
        let mut array = [0u64; NUM_TRACKED];
        array.copy_from_slice(&values);
        Sample { at: SimInstant::from_nanos(at), values: CounterSet::from_array(array) }
    })
}

fn arb_report() -> impl Strategy<Value = SamplerReport> {
    prop::collection::vec(any::<u64>(), 11).prop_map(|v| SamplerReport {
        attempted: v[0],
        acquired: v[1],
        scheduler_drops: v[2],
        abandoned: v[3],
        transient_errors: v[4],
        denied_reads: v[5],
        revocations_seen: v[6],
        reservation_losses: v[7],
        fd_reopens: v[8],
        reservations_reacquired: v[9],
        retries_spent: v[10],
    })
}

fn arb_key() -> impl Strategy<Value = InferredKey> {
    (any::<u64>(), any::<u64>(), any::<char>(), any::<bool>()).prop_map(
        |(at, decided_at, ch, via_split)| InferredKey {
            at: SimInstant::from_nanos(at),
            decided_at: SimInstant::from_nanos(decided_at),
            ch,
            via_split,
        },
    )
}

/// Every variant of the protocol, with arbitrary payloads.
fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        prop::collection::vec(any::<u64>(), 4).prop_map(|words| {
            let mut digest = [0u8; 32];
            for (chunk, word) in digest.chunks_exact_mut(8).zip(&words) {
                chunk.copy_from_slice(&word.to_le_bytes());
            }
            Message::Hello { model_digest: ModelDigest::from_bytes(digest) }
        }),
        arb_sample().prop_map(Message::Read),
        arb_report().prop_map(|report| Message::Fin { report }),
        any::<u64>().prop_map(|next_expected| Message::Ack { next_expected }),
        prop::collection::vec(arb_key(), 0..16).prop_map(|keys| Message::InferredKeys { keys }),
        ".{0,40}".prop_map(|recovered| Message::FinAck { recovered }),
    ]
}

/// CRC-32 one byte and one bit at a time, straight from the polynomial:
/// the reference the slice-by-8 [`wire::crc::crc32`] must match.
fn crc32_bytewise(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
        }
    }
    !crc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Slice-by-8 computes the bytewise CRC for every length, whatever its
    /// remainder modulo eight.
    #[test]
    fn crc32_matches_the_bytewise_reference(bytes in prop::collection::vec(any::<u8>(), 0..=2048)) {
        prop_assert_eq!(wire::crc::crc32(&bytes), crc32_bytewise(&bytes));
    }

    /// encode → decode is the identity for every message variant.
    #[test]
    fn every_message_round_trips(msg in arb_message()) {
        let encoded = msg.encode();
        prop_assert_eq!(Message::decode(&encoded), Ok(msg));
    }

    /// The same identity through the full frame envelope (seq + CRC).
    #[test]
    fn every_message_round_trips_framed(msg in arb_message(), seq in any::<u64>()) {
        let datagram = frame::encode(seq, &msg.encode());
        let (decoded_seq, payload) = frame::decode_in_place(&datagram).expect("own encoding must decode");
        prop_assert_eq!(decoded_seq, seq);
        prop_assert_eq!(Message::decode(payload), Ok(msg));
    }

    /// A frame stamped with any version other than ours is rejected before
    /// the payload is interpreted, whatever the payload is.
    #[test]
    fn foreign_version_tags_are_rejected(msg in arb_message(), seq in any::<u64>(), raw_version in any::<u8>()) {
        // Map the one colliding draw onto a neighbouring foreign version
        // rather than discarding the case.
        let version = if raw_version == WIRE_VERSION { raw_version.wrapping_add(1) } else { raw_version };
        let mut encoded = frame::encode(seq, &msg.encode());
        encoded[2] = version;
        prop_assert_eq!(frame::decode_in_place(&encoded), Err(WireError::VersionMismatch { got: version }));
    }

    /// Frame-decoding arbitrary bytes never panics: every outcome is either
    /// a valid frame or a typed [`WireError`].
    #[test]
    fn frame_decoder_never_panics_on_fuzz(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        match frame::decode_in_place(&bytes) {
            Ok((seq, payload)) => {
                // Anything that decodes must re-encode to the same bytes
                // (the envelope has exactly one encoding per frame).
                prop_assert_eq!(frame::encode(seq, payload), bytes);
            }
            Err(
                WireError::Truncated
                | WireError::BadMagic
                | WireError::VersionMismatch { .. }
                | WireError::CrcMismatch
                | WireError::VarintOverflow
                | WireError::BadTag(_)
                | WireError::LengthMismatch
                | WireError::TrailingBytes
                | WireError::Malformed(_),
            ) => {}
        }
    }

    /// Message-decoding arbitrary bytes never panics and never
    /// over-allocates: typed errors only.
    #[test]
    fn message_decoder_never_panics_on_fuzz(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = Message::decode(&bytes);
    }

    /// Corrupting any single byte of a framed message is detected — the
    /// decode either fails with a typed error or (only when the flip lands
    /// in the payload-length varint's redundant space) never silently
    /// yields a different message.
    #[test]
    fn single_byte_corruption_is_never_silent(msg in arb_message(), flip_at in any::<usize>(), flip_bit in 0u32..8) {
        let encoded = frame::encode(3, &msg.encode());
        let mut bad = encoded.clone();
        let i = flip_at % bad.len();
        bad[i] ^= 1 << flip_bit;
        match frame::decode_in_place(&bad) {
            Err(_) => {}
            Ok((seq, _)) => {
                // CRC-32 catches every single-bit flip over its span; the
                // only way decode can still succeed is if it did not
                // actually change the bytes (impossible here) — so any Ok
                // is a hard failure.
                prop_assert!(false, "flip at byte {} bit {} went unnoticed: {:?}", i, flip_bit, seq);
            }
        }
    }
}
