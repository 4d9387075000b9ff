//! The length-prefixed frame envelope.
//!
//! Every datagram on the link is exactly one frame:
//!
//! ```text
//! ┌────────┬─────────┬─────────────┬─────────────┬─────────┬───────────┐
//! │ magic  │ version │ seq         │ payload len │ payload │ CRC-32    │
//! │ 2 B    │ 1 B     │ varint      │ varint      │ len B   │ 4 B LE    │
//! └────────┴─────────┴─────────────┴─────────────┴─────────┴───────────┘
//! ```
//!
//! The CRC covers everything before it, so a frame truncated anywhere —
//! including mid-CRC — fails closed. The version byte sits *outside* the
//! checksummed payload semantics on purpose: a peer speaking a different
//! protocol revision is rejected before any payload is interpreted.
//!
//! [`encode`] frames each payload once, into a datagram allocated at its
//! exact size, and [`decode_in_place`] decodes each datagram in place,
//! reading the payload as a slice of it.

use crate::crc::crc32;
use crate::error::{WireError, WireResult};
use crate::varint;

/// Protocol revision; bump on any incompatible layout change.
/// v2: `Hello` carries the 32-byte model digest (content address).
/// v3: one self-contained `Read` per changed counter read replaces the
/// columnar sample batch.
/// v4: `Hello` carries the model digest alone.
/// v5: the `Hello` is frame 0 of the client's data stream, and only the
/// server's `Ack` rides [`CONTROL_SEQ`](crate::CONTROL_SEQ). The codec is
/// v4's, but a v4 server would never open a v5 session.
pub const WIRE_VERSION: u8 = 5;

/// Two fixed bytes opening every frame ("GW": GPU wire).
pub const MAGIC: [u8; 2] = [0x47, 0x57];

/// Bytes in the LEB128 encoding of `v`.
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// The datagram of the frame carrying `payload` under `seq`, allocated once
/// at its exact size. `seq` is the frame's position in its sender's
/// reliable stream, over which Acks are cumulative, and `payload` an
/// encoded [`Message`](crate::message::Message).
pub fn encode(seq: u64, payload: &[u8]) -> Vec<u8> {
    let len = payload.len() as u64;
    let mut buf =
        Vec::with_capacity(MAGIC.len() + 1 + varint_len(seq) + varint_len(len) + payload.len() + 4);
    buf.extend_from_slice(&MAGIC);
    buf.push(WIRE_VERSION);
    varint::write_u64(&mut buf, seq);
    varint::write_u64(&mut buf, len);
    buf.extend_from_slice(payload);
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Decodes one datagram in place: its sequence number and its payload, a
/// slice of `bytes`. The checks run in a fixed order (length of the fixed
/// header, magic, version, the two varints, the declared length against
/// the datagram, then the CRC), so a datagram damaged in several ways
/// always reports the same error.
///
/// # Errors
///
/// Every malformation maps to a typed [`WireError`]: wrong magic, foreign
/// version, truncation anywhere, checksum mismatch, or bytes past the end.
pub fn decode_in_place(bytes: &[u8]) -> WireResult<(u64, &[u8])> {
    let mut pos = 0;
    if bytes.len() < MAGIC.len() + 1 {
        return Err(WireError::Truncated);
    }
    if bytes[..2] != MAGIC {
        return Err(WireError::BadMagic);
    }
    pos += 2;
    let version = bytes[pos];
    pos += 1;
    if version != WIRE_VERSION {
        return Err(WireError::VersionMismatch { got: version });
    }
    let seq = varint::read_u64(bytes, &mut pos)?;
    let len = varint::read_u64(bytes, &mut pos)?;
    let len = usize::try_from(len).map_err(|_| WireError::LengthMismatch)?;
    // The declared payload plus the trailing CRC must fit exactly.
    let crc_at = pos.checked_add(len).ok_or(WireError::LengthMismatch)?;
    let end = crc_at.checked_add(4).ok_or(WireError::LengthMismatch)?;
    match end.cmp(&bytes.len()) {
        std::cmp::Ordering::Greater => return Err(WireError::Truncated),
        std::cmp::Ordering::Less => return Err(WireError::TrailingBytes),
        std::cmp::Ordering::Equal => {}
    }
    let expected = u32::from_le_bytes(bytes[crc_at..end].try_into().expect("4 bytes"));
    if crc32(&bytes[..crc_at]) != expected {
        return Err(WireError::CrcMismatch);
    }
    Ok((seq, &bytes[pos..crc_at]))
}

#[cfg(test)]
mod tests {
    use super::*;

    const CONTROL: u64 = u64::MAX;

    #[test]
    fn round_trip() {
        for (seq, payload) in [(0u64, vec![]), (7, vec![1, 2, 3]), (u64::MAX, vec![0xff; 300])] {
            assert_eq!(decode_in_place(&encode(seq, &payload)), Ok((seq, &payload[..])));
        }
    }

    #[test]
    fn frames_are_sized_exactly() {
        for v in [0, 1, 127, 128, 16_383, 16_384, u64::MAX >> 1, u64::MAX] {
            let mut buf = Vec::new();
            varint::write_u64(&mut buf, v);
            assert_eq!(varint_len(v), buf.len(), "{v:#x}");
        }
        for (seq, len) in [(0u64, 0usize), (CONTROL, 5), (300, 200)] {
            let datagram = encode(seq, &vec![9; len]);
            assert_eq!(datagram.capacity(), datagram.len());
        }
    }

    #[test]
    fn any_truncation_fails_closed() {
        let encoded = encode(42, &(0..64).collect::<Vec<u8>>());
        for cut in 0..encoded.len() {
            let err = decode_in_place(&encoded[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated | WireError::LengthMismatch),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn corruption_is_detected() {
        let encoded = encode(9, &[5; 32]);
        // Flip one bit in every byte position past the version tag and
        // demand a typed error every time.
        for i in 3..encoded.len() {
            let mut bad = encoded.clone();
            bad[i] ^= 0x40;
            assert!(decode_in_place(&bad).is_err(), "flip at {i} went unnoticed");
        }
    }

    #[test]
    fn foreign_version_is_rejected_before_payload() {
        let mut encoded = encode(1, &[1, 2]);
        encoded[2] = WIRE_VERSION + 1;
        assert_eq!(
            decode_in_place(&encoded),
            Err(WireError::VersionMismatch { got: WIRE_VERSION + 1 })
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut encoded = encode(3, &[8, 8]);
        encoded.push(0);
        assert_eq!(decode_in_place(&encoded), Err(WireError::TrailingBytes));
    }
}
