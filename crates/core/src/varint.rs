//! Unsigned LEB128 varints, the one codec behind both byte formats: the
//! GPMR model encoding ([`crate::registry`]) and the wire protocol's
//! frames and messages. Each maps [`VarintError`] into its own error type.

/// Why a varint failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarintError {
    /// The buffer ended mid-varint.
    Truncated,
    /// The encoding ran past 10 bytes or carried bits beyond a `u64`.
    Overflow,
}

/// Appends `v` to `buf` as an unsigned LEB128 varint (1–10 bytes).
///
/// A value below 128, the common case in both formats (small fields, and
/// the delta-of-delta residuals of a steady sample batch), is one byte.
#[inline]
pub fn write_u64(buf: &mut Vec<u8>, v: u64) {
    if v < 0x80 {
        buf.push(v as u8);
    } else {
        write_long(buf, v);
    }
}

/// [`write_u64`] for a value of two bytes or more.
fn write_long(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Reads an unsigned LEB128 varint from `buf` at `*pos`, advancing `*pos`.
///
/// # Errors
///
/// [`VarintError::Truncated`] when the buffer ends mid-varint;
/// [`VarintError::Overflow`] when the encoding runs past 10 bytes or
/// carries bits beyond a `u64`. Either way `*pos` has moved past every
/// byte read.
#[inline]
pub fn read_u64(buf: &[u8], pos: &mut usize) -> Result<u64, VarintError> {
    match buf.get(*pos) {
        Some(&byte) if byte < 0x80 => {
            *pos += 1;
            Ok(u64::from(byte))
        }
        _ => read_long(buf, pos),
    }
}

/// [`read_u64`] past the one-byte case.
fn read_long(buf: &[u8], pos: &mut usize) -> Result<u64, VarintError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos).ok_or(VarintError::Truncated)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(VarintError::Overflow);
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(VarintError::Overflow);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_round_trips() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, 16_383, 16_384, u32::MAX as u64, u64::MAX];
        for &v in &values {
            buf.clear();
            write_u64(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_u64(&buf, &mut pos), Ok(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn truncated_and_overlong_are_errors() {
        assert_eq!(read_u64(&[0x80], &mut 0), Err(VarintError::Truncated));
        assert_eq!(read_u64(&[], &mut 0), Err(VarintError::Truncated));
        let overlong = [0xff; 11];
        assert_eq!(read_u64(&overlong, &mut 0), Err(VarintError::Overflow));
        // 10 bytes whose top byte carries bits beyond 2^64.
        let too_big = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
        assert_eq!(read_u64(&too_big, &mut 0), Err(VarintError::Overflow));
    }
}
