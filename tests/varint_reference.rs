//! The LEB128 codec against the bytewise loop it replaced.
//!
//! `gpu_sc_attack::varint` is the one varint codec behind both byte
//! formats, GPMR model blobs and wire frames. The plain loop below is the
//! reference it must equal: one byte per iteration, shifting seven bits at
//! a time, with the overflow checks in the order the loop meets them. Every
//! value must encode to the same bytes, and every byte string must decode
//! to the same value or the same error, leaving the cursor at the same
//! position.

use gpu_eaves::attack::varint::{self, VarintError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Appends `v` to `buf` one seven-bit group per byte.
fn write_reference(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads one varint from `buf` at `*pos`, advancing `*pos` past every byte
/// it looked at.
fn read_reference(buf: &[u8], pos: &mut usize) -> Result<u64, VarintError> {
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

/// Every `2^(7k)` and its neighbours: the values where the encoding
/// changes length.
fn boundaries() -> Vec<u64> {
    let mut values = vec![0, 1, u64::MAX - 1, u64::MAX];
    for k in 1..=9u32 {
        let p = 1u64 << (7 * k);
        values.extend([p - 1, p, p + 1]);
    }
    values
}

/// Values spread over every encoded length: a random `u64` shifted right
/// by a random amount.
fn random_values(rng: &mut StdRng, n: usize) -> Vec<u64> {
    (0..n).map(|_| rng.gen::<u64>() >> rng.gen_range(0..64u32)).collect()
}

/// Decodes `buf` from `start` with both codecs and demands the same value
/// or error and the same final position.
fn assert_reads_agree(buf: &[u8], start: usize) {
    let (mut ours, mut theirs) = (start, start);
    let got = varint::read_u64(buf, &mut ours);
    let want = read_reference(buf, &mut theirs);
    assert_eq!((got, ours), (want, theirs), "decoding {buf:02x?} from {start}");
}

#[test]
fn every_value_encodes_to_the_reference_bytes() {
    let mut rng = StdRng::seed_from_u64(0x1EB1_2800);
    let mut values = boundaries();
    values.extend(random_values(&mut rng, 20_000));
    let (mut ours, mut theirs) = (Vec::new(), Vec::new());
    for &v in &values {
        // Append behind what is already there, as the encoders do.
        varint::write_u64(&mut ours, v);
        write_reference(&mut theirs, v);
        assert_eq!(ours, theirs, "encoding {v:#x}");
    }
    let (mut pos, mut decoded) = (0, Vec::new());
    while pos < ours.len() {
        decoded.push(varint::read_u64(&ours, &mut pos).expect("a valid stream decodes"));
    }
    assert_eq!(decoded, values, "the concatenated stream round-trips");
}

#[test]
fn every_prefix_of_every_encoding_decodes_as_the_reference_does() {
    let mut rng = StdRng::seed_from_u64(0x1EB1_2801);
    let mut values = boundaries();
    values.extend(random_values(&mut rng, 2_000));
    for v in values {
        let mut buf = vec![0xAA; 3];
        write_reference(&mut buf, v);
        for end in 3..=buf.len() {
            assert_reads_agree(&buf[..end], 3);
        }
        // With bytes after it, the varint still ends where it ends.
        buf.extend([0x80, 0x01]);
        assert_reads_agree(&buf, 3);
    }
}

#[test]
fn random_bytes_decode_as_the_reference_does() {
    let mut rng = StdRng::seed_from_u64(0x1EB1_2802);
    for _ in 0..20_000 {
        let len = rng.gen_range(0..16usize);
        // Bias towards continuation bits, so long varints and overflows
        // are common rather than rare.
        let buf: Vec<u8> = (0..len)
            .map(|_| if rng.gen_range(0..4u32) == 0 { rng.gen() } else { rng.gen::<u8>() | 0x80 })
            .collect();
        for start in 0..=len {
            assert_reads_agree(&buf, start);
        }
    }
}

#[test]
fn overlong_encodings_fail_as_the_reference_does() {
    // Ten bytes: the last may carry only bit 63, and only without a
    // continuation bit.
    for last in 0..=u8::MAX {
        let mut buf = vec![0xff; 9];
        buf.push(last);
        assert_reads_agree(&buf, 0);
        let mut buf = vec![0x80; 9];
        buf.push(last);
        assert_reads_agree(&buf, 0);
        // Eleven bytes: a tenth byte with its continuation bit set always
        // overflows, whatever follows.
        let mut buf = vec![0x80; 9];
        buf.extend([last | 0x80, 0x00]);
        assert_reads_agree(&buf, 0);
    }
    assert_eq!(read_reference(&[0xff; 11], &mut 0), Err(VarintError::Overflow));
}
