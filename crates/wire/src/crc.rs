//! CRC-32 (ISO-HDLC polynomial, the zlib/`crc32` flavour) for frame
//! integrity. Slice-by-8: eight lookup tables, built at compile time, fold
//! eight input bytes per step; a tail shorter than eight bytes takes the
//! classic one-table bytewise step. Both compute the same CRC.

/// The reflected ISO-HDLC polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the bytewise table. `TABLES[k][b]` is the CRC state
/// after `b` is followed by `k` zero bytes, so one step can XOR in the
/// contributions of eight bytes at different distances from the end.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 of `data` (init `!0`, final xor `!0` — the standard check value
/// of `b"123456789"` is `0xCBF43926`).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("chunks_exact yields 8 bytes"))
            ^ u64::from(crc);
        let byte = |i: u32| ((word >> (8 * i)) & 0xff) as usize;
        crc = TABLES[7][byte(0)]
            ^ TABLES[6][byte(1)]
            ^ TABLES[5][byte(2)]
            ^ TABLES[4][byte(3)]
            ^ TABLES[3][byte(4)]
            ^ TABLES[2][byte(5)]
            ^ TABLES[1][byte(6)]
            ^ TABLES[0][byte(7)];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn sensitive_to_any_flip() {
        let base = crc32(b"hello wire");
        let mut altered = b"hello wire".to_vec();
        altered[3] ^= 0x01;
        assert_ne!(base, crc32(&altered));
        assert_ne!(crc32(b""), crc32(&[0]));
    }
}
