//! Helpers shared by the integration tests that pin digests.

/// The FNV-1a-64 offset basis: the hash of no bytes.
pub const FNV_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a-64 over `bytes`, continuing from `hash`.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3))
}
