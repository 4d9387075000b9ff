//! Typed decode errors.
//!
//! Everything the decoder can dislike about a byte stream maps to a
//! [`WireError`] — never a panic. The fuzz proptests in `tests/` feed the
//! decoder arbitrary byte soup and assert exactly that.

use std::fmt;

use gpu_sc_attack::varint::VarintError;

/// Why a frame or message failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the structure did (a truncated datagram).
    Truncated,
    /// The frame does not start with the protocol magic.
    BadMagic,
    /// The frame's version tag does not match [`crate::frame::WIRE_VERSION`].
    VersionMismatch {
        /// Version tag found in the frame.
        got: u8,
    },
    /// The frame checksum does not match its contents (corruption).
    CrcMismatch,
    /// A varint ran longer than 10 bytes (no valid `u64` does).
    VarintOverflow,
    /// An unknown message tag.
    BadTag(u8),
    /// A declared length is inconsistent with the bytes actually present.
    LengthMismatch,
    /// Bytes were left over after the structure was fully decoded.
    TrailingBytes,
    /// A field decoded to a semantically invalid value (bad char, bad
    /// bool, non-UTF-8 text, …).
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "buffer ends mid-structure"),
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::VersionMismatch { got } => {
                write!(f, "wire version {got} is not {}", crate::frame::WIRE_VERSION)
            }
            WireError::CrcMismatch => write!(f, "frame checksum mismatch"),
            WireError::VarintOverflow => write!(f, "varint longer than 10 bytes"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t:#04x}"),
            WireError::LengthMismatch => write!(f, "declared length inconsistent with buffer"),
            WireError::TrailingBytes => write!(f, "trailing bytes after structure"),
            WireError::Malformed(what) => write!(f, "malformed field: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<VarintError> for WireError {
    fn from(e: VarintError) -> Self {
        match e {
            VarintError::Truncated => WireError::Truncated,
            VarintError::Overflow => WireError::VarintOverflow,
        }
    }
}

/// Decode-side result alias.
pub type WireResult<T> = Result<T, WireError>;
