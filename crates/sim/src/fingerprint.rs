//! Deterministic structural hashing of live simulation state.
//!
//! The bounded model checker in `camp-modelcheck` memoizes explored states
//! by fingerprint, so the hash must be a pure function of the *structural*
//! state — independent of allocation addresses, hash-map iteration order, or
//! anything else that varies between runs of the same binary. [`StateHasher`]
//! therefore folds bytes through two independent 64-bit mixing streams (an
//! FNV-1a stream and a xorshift-multiply stream) and concatenates them into
//! a 128-bit digest: a birthday collision among the ~10⁷ states a bounded
//! exploration can visit is vanishingly unlikely (~10⁻²⁴).
//!
//! Both fingerprints of [`crate::Simulation`] are typed walks through
//! [`crate::canonical::Relabel`], which feeds [`StateHasher::write_varint`]
//! words: the plain one walks the state raw, with its own process ids,
//! message ids and contents, and the renaming-quotient one walks it under
//! every candidate renaming. No state or payload is rendered as text. The
//! one exception is the k-SA oracle's decision rule, a trait object whose
//! only view is its `Debug` text: [`StateHasher`] implements [`fmt::Write`]
//! so that text is consumed without materializing a string.

use std::fmt::{self, Write};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// A deterministic two-stream byte hasher producing a `u128` digest.
#[derive(Debug, Clone)]
pub struct StateHasher {
    a: u64,
    b: u64,
}

impl Default for StateHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StateHasher {
    /// A fresh hasher with fixed (build-independent) initial state.
    #[must_use]
    pub fn new() -> Self {
        Self {
            a: FNV_OFFSET,
            b: GOLDEN,
        }
    }

    #[inline]
    fn byte(&mut self, byte: u8) {
        self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        self.b = (self.b ^ u64::from(byte))
            .wrapping_mul(GOLDEN)
            .rotate_left(29);
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.byte(b);
        }
    }

    /// Feeds one `u64` (little-endian).
    pub fn write_u64(&mut self, x: u64) {
        self.write_bytes(&x.to_le_bytes());
    }

    /// Feeds one `usize`.
    pub fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    /// Feeds one `u64` in LEB128 form: seven bits per byte, low bits
    /// first, the high bit set on every byte but the last. Small numbers
    /// cost one byte, and the encoding is self-delimiting, so a sequence
    /// of them cannot alias.
    pub fn write_varint(&mut self, mut x: u64) {
        while x >= 0x80 {
            self.byte((x & 0x7f) as u8 | 0x80);
            x >>= 7;
        }
        self.byte(x as u8);
    }

    /// Feeds a field separator, so adjacent variable-length components
    /// cannot alias (`"ab" | "c"` vs `"a" | "bc"`).
    pub fn sep(&mut self) {
        self.byte(0xff);
        self.byte(0x00);
    }

    /// The 128-bit digest of everything fed so far.
    #[must_use]
    pub fn finish(&self) -> u128 {
        (u128::from(self.a) << 64) | u128::from(self.b)
    }
}

impl Write for StateHasher {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write_bytes(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(parts: &[&str]) -> u128 {
        let mut h = StateHasher::new();
        for p in parts {
            h.write_bytes(p.as_bytes());
            h.sep();
        }
        h.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(digest(&["a", "bc"]), digest(&["a", "bc"]));
    }

    #[test]
    fn separators_prevent_aliasing() {
        assert_ne!(digest(&["a", "bc"]), digest(&["ab", "c"]));
        assert_ne!(digest(&["a", ""]), digest(&["", "a"]));
    }

    #[test]
    fn formatted_text_matches_byte_path() {
        let mut h1 = StateHasher::new();
        write!(h1, "{:?}", 42u64).unwrap();
        let mut h2 = StateHasher::new();
        h2.write_bytes(b"42");
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn varints_are_leb128() {
        let mut h1 = StateHasher::new();
        h1.write_varint(5);
        h1.write_varint(300);
        let mut h2 = StateHasher::new();
        h2.write_bytes(&[5, 0xac, 0x02]);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn small_perturbations_change_both_halves() {
        let a = digest(&["state-1"]);
        let b = digest(&["state-2"]);
        assert_ne!(a >> 64, b >> 64);
        assert_ne!(a as u64, b as u64);
    }
}
