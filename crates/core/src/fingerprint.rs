//! Stable content hashing for incremental re-execution.
//!
//! Every workflow operator carries an [`OpFingerprint`]: a 128-bit
//! content address of *what the operator computes* — its spec and
//! parameters, its calibration-relevant configuration (language, cost
//! profile), and, folded in Merkle-style by the DAG builder, the
//! fingerprints of everything upstream. Two nodes with equal
//! fingerprints produce the same output multiset, so a result cache can
//! serve one's sealed output to the other and skip its whole upstream
//! cone.
//!
//! The hash must be **stable across runs and processes** (cache entries
//! outlive the workflow object that produced them), so this module
//! avoids `std`'s randomly-seeded hashers entirely: [`Fingerprinter`]
//! is a pair of independently-seeded FNV-1a streams over a
//! length-prefixed, type-tagged byte encoding.

use std::fmt;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Second-stream seed: the FNV offset basis run through one round of
/// splitmix64, giving the high lane an independent starting point.
const HI_OFFSET: u64 = 0x9e37_79b9_7f4a_7c15 ^ FNV_OFFSET;

/// A 128-bit stable fingerprint of an operator's computed content.
///
/// Displayed as 32 lowercase hex digits. Equal fingerprints mean "same
/// spec, same parameters, same upstream inputs" and license a result
/// cache to reuse sealed output across runs, backends, and tenants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpFingerprint(pub u128);

impl OpFingerprint {
    /// The zero fingerprint: the identity of
    /// [`OpFingerprint::fold_unordered`].
    pub const ZERO: OpFingerprint = OpFingerprint(0);

    /// Combine fingerprints **order-independently** (wrapping add of
    /// each element's lanes). Used for commutative inputs — a union's
    /// ports are interchangeable, so reordering them must not change
    /// the downstream fingerprint.
    pub fn fold_unordered(fps: impl IntoIterator<Item = OpFingerprint>) -> OpFingerprint {
        let mut acc = OpFingerprint::ZERO;
        for fp in fps {
            acc.0 = acc.0.wrapping_add(fp.0);
        }
        acc
    }
}

impl fmt::Display for OpFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Incremental builder of an [`OpFingerprint`].
///
/// Writes are type-tagged and length-prefixed, so `("ab", "c")` and
/// `("a", "bc")` hash differently, and a written `u64` can never
/// collide with a written string of the same bytes.
#[derive(Debug, Clone)]
pub struct Fingerprinter {
    lo: u64,
    hi: u64,
}

impl Fingerprinter {
    /// A fresh hasher, domain-separated by `domain` (e.g. `"op"` for a
    /// spec digest, `"node"` for the Merkle fold) so the two kinds of
    /// digest can never alias.
    pub fn new(domain: &str) -> Self {
        let mut h = Fingerprinter {
            lo: FNV_OFFSET,
            hi: HI_OFFSET,
        };
        h.write_str(domain);
        h
    }

    fn mix(&mut self, byte: u8) {
        self.lo = (self.lo ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        // The high lane sees each byte rotated so the two lanes stay
        // decorrelated even on runs of equal bytes.
        self.hi = (self.hi ^ u64::from(byte.rotate_left(3))).wrapping_mul(FNV_PRIME);
        self.hi = self.hi.rotate_left(5);
    }

    /// Write raw bytes (length-prefixed).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.mix(b'B');
        for b in (bytes.len() as u64).to_le_bytes() {
            self.mix(b);
        }
        for &b in bytes {
            self.mix(b);
        }
    }

    /// Write a string (length-prefixed UTF-8).
    pub fn write_str(&mut self, s: &str) {
        self.mix(b'S');
        for b in (s.len() as u64).to_le_bytes() {
            self.mix(b);
        }
        for &b in s.as_bytes() {
            self.mix(b);
        }
    }

    /// Write an unsigned integer.
    pub fn write_u64(&mut self, x: u64) {
        self.mix(b'U');
        for b in x.to_le_bytes() {
            self.mix(b);
        }
    }

    /// Write a signed integer.
    pub fn write_i64(&mut self, x: i64) {
        self.mix(b'I');
        for b in x.to_le_bytes() {
            self.mix(b);
        }
    }

    /// Write a `usize` (hashed as `u64`, so 32- and 64-bit builds
    /// agree).
    pub fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    /// Write a float by its bit pattern (`-0.0` and `0.0` hash
    /// differently; `NaN` hashes by payload — fingerprints demand
    /// bit-stability, not numeric equivalence).
    pub fn write_f64(&mut self, x: f64) {
        self.mix(b'F');
        for b in x.to_bits().to_le_bytes() {
            self.mix(b);
        }
    }

    /// Write a boolean.
    pub fn write_bool(&mut self, x: bool) {
        self.mix(if x { b'T' } else { b'f' });
    }

    /// Fold a previously-computed fingerprint into this one (the
    /// Merkle-link write).
    pub fn write_fingerprint(&mut self, fp: OpFingerprint) {
        self.mix(b'P');
        for b in fp.0.to_le_bytes() {
            self.mix(b);
        }
    }

    /// Seal the digest.
    pub fn finish(&self) -> OpFingerprint {
        // Final avalanche (splitmix64-style) on each lane so short
        // inputs still diffuse into all 128 bits.
        let fin = |mut z: u64| {
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        OpFingerprint((u128::from(fin(self.hi)) << 64) | u128::from(fin(self.lo)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp_of(f: impl FnOnce(&mut Fingerprinter)) -> OpFingerprint {
        let mut h = Fingerprinter::new("test");
        f(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_hashers() {
        let a = fp_of(|h| h.write_str("scan"));
        let b = fp_of(|h| h.write_str("scan"));
        assert_eq!(a, b);
    }

    #[test]
    fn sensitive_to_every_write_kind() {
        let base = fp_of(|h| h.write_str("x"));
        assert_ne!(base, fp_of(|h| h.write_str("y")));
        assert_ne!(fp_of(|h| h.write_u64(1)), fp_of(|h| h.write_u64(2)));
        assert_ne!(fp_of(|h| h.write_i64(1)), fp_of(|h| h.write_u64(1)));
        assert_ne!(fp_of(|h| h.write_f64(0.0)), fp_of(|h| h.write_f64(-0.0)));
        assert_ne!(
            fp_of(|h| h.write_bool(true)),
            fp_of(|h| h.write_bool(false))
        );
        assert_ne!(
            fp_of(|h| h.write_bytes(b"ab")),
            fp_of(|h| h.write_str("ab")),
            "byte and string writes are type-tagged apart"
        );
    }

    #[test]
    fn length_prefix_prevents_concatenation_collisions() {
        let a = fp_of(|h| {
            h.write_str("ab");
            h.write_str("c");
        });
        let b = fp_of(|h| {
            h.write_str("a");
            h.write_str("bc");
        });
        assert_ne!(a, b);
    }

    #[test]
    fn domains_separate() {
        let a = Fingerprinter::new("op").finish();
        let b = Fingerprinter::new("node").finish();
        assert_ne!(a, b);
    }

    #[test]
    fn unordered_fold_commutes_ordered_link_does_not() {
        let x = fp_of(|h| h.write_str("x"));
        let y = fp_of(|h| h.write_str("y"));
        assert_eq!(
            OpFingerprint::fold_unordered([x, y]),
            OpFingerprint::fold_unordered([y, x])
        );
        let xy = fp_of(|h| {
            h.write_fingerprint(x);
            h.write_fingerprint(y);
        });
        let yx = fp_of(|h| {
            h.write_fingerprint(y);
            h.write_fingerprint(x);
        });
        assert_ne!(xy, yx);
    }

    #[test]
    fn display_is_32_hex_digits() {
        let fp = fp_of(|h| h.write_str("scan"));
        let s = fp.to_string();
        assert_eq!(s.len(), 32);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(OpFingerprint::ZERO.to_string(), "0".repeat(32));
    }
}
