//! Resource keys and the `h : K -> V` hash embedding of Section 2.
//!
//! "We assume a hash function `h : K -> V` such that resource `r` maps to the point
//! `v = h(key(r))` in a metric space `(V, d)` [...] The hash function is assumed to
//! populate the metric space evenly."
//!
//! The implementation uses a fixed, dependency-free 64-bit hash (FNV-1a followed by a
//! SplitMix64 finaliser) so that key placement is stable across runs, platforms and
//! library versions — a property real deployments need because the placement of a key
//! must be recomputable by every node at any time.

use crate::Position;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// SplitMix64 finaliser; decorrelates the low bits of the FNV digest so that reduction
/// modulo a power of two still populates the space evenly.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// An opaque resource key (the `key(r)` of Section 2).
///
/// Keys wrap a 64-bit digest; they can be built from raw ids or from human-readable
/// names. Two keys built from the same name are always equal.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct Key(u64);

impl Key {
    /// Wraps an already-computed 64-bit key digest.
    #[must_use]
    pub fn from_raw(raw: u64) -> Self {
        Self(raw)
    }

    /// Hashes a human-readable resource name into a key.
    #[must_use]
    pub fn from_name(name: &str) -> Self {
        Self(splitmix64(fnv1a(name.as_bytes())))
    }

    /// The raw 64-bit digest underlying this key.
    #[must_use]
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl From<u64> for Key {
    fn from(raw: u64) -> Self {
        Key::from_raw(raw)
    }
}

impl std::fmt::Display for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Maps keys onto points of a metric space with `n` grid positions.
///
/// This is the resource-embedding half of the paper's design: the key space `K` is hashed
/// onto the point set `V = {0, ..., n-1}`. The mapping is stable and independent of which
/// nodes are currently alive, which is exactly why the metric space "forms an invulnerable
/// foundation over which to build the ephemeral parts of the data structure".
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct KeySpace {
    n: u64,
}

impl KeySpace {
    /// Creates a key space over `n` metric-space points.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: u64) -> Self {
        assert!(n > 0, "a KeySpace must map onto at least one point");
        Self { n }
    }

    /// Number of points keys are mapped onto.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Returns `true` if the key space is empty (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The metric-space point a key is embedded at.
    #[must_use]
    pub fn point_for(&self, key: &Key) -> Position {
        // A multiply-shift reduction avoids the modulo bias that plain `% n` would have
        // for n that are not powers of two (the bias is < 2^-64 * n either way, but the
        // multiply-shift is also faster).
        let wide = u128::from(key.as_u64()) * u128::from(self.n);
        (wide >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_stable_across_calls() {
        assert_eq!(Key::from_name("foo"), Key::from_name("foo"));
        assert_ne!(Key::from_name("foo"), Key::from_name("bar"));
    }

    #[test]
    fn known_key_digest_is_stable() {
        // Guards against accidental changes to the hash: key placement must not change
        // between library versions or the whole overlay would be re-keyed.
        let k = Key::from_name("faultline");
        assert_eq!(k, Key::from_name("faultline"));
        assert_eq!(k.as_u64(), splitmix64(fnv1a(b"faultline")));
    }

    #[test]
    fn points_are_in_range() {
        let ks = KeySpace::new(1000);
        for i in 0..10_000u64 {
            let p = ks.point_for(&Key::from_raw(splitmix64(i)));
            assert!(p < 1000);
        }
    }

    #[test]
    fn points_populate_the_space_evenly() {
        // Chi-square-lite check: hash 64k keys into 64 buckets and require every bucket
        // to be within 25% of the expected count.
        let ks = KeySpace::new(64);
        let mut counts = [0u64; 64];
        for i in 0..65_536u64 {
            counts[ks.point_for(&Key::from_name(&format!("resource-{i}"))) as usize] += 1;
        }
        let expected = 65_536 / 64;
        for &c in &counts {
            assert!(
                (c as i64 - expected as i64).unsigned_abs() < expected / 4,
                "bucket count {c} deviates too far from {expected}"
            );
        }
    }

    #[test]
    fn display_is_hex() {
        let k = Key::from_raw(0xdead_beef);
        assert_eq!(k.to_string(), "00000000deadbeef");
    }
}
