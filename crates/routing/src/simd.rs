//! Runtime-dispatched SIMD kernel for the frozen distance scan, and the
//! prefetch hint — the one module of this crate that may hold `unsafe`.
//!
//! [`best_neighbor_csr`](super::frozen)'s fast branch folds a packed
//! `(distance << 32) | label` minimum over a node's row slot — one distance, one
//! compare, one conditional move per label, with no order-dependence (an unsigned
//! minimum is associative and commutative). That makes it bit-for-bit
//! vectorizable: this module computes line distances for
//! [`ROW_STEP`] labels per fold with AVX2 `u32x8` intrinsics, maintaining per-lane
//! `(distance, label)` lexicographic minima — the same order as the packed `u64`
//! key — and reducing them to exactly the value the scalar fold produces.
//!
//! A row slot ([`FrozenRoutes::neighbors_padded`](faultline_overlay::FrozenRoutes::neighbors_padded))
//! is the snapshot's stride long, a [`ROW_STEP`] multiple, so a scan is exactly
//! `stride / ROW_STEP` folds whatever row a hop lands on: no remainder loop, no
//! length-dependent path for the branch predictor to learn per row. (Walks in a
//! lockstep group only overlap while that trip count is predictable; a mispredict
//! flushes the other walks' work with it.) The slot's `PAD_SENTINEL` tail folds
//! to keys forced to the unsigned maximum, which can never win.
//!
//! Dispatch is resolved **once** per [`KernelIsa::detect`] call site — a
//! [`RouteScratch`](crate::RouteScratch) or engine worker — never per hop:
//! `is_x86_feature_detected!("avx2")` plus the `FAULTLINE_FORCE_SCALAR`
//! environment override (any value other than `0` forces the scalar fold; CI runs
//! the whole suite both ways). Because the reduction is order-independent and
//! consumes no randomness, the SIMD and scalar kernels are contractually
//! bit-identical — same `RouteResult`, same RNG stream — which
//! `tests/frozen_equivalence.rs` pins across both greedy modes and all three
//! fault strategies. The scalar fold in `frozen.rs` stays as the portable
//! reference. On the paper's rows (`BENCH_route_kernel.json`, n = 2^14 on the
//! line, ℓ = 16, a 24-label slot; seven rounds on a 2-vCPU Xeon VM with AVX2)
//! single walks read a median 69 ns a hop (66–86) with the scalar fold against
//! 45 (44–46) with the vector scan, and a lockstep group of eight reads 36
//! (34–36) with the vector scan, so the vector kernel is the one the engine runs
//! wherever it can.
//!
//! Soundness: the only way to obtain an AVX2-dispatching [`KernelIsa`] is
//! [`KernelIsa::detect`], which checks the CPU feature at runtime — the variant
//! cannot be forged, so the `unsafe` `#[target_feature]` calls below are always
//! backed by a positive cpuid test.

// The intrinsics below are the innermost hot loop of the frozen kernel: the
// zero-allocation contract of `frozen.rs` extends through this entire module, its
// tests aside.
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_macros))]
#![cfg_attr(
    target_arch = "x86_64",
    expect(
        unsafe_code,
        reason = "runtime-dispatched AVX2 intrinsics and the prefetch hint are unreachable without `unsafe`"
    )
)]

use faultline_overlay::ROW_STEP;

/// Hints the CPU to pull the cache line holding `byte` towards L1. A no-op off
/// x86_64.
#[inline(always)]
fn prefetch(byte: *const u8) {
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: `_mm_prefetch` is in the x86_64 baseline (SSE), and a prefetch is a
        // hint that never faults or writes whatever address it is given; these ones
        // all lie inside a live slice anyway.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(byte.cast()) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = byte;
}

/// Prefetches every cache line `items` covers: one byte in every 64, then its last
/// byte, wherever in a line the slice starts. An empty slice is a no-op.
///
/// The walkers issue it on the row slot a walk has just moved to and will scan on
/// its next hop (a 96-byte slot covers two lines or three), right after the hop, so
/// the miss is served while a lockstep group's other walks take theirs. A caller
/// reading tables in a known order can issue it a few tables ahead.
#[inline(always)]
pub fn prefetch_slice<T>(items: &[T]) {
    /// Bytes in a cache line.
    const LINE: usize = 64;
    let bytes = core::mem::size_of_val(items);
    let base = items.as_ptr().cast::<u8>();
    let mut at = 0;
    while at < bytes {
        prefetch(base.wrapping_add(at));
        at += LINE;
    }
    if bytes > 0 {
        prefetch(base.wrapping_add(bytes - 1));
    }
}

/// Which implementation of the frozen distance scan a scratch dispatches to.
///
/// Obtain one from [`KernelIsa::detect`] (runtime cpuid + env override) or
/// [`KernelIsa::scalar`]; the inner kind is private so an AVX2-dispatching value
/// can never be constructed without the runtime feature check that makes the
/// `unsafe` intrinsic calls sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelIsa {
    kind: IsaKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IsaKind {
    /// Portable scalar fold — the reference implementation, and the only kind
    /// ever constructed on non-x86_64 targets.
    Scalar,
    /// AVX2 `u32x8` lanes; constructed only after `is_x86_feature_detected!`.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl KernelIsa {
    /// The portable scalar kernel (always available; what
    /// `FAULTLINE_FORCE_SCALAR` selects, and the reference side of the kernel A/B).
    #[must_use]
    pub const fn scalar() -> Self {
        Self {
            kind: IsaKind::Scalar,
        }
    }

    /// Detects the best available kernel once per process and caches the answer:
    /// AVX2 when the CPU supports it, unless the `FAULTLINE_FORCE_SCALAR`
    /// environment variable is set to anything other than `0`. The scalar
    /// fallback is the answer everywhere else (including non-x86_64 targets).
    #[must_use]
    pub fn detect() -> Self {
        use std::sync::OnceLock;
        static DETECTED: OnceLock<KernelIsa> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            if std::env::var_os("FAULTLINE_FORCE_SCALAR").is_some_and(|v| v != "0") {
                return Self::scalar();
            }
            #[cfg(target_arch = "x86_64")]
            if std::is_x86_feature_detected!("avx2") {
                return Self {
                    kind: IsaKind::Avx2,
                };
            }
            Self::scalar()
        })
    }

    /// Whether this kernel dispatches to vector instructions.
    #[must_use]
    pub fn is_simd(self) -> bool {
        self.kind != IsaKind::Scalar
    }

    /// Stable name of the dispatched instruction set (`engine_throughput`'s
    /// `distance-scan kernel:` line, `BENCH_route_kernel.json`'s `isa`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self.kind {
            IsaKind::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            IsaKind::Avx2 => "avx2",
        }
    }

    /// Labels reduced per fold: [`ROW_STEP`] on the AVX2 path (eight 32-bit
    /// lanes), 1 on the scalar kernel.
    #[must_use]
    pub fn lanes(self) -> usize {
        match self.kind {
            IsaKind::Scalar => 1,
            #[cfg(target_arch = "x86_64")]
            IsaKind::Avx2 => ROW_STEP,
        }
    }

    /// Runs the vectorized key scan when this kernel is a SIMD one: the minimum
    /// of `limit` and every packed `(distance << 32) | label` key in `row`.
    /// Must not be called on the scalar kernel — the caller's scalar fold is
    /// the implementation then.
    ///
    /// `row` is a whole row slot, a [`ROW_STEP`] multiple long: its `PAD_SENTINEL`
    /// labels reduce to `u64::MAX` keys and can never win.
    #[inline(always)]
    #[must_use]
    pub(crate) fn scan(self, row: &[u32], target: u64, limit: u64) -> u64 {
        match self.kind {
            // The scalar kernel never calls in here; `best_neighbor_csr` keeps
            // its own fold (over the logical row) as the reference.
            #[expect(
                clippy::unreachable,
                reason = "`best_neighbor_csr` branches on `is_simd` before calling `scan`, so a scalar kernel reaching here is a dispatch bug, not an input"
            )]
            IsaKind::Scalar => unreachable!("scalar kernels fold in best_neighbor_csr"),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the Avx2 kind only comes from `KernelIsa::detect` after a
            // positive `is_x86_feature_detected!("avx2")` on this very process,
            // so the target features the callees enable are present.
            IsaKind::Avx2 => unsafe { avx2::best_key_line(row, target, limit) },
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! The AVX2 lane implementations. Distance arithmetic stays in **32-bit**
    //! lanes — eight neighbours per `__m256i`, every op single-cycle — because
    //! both halves of the packed key fit `u32`: labels are `u32` by
    //! construction (the space has at most `u32::MAX` points, `PAD_SENTINEL`
    //! is reserved) and distances are at most `n - 1 < u32::MAX`. Each chunk's distances are then
    //! interleaved with their labels (`unpacklo/hi_epi32`) into packed
    //! `(distance << 32) | label` keys — the very keys the scalar fold
    //! compares — and reduced with a `u64` lane-wise minimum into two
    //! interleaved accumulators, so the running-minimum dependency chain stays
    //! short. AVX2 has no unsigned 64-bit compare, so keys live in the
    //! sign-flipped domain (distance's top bit pre-flipped while still 32-bit)
    //! where signed `_mm256_cmpgt_epi64` computes unsigned order.

    use super::ROW_STEP;
    use core::arch::x86_64::{
        __m256i, _mm256_blendv_epi8, _mm256_castsi256_si128, _mm256_cmpeq_epi32,
        _mm256_cmpgt_epi64, _mm256_extracti128_si256, _mm256_loadu_si256, _mm256_max_epu32,
        _mm256_min_epu32, _mm256_or_si256, _mm256_set1_epi32, _mm256_set1_epi64x, _mm256_sub_epi32,
        _mm256_unpackhi_epi32, _mm256_unpacklo_epi32, _mm256_xor_si256, _mm_blendv_epi8,
        _mm_cmpgt_epi64, _mm_cvtsi128_si64, _mm_unpackhi_epi64,
    };

    /// XOR mask flipping a `u32`'s sign bit. Applied to the 32-bit distance
    /// half it flips bit 63 of the packed key, mapping unsigned key order onto
    /// the signed order `_mm256_cmpgt_epi64` sees.
    const SIGN_FLIP: u32 = 1 << 31;

    /// Running minima over sign-flipped packed keys: two `u64x4` accumulators
    /// (one per unpack half) so consecutive chunks overlap instead of
    /// serialising on a single compare-blend chain.
    struct Acc(__m256i, __m256i);

    impl Acc {
        /// Seeds every lane with `limit`'s sign-flipped key.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn seed(limit: u64) -> Self {
            let seed = _mm256_set1_epi64x((limit ^ (u64::from(SIGN_FLIP) << 32)) as i64);
            Self(seed, seed)
        }

        /// Folds one eight-label chunk into the running minima.
        ///
        /// `dist` holds raw metric distances, `labels` the raw labels. A
        /// sentinel lane (`label == PAD_SENTINEL`, i.e. all ones) has its
        /// distance forced to `u32::MAX`, which no real lane can reach, so
        /// padding never wins the strict compare.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn fold8(&mut self, dist: __m256i, labels: __m256i, sign: __m256i) {
            let is_pad = _mm256_cmpeq_epi32(labels, _mm256_cmpeq_epi32(labels, labels));
            let dist_f = _mm256_xor_si256(_mm256_or_si256(dist, is_pad), sign);
            // Interleave into (dist_f << 32) | label u64 lanes = the packed
            // key with bit 63 pre-flipped; strict greater-than keeps the
            // incumbent on ties, exactly like the scalar `min` fold.
            let lo = _mm256_unpacklo_epi32(labels, dist_f);
            let hi = _mm256_unpackhi_epi32(labels, dist_f);
            self.0 = _mm256_blendv_epi8(self.0, lo, _mm256_cmpgt_epi64(self.0, lo));
            self.1 = _mm256_blendv_epi8(self.1, hi, _mm256_cmpgt_epi64(self.1, hi));
        }

        /// Collapses the eight lane minima back into one packed `u64` key,
        /// entirely in registers: accumulator pair -> 4 lanes -> 2 -> 1.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn reduce(self) -> u64 {
            let quad = _mm256_blendv_epi8(self.0, self.1, _mm256_cmpgt_epi64(self.0, self.1));
            let lo = _mm256_castsi256_si128(quad);
            let hi = _mm256_extracti128_si256(quad, 1);
            let pair = _mm_blendv_epi8(lo, hi, _mm_cmpgt_epi64(lo, hi));
            let swapped = _mm_unpackhi_epi64(pair, pair);
            let one = _mm_blendv_epi8(pair, swapped, _mm_cmpgt_epi64(pair, swapped));
            (_mm_cvtsi128_si64(one) as u64) ^ (u64::from(SIGN_FLIP) << 32)
        }
    }

    /// The whole [`ROW_STEP`]-label chunks of a row slot — all of it, since a
    /// slot is a `ROW_STEP` multiple long.
    #[inline]
    fn steps(row: &[u32]) -> &[[u32; ROW_STEP]] {
        let (steps, rest) = row.as_chunks();
        debug_assert!(rest.is_empty(), "row slots are ROW_STEP multiples");
        steps
    }

    /// Loads one chunk into a vector register.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn load(chunk: &[u32; ROW_STEP]) -> __m256i {
        // SAFETY: `chunk` is a live reference to eight u32s — the 32 bytes one
        // `__m256i` holds — and the load is the unaligned variant.
        unsafe { _mm256_loadu_si256(chunk.as_ptr().cast()) }
    }

    /// `min(limit, packed keys of row)` under the line's metric (absolute
    /// difference).
    ///
    /// # Safety
    ///
    /// The caller must have verified AVX2 support at runtime.
    #[target_feature(enable = "avx2")]
    // SAFETY: `#[target_feature]` makes this unsafe-to-call; the body only uses
    // AVX2 intrinsics, available under the caller's contract above.
    pub(super) unsafe fn best_key_line(row: &[u32], target: u64, limit: u64) -> u64 {
        debug_assert!(target <= u64::from(u32::MAX), "labels are u32");
        let sign = _mm256_set1_epi32(SIGN_FLIP as i32);
        let target_v = _mm256_set1_epi32(target as u32 as i32);
        let mut best = Acc::seed(limit);
        for chunk in steps(row) {
            let labels = load(chunk);
            // |label - target| = max(a, b) - min(a, b), exact in u32.
            let dist = _mm256_sub_epi32(
                _mm256_max_epu32(labels, target_v),
                _mm256_min_epu32(labels, target_v),
            );
            best.fold8(dist, labels, sign);
        }
        best.reduce()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar reference fold the AVX2 lanes must reproduce bit for bit.
    fn scalar_best(row: &[u32], target: u64, limit: u64) -> u64 {
        let mut best = limit;
        for &label in row {
            if label == faultline_overlay::PAD_SENTINEL {
                continue;
            }
            let label = u64::from(label);
            best = best.min((label.abs_diff(target) << 32) | label);
        }
        best
    }

    #[test]
    fn detect_is_stable_and_consistent() {
        let a = KernelIsa::detect();
        assert_eq!(a, KernelIsa::detect(), "detection is memoized");
        assert_eq!(a.is_simd(), a.lanes() > 1);
        assert_eq!(KernelIsa::scalar().lanes(), 1);
        assert_eq!(KernelIsa::scalar().label(), "scalar");
        assert!(!KernelIsa::scalar().is_simd());
    }

    #[test]
    fn simd_scan_matches_the_scalar_fold_on_exhaustive_row_shapes() {
        let isa = KernelIsa::detect();
        if !isa.is_simd() {
            return; // covered by the forced-scalar CI lane; nothing to compare
        }
        // Every logical row length 0..=4*ROW_STEP in a slot of every stride that
        // holds it (so: all-sentinel slots, full slots, every tail length),
        // labels at both ends of the space, extreme distances (keys with bit 63
        // set), and limits both permissive and already-optimal.
        let n = u64::from(u32::MAX) - 1;
        for len in 0..=4 * ROW_STEP {
            for steps in len.div_ceil(ROW_STEP).max(1)..=5 {
                let mut row: Vec<u32> = (0..len)
                    .map(|i| (i as u32).wrapping_mul(0x9E37_79B9) % (n as u32 - 1))
                    .collect();
                row.resize(steps * ROW_STEP, faultline_overlay::PAD_SENTINEL);
                for target in [0u64, 1, n / 2, n - 1] {
                    for limit in [u64::MAX, n << 32, 1 << 32, 0] {
                        let want = scalar_best(&row, target, limit);
                        let got = isa.scan(&row, target, limit);
                        assert_eq!(got, want, "len={len} steps={steps} target={target}");
                    }
                }
            }
        }
    }

    #[test]
    fn prefetching_any_row_is_harmless() {
        prefetch_slice::<u32>(&[]);
        prefetch_slice(&[7u32]);
        prefetch_slice(&[faultline_overlay::PAD_SENTINEL; 3 * ROW_STEP]);
        prefetch_slice(&[[0u64; 3]; 18]);
        prefetch_slice(&[(); 4]);
    }
}
