//! Plaxton-style digit-fixing routing (the mechanism behind Tapestry).

use faultline_routing::{FailureReason, RouteOutcome, RouteResult};
use rand::{seq::SliceRandom, Rng};

/// A fully populated identifier space of `base^digits` nodes routed by digit fixing.
///
/// Section 3: "Tapestry uses Plaxton's algorithm, a form of suffix-based, hypercube
/// routing [...] the message is forwarded deterministically to a node whose identifier is
/// one digit closer to the target identifier." With every identifier present, the node
/// "one digit closer" is unique: replace the next differing digit of the current
/// identifier by the target's digit. Delivery therefore takes at most `digits` hops.
#[derive(Debug, Clone)]
pub struct PlaxtonNetwork {
    base: u64,
    digits: u32,
    alive: Vec<bool>,
}

impl PlaxtonNetwork {
    /// Builds a network of `base^digits` identifiers.
    ///
    /// # Panics
    ///
    /// Panics if `base < 2`, `digits == 0`, or the identifier space exceeds `2^32` nodes
    /// (the baseline is meant for simulation-scale populations).
    #[must_use]
    pub fn new(base: u64, digits: u32) -> Self {
        assert!(base >= 2, "digit routing needs base >= 2");
        assert!(digits > 0, "at least one digit is required");
        let size = (base as u128).pow(digits);
        assert!(
            size <= 1 << 32,
            "identifier space too large for the baseline"
        );
        Self {
            base,
            digits,
            alive: vec![true; size as usize],
        }
    }

    /// Number of identifiers.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.alive.len() as u64
    }

    /// Returns `true` if the network is empty (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The digit base.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Identifier length in digits — also the worst-case hop count.
    #[must_use]
    pub fn digits(&self) -> u32 {
        self.digits
    }

    /// Returns `true` if node `i` is alive.
    #[must_use]
    pub fn is_alive(&self, i: u64) -> bool {
        self.alive.get(i as usize).copied().unwrap_or(false)
    }

    /// Crashes a uniformly random `fraction` of the alive nodes.
    pub fn fail_fraction<R: Rng + ?Sized>(&mut self, fraction: f64, rng: &mut R) -> u64 {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must be in [0, 1]"
        );
        let mut alive_ids: Vec<u64> = (0..self.len())
            .filter(|&i| self.alive[i as usize])
            .collect();
        alive_ids.shuffle(rng);
        let k = ((alive_ids.len() as f64) * fraction).round() as usize;
        for &v in alive_ids.iter().take(k) {
            self.alive[v as usize] = false;
        }
        k as u64
    }

    /// All currently alive node ids.
    #[must_use]
    pub fn alive_nodes(&self) -> Vec<u64> {
        (0..self.len())
            .filter(|&i| self.alive[i as usize])
            .collect()
    }

    /// Extracts digit `k` (0 = least significant) of identifier `id`.
    fn digit(&self, id: u64, k: u32) -> u64 {
        (id / self.base.pow(k)) % self.base
    }

    /// Replaces digit `k` of `id` with `value`.
    fn with_digit(&self, id: u64, k: u32, value: u64) -> u64 {
        let scale = self.base.pow(k);
        let current = self.digit(id, k);
        id - current * scale + value * scale
    }

    /// Routes a message by fixing digits from least to most significant.
    #[must_use]
    pub fn route(&self, source: u64, target: u64) -> RouteResult {
        if !self.is_alive(source) {
            return RouteResult::immediate_failure(FailureReason::DeadSource);
        }
        if !self.is_alive(target) {
            return RouteResult::immediate_failure(FailureReason::DeadTarget);
        }
        let mut current = source;
        let mut hops = 0u64;
        for k in 0..self.digits {
            if current == target {
                break;
            }
            let want = self.digit(target, k);
            if self.digit(current, k) == want {
                continue;
            }
            let next = self.with_digit(current, k, want);
            if !self.is_alive(next) {
                return RouteResult {
                    outcome: RouteOutcome::Failed(FailureReason::Stuck),
                    hops,
                    recoveries: 0,
                };
            }
            current = next;
            hops += 1;
        }
        debug_assert_eq!(current, target, "digit fixing always converges when alive");
        RouteResult {
            outcome: RouteOutcome::Delivered,
            hops,
            recoveries: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn digit_arithmetic_roundtrips() {
        let net = PlaxtonNetwork::new(4, 6);
        let id = 0b10_11_01_00_11_10u64; // digits (LSB first): 2,3,0,1,3,2
        assert_eq!(net.digit(id, 0), 2);
        assert_eq!(net.digit(id, 1), 3);
        assert_eq!(net.digit(id, 5), 2);
        let changed = net.with_digit(id, 0, 1);
        assert_eq!(net.digit(changed, 0), 1);
        assert_eq!(net.digit(changed, 1), 3);
    }

    #[test]
    fn undamaged_network_routes_within_digit_count() {
        let net = PlaxtonNetwork::new(4, 7); // 16384 nodes
        assert_eq!(net.len(), 1 << 14);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..300 {
            let s = rng.gen_range(0..net.len());
            let t = rng.gen_range(0..net.len());
            let r = net.route(s, t);
            assert!(r.is_delivered());
            assert!(r.hops <= 7);
        }
    }

    #[test]
    fn hop_count_equals_number_of_differing_digits() {
        let net = PlaxtonNetwork::new(2, 10);
        let r = net.route(0b0000000000, 0b1010101010);
        assert!(r.is_delivered());
        assert_eq!(r.hops, 5);
        assert_eq!(net.route(7, 7).hops, 0);
    }

    #[test]
    fn deterministic_path_is_brittle_under_failures() {
        // The paper notes that deterministic strategies can trap messages; Plaxton routing
        // has a single candidate per digit, so failures hurt it more than the randomized
        // overlay at the same failure level.
        let mut net = PlaxtonNetwork::new(2, 12);
        let mut rng = StdRng::seed_from_u64(1);
        net.fail_fraction(0.3, &mut rng);
        let alive = net.alive_nodes();
        let mut failed = 0usize;
        let total = 400usize;
        for _ in 0..total {
            let s = alive[rng.gen_range(0..alive.len())];
            let t = alive[rng.gen_range(0..alive.len())];
            if !net.route(s, t).is_delivered() {
                failed += 1;
            }
        }
        let rate = failed as f64 / total as f64;
        assert!(
            rate > 0.3,
            "expected heavy breakage, saw failure rate {rate}"
        );
    }

    #[test]
    fn dead_endpoints_fail_fast() {
        let mut net = PlaxtonNetwork::new(2, 4);
        net.alive[3] = false;
        assert!(!net.route(3, 9).is_delivered());
        assert!(!net.route(9, 3).is_delivered());
        assert_eq!(net.base(), 2);
        assert_eq!(net.digits(), 4);
    }
}
