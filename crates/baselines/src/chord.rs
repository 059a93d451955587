//! A Chord-style ring with finger tables (Stoica et al., referenced in Section 3).

use faultline_routing::{FailureReason, RouteOutcome, RouteResult};
use rand::{seq::SliceRandom, Rng};

/// A Chord identifier circle with `n` positions, every position hosting a node, and a
/// finger table of `⌈log₂ n⌉` entries per node.
///
/// Finger `k` of node `i` points at the first alive-at-construction node succeeding
/// `i + 2^k` (with every position populated, that is exactly `i + 2^k mod n`). Routing is
/// greedy and strictly clockwise: forward to the farthest finger that does not overshoot
/// the target — the paper classifies this as one-sided greedy routing on a circle.
#[derive(Debug, Clone)]
pub struct ChordNetwork {
    n: u64,
    /// `fingers[i]` holds the finger targets of node `i` (including the ±1 successor).
    fingers: Vec<Vec<u64>>,
    alive: Vec<bool>,
}

impl ChordNetwork {
    /// Builds a fully populated Chord ring with `n` positions.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn new(n: u64) -> Self {
        assert!(n >= 2, "a Chord ring needs at least two nodes");
        let mut fingers = Vec::with_capacity(n as usize);
        for i in 0..n {
            let mut table = vec![clockwise_step(n, i, 1)];
            let mut span = 2u64;
            while span < n {
                table.push(clockwise_step(n, i, span));
                span = span.saturating_mul(2);
            }
            table.dedup();
            fingers.push(table);
        }
        Self {
            n,
            fingers,
            alive: vec![true; n as usize],
        }
    }

    /// Number of positions on the ring.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Returns `true` if the ring is empty (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Returns `true` if node `i` is alive.
    #[must_use]
    pub fn is_alive(&self, i: u64) -> bool {
        self.alive.get(i as usize).copied().unwrap_or(false)
    }

    /// Crashes a uniformly random `fraction` of the alive nodes, returning how many fell.
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

    /// Routes a message from `source` to `target` using greedy clockwise finger routing.
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
        let max_hops = 2 * self.len();
        while current != target {
            if hops >= max_hops {
                return RouteResult {
                    outcome: RouteOutcome::Failed(FailureReason::HopLimit),
                    hops,
                    recoveries: 0,
                };
            }
            let remaining = clockwise_distance(self.n, current, target);
            // Farthest alive finger that does not overshoot the target (clockwise).
            let next = self.fingers[current as usize]
                .iter()
                .copied()
                .filter(|&f| self.is_alive(f) && f != current)
                .filter(|&f| clockwise_distance(self.n, current, f) <= remaining)
                .max_by_key(|&f| clockwise_distance(self.n, current, f));
            match next {
                Some(f) => {
                    current = f;
                    hops += 1;
                }
                None => {
                    return RouteResult {
                        outcome: RouteOutcome::Failed(FailureReason::Stuck),
                        hops,
                        recoveries: 0,
                    };
                }
            }
        }
        RouteResult {
            outcome: RouteOutcome::Delivered,
            hops,
            recoveries: 0,
        }
    }
}

/// The point `offset` steps clockwise (increasing label, wrapping) from `a` on a ring of `n`.
fn clockwise_step(n: u64, a: u64, offset: u64) -> u64 {
    (a + offset % n) % n
}

/// Clockwise distance from `a` to `b` on a ring of `n`.
fn clockwise_distance(n: u64, a: u64, b: u64) -> u64 {
    (b + n - a) % n
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn clockwise_step_wraps() {
        assert_eq!(clockwise_step(10, 9, 1), 0);
        assert_eq!(clockwise_step(10, 4, 23), 7);
        assert_eq!(clockwise_distance(10, 7, 2), 5);
        assert_eq!(clockwise_distance(10, 9, 0), 1);
    }

    #[test]
    fn undamaged_ring_routes_in_log_hops() {
        let n = 1u64 << 12;
        let chord = ChordNetwork::new(n);
        assert_eq!(chord.fingers[0].len(), 12);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..200 {
            let s = rng.gen_range(0..n);
            let t = rng.gen_range(0..n);
            let r = chord.route(s, t);
            assert!(r.is_delivered());
            assert!(
                r.hops <= 12,
                "Chord must route in <= log2 n hops, took {}",
                r.hops
            );
        }
    }

    #[test]
    fn finger_tables_point_at_powers_of_two() {
        let chord = ChordNetwork::new(16);
        assert_eq!(chord.fingers[0], vec![1, 2, 4, 8]);
        assert_eq!(chord.fingers[15], vec![0, 1, 3, 7]);
    }

    #[test]
    fn failures_degrade_but_do_not_always_break_routing() {
        let n = 1u64 << 10;
        let mut chord = ChordNetwork::new(n);
        let mut rng = StdRng::seed_from_u64(1);
        let failed = chord.fail_fraction(0.3, &mut rng);
        assert_eq!(failed, 307);
        let alive = chord.alive_nodes();
        let mut delivered = 0;
        let mut total = 0;
        for _ in 0..300 {
            let s = alive[rng.gen_range(0..alive.len())];
            let t = alive[rng.gen_range(0..alive.len())];
            total += 1;
            if chord.route(s, t).is_delivered() {
                delivered += 1;
            }
        }
        let rate = f64::from(delivered) / f64::from(total);
        assert!(rate > 0.2, "delivery rate {rate} collapsed entirely");
        assert!(
            rate < 1.0,
            "with 30% failures some one-sided searches must fail"
        );
    }

    #[test]
    fn dead_endpoints_fail_fast() {
        let mut chord = ChordNetwork::new(64);
        chord.alive[5] = false;
        assert_eq!(
            chord.route(5, 10).outcome,
            RouteOutcome::Failed(FailureReason::DeadSource)
        );
        assert_eq!(
            chord.route(10, 5).outcome,
            RouteOutcome::Failed(FailureReason::DeadTarget)
        );
        assert!(chord.route(10, 10).is_delivered());
    }

    #[test]
    fn clockwise_only_routing_never_overshoots() {
        let chord = ChordNetwork::new(256);
        // Route from 250 to 10: must go clockwise through 0, never past 10.
        let r = chord.route(250, 10);
        assert!(r.is_delivered());
        assert!(r.hops <= 8);
    }
}
