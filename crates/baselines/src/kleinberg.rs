//! Kleinberg's two-dimensional small-world grid (exponent-2 long-range contacts).

use faultline_metric::{Point2, Torus2d};
use faultline_routing::{FailureReason, RouteOutcome, RouteResult};
use rand::{seq::SliceRandom, Rng};

/// A `side × side` torus where every node has its four lattice neighbours plus `ℓ`
/// long-range contacts drawn with probability proportional to `d^{-r}`.
///
/// Kleinberg's original model uses a non-wrapping grid and exponent `r = d = 2`; the
/// torus variant removes boundary effects so link sampling is position independent, which
/// is the same simplification the paper makes for its own line model ("the magnitude of
/// error does not appear to be large"). Routing is greedy on lattice distance.
#[derive(Debug, Clone)]
pub struct KleinbergGrid {
    torus: Torus2d,
    exponent: f64,
    /// Long-range contacts per node (flat indices).
    contacts: Vec<Vec<u64>>,
    alive: Vec<bool>,
}

impl KleinbergGrid {
    /// Builds the grid with `ell` long-range contacts per node and exponent `r`.
    ///
    /// # Panics
    ///
    /// Panics if `side < 2` or the exponent is negative/non-finite.
    pub fn build<R: Rng + ?Sized>(side: u64, ell: usize, exponent: f64, rng: &mut R) -> Self {
        assert!(side >= 2, "a Kleinberg grid needs side >= 2");
        assert!(
            exponent >= 0.0 && exponent.is_finite(),
            "the long-range exponent must be finite and non-negative"
        );
        let torus = Torus2d::new(side);
        let n = torus.len();

        // Position-independent offset table: every non-zero offset (dx, dy), weighted by
        // wrapped-L1-distance^-r. Sampling a contact = sampling an offset.
        let mut offsets: Vec<(u64, u64)> = Vec::with_capacity((n - 1) as usize);
        let mut cumulative: Vec<f64> = Vec::with_capacity((n - 1) as usize);
        let mut acc = 0.0f64;
        let origin = Point2::new(0, 0);
        for dy in 0..side {
            for dx in 0..side {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let d = torus.distance(origin, Point2::new(dx, dy));
                acc += (d as f64).powf(-exponent);
                offsets.push((dx, dy));
                cumulative.push(acc);
            }
        }

        let mut contacts = Vec::with_capacity(n as usize);
        for i in 0..n {
            let p = torus.point_of_index(i);
            let mut own = Vec::with_capacity(ell);
            for _ in 0..ell {
                let u: f64 = rng.gen_range(0.0..acc);
                let idx = cumulative
                    .partition_point(|&c| c <= u)
                    .min(offsets.len() - 1);
                let (dx, dy) = offsets[idx];
                let q = Point2::new((p.x + dx) % side, (p.y + dy) % side);
                own.push(torus.index_of_point(q));
            }
            own.sort_unstable();
            own.dedup();
            contacts.push(own);
        }

        Self {
            torus,
            exponent,
            contacts,
            alive: vec![true; n as usize],
        }
    }

    /// Kleinberg's optimal configuration for two dimensions: exponent 2.
    pub fn kleinberg_optimal<R: Rng + ?Sized>(side: u64, ell: usize, rng: &mut R) -> Self {
        Self::build(side, ell, 2.0, rng)
    }

    /// Number of nodes (`side²`).
    #[must_use]
    pub fn len(&self) -> u64 {
        self.torus.len()
    }

    /// Returns `true` if the grid is empty (never, by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The long-range exponent `r`.
    #[must_use]
    pub fn exponent(&self) -> f64 {
        self.exponent
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

    /// Greedy routing on lattice distance, terminating at the first dead end.
    #[must_use]
    pub fn route(&self, source: u64, target: u64) -> RouteResult {
        if !self.is_alive(source) {
            return RouteResult::immediate_failure(FailureReason::DeadSource);
        }
        if !self.is_alive(target) {
            return RouteResult::immediate_failure(FailureReason::DeadTarget);
        }
        let target_point = self.torus.point_of_index(target);
        let mut current = source;
        let mut hops = 0u64;
        let max_hops = 4 * self.torus.side() + 64;
        while current != target {
            if hops >= max_hops {
                return RouteResult {
                    outcome: RouteOutcome::Failed(FailureReason::HopLimit),
                    hops,
                    recoveries: 0,
                };
            }
            let p = self.torus.point_of_index(current);
            let current_distance = self.torus.distance(p, target_point);
            let lattice = self
                .torus
                .lattice_neighbors(p)
                .into_iter()
                .map(|q| self.torus.index_of_point(q));
            let best = lattice
                .chain(self.contacts[current as usize].iter().copied())
                .filter(|&c| self.is_alive(c))
                .map(|c| {
                    (
                        self.torus
                            .distance(self.torus.point_of_index(c), target_point),
                        c,
                    )
                })
                .filter(|&(d, _)| d < current_distance)
                .min();
            match best {
                Some((_, next)) => {
                    current = next;
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn undamaged_grid_always_delivers() {
        let mut rng = StdRng::seed_from_u64(0);
        let grid = KleinbergGrid::kleinberg_optimal(32, 2, &mut rng);
        assert_eq!(grid.len(), 1024);
        assert_eq!(grid.exponent(), 2.0);
        for _ in 0..100 {
            let s = rng.gen_range(0..grid.len());
            let t = rng.gen_range(0..grid.len());
            let r = grid.route(s, t);
            assert!(r.is_delivered());
            assert!(r.hops <= 64, "hops {} exceed the lattice diameter", r.hops);
        }
    }

    #[test]
    fn long_range_contacts_beat_the_bare_lattice() {
        let mut rng = StdRng::seed_from_u64(1);
        let side = 40u64;
        let small_world = KleinbergGrid::build(side, 3, 2.0, &mut rng);
        let lattice_only = KleinbergGrid::build(side, 0, 2.0, &mut rng);
        let mut hops_small_world = 0u64;
        let mut hops_lattice = 0u64;
        for _ in 0..300 {
            let s = rng.gen_range(0..small_world.len());
            let t = rng.gen_range(0..small_world.len());
            hops_small_world += small_world.route(s, t).hops;
            hops_lattice += lattice_only.route(s, t).hops;
        }
        // The bare torus needs (on average) about side/2 hops; exponent-2 contacts cut
        // that substantially (Kleinberg's polylogarithmic routing).
        assert!(
            (hops_small_world as f64) < 0.8 * hops_lattice as f64,
            "small world ({hops_small_world}) should clearly beat the lattice ({hops_lattice})"
        );
        assert!(
            hops_lattice as f64 / 300.0 > side as f64 / 3.0,
            "lattice-only routing should cost on the order of the diameter"
        );
    }

    #[test]
    fn failures_cause_some_stuck_searches() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut grid = KleinbergGrid::kleinberg_optimal(32, 1, &mut rng);
        grid.fail_fraction(0.4, &mut rng);
        let alive = grid.alive_nodes();
        let mut failed = 0;
        for _ in 0..200 {
            let s = alive[rng.gen_range(0..alive.len())];
            let t = alive[rng.gen_range(0..alive.len())];
            if !grid.route(s, t).is_delivered() {
                failed += 1;
            }
        }
        assert!(
            failed > 0,
            "40% node failures should break some greedy searches"
        );
    }

    #[test]
    fn dead_endpoints_fail_fast() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut grid = KleinbergGrid::kleinberg_optimal(8, 1, &mut rng);
        grid.alive[3] = false;
        assert!(!grid.route(3, 9).is_delivered());
        assert!(!grid.route(9, 3).is_delivered());
    }
}
