//! Link-replacement strategies (Section 5's redirection rule).

use faultline_overlay::NodeId;
use rand::Rng;

/// What a node decided to do when a new arrival asked it for an incoming link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ReplacementDecision {
    /// Keep all existing links; the new node gets nothing from this node.
    Keep,
    /// Redirect the existing long-distance link pointing at `victim` towards the new node.
    Redirect {
        /// Target of the link that will be replaced.
        victim: NodeId,
    },
}

/// How a node chooses which existing long-distance link to sacrifice for a new arrival.
#[derive(
    Debug, Clone, Default, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum ReplacementStrategy {
    /// The paper's main strategy (extending Sarshar et al.): redirect with probability
    /// `p_{k+1} / Σ_{j=1}^{k+1} p_j`, and pick the victim `i` with probability
    /// `p_i / Σ_{j=1}^{k} p_j`, where `p_i = 1/d_i`.
    ///
    /// The product of the two probabilities is exactly the amount of probability mass the
    /// invariant says must move from "link to `i`" to "link to the new node `v`" when the
    /// population grows by one (the displayed equation at the end of Section 5).
    #[default]
    InverseDistance,
    /// The alternative the paper also measured: same redirect probability, but the victim
    /// is always the **oldest** existing long-distance link ("a node chooses its oldest
    /// link to replace with a link to the new node"). The paper reports its performance
    /// is "almost as good".
    Oldest,
}

impl ReplacementStrategy {
    /// Short label used in benchmark output.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ReplacementStrategy::InverseDistance => "inverse-distance",
            ReplacementStrategy::Oldest => "oldest-link",
        }
    }

    /// Decides whether (and which) existing link to redirect towards a new arrival.
    ///
    /// `existing` lists the node's current live long-distance links as
    /// `(target, distance to target, birth stamp)`; `new_distance` is the distance to the
    /// arriving node. Nodes with no long-distance links always redirect (they have spare
    /// capacity and the invariant wants them to know about the newcomer); in that case the
    /// caller should simply add a fresh link.
    pub fn decide<R: Rng + ?Sized>(
        &self,
        existing: &[(NodeId, u64, u64)],
        new_distance: u64,
        rng: &mut R,
    ) -> ReplacementDecision {
        assert!(new_distance > 0, "a node is never asked to link to itself");
        let Some(&(last, _, _)) = existing.last() else {
            // Nothing to replace; treat as "redirect a phantom link", i.e. just accept.
            return ReplacementDecision::Redirect {
                victim: NodeId::MAX,
            };
        };
        let p_new = 1.0 / new_distance as f64;
        let weights: Vec<f64> = existing
            .iter()
            .map(|&(_, d, _)| {
                debug_assert!(d > 0, "existing link distances are positive");
                1.0 / d as f64
            })
            .collect();
        let sum_existing: f64 = weights.iter().sum();
        let accept_probability = p_new / (sum_existing + p_new);
        if !rng.gen_bool(accept_probability.clamp(0.0, 1.0)) {
            return ReplacementDecision::Keep;
        }
        let victim = match self {
            ReplacementStrategy::Oldest => existing
                .iter()
                .min_by_key(|&&(_, _, birth)| birth)
                .map_or(last, |&(target, _, _)| target),
            ReplacementStrategy::InverseDistance => {
                let mut pick = rng.gen_range(0.0..sum_existing);
                let mut chosen = last;
                for (idx, &(target, _, _)) in existing.iter().enumerate() {
                    if pick < weights[idx] {
                        chosen = target;
                        break;
                    }
                    pick -= weights[idx];
                }
                chosen
            }
        };
        ReplacementDecision::Redirect { victim }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn empty_link_set_always_accepts() {
        let mut rng = StdRng::seed_from_u64(0);
        let d = ReplacementStrategy::InverseDistance.decide(&[], 10, &mut rng);
        assert_eq!(
            d,
            ReplacementDecision::Redirect {
                victim: NodeId::MAX
            }
        );
    }

    #[test]
    fn oldest_strategy_always_evicts_the_oldest_when_it_redirects() {
        let mut rng = StdRng::seed_from_u64(1);
        let existing = [(100u64, 50u64, 7u64), (200, 20, 3), (300, 80, 12)];
        let mut redirects = 0;
        for _ in 0..500 {
            match ReplacementStrategy::Oldest.decide(&existing, 5, &mut rng) {
                ReplacementDecision::Redirect { victim } => {
                    redirects += 1;
                    assert_eq!(victim, 200, "victim must be the oldest link (birth 3)");
                }
                ReplacementDecision::Keep => {}
            }
        }
        assert!(redirects > 0);
    }

    #[test]
    fn acceptance_probability_matches_the_formula() {
        // Links at distances 10 and 40, newcomer at distance 10:
        // accept = (1/10) / (1/10 + 1/40 + 1/10) = 4/9.
        let existing = [(1u64, 10u64, 0u64), (2, 40, 1)];
        let mut rng = StdRng::seed_from_u64(2);
        let trials = 60_000;
        let mut accepted = 0;
        for _ in 0..trials {
            if matches!(
                ReplacementStrategy::InverseDistance.decide(&existing, 10, &mut rng),
                ReplacementDecision::Redirect { .. }
            ) {
                accepted += 1;
            }
        }
        let frac = accepted as f64 / trials as f64;
        assert!(
            (frac - 4.0 / 9.0).abs() < 0.01,
            "acceptance fraction {frac}"
        );
    }

    #[test]
    fn victim_selection_follows_inverse_distance_weights() {
        // Victims at distances 10 and 40: victim probabilities 4/5 and 1/5 respectively.
        let existing = [(1u64, 10u64, 0u64), (2, 40, 1)];
        let mut rng = StdRng::seed_from_u64(3);
        let mut near = 0u64;
        let mut far = 0u64;
        for _ in 0..60_000 {
            if let ReplacementDecision::Redirect { victim } =
                ReplacementStrategy::InverseDistance.decide(&existing, 1, &mut rng)
            {
                if victim == 1 {
                    near += 1;
                } else {
                    far += 1;
                }
            }
        }
        let frac_near = near as f64 / (near + far) as f64;
        assert!(
            (frac_near - 0.8).abs() < 0.02,
            "near-victim fraction {frac_near}"
        );
    }

    #[test]
    fn closer_newcomers_are_accepted_more_often() {
        let existing = [(1u64, 16u64, 0u64), (2, 64, 1), (3, 256, 2)];
        let mut rng = StdRng::seed_from_u64(4);
        let accept_rate = |dist: u64, rng: &mut StdRng| {
            let mut ok = 0;
            for _ in 0..20_000 {
                if matches!(
                    ReplacementStrategy::InverseDistance.decide(&existing, dist, rng),
                    ReplacementDecision::Redirect { .. }
                ) {
                    ok += 1;
                }
            }
            ok as f64 / 20_000.0
        };
        let near = accept_rate(2, &mut rng);
        let far = accept_rate(512, &mut rng);
        assert!(near > far, "near {near} should exceed far {far}");
    }

    #[test]
    fn labels_and_default() {
        assert_eq!(
            ReplacementStrategy::default(),
            ReplacementStrategy::InverseDistance
        );
        assert_eq!(
            ReplacementStrategy::InverseDistance.label(),
            "inverse-distance"
        );
        assert_eq!(ReplacementStrategy::Oldest.label(), "oldest-link");
    }
}
