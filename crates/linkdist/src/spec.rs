//! [`LinkSpec`]: how a node chooses its long-distance neighbours.

use crate::deterministic::Ladder;
use crate::inverse_power::InversePowerLaw;
use faultline_metric::{Geometry, Position};
use rand::Rng;

/// How every node of an overlay picks its long-distance links.
///
/// The paper draws links at random for `ℓ ∈ [1, lg n]` (Theorems 12, 13, 15, 17 and
/// 18) and lays a deterministic ladder for `ℓ ∈ (lg n, n^c]` (Theorems 14 and 16).
/// Immediate (±1) neighbours are not part of a spec; the overlay builder adds them
/// unconditionally, mirroring the paper's standing assumption that "each node is
/// connected to its immediate neighbors".
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum LinkSpec {
    /// `ℓ` independent draws with `Pr[v] ∝ 1/d(u, v)^exponent` (see
    /// [`InversePowerLaw`]). Exponent 1 is the paper's system, 0 gives uniform links,
    /// and other exponents serve the ablation experiments.
    InversePowerLaw {
        /// Exponent `r ≥ 0` of the `1/d^r` law.
        exponent: f64,
    },
    /// The digit ladder of Theorem 14: links at distances `j · b^i` for
    /// `j ∈ {1..b-1}`, in both directions where the space permits; `ℓ` is ignored.
    /// `b = 2` gives `O(log n)` links and delivery, `b = √n` gives `O(√n)` links and
    /// `O(1)` delivery.
    BaseB {
        /// Digit base `b ≥ 2`.
        base: u64,
    },
    /// The simplified ladder of Theorem 16: links at distances `b^i` only, the model
    /// the paper analyses under link failures; `ℓ` is ignored.
    PowerLadder {
        /// Ladder base `b ≥ 2`.
        base: u64,
    },
}

/// A spec made concrete over one geometry.
enum Sampler {
    PowerLaw(InversePowerLaw),
    Ladder(Ladder),
}

impl LinkSpec {
    /// The paper's choice: the inverse power law with exponent 1.
    #[must_use]
    pub const fn paper_default() -> Self {
        LinkSpec::InversePowerLaw { exponent: 1.0 }
    }

    /// The long-link sampler of this spec over `geometry`, made once per overlay (the
    /// distance table of a power law, the rungs of a ladder).
    ///
    /// The sampler maps `(from, ℓ, rng)` to the long-distance targets of the node at
    /// `from`, never `from` itself. A power law makes `ℓ` draws with replacement (as in
    /// Theorem 13), so targets may repeat; the overlay builder deduplicates them. A
    /// ladder returns its fixed, sorted target set and touches neither `ℓ` nor `rng`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has fewer than 2 points, the exponent is negative or not
    /// finite, or a ladder's base is below 2.
    pub fn sampler<R: Rng + ?Sized>(
        self,
        geometry: &Geometry,
    ) -> impl Fn(Position, usize, &mut R) -> Vec<Position> {
        let sampler = match self {
            LinkSpec::InversePowerLaw { exponent } => {
                Sampler::PowerLaw(InversePowerLaw::new(exponent, geometry))
            }
            LinkSpec::BaseB { base } => {
                Sampler::Ladder(Ladder::new(base, base.saturating_sub(1), geometry))
            }
            LinkSpec::PowerLadder { base } => Sampler::Ladder(Ladder::new(base, 1, geometry)),
        };
        move |from, ell, rng| match &sampler {
            Sampler::PowerLaw(dist) => dist.targets(from, ell, rng),
            Sampler::Ladder(ladder) => ladder.targets(from),
        }
    }
}
