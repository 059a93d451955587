//! Query-skew generators: the traffic shapes a scenario can put on the wire.
//!
//! The engine's uniform draw models the paper's evaluation, but real request
//! streams are skewed — popularity follows a power law, launches concentrate a
//! crowd on one resource, load breathes on a daily cycle. Each [`QuerySkew`]
//! variant turns an [`EpochWorkload`] context into a [`QueryBatch`] for that
//! epoch, deriving **all** randomness from the context's batch seed so an
//! interleaved run stays a pure function of `(scenario, seed)` at any thread
//! count.
//!
//! [`QuerySkew::Uniform`] delegates to the engine's own draw
//! ([`QueryBatch::uniform_honest`]), so a scenario file with `skew = "uniform"`
//! reproduces [`run_interleaved`](faultline_engine::QueryEngine::run_interleaved)
//! bit for bit (`scenario_run`'s unit tests check it).

use faultline_core::overlay::NodeId;
use faultline_core::Network;
use faultline_engine::{ByzantineSet, EpochWorkload, QueryBatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Salt folded into the batch seed before drawing skewed pairs, so a skewed
/// generator and the engine's uniform draw never share an RNG stream for the
/// same epoch seed. (`"SKEWBATC"` in ASCII.)
const SKEW_SALT: u64 = 0x534B_4557_4241_5443;

/// How one epoch's `(source, target)` pairs are distributed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum QuerySkew {
    /// The engine's own uniform draw over honest alive nodes — byte-identical to
    /// [`run_interleaved`](faultline_engine::QueryEngine::run_interleaved).
    #[default]
    Uniform,
    /// Zipf-ranked endpoints: the node at rank `r` of the sorted alive list is
    /// drawn with weight `1 / r^exponent` (sources and targets independently).
    Zipf {
        /// The power-law exponent (in `(0, 8]`; ≈1 is classic web-request skew). A
        /// scenario file naming a larger one is refused at parse: past 8 nearly every
        /// draw lands on the top rank and the target redraw stalls.
        exponent: f64,
    },
    /// A small set of evenly spaced hotspot nodes absorbs `bias` of the traffic:
    /// with probability `bias` both endpoints are hotspots, otherwise the pair is
    /// uniform.
    HotspotPair {
        /// How many hotspot nodes (`≥ 1`; clamped to the honest population only
        /// when the population itself is smaller).
        hotspots: usize,
        /// Fraction of queries routed hotspot-to-hotspot (`[0, 1]`).
        bias: f64,
    },
    /// A flash crowd ramping over the run: by the final epoch, `peak` of all
    /// queries target one crowd node (the middle of the sorted alive list).
    FlashCrowd {
        /// Fraction of the final epoch's queries aimed at the crowd node (`[0, 1]`).
        peak: f64,
    },
    /// A diurnal load curve: pairs stay uniform but the per-epoch query *count*
    /// swings sinusoidally around the nominal volume.
    Diurnal {
        /// Peak-to-nominal swing (`[0, 1]`; `0.5` means ±50% around nominal).
        amplitude: f64,
        /// Epochs per full cycle (`≥ 1`).
        period: usize,
    },
}

impl QuerySkew {
    /// Short label used in scenario reports and summary rows.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            QuerySkew::Uniform => "uniform".to_owned(),
            QuerySkew::Zipf { exponent } => format!("zipf(s={exponent})"),
            QuerySkew::HotspotPair { hotspots, bias } => {
                format!("hotspot-pair(h={hotspots}, bias={bias})")
            }
            QuerySkew::FlashCrowd { peak } => format!("flash-crowd(peak={peak})"),
            QuerySkew::Diurnal { amplitude, period } => {
                format!("diurnal(amplitude={amplitude}, period={period})")
            }
        }
    }

    /// The query count epoch `epoch` actually issues for a nominal per-epoch
    /// volume: the nominal count for every skew except [`QuerySkew::Diurnal`],
    /// whose sinusoid modulates it.
    #[must_use]
    pub fn count_for(&self, nominal: usize, epoch: usize) -> usize {
        match self {
            QuerySkew::Diurnal { amplitude, period } => {
                let period = (*period).max(1);
                let phase = (epoch % period) as f64 / period as f64;
                let factor = 1.0 + amplitude * (std::f64::consts::TAU * phase).sin();
                (nominal as f64 * factor).round().max(0.0) as usize
            }
            _ => nominal,
        }
    }

    /// Draws one epoch's batch from the live network and the engine-supplied
    /// [`EpochWorkload`] context. All randomness derives from `context.seed`;
    /// adversarial endpoints (when the byzantine lane is open) are excluded
    /// exactly as the engine's honest uniform draw excludes them.
    #[must_use]
    pub fn batch(&self, network: &Network, context: &EpochWorkload<'_>) -> QueryBatch {
        let count = self.count_for(context.queries, context.epoch);
        match *self {
            // Delegate so uniform scenarios replay `run_interleaved` bit for bit.
            QuerySkew::Uniform => match context.adversaries {
                Some(set) => QueryBatch::uniform_honest(network, count, context.seed, set),
                None => QueryBatch::uniform(network, count, context.seed),
            },
            QuerySkew::Zipf { exponent } => skewed(network, context, |pool, rng| {
                zipf_pairs(pool, count, exponent, rng)
            }),
            QuerySkew::HotspotPair { hotspots, bias } => skewed(network, context, |pool, rng| {
                hotspot_pairs(pool, count, hotspots, bias, rng)
            }),
            QuerySkew::FlashCrowd { peak } => {
                let ramp = if context.epochs > 1 {
                    context.epoch as f64 / (context.epochs - 1) as f64
                } else {
                    1.0
                };
                skewed(network, context, |pool, rng| {
                    flash_crowd_pairs(pool, count, ramp * peak, rng)
                })
            }
            QuerySkew::Diurnal { .. } => skewed(network, context, |pool, rng| {
                uniform_pairs(pool, count, rng)
            }),
        }
    }
}

/// A skewed batch: `pairs` drawn over the honest pool from the salted batch seed,
/// or no pairs at all when fewer than two honest nodes are alive.
fn skewed(
    network: &Network,
    context: &EpochWorkload<'_>,
    pairs: impl FnOnce(&[NodeId], &mut StdRng) -> Vec<(NodeId, NodeId)>,
) -> QueryBatch {
    let pool = honest_pool(network, context.adversaries);
    if pool.len() < 2 {
        // Degenerate overlay: nothing meaningful to skew toward.
        return QueryBatch::from_pairs(context.seed, Vec::new());
    }
    let mut rng = StdRng::seed_from_u64(context.seed ^ SKEW_SALT);
    QueryBatch::from_pairs(context.seed, pairs(&pool, &mut rng))
}

/// Sorted alive nodes minus the resolved adversary set — the same population the
/// engine's honest uniform draw uses.
fn honest_pool(network: &Network, adversaries: Option<&ByzantineSet>) -> Vec<NodeId> {
    let alive = network.graph().alive_nodes();
    match adversaries {
        Some(set) => alive.into_iter().filter(|&p| !set.contains(p)).collect(),
        None => alive,
    }
}

fn uniform_pairs(pool: &[NodeId], count: usize, rng: &mut StdRng) -> Vec<(NodeId, NodeId)> {
    (0..count)
        .map(|_| {
            let source = pool[rng.gen_range(0..pool.len())];
            let mut target = pool[rng.gen_range(0..pool.len())];
            while target == source {
                target = pool[rng.gen_range(0..pool.len())];
            }
            (source, target)
        })
        .collect()
}

fn zipf_pairs(
    pool: &[NodeId],
    count: usize,
    exponent: f64,
    rng: &mut StdRng,
) -> Vec<(NodeId, NodeId)> {
    // Cumulative rank weights: rank r (1-based) has mass 1/r^s. Sampling is a
    // uniform draw on [0, total) resolved by binary search — O(log n) per
    // endpoint, no alias-table state to keep deterministic.
    let mut cumulative = Vec::with_capacity(pool.len());
    let mut total = 0.0f64;
    for rank in 1..=pool.len() {
        total += 1.0 / (rank as f64).powf(exponent);
        cumulative.push(total);
    }
    let draw = |rng: &mut StdRng| {
        let u = rng.gen_range(0.0..total);
        let idx = cumulative.partition_point(|&c| c <= u);
        pool[idx.min(pool.len() - 1)]
    };
    (0..count)
        .map(|_| {
            let source = draw(rng);
            let mut target = draw(rng);
            while target == source {
                target = draw(rng);
            }
            (source, target)
        })
        .collect()
}

fn hotspot_pairs(
    pool: &[NodeId],
    count: usize,
    hotspots: usize,
    bias: f64,
    rng: &mut StdRng,
) -> Vec<(NodeId, NodeId)> {
    // Evenly spaced hotspots over the sorted pool: stable under churn (the k-th
    // hotspot drifts with the population instead of vanishing when one node
    // leaves), and spread across the metric space so hotspot-to-hotspot routes
    // exercise long links.
    let k = hotspots.clamp(1, pool.len());
    let hot: Vec<NodeId> = (0..k).map(|i| pool[i * pool.len() / k]).collect();
    (0..count)
        .map(|_| {
            if rng.gen_range(0.0..1.0) < bias {
                let source = hot[rng.gen_range(0..hot.len())];
                let mut target = hot[rng.gen_range(0..hot.len())];
                while target == source && hot.len() > 1 {
                    target = hot[rng.gen_range(0..hot.len())];
                }
                while target == source {
                    // Single-hotspot degenerate case: finish the pair uniformly.
                    target = pool[rng.gen_range(0..pool.len())];
                }
                (source, target)
            } else {
                let source = pool[rng.gen_range(0..pool.len())];
                let mut target = pool[rng.gen_range(0..pool.len())];
                while target == source {
                    target = pool[rng.gen_range(0..pool.len())];
                }
                (source, target)
            }
        })
        .collect()
}

fn flash_crowd_pairs(
    pool: &[NodeId],
    count: usize,
    crowd_fraction: f64,
    rng: &mut StdRng,
) -> Vec<(NodeId, NodeId)> {
    let crowd = pool[pool.len() / 2];
    (0..count)
        .map(|_| {
            if rng.gen_range(0.0..1.0) < crowd_fraction {
                let mut source = pool[rng.gen_range(0..pool.len())];
                while source == crowd {
                    source = pool[rng.gen_range(0..pool.len())];
                }
                (source, crowd)
            } else {
                let source = pool[rng.gen_range(0..pool.len())];
                let mut target = pool[rng.gen_range(0..pool.len())];
                while target == source {
                    target = pool[rng.gen_range(0..pool.len())];
                }
                (source, target)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultline_core::NetworkConfig;

    fn network(n: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(42);
        Network::build(&NetworkConfig::paper_default(n), &mut rng)
    }

    fn context(queries: usize, seed: u64, epoch: usize, epochs: usize) -> EpochWorkload<'static> {
        EpochWorkload {
            epoch,
            epochs,
            queries,
            seed,
            adversaries: None,
        }
    }

    #[test]
    fn uniform_skew_reproduces_the_engine_draw_bit_for_bit() {
        let net = network(256);
        let skew = QuerySkew::Uniform;
        let batch = skew.batch(&net, &context(1_000, 7, 0, 3));
        assert_eq!(batch, QueryBatch::uniform(&net, 1_000, 7));
    }

    #[test]
    fn skewed_batches_are_deterministic_and_alive() {
        let net = network(256);
        let skews = [
            QuerySkew::Zipf { exponent: 1.1 },
            QuerySkew::HotspotPair {
                hotspots: 4,
                bias: 0.8,
            },
            QuerySkew::FlashCrowd { peak: 0.9 },
            QuerySkew::Diurnal {
                amplitude: 0.5,
                period: 4,
            },
        ];
        for skew in skews {
            let a = skew.batch(&net, &context(2_000, 11, 1, 4));
            let b = skew.batch(&net, &context(2_000, 11, 1, 4));
            assert_eq!(a, b, "{} must be seed-deterministic", skew.label());
            for &(s, t) in a.pairs() {
                assert!(net.graph().is_alive(s));
                assert!(net.graph().is_alive(t));
                assert_ne!(s, t, "{}: degenerate pair", skew.label());
            }
        }
    }

    #[test]
    fn zipf_concentrates_mass_on_low_ranks() {
        let net = network(512);
        let skew = QuerySkew::Zipf { exponent: 1.4 };
        let batch = skew.batch(&net, &context(20_000, 3, 0, 1));
        let alive = net.graph().alive_nodes();
        let head: Vec<NodeId> = alive.iter().copied().take(alive.len() / 10).collect();
        let head_hits = batch
            .pairs()
            .iter()
            .filter(|(s, _)| head.contains(s))
            .count();
        // Uniform would put ~10% of sources in the head decile; s=1.4 Zipf puts
        // well over a third there.
        assert!(
            head_hits * 3 > batch.len(),
            "zipf head decile got only {head_hits}/{} sources",
            batch.len()
        );
    }

    #[test]
    fn hotspot_bias_routes_traffic_through_the_hot_set() {
        let net = network(512);
        let skew = QuerySkew::HotspotPair {
            hotspots: 4,
            bias: 0.9,
        };
        let batch = skew.batch(&net, &context(10_000, 5, 0, 1));
        let pool = net.graph().alive_nodes();
        let hot: Vec<NodeId> = (0..4).map(|i| pool[i * pool.len() / 4]).collect();
        let hot_pairs = batch
            .pairs()
            .iter()
            .filter(|(s, t)| hot.contains(s) && hot.contains(t))
            .count();
        assert!(
            hot_pairs as f64 > 0.8 * batch.len() as f64,
            "only {hot_pairs}/{} pairs were hotspot-to-hotspot",
            batch.len()
        );
    }

    #[test]
    fn flash_crowd_ramps_from_uniform_to_the_crowd_node() {
        let net = network(512);
        let skew = QuerySkew::FlashCrowd { peak: 0.9 };
        let pool = net.graph().alive_nodes();
        let crowd = pool[pool.len() / 2];
        let crowd_share = |epoch: usize| {
            let batch = skew.batch(&net, &context(10_000, 9, epoch, 5));
            batch.pairs().iter().filter(|(_, t)| *t == crowd).count() as f64 / batch.len() as f64
        };
        let early = crowd_share(0);
        let late = crowd_share(4);
        assert!(early < 0.02, "epoch 0 must be ~uniform, got {early}");
        assert!(late > 0.8, "final epoch must hit ~peak, got {late}");
    }

    #[test]
    fn diurnal_counts_swing_around_the_nominal_volume() {
        let skew = QuerySkew::Diurnal {
            amplitude: 0.5,
            period: 4,
        };
        let counts: Vec<usize> = (0..4).map(|e| skew.count_for(1_000, e)).collect();
        assert_eq!(counts[0], 1_000, "phase 0 sits on the nominal volume");
        assert!(counts[1] > 1_400, "quarter phase peaks: {counts:?}");
        assert!(counts[3] < 600, "three-quarter phase troughs: {counts:?}");
        let total: usize = counts.iter().sum();
        assert!(
            (3_800..=4_200).contains(&total),
            "a full cycle conserves volume: {counts:?}"
        );
        // Non-diurnal skews never touch the count.
        assert_eq!(QuerySkew::Uniform.count_for(1_000, 3), 1_000);
        assert_eq!(QuerySkew::Zipf { exponent: 1.0 }.count_for(1_000, 3), 1_000);
    }

    #[test]
    fn skewed_draws_exclude_adversaries() {
        let net = network(256);
        let mut adversaries = ByzantineSet::new();
        for p in 0..64 {
            adversaries.insert(p * 4);
        }
        let workload = EpochWorkload {
            epoch: 0,
            epochs: 2,
            queries: 2_000,
            seed: 13,
            adversaries: Some(&adversaries),
        };
        for skew in [
            QuerySkew::Zipf { exponent: 1.1 },
            QuerySkew::HotspotPair {
                hotspots: 8,
                bias: 0.7,
            },
            QuerySkew::FlashCrowd { peak: 0.5 },
        ] {
            let batch = skew.batch(&net, &workload);
            for &(s, t) in batch.pairs() {
                assert!(
                    !adversaries.contains(s),
                    "{}: adversarial source",
                    skew.label()
                );
                assert!(
                    !adversaries.contains(t),
                    "{}: adversarial target",
                    skew.label()
                );
            }
        }
    }
}
