//! The four workloads and the scenario TOML each hands to the program.
//!
//! Every workload runs on the same overlay — the paper's configuration,
//! ℓ = ⌈lg n⌉ links over the Section 5 constructed network, backtracking on
//! dead ends — and differs only in which layers it makes work. See the README
//! for why these four and what each is expected to move.

use crate::calibrate::Reference;
use std::fmt::Write as _;

/// Overlay size of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// n = 2^16, ℓ = 16: what every reported number is measured on.
    Full,
    /// n = 2^10, ℓ = 10, epochs a sixteenth the size: the `--smoke` run that
    /// checks the plumbing in seconds. Its numbers mean nothing.
    Smoke,
}

impl Scale {
    pub fn lg_nodes(self) -> u32 {
        match self {
            Scale::Full => 16,
            Scale::Smoke => 10,
        }
    }
}

/// One workload: a scenario shape plus how much of it a run measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    /// Lookups per epoch at full scale.
    pub lookups_per_epoch: usize,
    /// Epochs per `run_interleaved_with` call (a segment). At least the length
    /// of the failure schedule, which the engine refuses to truncate.
    pub epochs_per_segment: usize,
    /// Per-shard route-cache capacity; 0 turns the cache off.
    pub cache_capacity: usize,
    /// `[churn] fraction`, when the workload churns.
    pub churn_fraction: Option<f64>,
    /// `[failures] events`, when the workload injects correlated failures. The
    /// cycle ends healed and quiet, so a segment leaves no damage behind for
    /// the next one (the engine forgets its downed set between calls).
    pub failure_events: &'static [&'static str],
    /// Epochs of the untimed warm-up segment that ends set-up.
    pub warmup_epochs: usize,
    /// The machine speed the workload's time follows (see [`crate::calibrate`]).
    pub reference: Reference,
    /// Timed segments of a fixed-work run (no `--seconds`): sized so that a run
    /// has at least 100 timed epochs.
    pub fixed_segments: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "walk-uniform",
        lookups_per_epoch: 32_768,
        epochs_per_segment: 16,
        cache_capacity: 0,
        churn_fraction: None,
        failure_events: &[],
        warmup_epochs: 4,
        reference: Reference::Cache,
        fixed_segments: 15,
    },
    Workload {
        name: "hit-smallbatch",
        lookups_per_epoch: 4_096,
        epochs_per_segment: 256,
        cache_capacity: 1024,
        churn_fraction: None,
        failure_events: &[],
        warmup_epochs: 16,
        reference: Reference::Cache,
        fixed_segments: 32,
    },
    Workload {
        name: "churn-steady",
        lookups_per_epoch: 65_536,
        epochs_per_segment: 8,
        cache_capacity: 1024,
        churn_fraction: Some(0.0004),
        failure_events: &[],
        warmup_epochs: 2,
        reference: Reference::Memory,
        fixed_segments: 13,
    },
    Workload {
        name: "fail-heal",
        lookups_per_epoch: 65_536,
        epochs_per_segment: 8,
        cache_capacity: 1024,
        churn_fraction: None,
        failure_events: &[
            "region:512",
            "quiet",
            "heal",
            "quiet",
            "partition:256",
            "quiet",
            "heal",
            "quiet",
        ],
        warmup_epochs: 8,
        reference: Reference::Cache,
        fixed_segments: 13,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn lookups(&self, scale: Scale) -> usize {
        match scale {
            Scale::Full => self.lookups_per_epoch,
            Scale::Smoke => self.lookups_per_epoch / 16,
        }
    }

    /// Failure widths shrink with the overlay so the smoke run fails the same
    /// share of it.
    fn failure_event(event: &str, scale: Scale) -> String {
        match (event.split_once(':'), scale) {
            (Some((kind, width)), Scale::Smoke) => {
                let width: u64 = width.parse().expect("widths in the table are integers");
                format!("{kind}:{}", (width / 64).max(1))
            }
            _ => event.to_owned(),
        }
    }

    /// The scenario file for `epochs` epochs per call: the only description of
    /// the run the program ever sees (besides the batches).
    pub fn scenario_toml(&self, scale: Scale, seed: u64, workers: usize, epochs: usize) -> String {
        let lg = scale.lg_nodes();
        let mut out = String::new();
        let _ = writeln!(out, "[scenario]\nname = \"{}\"\nseed = {seed}\n", self.name);
        let _ = writeln!(
            out,
            "[network]\nnodes = \"2^{lg}\"\nlinks = {lg}\nstrategy = \"backtrack\"\n\
             construction = \"incremental\"\n"
        );
        let _ = writeln!(
            out,
            "[workload]\nqueries_per_epoch = {}\nepochs = {epochs}\nskew = \"uniform\"\n",
            self.lookups(scale)
        );
        if let Some(fraction) = self.churn_fraction {
            // The same events per epoch on the smaller overlay.
            let fraction = match scale {
                Scale::Full => fraction,
                Scale::Smoke => fraction * 64.0,
            };
            let _ = writeln!(out, "[churn]\nfraction = {fraction:?}\n");
        }
        let _ = writeln!(
            out,
            "[engine]\nthreads = {workers}\ncache_capacity = {}",
            self.cache_capacity
        );
        if !self.failure_events.is_empty() {
            let events: Vec<String> = self
                .failure_events
                .iter()
                .map(|event| format!("\"{}\"", Self::failure_event(event, scale)))
                .collect();
            let _ = writeln!(out, "\n[failures]\nevents = [{}]", events.join(", "));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_hold_the_whole_failure_cycle() {
        for workload in &WORKLOADS {
            assert!(workload.epochs_per_segment >= workload.failure_events.len());
            assert!(workload.warmup_epochs >= workload.failure_events.len());
            assert!(
                workload.fixed_segments * workload.epochs_per_segment >= 100,
                "{} has too few timed epochs for a p90",
                workload.name
            );
        }
    }

    #[test]
    fn generated_scenarios_round_trip_through_the_front_door() {
        use crate::sut::Scenario;
        for workload in &WORKLOADS {
            for scale in [Scale::Full, Scale::Smoke] {
                let toml = workload.scenario_toml(scale, 2002, 1, workload.epochs_per_segment);
                let parsed =
                    Scenario::parse(&toml).unwrap_or_else(|e| panic!("{}: {e}", workload.name));
                let again = Scenario::parse(&parsed.render()).expect("canonical rendering parses");
                assert!(
                    parsed.same_as(&again),
                    "{} does not round-trip",
                    workload.name
                );
                assert_eq!(parsed.nodes(), 1 << scale.lg_nodes());
                assert_eq!(parsed.links(), Some(scale.lg_nodes() as usize));
            }
        }
    }

    #[test]
    fn smoke_failures_shrink_with_the_overlay() {
        assert_eq!(
            Workload::failure_event("region:512", Scale::Smoke),
            "region:8"
        );
        assert_eq!(
            Workload::failure_event("region:512", Scale::Full),
            "region:512"
        );
        assert_eq!(Workload::failure_event("heal", Scale::Smoke), "heal");
    }
}
