//! Churn schedules: randomized sequences of node arrivals and departures.

use faultline_overlay::NodeId;
use rand::Rng;

/// A single churn event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ChurnEvent {
    /// A new node joins at the given grid point.
    Join(NodeId),
    /// The node at the given grid point departs (crash or graceful leave).
    Leave(NodeId),
}

/// A pre-generated schedule of churn events.
///
/// The paper expects "nodes to arrive and depart at a high rate" and its Section 5
/// heuristic is designed to keep the `1/d` link invariant under exactly this kind of
/// churn. A schedule is generated ahead of time so experiments remain reproducible and
/// the same schedule can be replayed against different maintenance strategies.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ChurnSchedule {
    events: Vec<ChurnEvent>,
}

impl ChurnSchedule {
    /// Wraps an explicit list of events.
    #[must_use]
    pub fn from_events(events: Vec<ChurnEvent>) -> Self {
        Self { events }
    }

    /// Generates a schedule of `steps` events over a space of `n` grid points.
    ///
    /// Each event is a join with probability `join_probability` (of a uniformly random
    /// currently-absent point) and otherwise a leave (of a uniformly random
    /// currently-present point). The generator tracks membership so the schedule is
    /// always *consistent*: it never asks an absent node to leave or a present node to
    /// join. `initially_present` seeds the membership set.
    ///
    /// # Panics
    ///
    /// Panics if `join_probability` is not in `[0, 1]` or if `n == 0`.
    #[must_use]
    pub fn generate<R: Rng + ?Sized>(
        n: u64,
        initially_present: &[NodeId],
        steps: usize,
        join_probability: f64,
        rng: &mut R,
    ) -> Self {
        assert!(n > 0, "churn needs a non-empty space");
        assert!(
            (0.0..=1.0).contains(&join_probability),
            "join probability must be in [0, 1]"
        );
        if steps == 0 {
            // Nothing to draw: skip the O(n) membership lists (no RNG is consumed
            // either way, so zero-churn epochs stay bit-identical).
            return Self { events: Vec::new() };
        }
        let mut present = vec![false; n as usize];
        let mut present_list: Vec<NodeId> = Vec::new();
        let mut absent_list: Vec<NodeId> = Vec::new();
        for &p in initially_present {
            assert!(p < n, "initially present node {p} outside the space");
            present[p as usize] = true;
        }
        for p in 0..n {
            if present[p as usize] {
                present_list.push(p);
            } else {
                absent_list.push(p);
            }
        }
        let mut events = Vec::with_capacity(steps);
        for _ in 0..steps {
            let want_join = rng.gen_bool(join_probability);
            if (want_join && !absent_list.is_empty()) || present_list.len() <= 1 {
                if absent_list.is_empty() {
                    // Space is full: nothing can join; skip (leaves still possible below).
                    if present_list.len() <= 1 {
                        break;
                    }
                } else {
                    let idx = rng.gen_range(0..absent_list.len());
                    let p = absent_list.swap_remove(idx);
                    present_list.push(p);
                    events.push(ChurnEvent::Join(p));
                    continue;
                }
            }
            if present_list.len() > 1 {
                let idx = rng.gen_range(0..present_list.len());
                let p = present_list.swap_remove(idx);
                absent_list.push(p);
                events.push(ChurnEvent::Leave(p));
            }
        }
        Self { events }
    }

    /// The events of this schedule, in order.
    #[must_use]
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// Number of events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if the schedule holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of join events.
    #[must_use]
    pub fn join_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, ChurnEvent::Join(_)))
            .count()
    }

    /// Number of leave events.
    #[must_use]
    pub fn leave_count(&self) -> usize {
        self.len() - self.join_count()
    }
}

impl IntoIterator for ChurnSchedule {
    type Item = ChurnEvent;
    type IntoIter = std::vec::IntoIter<ChurnEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    /// Replays a schedule and asserts it never double-joins or leaves an absent node.
    fn assert_consistent(n: u64, initially: &[NodeId], schedule: &ChurnSchedule) {
        let mut present = vec![false; n as usize];
        for &p in initially {
            present[p as usize] = true;
        }
        for event in schedule.events() {
            match *event {
                ChurnEvent::Join(p) => {
                    assert!(!present[p as usize], "double join of {p}");
                    present[p as usize] = true;
                }
                ChurnEvent::Leave(p) => {
                    assert!(present[p as usize], "leave of absent {p}");
                    present[p as usize] = false;
                }
            }
        }
    }

    #[test]
    fn generated_schedules_are_consistent() {
        let mut rng = StdRng::seed_from_u64(0);
        let initially: Vec<NodeId> = (0..500).collect();
        let schedule = ChurnSchedule::generate(1000, &initially, 2000, 0.5, &mut rng);
        assert_consistent(1000, &initially, &schedule);
        assert_eq!(schedule.len(), 2000);
        assert!(schedule.join_count() > 0);
        assert!(schedule.leave_count() > 0);
    }

    #[test]
    fn join_heavy_schedule_mostly_joins() {
        let mut rng = StdRng::seed_from_u64(1);
        let initially: Vec<NodeId> = (0..10).collect();
        let schedule = ChurnSchedule::generate(10_000, &initially, 1000, 0.9, &mut rng);
        assert_consistent(10_000, &initially, &schedule);
        assert!(schedule.join_count() as f64 / schedule.len() as f64 > 0.8);
    }

    #[test]
    fn never_leaves_the_last_node() {
        let mut rng = StdRng::seed_from_u64(3);
        // Tiny space, leave-heavy: the generator must keep at least one node present.
        let schedule = ChurnSchedule::generate(4, &[0, 1], 100, 0.1, &mut rng);
        assert_consistent(4, &[0, 1], &schedule);
    }

    #[test]
    fn zero_steps_yield_an_empty_schedule_and_draw_nothing() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut untouched = rng.clone();
        let schedule = ChurnSchedule::generate(1 << 20, &[0, 1], 0, 0.5, &mut rng);
        assert!(schedule.is_empty());
        assert_eq!(rng.gen::<u64>(), untouched.gen::<u64>());
    }

    #[test]
    fn schedule_iterates_in_order() {
        let schedule = ChurnSchedule::from_events(vec![ChurnEvent::Join(3), ChurnEvent::Leave(3)]);
        let collected: Vec<_> = schedule.clone().into_iter().collect();
        assert_eq!(collected, vec![ChurnEvent::Join(3), ChurnEvent::Leave(3)]);
        assert!(!schedule.is_empty());
    }
}
