//! Batch-level results and statistics.

use faultline_overlay::NodeId;
use faultline_sim::Summary;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};
use std::time::Duration;

/// The outcome of one query in a batch: what the paper charges a lookup (its
/// endpoints, whether it delivered, and the messages it took) plus how many walks
/// it issued and whether the cache served it. 32 bytes; what a lookup cost beyond
/// that is its [`OutcomeExtras`], which [`BatchReport::extras`] reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOutcome {
    /// Source node of the lookup.
    pub source: NodeId,
    /// Target node of the lookup.
    pub target: NodeId,
    /// Hop count (delivery time in messages).
    pub hops: u64,
    /// Walks issued for this lookup: `1` on the honest path without a failure
    /// schedule and up to `1 +` [`FailureSchedule::DEFAULT_RETRIES`](crate::FailureSchedule::DEFAULT_RETRIES)
    /// with one (failure epochs re-route an undelivered lookup until it delivers or
    /// the budget is spent),
    /// `1..=redundancy` on the byzantine lane (retries stop at the first delivered
    /// walk), and `0` for pre-failed lookups whose endpoints lie outside the space —
    /// no walk was ever issued, and they weigh [`BatchReport::mean_attempts`]
    /// accordingly.
    pub attempts: u32,
    /// Whether the lookup reached its target (possibly as reported by a cached route).
    pub delivered: bool,
    /// Whether the result came from the route cache.
    pub cached: bool,
}

const _: () = assert!(std::mem::size_of::<QueryOutcome>() == 32);

/// What a lookup cost beyond its [`QueryOutcome`]. Most lookups cost nothing
/// beyond it — [`OutcomeExtras::implied`] by their hops — so a [`BatchReport`]
/// keeps an entry only for the ones that did: a lookup that recovered from a dead
/// end, retried, or lost a walk to an adversary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutcomeExtras {
    /// Fault-strategy interventions.
    pub recoveries: u64,
    /// Hops summed over **every** walk — the bandwidth cost of the lookup. Equals
    /// [`QueryOutcome::hops`] on an honest lookup that took one walk and exceeds it
    /// by the failed attempts' hops on one that retried; on the byzantine lane `hops`
    /// is the winning walk's latency cost while `total_hops` is what the network paid.
    pub total_hops: u64,
    /// Walks swallowed by a Byzantine node (`0` on the honest path).
    pub adversary_drops: u32,
}

impl OutcomeExtras {
    /// The extras of a lookup that has no entry: no recovery, no walk lost to an
    /// adversary, and `total_hops == hops`.
    #[must_use]
    pub fn implied(hops: u64) -> Self {
        Self {
            recoveries: 0,
            total_hops: hops,
            adversary_drops: 0,
        }
    }
}

/// Success/hop digest of one side of a batch's honest-vs-contested split
/// (see [`BatchReport::adversary_split`]).
#[derive(Debug, Clone)]
pub struct AdversarySplit {
    /// Lookups on this side of the split.
    pub queries: usize,
    /// Delivered lookups on this side.
    pub delivered: usize,
    /// Delivered fraction (1.0 when the side is empty).
    pub success_rate: f64,
    /// Hop percentiles over delivered lookups on this side (winning-walk hops).
    pub hops: Option<Summary>,
}

/// The outcome buffers of dropped [`BatchReport`]s, cleared, for the engine's
/// next batches: a batch's pages are then already mapped. The list keeps at most
/// as many buffers as the engine's last call handed out, so the engine never
/// holds more than its caller held at once.
#[derive(Debug, Default)]
pub(crate) struct Spares(Arc<Mutex<SpareList>>);

#[derive(Debug, Default)]
struct SpareList {
    buffers: Vec<Vec<QueryOutcome>>,
    /// Buffers handed out since the current call began.
    handed: usize,
    /// Buffers the last call handed out: the most the list keeps.
    limit: usize,
}

/// A poisoned list is still a list of empty buffers.
fn lock(list: &Mutex<SpareList>) -> MutexGuard<'_, SpareList> {
    list.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Spares {
    /// An empty buffer for `len` outcomes: the smallest spare large enough, or a
    /// fresh one.
    pub(crate) fn take(&self, len: usize) -> Vec<QueryOutcome> {
        let mut list = lock(&self.0);
        list.handed += 1;
        let fit = list
            .buffers
            .iter()
            .enumerate()
            .filter(|(_, buffer)| buffer.capacity() >= len)
            .min_by_key(|(_, buffer)| buffer.capacity())
            .map(|(at, _)| at);
        match fit {
            Some(at) => list.buffers.swap_remove(at),
            None => Vec::with_capacity(len),
        }
    }

    /// Ends a public call: what it handed out is the list's new bound, and
    /// spares past it are freed.
    pub(crate) fn end_call(&self) {
        let list = &mut *lock(&self.0);
        list.limit = std::mem::take(&mut list.handed);
        list.buffers.truncate(list.limit);
    }
}

/// Aggregate report for one executed batch.
///
/// A report the engine made, or a clone of one, hands its outcome buffer back to
/// that engine when it is dropped, if the engine's spare list has room; the
/// engine's next batch writes into it instead of faulting in fresh pages.
#[derive(Debug, Clone)]
pub struct BatchReport {
    outcomes: Vec<QueryOutcome>,
    /// `(batch index, extras)` of every lookup whose extras are not
    /// [`OutcomeExtras::implied`] by its hops, ascending by index.
    extras: Vec<(usize, OutcomeExtras)>,
    wall: Duration,
    threads: usize,
    byzantine: bool,
    /// Where the outcome buffer goes when the report is dropped (nowhere once
    /// the engine is gone).
    spares: Weak<Mutex<SpareList>>,
}

impl Drop for BatchReport {
    fn drop(&mut self) {
        let Some(spares) = self.spares.upgrade() else {
            return;
        };
        let mut list = lock(&spares);
        if list.buffers.len() < list.limit {
            let mut buffer = std::mem::take(&mut self.outcomes);
            buffer.clear();
            list.buffers.push(buffer);
        }
    }
}

impl BatchReport {
    pub(crate) fn with_mode(
        outcomes: Vec<QueryOutcome>,
        extras: Vec<(usize, OutcomeExtras)>,
        wall: Duration,
        threads: usize,
        byzantine: bool,
    ) -> Self {
        debug_assert!(extras.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(extras.last().is_none_or(|&(i, _)| i < outcomes.len()));
        Self {
            outcomes,
            extras,
            wall,
            threads,
            byzantine,
            spares: Weak::new(),
        }
    }

    /// The report, handing its outcome buffer back to `spares` when dropped.
    pub(crate) fn handing_back_to(mut self, spares: &Spares) -> Self {
        self.spares = Arc::downgrade(&spares.0);
        self
    }

    /// Per-query outcomes, in batch order.
    #[must_use]
    pub fn outcomes(&self) -> &[QueryOutcome] {
        &self.outcomes
    }

    /// What the lookup at `index` cost beyond its outcome.
    ///
    /// # Panics
    ///
    /// If `index` is not a lookup of the batch.
    #[must_use]
    pub fn extras(&self, index: usize) -> OutcomeExtras {
        match self.extras.binary_search_by_key(&index, |&(i, _)| i) {
            Ok(at) => self.extras[at].1,
            Err(_) => OutcomeExtras::implied(self.outcomes[index].hops),
        }
    }

    /// The lookups whose extras are not [`OutcomeExtras::implied`] by their hops,
    /// as `(batch index, extras)` ascending by index: the only ones that cost
    /// anything beyond their [`QueryOutcome`].
    #[must_use]
    pub fn extras_entries(&self) -> &[(usize, OutcomeExtras)] {
        &self.extras
    }

    /// Every lookup's outcome with its [`BatchReport::extras`], in batch order.
    pub fn lookups(&self) -> impl Iterator<Item = (QueryOutcome, OutcomeExtras)> + '_ {
        (0..self.outcomes.len()).map(|i| (self.outcomes[i], self.extras(i)))
    }

    /// Number of queries executed.
    #[must_use]
    pub fn queries(&self) -> usize {
        self.outcomes.len()
    }

    /// Number of delivered lookups.
    #[must_use]
    pub fn delivered(&self) -> usize {
        self.outcomes.iter().filter(|o| o.delivered).count()
    }

    /// Fraction of lookups that delivered (1.0 for an empty batch).
    #[must_use]
    pub fn success_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            1.0
        } else {
            self.delivered() as f64 / self.outcomes.len() as f64
        }
    }

    /// Number of results served from the route cache.
    #[must_use]
    pub fn cache_hits(&self) -> usize {
        self.outcomes.iter().filter(|o| o.cached).count()
    }

    /// Wall-clock time of the batch's worker scope: every lookup routed or served.
    /// The shard-key pass before it and, with several workers, the merge into batch
    /// order after it are outside it.
    #[must_use]
    pub fn wall_time(&self) -> Duration {
        self.wall
    }

    /// Worker threads the batch ran on.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Queries per second of wall-clock time. Returns `0.0` when no measurable time
    /// elapsed (empty batch, or a clock too coarse to observe it), so no reading
    /// derived from it is ever non-finite.
    #[must_use]
    pub fn queries_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.outcomes.len() as f64 / secs
        } else {
            0.0
        }
    }

    /// Hop-count summary over **delivered** lookups (the paper's delivery-time metric).
    /// `None` if nothing delivered.
    #[must_use]
    pub fn hop_summary(&self) -> Option<Summary> {
        Summary::of(
            self.outcomes
                .iter()
                .filter(|o| o.delivered)
                .map(|o| o.hops as f64),
        )
    }

    /// Whether this batch ran on the byzantine lane (redundant walks over an
    /// adversary set). Honest batches — including byzantine-configured engines whose
    /// resolved set was empty — report `false`.
    #[must_use]
    pub fn is_byzantine(&self) -> bool {
        self.byzantine
    }

    /// Batch indices of the lookups that lost at least one walk to an adversary,
    /// ascending.
    fn contested(&self) -> impl Iterator<Item = usize> + '_ {
        self.extras
            .iter()
            .filter(|(_, e)| e.adversary_drops > 0)
            .map(|&(i, _)| i)
    }

    /// Lookups that lost at least one walk to an adversary (`0` on honest batches).
    #[must_use]
    pub fn contested_queries(&self) -> usize {
        self.contested().count()
    }

    /// Mean walks issued per lookup (0.0 when empty). Exactly 1.0 only when every
    /// lookup took one walk: failure-epoch retries and the byzantine lane's
    /// redundant walks raise it, and out-of-range lookups (no walk) lower it.
    #[must_use]
    pub fn mean_attempts(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        let walks: u64 = self.outcomes.iter().map(|o| u64::from(o.attempts)).sum();
        walks as f64 / self.outcomes.len() as f64
    }

    /// Hops summed over every walk of every lookup — the batch's total bandwidth
    /// cost. On honest batches this equals the plain hop total; the ratio against an
    /// honest baseline is the redundancy overhead the byzantine lane pays.
    #[must_use]
    pub fn total_route_hops(&self) -> u64 {
        self.lookups().map(|(_, extras)| extras.total_hops).sum()
    }

    /// Splits the batch into lookups untouched by adversaries (`contested == false`:
    /// honest success and hop percentiles) and lookups that lost at least one
    /// walk (`contested == true`: the adversarial tail). On honest batches the
    /// contested side is empty.
    #[must_use]
    pub fn adversary_split(&self, contested: bool) -> AdversarySplit {
        let mut contested_at = self.contested().peekable();
        let mut queries = 0;
        let delivered_hops: Vec<f64> = (self.outcomes.iter().enumerate())
            .filter(|&(i, _)| contested_at.next_if_eq(&i).is_some() == contested)
            .inspect(|_| queries += 1)
            .filter(|(_, o)| o.delivered)
            .map(|(_, o)| o.hops as f64)
            .collect();
        let delivered = delivered_hops.len();
        AdversarySplit {
            queries,
            delivered,
            success_rate: if queries == 0 {
                1.0
            } else {
                delivered as f64 / queries as f64
            },
            hops: Summary::of(delivered_hops),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(delivered: bool, hops: u64, cached: bool) -> QueryOutcome {
        QueryOutcome {
            source: 0,
            target: 1,
            hops,
            attempts: 1,
            delivered,
            cached,
        }
    }

    #[test]
    fn aggregates_count_correctly() {
        let report = BatchReport::with_mode(
            vec![
                outcome(true, 4, false),
                outcome(true, 8, true),
                outcome(false, 2, false),
            ],
            vec![],
            Duration::from_millis(10),
            4,
            false,
        );
        assert_eq!(report.queries(), 3);
        assert_eq!(report.delivered(), 2);
        assert!((report.success_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(report.cache_hits(), 1);
        assert_eq!(report.threads(), 4);
        let hops = report.hop_summary().unwrap();
        assert_eq!(hops.count, 2);
        assert_eq!(hops.mean, 6.0);
        assert!(report.queries_per_sec() > 0.0);
    }

    #[test]
    fn empty_batch_is_vacuously_successful() {
        let report = BatchReport::with_mode(vec![], vec![], Duration::from_millis(1), 1, false);
        assert_eq!(report.success_rate(), 1.0);
        assert!(report.hop_summary().is_none());
    }

    #[test]
    fn adversary_split_separates_clean_and_contested_lookups() {
        let mut contested_delivered = outcome(true, 9, false);
        contested_delivered.attempts = 3;
        let mut contested_lost = outcome(false, 30, false);
        contested_lost.attempts = 4;
        let drops = |adversary_drops, total_hops| OutcomeExtras {
            recoveries: 0,
            total_hops,
            adversary_drops,
        };
        let report = BatchReport::with_mode(
            vec![outcome(true, 5, false), contested_delivered, contested_lost],
            vec![(1, drops(2, 21)), (2, drops(4, 30))],
            Duration::from_millis(1),
            1,
            true,
        );
        assert!(report.is_byzantine());
        assert_eq!(report.extras(0), OutcomeExtras::implied(5));
        assert_eq!(report.extras(1), drops(2, 21));
        assert_eq!(report.extras(2), drops(4, 30));
        assert_eq!(
            report.lookups().nth(1),
            Some((contested_delivered, drops(2, 21)))
        );
        assert_eq!(report.contested_queries(), 2);
        assert!((report.mean_attempts() - 8.0 / 3.0).abs() < 1e-12);
        assert_eq!(report.total_route_hops(), 5 + 21 + 30);
        let clean = report.adversary_split(false);
        assert_eq!(clean.queries, 1);
        assert_eq!(clean.delivered, 1);
        assert_eq!(clean.success_rate, 1.0);
        assert_eq!(clean.hops.unwrap().mean, 5.0);
        let contested = report.adversary_split(true);
        assert_eq!(contested.queries, 2);
        assert_eq!(contested.delivered, 1);
        assert!((contested.success_rate - 0.5).abs() < 1e-12);
        assert_eq!(
            contested.hops.unwrap().mean,
            9.0,
            "only delivered hops count"
        );
    }

    #[test]
    fn an_uncontested_entry_stays_on_the_clean_side() {
        // A lookup that recovered and retried has an entry, but lost no walk.
        let retried = OutcomeExtras {
            recoveries: 2,
            total_hops: 11,
            adversary_drops: 0,
        };
        let report = BatchReport::with_mode(
            vec![outcome(true, 4, false), outcome(true, 6, false)],
            vec![(1, retried)],
            Duration::from_millis(1),
            1,
            false,
        );
        assert_eq!(report.extras(1), retried);
        assert_eq!(report.contested_queries(), 0);
        assert_eq!(report.total_route_hops(), 4 + 11);
        assert_eq!(report.adversary_split(false).queries, 2);
        assert_eq!(report.adversary_split(true).queries, 0);
    }

    #[test]
    fn empty_splits_are_vacuously_successful() {
        let report = BatchReport::with_mode(
            vec![outcome(true, 4, false)],
            vec![],
            Duration::from_millis(1),
            1,
            false,
        );
        assert!(!report.is_byzantine());
        let contested = report.adversary_split(true);
        assert_eq!(contested.queries, 0);
        assert_eq!(contested.success_rate, 1.0);
        assert!(contested.hops.is_none());
        assert_eq!(report.mean_attempts(), 1.0);
    }
}
