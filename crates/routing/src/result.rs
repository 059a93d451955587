//! Routing outcomes and results.

/// Why a search failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum FailureReason {
    /// The source node is dead or absent.
    DeadSource,
    /// The destination node is dead or absent.
    DeadTarget,
    /// A node had no live neighbour closer to the target and the fault strategy could not
    /// recover (this is the "fraction of failed searches" that Figure 6(a) measures).
    Stuck,
    /// The hop budget was exhausted before reaching the target.
    HopLimit,
}

impl std::fmt::Display for FailureReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let text = match self {
            FailureReason::DeadSource => "source node is not alive",
            FailureReason::DeadTarget => "target node is not alive",
            FailureReason::Stuck => "no live neighbour closer to the target",
            FailureReason::HopLimit => "hop limit exhausted",
        };
        f.write_str(text)
    }
}

/// The outcome of one routed message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum RouteOutcome {
    /// The message reached its destination.
    Delivered,
    /// The message could not be delivered.
    Failed(FailureReason),
}

impl RouteOutcome {
    /// Returns `true` for delivered messages.
    #[must_use]
    pub fn is_delivered(&self) -> bool {
        matches!(self, RouteOutcome::Delivered)
    }
}

/// The result of routing one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RouteResult {
    /// Delivered or failed (with the reason).
    pub outcome: RouteOutcome,
    /// Number of hops taken, including backtracking moves and random re-route jumps.
    ///
    /// This is the paper's "delivery time", measured in messages sent.
    pub hops: u64,
    /// Number of times the fault strategy had to intervene (0 on an undamaged overlay).
    pub recoveries: u64,
}

impl RouteResult {
    /// Returns `true` if the message was delivered.
    #[must_use]
    pub fn is_delivered(&self) -> bool {
        self.outcome.is_delivered()
    }

    /// A failed result with zero hops (used for dead endpoints).
    #[must_use]
    pub fn immediate_failure(reason: FailureReason) -> Self {
        Self {
            outcome: RouteOutcome::Failed(reason),
            hops: 0,
            recoveries: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_helpers() {
        assert!(RouteOutcome::Delivered.is_delivered());
        assert!(!RouteOutcome::Failed(FailureReason::Stuck).is_delivered());
        let r = RouteResult::immediate_failure(FailureReason::DeadSource);
        assert!(!r.is_delivered());
        assert_eq!(r.hops, 0);
    }

    #[test]
    fn failure_reasons_have_readable_display() {
        for reason in [
            FailureReason::DeadSource,
            FailureReason::DeadTarget,
            FailureReason::Stuck,
            FailureReason::HopLimit,
        ] {
            assert!(!reason.to_string().is_empty());
        }
    }
}
