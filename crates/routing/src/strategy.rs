//! Fault-handling strategies (Section 6).

/// What a message does when the current node has no live neighbour closer to the target.
///
/// Section 6 compares exactly these three strategies; Figure 6 plots their failed-search
/// fraction and delivery time as the node-failure fraction grows.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum FaultStrategy {
    /// "Terminate the search." The baseline strategy: any dead end is a failed search.
    #[default]
    Terminate,
    /// "Randomly choose another node, deliver the message to this new node and then try
    /// to deliver the message from this node to the original destination node (similar to
    /// the hypercube routing strategy \[Valiant\])."
    ///
    /// `max_attempts` bounds how many random re-routes a single search may use before it
    /// is declared failed.
    RandomReroute {
        /// Maximum number of random re-route jumps per search.
        max_attempts: u32,
    },
    /// "Keep track of a fixed number (in our simulations, 5) of nodes through which the
    /// message is last routed and backtrack. When the search reaches a node from where it
    /// cannot proceed, it backtracks to the most recently visited node from this list and
    /// chooses the next best neighbor to route the message to."
    Backtrack {
        /// How many recently visited nodes are remembered (the paper uses 5).
        history: usize,
    },
}

impl FaultStrategy {
    /// The paper's backtracking configuration (history of 5 nodes).
    #[must_use]
    pub fn paper_backtrack() -> Self {
        FaultStrategy::Backtrack { history: 5 }
    }

    /// A random re-route strategy with a single jump, the closest reading of the paper's
    /// description (one Valiant-style detour, then plain greedy).
    #[must_use]
    pub fn single_reroute() -> Self {
        FaultStrategy::RandomReroute { max_attempts: 1 }
    }

    /// Short label used in benchmark output (matches the curve names of Figure 6).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            FaultStrategy::Terminate => "terminate".to_owned(),
            FaultStrategy::RandomReroute { max_attempts } => {
                format!("random-reroute(max={max_attempts})")
            }
            FaultStrategy::Backtrack { history } => format!("backtrack(history={history})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct_and_descriptive() {
        let labels = [
            FaultStrategy::Terminate.label(),
            FaultStrategy::single_reroute().label(),
            FaultStrategy::paper_backtrack().label(),
        ];
        assert!(labels[0].contains("terminate"));
        assert!(labels[1].contains("random-reroute"));
        assert!(labels[2].contains("history=5"));
        assert_ne!(labels[0], labels[1]);
        assert_ne!(labels[1], labels[2]);
    }

    #[test]
    fn default_is_terminate() {
        assert_eq!(FaultStrategy::default(), FaultStrategy::Terminate);
    }
}
