//! The six memory-scheduling policies of the evaluation (§4).
//!
//! | Policy | Paper role |
//! |---|---|
//! | [`PolicyKind::Fcfs`] | baseline: global arrival order |
//! | [`PolicyKind::RoundRobin`] | baseline: rotate across the five class queues |
//! | [`PolicyKind::FrameQos`] | baseline: frame-rate QoS of Jeong et al. (DAC'12) |
//! | [`PolicyKind::Priority`] | **Policy 1**: priority-based round-robin |
//! | [`PolicyKind::QosRowBuffer`] | **Policy 2**: Policy 1 + row-hit optimisation below δ |
//! | [`PolicyKind::FrFcfs`] | comparison: first-ready FCFS (max row hits) |
//!
//! All policies are *work-conserving*: they rank only commands that can
//! legally issue in the current cycle; timing-blocked transactions do not
//! stall younger ready ones.

use sara_types::{DmaId, Priority};

/// Effective priority of an aged transaction — above every stampable level,
/// so aged backlog drains first (§3.3 starvation clearing).
pub const AGED_PRIORITY: u8 = u8::MAX;

/// Scheduling discipline of the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// First-come-first-serve in global arrival order.
    Fcfs,
    /// Round-robin across the five class queues, FIFO within each.
    RoundRobin,
    /// Frame-rate-based QoS: urgent real-time traffic first, best-effort
    /// FCFS otherwise.
    FrameQos,
    /// Policy 1 — priority-based round-robin with starvation aging.
    Priority,
    /// Policy 2 — row-buffer-aware Policy 1: row hits win while every
    /// contender's priority is below δ.
    QosRowBuffer,
    /// First-ready FCFS: row hits first, then arrival order.
    FrFcfs,
}

impl PolicyKind {
    /// All policies in the order the paper's figures present them.
    pub const ALL: [PolicyKind; 6] = [
        PolicyKind::Fcfs,
        PolicyKind::RoundRobin,
        PolicyKind::FrameQos,
        PolicyKind::Priority,
        PolicyKind::QosRowBuffer,
        PolicyKind::FrFcfs,
    ];

    /// Short name used in reports and figure legends.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Fcfs => "FCFS",
            PolicyKind::RoundRobin => "RR",
            PolicyKind::FrameQos => "FrameQoS",
            PolicyKind::Priority => "QoS",
            PolicyKind::QosRowBuffer => "QoS-RB",
            PolicyKind::FrFcfs => "FR-FCFS",
        }
    }

    /// Parses the [`PolicyKind::name`] spelling back into a policy — the
    /// one reading of a policy name, for scenario files, `submit` requests
    /// and CLI flags alike.
    ///
    /// # Errors
    ///
    /// `unknown policy "<name>" (expected one of: <every name>)`.
    pub fn parse(name: &str) -> Result<PolicyKind, String> {
        PolicyKind::ALL
            .into_iter()
            .find(|p| p.name() == name)
            .ok_or_else(|| {
                let known: Vec<&str> = PolicyKind::ALL.iter().map(|p| p.name()).collect();
                format!(
                    "unknown policy \"{name}\" (expected one of: {})",
                    known.join(", ")
                )
            })
    }

    /// Whether this policy consumes SARA priority levels.
    pub fn uses_priorities(self) -> bool {
        matches!(self, PolicyKind::Priority | PolicyKind::QosRowBuffer)
    }
}

/// A schedulable command candidate: one queued transaction whose next DRAM
/// command can legally issue this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Class-queue index holding the transaction.
    pub queue: usize,
    /// Global arrival sequence (transaction id).
    pub seq: u64,
    /// Issuing DMA (round-robin tiebreak unit of Policy 1).
    pub dma: DmaId,
    /// Stamped SARA priority.
    pub priority: Priority,
    /// Priority after aging promotion ([`AGED_PRIORITY`] once over T).
    pub effective_priority: u8,
    /// Frame-urgency flag (FrameQoS baseline).
    pub urgent: bool,
    /// Whether the next command is a column access to an open row.
    pub row_hit: bool,
}

/// Mutable fairness state carried across scheduling decisions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PolicyState {
    /// Next class queue to favour (RoundRobin).
    pub queue_cursor: usize,
    /// Next DMA to favour on priority ties (Policy 1 / Policy 2).
    pub dma_cursor: u16,
}

impl PolicyState {
    /// Advances fairness cursors after a column command was issued for
    /// `queue` / `dma` (i.e. a transaction was served).
    pub fn advance(&mut self, queue: usize, dma: DmaId) {
        self.queue_cursor = (queue + 1) % crate::config::NUM_QUEUES;
        self.dma_cursor = (dma.index() as u16).wrapping_add(1);
    }
}

/// Picks the index of the winning candidate, or `None` if `candidates` is
/// empty.
///
/// `delta` is Policy 2's row-hit threshold δ; other policies ignore it.
///
/// # Examples
///
/// ```
/// use sara_memctrl::{select, Candidate, PolicyKind, PolicyState};
/// use sara_types::{DmaId, Priority};
///
/// let cands = [
///     Candidate { queue: 3, seq: 10, dma: DmaId::new(0), priority: Priority::new(2),
///                 effective_priority: 2, urgent: false, row_hit: true },
///     Candidate { queue: 2, seq: 4, dma: DmaId::new(1), priority: Priority::new(7),
///                 effective_priority: 7, urgent: false, row_hit: false },
/// ];
/// let mut st = PolicyState::default();
/// // FR-FCFS favours the row hit; Policy 1 favours the high priority.
/// assert_eq!(select(PolicyKind::FrFcfs, &cands, &mut st, Priority::new(6)), Some(0));
/// assert_eq!(select(PolicyKind::Priority, &cands, &mut st, Priority::new(6)), Some(1));
/// ```
pub fn select(
    policy: PolicyKind,
    candidates: &[Candidate],
    state: &mut PolicyState,
    delta: Priority,
) -> Option<usize> {
    if candidates.is_empty() {
        return None;
    }
    let idx = match policy {
        PolicyKind::Fcfs => min_by_seq(candidates, |_| true),
        PolicyKind::RoundRobin => {
            let cursor = state.queue_cursor;
            (0..crate::config::NUM_QUEUES)
                .map(|off| (cursor + off) % crate::config::NUM_QUEUES)
                .find_map(|q| min_by_seq(candidates, |c| c.queue == q))
        }
        PolicyKind::FrameQos => {
            min_by_seq(candidates, |c| c.urgent).or_else(|| min_by_seq(candidates, |_| true))
        }
        PolicyKind::Priority => priority_rr(candidates, state, |_| true),
        PolicyKind::QosRowBuffer => {
            let best_hit = candidates
                .iter()
                .filter(|c| c.row_hit)
                .map(|c| c.effective_priority)
                .max();
            let best_other = candidates
                .iter()
                .filter(|c| !c.row_hit)
                .map(|c| c.effective_priority)
                .max()
                .unwrap_or(0);
            match best_hit {
                // Row hits win unless a non-hit is both urgent (≥ δ) and
                // strictly more urgent than every hit (Policy 2).
                Some(hit) if !(best_other >= delta.as_u8() && best_other > hit) => {
                    priority_rr(candidates, state, |c| c.row_hit)
                }
                _ => priority_rr(candidates, state, |_| true),
            }
        }
        PolicyKind::FrFcfs => {
            min_by_seq(candidates, |c| c.row_hit).or_else(|| min_by_seq(candidates, |_| true))
        }
    };
    debug_assert!(idx.is_some(), "non-empty candidate set must yield a winner");
    idx
}

fn min_by_seq(candidates: &[Candidate], pred: impl Fn(&Candidate) -> bool) -> Option<usize> {
    candidates
        .iter()
        .enumerate()
        .filter(|(_, c)| pred(c))
        .min_by_key(|(_, c)| c.seq)
        .map(|(i, _)| i)
}

/// Highest effective priority wins; ties rotate round-robin over DMA index
/// relative to the cursor, then fall back to age.
fn priority_rr(
    candidates: &[Candidate],
    state: &PolicyState,
    pred: impl Fn(&Candidate) -> bool,
) -> Option<usize> {
    candidates
        .iter()
        .enumerate()
        .filter(|(_, c)| pred(c))
        .min_by_key(|(_, c)| {
            let rr_dist = (c.dma.index() as u16).wrapping_sub(state.dma_cursor);
            (core::cmp::Reverse(c.effective_priority), rr_dist, c.seq)
        })
        .map(|(i, _)| i)
}

#[cfg(test)]
// Tests poke one cursor at a time into a Default PolicyState on purpose.
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;

    fn cand(queue: usize, seq: u64, dma: u16, prio: u8, urgent: bool, hit: bool) -> Candidate {
        Candidate {
            queue,
            seq,
            dma: DmaId::new(dma),
            priority: Priority::new(prio.min(15)),
            effective_priority: prio,
            urgent,
            row_hit: hit,
        }
    }

    fn pick(policy: PolicyKind, cands: &[Candidate]) -> Option<usize> {
        let mut st = PolicyState::default();
        select(policy, cands, &mut st, Priority::new(6))
    }

    #[test]
    fn policy_names_round_trip() {
        for policy in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(policy.name()), Ok(policy));
        }
        assert_eq!(
            PolicyKind::parse("qos"),
            Err(
                "unknown policy \"qos\" (expected one of: FCFS, RR, FrameQoS, QoS, QoS-RB, \
                 FR-FCFS)"
                    .to_string()
            )
        );
    }

    #[test]
    fn empty_set() {
        for p in PolicyKind::ALL {
            assert_eq!(pick(p, &[]), None);
        }
    }

    #[test]
    fn fcfs_global_order() {
        let c = [cand(0, 9, 0, 7, true, true), cand(3, 2, 1, 0, false, false)];
        assert_eq!(pick(PolicyKind::Fcfs, &c), Some(1));
    }

    #[test]
    fn round_robin_respects_cursor() {
        let c = [
            cand(0, 1, 0, 0, false, false),
            cand(3, 9, 1, 0, false, false),
        ];
        let mut st = PolicyState::default();
        st.queue_cursor = 2; // next favoured queue ≥ 2 → queue 3 wins
        assert_eq!(
            select(PolicyKind::RoundRobin, &c, &mut st, Priority::new(6)),
            Some(1)
        );
        st.queue_cursor = 4; // wraps to 0
        assert_eq!(
            select(PolicyKind::RoundRobin, &c, &mut st, Priority::new(6)),
            Some(0)
        );
    }

    #[test]
    fn frame_qos_prefers_urgent() {
        let c = [cand(4, 1, 0, 0, false, true), cand(3, 9, 1, 0, true, false)];
        assert_eq!(pick(PolicyKind::FrameQos, &c), Some(1));
        // No urgent → FCFS.
        let calm = [
            cand(4, 1, 0, 0, false, true),
            cand(3, 9, 1, 0, false, false),
        ];
        assert_eq!(pick(PolicyKind::FrameQos, &calm), Some(0));
    }

    #[test]
    fn policy1_priority_then_rr() {
        let c = [
            cand(0, 1, 0, 3, false, false),
            cand(1, 9, 1, 6, false, false),
        ];
        assert_eq!(pick(PolicyKind::Priority, &c), Some(1));
        // Tie: dma cursor decides.
        let tie = [
            cand(0, 1, 0, 4, false, false),
            cand(1, 9, 1, 4, false, false),
        ];
        let mut st = PolicyState::default();
        st.dma_cursor = 1;
        assert_eq!(
            select(PolicyKind::Priority, &tie, &mut st, Priority::new(6)),
            Some(1)
        );
        st.dma_cursor = 0;
        assert_eq!(
            select(PolicyKind::Priority, &tie, &mut st, Priority::new(6)),
            Some(0)
        );
    }

    #[test]
    fn aged_candidate_beats_everything() {
        let c = [
            cand(0, 1, 0, AGED_PRIORITY, false, false),
            cand(1, 0, 1, 7, false, true),
        ];
        assert_eq!(pick(PolicyKind::Priority, &c), Some(0));
        assert_eq!(pick(PolicyKind::QosRowBuffer, &c), Some(0));
    }

    #[test]
    fn policy2_prefers_hits_below_delta() {
        // Hit with priority 1 vs non-hit with priority 5 (< δ=6): hit wins.
        let c = [
            cand(0, 9, 0, 1, false, true),
            cand(1, 1, 1, 5, false, false),
        ];
        assert_eq!(pick(PolicyKind::QosRowBuffer, &c), Some(0));
    }

    #[test]
    fn policy2_defers_to_urgent_traffic_at_delta() {
        // Non-hit at priority 6 (= δ) and above the hit → Policy 1 decides.
        let c = [
            cand(0, 9, 0, 1, false, true),
            cand(1, 1, 1, 6, false, false),
        ];
        assert_eq!(pick(PolicyKind::QosRowBuffer, &c), Some(1));
    }

    #[test]
    fn policy2_equal_priorities_keep_hit_first() {
        // PA = PB → choose the hit, even at/above δ (Policy 2's "PA = PB").
        let c = [
            cand(0, 9, 0, 7, false, true),
            cand(1, 1, 1, 7, false, false),
        ];
        assert_eq!(pick(PolicyKind::QosRowBuffer, &c), Some(0));
    }

    #[test]
    fn fr_fcfs_hits_then_age() {
        let c = [
            cand(0, 9, 0, 0, false, true),
            cand(1, 1, 1, 7, false, false),
        ];
        assert_eq!(pick(PolicyKind::FrFcfs, &c), Some(0));
        let no_hits = [
            cand(0, 9, 0, 0, false, false),
            cand(1, 1, 1, 7, false, false),
        ];
        assert_eq!(pick(PolicyKind::FrFcfs, &no_hits), Some(1));
    }

    #[test]
    fn state_advance_wraps() {
        let mut st = PolicyState::default();
        st.advance(4, DmaId::new(65535));
        assert_eq!(st.queue_cursor, 0);
        assert_eq!(st.dma_cursor, 0);
    }

    #[test]
    fn names_and_flags() {
        assert_eq!(PolicyKind::Priority.name(), "QoS");
        assert_eq!(PolicyKind::QosRowBuffer.name(), "QoS-RB");
        assert!(PolicyKind::Priority.uses_priorities());
        assert!(!PolicyKind::FrFcfs.uses_priorities());
    }
}
