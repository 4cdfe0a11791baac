//! The per-channel half of the split controller: one [`ChannelController`]
//! owns one DRAM channel's queue slice, scheduling state and statistics.
//!
//! The controller is split along the channel boundary so a lane-structured
//! engine can advance channels independently (and concurrently): admission
//! against the shared entry budget happens in the policy front-end
//! ([`crate::AdmissionControl`] or the [`crate::MemoryController`] facade),
//! after which a transaction belongs to exactly one channel's controller
//! and never interacts with the others again. Everything a scheduling
//! decision reads — queued entries, per-policy round-robin/aging state,
//! the channel's DRAM timing — is local to this struct plus the
//! [`Channel`] it is ticked against.

use std::collections::VecDeque;

use sara_dram::{Channel, Location, NextCommand};
use sara_types::{Cycle, Transaction};

use crate::config::{McConfig, NUM_QUEUES};
use crate::controller::{Completion, TickResult};
use crate::policy::{select, Candidate, PolicyKind, PolicyState, AGED_PRIORITY};
use crate::stats::McStats;

/// A transaction resident in a class queue.
#[derive(Debug, Clone)]
pub(crate) struct Entry {
    pub(crate) txn: Transaction,
    pub(crate) loc: Location,
    pub(crate) accepted_at: Cycle,
}

/// One queue entry as the last scan saw it: where it sits, the command it
/// needs next and the earliest cycle that command is legal.
#[derive(Debug, Clone, Copy)]
struct Probed {
    queue: usize,
    pos: usize,
    next: NextCommand,
    earliest: Cycle,
}

/// The scheduling engine for one DRAM channel.
///
/// Owns the channel's slice of the five class queues, its own
/// round-robin/aging [`PolicyState`] and its own counters, and issues at
/// most one DRAM command per [`ChannelController::tick`] against the
/// [`Channel`] it is paired with. Admission (the shared 42-entry budget)
/// is the front-end's job; [`ChannelController::accept`] trusts that the
/// caller already charged the budget.
///
/// # Examples
///
/// ```
/// use sara_dram::{Channel, TimingParams};
/// use sara_memctrl::{ChannelController, McConfig, PolicyKind, TickResult};
/// use sara_types::{Addr, CoreKind, Cycle, DmaId, MemOp, Priority, Transaction, TransactionId};
///
/// let mut chan = Channel::new(TimingParams::lpddr4_1866(), 2, 8, 128);
/// let cfg = McConfig::builder(PolicyKind::Priority).build()?;
/// let mut ctrl = ChannelController::new(cfg, 0);
/// let txn = Transaction {
///     id: TransactionId::new(0), dma: DmaId::new(0), core: CoreKind::Dsp,
///     class: CoreKind::Dsp.class(), op: MemOp::Read, addr: Addr::new(0),
///     bytes: 128, injected_at: Cycle::ZERO, priority: Priority::new(5), urgent: false,
/// };
/// let loc = sara_dram::Location { channel: 0, rank: 0, bank: 0, row: 0, col: 0 };
/// ctrl.accept(txn, loc, Cycle::ZERO);
/// let mut now = Cycle::ZERO;
/// loop {
///     match ctrl.tick(now, &mut chan) {
///         TickResult::Issued { completed: Some(c) } => { assert!(c.done_at > now); break; }
///         TickResult::Issued { completed: None } => now = now + 1,
///         TickResult::Idle { retry_at: Some(at) } => now = at,
///         TickResult::Idle { retry_at: None } => unreachable!("work is queued"),
///     }
/// }
/// # Ok::<(), sara_types::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ChannelController {
    channel: usize,
    cfg: McConfig,
    queues: [VecDeque<Entry>; NUM_QUEUES],
    state: PolicyState,
    stats: McStats,
    /// Scratch of the last scan, reused across ticks.
    probed: Vec<Probed>,
    /// Banks with a queued row hit at the last scan (row-guard mask).
    banks_with_hits: u64,
    /// Earliest legality cycle over the last scan ([`Cycle::MAX`] when
    /// nothing is queued): no decision before it can find a candidate.
    first_legal: Cycle,
    /// Scratch of the last decision: the candidates handed to the policy
    /// and, per candidate, its index into `probed`.
    cands: Vec<Candidate>,
    cand_probe: Vec<usize>,
}

impl ChannelController {
    /// Creates the controller for `channel` with the given configuration.
    pub fn new(cfg: McConfig, channel: usize) -> Self {
        ChannelController {
            channel,
            queues: Default::default(),
            state: PolicyState::default(),
            stats: McStats::default(),
            probed: Vec::with_capacity(cfg.total_entries()),
            banks_with_hits: 0,
            first_legal: Cycle::MAX,
            cands: Vec::with_capacity(cfg.total_entries()),
            cand_probe: Vec::with_capacity(cfg.total_entries()),
            cfg,
        }
    }

    /// The channel index this controller schedules.
    #[inline]
    pub fn channel(&self) -> usize {
        self.channel
    }

    /// The configuration.
    #[inline]
    pub fn config(&self) -> &McConfig {
        &self.cfg
    }

    /// This channel's counters: accepted/completed/wait/aging per class
    /// plus commands issued. Rejections and peak occupancy are admission
    /// concerns and live with the front-end.
    #[inline]
    pub fn stats(&self) -> &McStats {
        &self.stats
    }

    /// Transactions currently queued on this channel.
    #[inline]
    pub fn queued(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Transactions of one class queued on this channel.
    #[inline]
    pub fn queued_in_class(&self, class_queue: usize) -> usize {
        self.queues[class_queue].len()
    }

    /// Switches the scheduling policy mid-run; queued entries compete
    /// under the new rules from the next tick on.
    pub fn set_policy(&mut self, policy: PolicyKind) {
        self.cfg.set_policy(policy);
    }

    /// Enqueues a transaction the front-end already admitted against the
    /// shared budget. `loc` must decode to this controller's channel.
    pub fn accept(&mut self, txn: Transaction, loc: Location, now: Cycle) {
        debug_assert_eq!(
            loc.channel, self.channel,
            "transaction routed to wrong lane"
        );
        let q = txn.class.queue_index();
        self.queues[q].push_back(Entry {
            txn,
            loc,
            accepted_at: now,
        });
        self.stats.class_mut(q).accepted += 1;
    }

    /// Attempts to issue one DRAM command on the paired channel at cycle
    /// `now`. Work-conserving, at most one command per call; the caller
    /// must not call again for the same channel in the same cycle.
    pub fn tick(&mut self, now: Cycle, chan: &mut Channel) -> TickResult {
        self.tick_until(now, now + 1, chan).1
    }

    /// Issues the first command that becomes legal in `[now, limit)` and
    /// returns it with its issue cycle — exactly what a chain of
    /// [`ChannelController::tick`] calls following each `retry_at` would
    /// do, for one queue scan instead of one per call. When nothing is
    /// issuable at `now` the decision moves to the earliest recorded
    /// legality cycle and is re-evaluated from the scan's values; those
    /// only go stale when [`Channel::advance`] performs a refresh on the
    /// way, which triggers a rescan. If nothing can issue before `limit`
    /// the result is `Idle` with the next retry cycle (≥ `limit`), paired
    /// with the last cycle a decision was evaluated at. `now` itself is
    /// always evaluated, whatever `limit` is.
    pub fn tick_until(
        &mut self,
        now: Cycle,
        limit: Cycle,
        chan: &mut Channel,
    ) -> (Cycle, TickResult) {
        chan.advance(now);
        self.scan(chan);
        let mut at = now;
        loop {
            match self.decide(at) {
                Ok(winner) => return (at, self.issue(winner, at, chan)),
                Err(Some(next)) if next < limit => {
                    at = next;
                    if chan.advance(at) {
                        self.scan(chan);
                    }
                }
                Err(retry_at) => return (at, TickResult::Idle { retry_at }),
            }
        }
    }

    /// Records, for every queued entry, the command it needs next and the
    /// earliest cycle that command is legal, plus the banks holding a
    /// queued row hit. One bank lookup per entry; the values stay true
    /// until the channel changes state.
    fn scan(&mut self, chan: &Channel) {
        let gates = chan.gates();
        self.probed.clear();
        self.banks_with_hits = 0;
        self.first_legal = Cycle::MAX;
        for (qi, queue) in self.queues.iter().enumerate() {
            for (pos, entry) in queue.iter().enumerate() {
                let (next, earliest) = chan.probe(&gates, &entry.loc, entry.txn.op);
                if next.is_row_hit() {
                    self.banks_with_hits |= bank_bit(&entry.loc);
                }
                self.first_legal = self.first_legal.min(earliest);
                self.probed.push(Probed {
                    queue: qi,
                    pos,
                    next,
                    earliest,
                });
            }
        }
    }

    /// Runs the policy over the entries the last scan found legal at `at`.
    /// Returns the winner's index into the candidate scratch, or the
    /// earliest later cycle any entry becomes legal.
    fn decide(&mut self, at: Cycle) -> Result<usize, Option<Cycle>> {
        if self.first_legal > at {
            return Err((!self.probed.is_empty()).then_some(self.first_legal));
        }
        // Row-buffer protection (open-page policy): banks that still have
        // queued same-row hits should not be precharged from under them by
        // low-urgency traffic. Policy 2 enforces this below δ (its row-hit
        // optimisation, §3.3); FR-FCFS enforces it unconditionally (that is
        // what "first-ready" means); the other policies ignore it.
        let policy = self.cfg.policy();
        let row_guard = matches!(policy, PolicyKind::QosRowBuffer | PolicyKind::FrFcfs);
        let aging = if policy.uses_priorities() {
            self.cfg.aging_threshold()
        } else {
            None
        };
        self.cands.clear();
        self.cand_probe.clear();
        for (i, probe) in self.probed.iter().enumerate() {
            if probe.earliest > at {
                continue;
            }
            let entry = &self.queues[probe.queue][probe.pos];
            // Backlog clearing (§3.3) bounds the waiting time of
            // transactions with a QoS stamp; best-effort (priority 0)
            // traffic has no target to protect and never ages.
            let aged = entry.txn.priority.as_u8() > 0
                && matches!(aging, Some(t) if at.saturating_sub(entry.accepted_at) >= t);
            let effective_priority = if aged {
                AGED_PRIORITY
            } else {
                entry.txn.priority.as_u8()
            };
            if row_guard
                && matches!(probe.next, NextCommand::Precharge)
                && self.banks_with_hits & bank_bit(&entry.loc) != 0
            {
                // Suppress the row-closing precharge while hits are
                // pending — unless this transaction is urgent enough to
                // break the row (Policy 2's δ rule; aged counts too).
                let may_break = policy == PolicyKind::QosRowBuffer
                    && effective_priority >= self.cfg.delta().as_u8();
                if !may_break {
                    continue;
                }
            }
            self.cands.push(Candidate {
                queue: probe.queue,
                seq: entry.txn.id.as_u64(),
                dma: entry.txn.dma,
                priority: entry.txn.priority,
                effective_priority,
                urgent: entry.txn.urgent,
                row_hit: probe.next.is_row_hit(),
            });
            self.cand_probe.push(i);
        }
        select(policy, &self.cands, &mut self.state, self.cfg.delta()).ok_or_else(|| {
            let later = self.probed.iter().map(|p| p.earliest).filter(|&e| e > at);
            later.min()
        })
    }

    /// Issues the next command of candidate `winner` at `now`; a column
    /// command completes its transaction and removes it from the queue.
    fn issue(&mut self, winner: usize, now: Cycle, chan: &mut Channel) -> TickResult {
        let cand = self.cands[winner];
        let Probed { queue: qi, pos, .. } = self.probed[self.cand_probe[winner]];
        let entry = &self.queues[qi][pos];
        let issued = chan.issue(&entry.loc, entry.txn.op, now);
        self.stats.commands_issued += 1;

        let Some(done_at) = issued.completion() else {
            return TickResult::Issued { completed: None };
        };
        let entry = self.queues[qi].remove(pos).expect("winner position valid");
        let queued_for = now.saturating_sub(entry.accepted_at);
        let was_aged = cand.effective_priority == AGED_PRIORITY;
        let class = self.stats.class_mut(qi);
        class.completed += 1;
        class.total_wait += queued_for;
        class.max_wait = class.max_wait.max(queued_for);
        if was_aged {
            class.aged += 1;
        }
        self.state.advance(qi, entry.txn.dma);
        TickResult::Issued {
            completed: Some(Completion {
                txn: entry.txn,
                done_at,
                issued_at: now,
                queued_for,
                row_hit: cand.row_hit,
                was_aged,
            }),
        }
    }
}

/// The row-guard bitmask position of `loc`'s bank.
#[inline]
fn bank_bit(loc: &Location) -> u64 {
    1 << (loc.rank * 32 + loc.bank).min(63)
}

/// The shared policy front-end of the split controller: admission against
/// the per-class capacities and the shared entry budget, plus the
/// admission-side statistics (rejections, peak occupancy).
///
/// Scheduling never touches this struct — once admitted, a transaction is
/// handed to its channel's [`ChannelController`] and the front-end only
/// hears back when the completion releases its budget credit
/// ([`AdmissionControl::release`]). That one-way flow is what lets lanes
/// advance concurrently between admission points.
#[derive(Debug, Clone)]
pub struct AdmissionControl {
    caps: [usize; NUM_QUEUES],
    total: usize,
    occupancy: usize,
    class_counts: [usize; NUM_QUEUES],
    stats: McStats,
}

impl AdmissionControl {
    /// Creates the front-end for a controller configuration.
    pub fn new(cfg: &McConfig) -> Self {
        AdmissionControl {
            caps: cfg.queue_capacities(),
            total: cfg.total_entries(),
            occupancy: 0,
            class_counts: [0; NUM_QUEUES],
            stats: McStats::default(),
        }
    }

    /// Transactions currently admitted (across all channels).
    #[inline]
    pub fn occupancy(&self) -> usize {
        self.occupancy
    }

    /// Transactions of one class currently admitted.
    #[inline]
    pub fn class_count(&self, class_queue: usize) -> usize {
        self.class_counts[class_queue]
    }

    /// Whether a transaction of `class_queue` would currently be admitted.
    #[inline]
    pub fn has_room(&self, class_queue: usize) -> bool {
        self.occupancy < self.total && self.class_counts[class_queue] < self.caps[class_queue]
    }

    /// Charges the budget for an admitted transaction.
    pub fn admit(&mut self, class_queue: usize) {
        self.occupancy += 1;
        self.class_counts[class_queue] += 1;
        self.stats.class_mut(class_queue).accepted += 1;
        self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.occupancy);
    }

    /// Records a refused admission (queue or shared budget full).
    pub fn reject(&mut self, class_queue: usize) {
        self.stats.class_mut(class_queue).rejected += 1;
    }

    /// Releases the budget credit of a completed transaction.
    pub fn release(&mut self, class_queue: usize) {
        debug_assert!(self.class_counts[class_queue] > 0, "release without admit");
        self.occupancy -= 1;
        self.class_counts[class_queue] -= 1;
    }

    /// Admission-side statistics: accepted/rejected per class and the peak
    /// simultaneous occupancy. Fold the per-channel controllers' counters
    /// in with [`McStats::merge_scheduling`] for the full controller view
    /// (both sides count `accepted`, which is why the scheduling merge
    /// deliberately skips admission fields).
    #[inline]
    pub fn stats(&self) -> &McStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sara_dram::TimingParams;
    use sara_types::{Addr, CoreKind, DmaId, MemOp, Priority, TransactionId};

    fn txn(id: u64, core: CoreKind, prio: u8) -> Transaction {
        Transaction {
            id: TransactionId::new(id),
            dma: DmaId::new(id as u16),
            core,
            class: core.class(),
            op: MemOp::Read,
            addr: Addr::new(0),
            bytes: 128,
            injected_at: Cycle::ZERO,
            priority: Priority::new(prio),
            urgent: false,
        }
    }

    fn loc(bank: usize, row: u32, col: u32) -> Location {
        Location {
            channel: 0,
            rank: 0,
            bank,
            row,
            col,
        }
    }

    #[test]
    fn lane_controller_schedules_against_its_own_channel() {
        let mut chan = Channel::new(TimingParams::lpddr4_1866(), 2, 8, 128);
        let cfg = McConfig::builder(PolicyKind::Priority).build().unwrap();
        let mut ctrl = ChannelController::new(cfg, 0);
        ctrl.accept(txn(0, CoreKind::Cpu, 1), loc(0, 1, 0), Cycle::ZERO);
        ctrl.accept(txn(1, CoreKind::Dsp, 7), loc(1, 1, 0), Cycle::ZERO);
        assert_eq!(ctrl.queued(), 2);
        let mut now = Cycle::ZERO;
        let mut done = Vec::new();
        while done.len() < 2 {
            match ctrl.tick(now, &mut chan) {
                TickResult::Issued { completed } => {
                    if let Some(c) = completed {
                        done.push(c);
                    }
                    now += 1;
                }
                TickResult::Idle { retry_at } => now = retry_at.expect("work queued"),
            }
        }
        assert_eq!(done[0].txn.core, CoreKind::Dsp, "priority wins");
        assert_eq!(ctrl.queued(), 0);
        assert_eq!(ctrl.stats().total_completed(), 2);
        assert!(ctrl.stats().commands_issued >= 2);
    }

    #[test]
    fn admission_budget_and_stats() {
        let cfg = McConfig::builder(PolicyKind::Fcfs)
            .queue_capacities([2, 2, 2, 2, 2])
            .total_entries(3)
            .build()
            .unwrap();
        let mut front = AdmissionControl::new(&cfg);
        assert!(front.has_room(0));
        front.admit(0);
        front.admit(0);
        assert!(!front.has_room(0), "class capacity binds");
        assert!(front.has_room(1));
        front.admit(1);
        assert!(!front.has_room(2), "shared budget binds");
        front.reject(2);
        assert_eq!(front.occupancy(), 3);
        assert_eq!(front.stats().peak_occupancy, 3);
        assert_eq!(front.stats().total_rejected(), 1);
        front.release(0);
        assert!(front.has_room(0));
        assert_eq!(front.class_count(0), 1);
        assert_eq!(front.stats().peak_occupancy, 3, "peak sticks");
    }
}
