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
//!
//! # The scheduling table
//!
//! Queued transactions live in one flat table in arrival order. Besides
//! the transaction, an entry carries the command it needs next, the
//! bank- and rank-local bound on that command ([`Channel::probe_local`])
//! and `earliest`, that bound joined with the channel gate of the command
//! ([`sara_dram::Gates::bound`]); the controller keeps the minimum
//! `earliest` (`first_legal`) and the mask of banks with a queued row
//! hit. **Invariant:** whenever a decision reads the table, every entry
//! equals a fresh [`Channel::probe`] of it, and the two summaries
//! equal what a pass over the entries would compute. Three events
//! invalidate that, and each has one owner that repairs it:
//!
//! 1. *The controller issues a command.* That changes the local bound of
//!    the entries on the issued bank, of the ACT-pending entries of the
//!    rank when the command was an ACT, and all three gates — so
//!    `issue` ends with the one pass that re-probes exactly those entries
//!    and re-joins every entry with the new gates.
//! 2. *A transaction is accepted.* It is appended unprobed (`accept` has no
//!    channel to ask); the next tick probes the entries behind `synced`.
//! 3. *Anything else moves the channel* — a refresh performed by
//!    [`Channel::advance`], [`Channel::set_clock`], another driver issuing
//!    on the same channel, a cloned controller that fell behind. All of
//!    them move [`Channel::version`]; a tick compares it with the version
//!    the table was last repaired against and re-probes everything when
//!    they differ. This is the only full re-probe.
//!
//! Nothing is checked per entry, and an idle tick does no pass at all.
//! Debug builds verify the invariant against a fresh probe of every entry
//! on every tick.

use sara_dram::{Channel, Location, NextCommand};
use sara_types::arbitration::aged_level;
use sara_types::{Cycle, Transaction};

use crate::config::{McConfig, NUM_QUEUES};
use crate::controller::{Completion, TickResult};
use crate::policy::{select, Candidate, PolicyKind, PolicyState};
use crate::stats::McStats;

/// One row of the scheduling table: a queued transaction and what the
/// channel last said about it (see the module docs for when that is
/// current).
#[derive(Debug, Clone)]
struct Entry {
    txn: Transaction,
    loc: Location,
    accepted_at: Cycle,
    /// [`Channel::bank_index`] of `loc`: which issued commands invalidate
    /// this entry, and its bit in the row-guard mask.
    bank: usize,
    /// The command the transaction needs next.
    next: NextCommand,
    /// The bank- and rank-local bound on `next`.
    local: Cycle,
    /// Earliest legal issue cycle: `local` joined with the gate of `next`.
    earliest: Cycle,
}

/// The scheduling engine for one DRAM channel.
///
/// Owns the channel's slice of the five class queues (as one scheduling
/// table, see the module docs), its own round-robin/aging [`PolicyState`]
/// and its own counters, and issues at most one DRAM command per
/// [`ChannelController::tick`] against the one [`Channel`] it is paired
/// with for life. Admission (the shared 42-entry budget)
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
    /// The scheduling table, in arrival order.
    table: Vec<Entry>,
    /// `table[..synced]` has been probed; the rest was accepted since.
    synced: usize,
    /// [`Channel::version`] the probed entries and the two summaries below
    /// are exact against.
    version: u64,
    /// Banks with a probed row hit, by [`Channel::bank_index`] (row-guard
    /// mask).
    banks_with_hits: u64,
    /// Earliest legality cycle over the probed entries ([`Cycle::MAX`]
    /// when there are none): no decision before it can find a candidate.
    first_legal: Cycle,
    state: PolicyState,
    stats: McStats,
    /// Scratch of the last decision: the candidates handed to the policy
    /// and, per candidate, its index into `table`.
    cands: Vec<Candidate>,
    cand_entry: Vec<usize>,
}

impl ChannelController {
    /// Creates the controller for `channel` with the given configuration.
    pub fn new(cfg: McConfig, channel: usize) -> Self {
        ChannelController {
            channel,
            table: Vec::with_capacity(cfg.total_entries()),
            synced: 0,
            // No channel's counter reaches this, so the first tick probes.
            version: u64::MAX,
            banks_with_hits: 0,
            first_legal: Cycle::MAX,
            state: PolicyState::default(),
            stats: McStats::default(),
            cands: Vec::with_capacity(cfg.total_entries()),
            cand_entry: Vec::with_capacity(cfg.total_entries()),
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

    /// This channel's scheduling counters: completions and aging
    /// promotions per class plus commands issued. Admission counts
    /// (accepted, rejected, peak occupancy) have one writer, the
    /// front-end's [`AdmissionControl::stats`], and stay zero here.
    #[inline]
    pub fn stats(&self) -> &McStats {
        &self.stats
    }

    /// Transactions currently queued on this channel.
    #[inline]
    pub fn queued(&self) -> usize {
        self.table.len()
    }

    /// Switches the scheduling policy mid-run; queued entries compete
    /// under the new rules from the next tick on.
    pub fn set_policy(&mut self, policy: PolicyKind) {
        self.cfg.set_policy(policy);
    }

    /// Enqueues a transaction the front-end already admitted against the
    /// shared budget. `loc` must decode to this controller's channel. The
    /// entry is probed by the next tick.
    pub fn accept(&mut self, txn: Transaction, loc: Location, now: Cycle) {
        debug_assert_eq!(
            loc.channel, self.channel,
            "transaction routed to wrong lane"
        );
        self.table.push(Entry {
            txn,
            loc,
            accepted_at: now,
            bank: 0,
            next: NextCommand::Activate,
            local: Cycle::MAX,
            earliest: Cycle::MAX,
        });
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
    /// do, without re-deriving anything the chain would find unchanged.
    /// The call first brings the scheduling table up to date (module
    /// docs): it probes the entries accepted since the last tick, or every
    /// entry when [`Channel::version`] says something other than this
    /// controller's own commands moved the channel. When nothing is
    /// issuable at `now` the decision moves to the earliest legality cycle
    /// in the table and is re-evaluated there; the table only goes stale
    /// on the way when [`Channel::advance`] performs a refresh, which
    /// moves the version and so triggers the full re-probe. An issued
    /// command repairs the table before the call returns. If nothing can
    /// issue before `limit` the result is `Idle` with the next retry cycle
    /// (≥ `limit`), paired with the last cycle a decision was evaluated
    /// at. `now` itself is always evaluated, whatever `limit` is.
    pub fn tick_until(
        &mut self,
        now: Cycle,
        limit: Cycle,
        chan: &mut Channel,
    ) -> (Cycle, TickResult) {
        chan.advance(now);
        self.sync(chan);
        let mut at = now;
        loop {
            match self.decide(at) {
                Ok(winner) => return (at, self.issue(winner, at, chan)),
                Err(Some(next)) if next < limit => {
                    at = next;
                    if chan.advance(at) {
                        self.sync(chan);
                    }
                }
                Err(retry_at) => return (at, TickResult::Idle { retry_at }),
            }
        }
    }

    /// Makes the table current against `chan`: probes the entries accepted
    /// since the last tick — every entry, when the channel's version is
    /// not the one the table was last repaired against.
    fn sync(&mut self, chan: &Channel) {
        let moved = self.version != chan.version();
        if moved || self.synced < self.table.len() {
            self.repair(chan, if moved { 0 } else { self.synced }, |_| true);
        }
        #[cfg(debug_assertions)]
        self.assert_current(chan);
    }

    /// The one pass that keeps the table current: re-probes the entries of
    /// `table[from..]` that `stale` names, re-joins every one of them with
    /// the channel's gates and folds them into the two summaries (started
    /// afresh when `from` is 0). Entries before `from` must be current.
    #[inline]
    fn repair(&mut self, chan: &Channel, from: usize, stale: impl Fn(&Entry) -> bool) {
        if from == 0 {
            self.banks_with_hits = 0;
            self.first_legal = Cycle::MAX;
        }
        let gates = chan.gates();
        for entry in &mut self.table[from..] {
            if stale(entry) {
                entry.bank = chan.bank_index(&entry.loc);
                (entry.next, entry.local) = chan.probe_local(&entry.loc);
            }
            entry.earliest = entry.local.max(gates.bound(entry.next, entry.txn.op));
            self.banks_with_hits |= entry.hit_bit();
            self.first_legal = self.first_legal.min(entry.earliest);
        }
        self.version = chan.version();
        self.synced = self.table.len();
    }

    /// The table's invariant, checked against a fresh probe of every
    /// entry (debug builds, every tick).
    #[cfg(debug_assertions)]
    fn assert_current(&self, chan: &Channel) {
        let gates = chan.gates();
        let (mut hits, mut first) = (0, Cycle::MAX);
        for entry in &self.table {
            let fresh = chan.probe(&gates, &entry.loc, entry.txn.op);
            assert_eq!(
                (entry.next, entry.earliest),
                fresh,
                "stale table entry for {} at {}",
                entry.txn.id,
                entry.loc
            );
            assert_eq!(entry.bank, chan.bank_index(&entry.loc));
            hits |= entry.hit_bit();
            first = first.min(fresh.1);
        }
        assert_eq!(self.banks_with_hits, hits, "stale row-guard mask");
        assert_eq!(self.first_legal, first, "stale first_legal");
    }

    /// Runs the policy over the entries legal at `at`. Returns the
    /// winner's index into the candidate scratch, or the earliest later
    /// cycle any entry becomes legal.
    fn decide(&mut self, at: Cycle) -> Result<usize, Option<Cycle>> {
        if self.first_legal > at {
            return Err((!self.table.is_empty()).then_some(self.first_legal));
        }
        // Row-buffer protection (open-page policy): banks that still have
        // queued same-row hits should not be precharged from under them by
        // low-urgency traffic. Policy 2 enforces this below δ (its row-hit
        // optimisation, §3.3); FR-FCFS enforces it unconditionally (that is
        // what "first-ready" means); the other policies ignore it.
        let policy = self.cfg.policy();
        let row_guard = matches!(policy, PolicyKind::QosRowBuffer | PolicyKind::FrFcfs);
        let threshold = self.cfg.aging_threshold();
        let aging = threshold.filter(|_| policy.uses_priorities());
        self.cands.clear();
        self.cand_entry.clear();
        for (i, entry) in self.table.iter().enumerate() {
            if entry.earliest > at {
                continue;
            }
            // Backlog clearing (§3.3) bounds the waiting time of
            // transactions with a QoS stamp.
            let waited = at.saturating_sub(entry.accepted_at);
            let effective_priority = aged_level(entry.txn.priority, waited, aging);
            if row_guard
                && matches!(entry.next, NextCommand::Precharge)
                && self.banks_with_hits & bank_bit(entry.bank) != 0
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
                queue: entry.txn.class.queue_index(),
                seq: entry.txn.id.as_u64(),
                dma: entry.txn.dma,
                priority: entry.txn.priority,
                effective_priority,
                urgent: entry.txn.urgent,
                row_hit: entry.next.is_row_hit(),
            });
            self.cand_entry.push(i);
        }
        select(policy, &self.cands, &mut self.state, self.cfg.delta()).ok_or_else(|| {
            let later = self.table.iter().map(|e| e.earliest).filter(|&e| e > at);
            later.min()
        })
    }

    /// Issues the next command of candidate `winner` at `now`; a column
    /// command completes its transaction and removes it from the table.
    /// Either way the table is repaired against the channel's new state.
    fn issue(&mut self, winner: usize, now: Cycle, chan: &mut Channel) -> TickResult {
        let cand = self.cands[winner];
        let pos = self.cand_entry[winner];
        let entry = &self.table[pos];
        let (bank, rank) = (entry.bank, entry.loc.rank);
        let was_act = matches!(entry.next, NextCommand::Activate);
        let issued = chan.issue(&entry.loc, entry.txn.op, now);
        self.stats.commands_issued += 1;

        let completed = issued.completion().map(|done_at| {
            let entry = self.table.remove(pos);
            let queued_for = now.saturating_sub(entry.accepted_at);
            // Aging is the only thing that moves a level off its stamp.
            let was_aged = cand.effective_priority != entry.txn.priority.as_u8();
            let class = self.stats.class_mut(cand.queue);
            class.completed += 1;
            if was_aged {
                class.aged += 1;
            }
            self.state.advance(cand.queue, entry.txn.dma);
            Completion {
                txn: entry.txn,
                done_at,
                issued_at: now,
                queued_for,
                row_hit: cand.row_hit,
                was_aged,
            }
        });

        // The command moved the local bound of the entries on its bank —
        // and, as an ACT, tRRD/tFAW for the entries of its rank that wait
        // for an ACT themselves — and every gate. Everything was probed
        // before the decision, so nothing else is behind.
        self.repair(chan, 0, |entry| {
            entry.bank == bank
                || (was_act
                    && entry.loc.rank == rank
                    && matches!(entry.next, NextCommand::Activate))
        });
        TickResult::Issued { completed }
    }
}

impl Entry {
    /// This entry's bit in the row-guard mask if it is a row hit, else 0.
    #[inline]
    fn hit_bit(&self) -> u64 {
        u64::from(self.next.is_row_hit()) * bank_bit(self.bank)
    }
}

/// The row-guard mask bit of the bank with [`Channel::bank_index`] `bank`:
/// one bit per bank for the at most 64 banks per channel a
/// [`sara_dram::DramConfig`] allows. A larger hand-built [`Channel`] would
/// share a bit between banks 64 apart, which can only over-guard.
#[inline]
fn bank_bit(bank: usize) -> u64 {
    1 << (bank % 64)
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
    /// simultaneous occupancy; the scheduling counts stay zero here. Fold
    /// the per-channel controllers' counters in with
    /// [`McStats::merge_scheduling`] for the full controller view.
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

    /// The row guard protects a bank with a queued row hit from being
    /// precharged — that bank, not every bank that shares a mask bit with
    /// it. With `rank * 32 + bank` clamped to 63, all banks of ranks ≥ 2
    /// shared bit 63, so a pending hit in rank 2 held back a legal PRE in
    /// rank 3.
    #[test]
    fn row_guard_does_not_alias_banks_across_ranks() {
        use sara_dram::DramCommand;
        let at = |rank, bank, row| Location {
            channel: 0,
            rank,
            bank,
            row,
            col: 0,
        };
        for policy in [PolicyKind::FrFcfs, PolicyKind::QosRowBuffer] {
            for (hit_rank, other_rank) in [(0, 1), (2, 3)] {
                let mut chan = Channel::new(TimingParams::lpddr4_1866(), 4, 8, 128);
                let cfg = McConfig::builder(policy).build().unwrap();
                let mut ctrl = ChannelController::new(cfg, 0);
                // Open row 1 in both banks with one read each.
                ctrl.accept(txn(0, CoreKind::Cpu, 1), at(hit_rank, 0, 1), Cycle::ZERO);
                ctrl.accept(txn(1, CoreKind::Cpu, 1), at(other_rank, 5, 1), Cycle::ZERO);
                let mut now = Cycle::ZERO;
                while ctrl.queued() > 0 {
                    now = match ctrl.tick(now, &mut chan) {
                        TickResult::Issued { .. } => now + 1,
                        TickResult::Idle { retry_at } => retry_at.expect("work queued"),
                    };
                }
                // A write hit that must wait out the read→write turnaround,
                // and a low-priority conflict in another bank whose PRE is
                // legal right now.
                let conflict = at(other_rank, 5, 2);
                let now = chan.earliest(&conflict, MemOp::Read).max(now);
                let mut hit = txn(2, CoreKind::Cpu, 1);
                hit.op = MemOp::Write;
                assert!(chan.earliest(&at(hit_rank, 0, 1), MemOp::Write) > now);
                ctrl.accept(hit, at(hit_rank, 0, 1), now);
                ctrl.accept(txn(3, CoreKind::Cpu, 1), conflict, now);
                assert_eq!(
                    ctrl.tick(now, &mut chan),
                    TickResult::Issued { completed: None },
                    "{policy:?}: hit in rank {hit_rank} must not guard rank {other_rank}"
                );
                let cmd = chan.last_issued().expect("just issued");
                assert_eq!((cmd.loc, cmd.cmd), (conflict, DramCommand::Precharge));
            }
        }
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
        assert_eq!(front.class_counts[0], 1);
        assert_eq!(front.stats().peak_occupancy, 3, "peak sticks");
    }
}
