//! The memory-controller facade: the shared policy front-end
//! ([`AdmissionControl`]) composed with one [`ChannelController`] per DRAM
//! channel, presented through the original single-object API.
//!
//! The facade is the convenient way to drive the controller against a
//! whole [`Dram`] device; a lane-structured engine instead owns the two
//! halves directly (admission at the NoC boundary, one `ChannelController`
//! per lane) so channels can be stepped independently.

use sara_dram::Dram;
use sara_types::{Cycle, Transaction};

use crate::channel_ctrl::{AdmissionControl, ChannelController};
use crate::config::McConfig;
use crate::stats::McStats;

/// A transaction whose final column command has been issued.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// The finished transaction.
    pub txn: Transaction,
    /// Cycle at which the data burst completes (read data fully returned /
    /// write data fully absorbed).
    pub done_at: Cycle,
    /// Cycle the final column command issued.
    pub issued_at: Cycle,
    /// Queueing delay: acceptance → final command, in cycles.
    pub queued_for: u64,
    /// Whether the final access hit an open row.
    pub row_hit: bool,
    /// Whether the transaction had been promoted by starvation aging.
    pub was_aged: bool,
}

/// Result of one scheduling attempt on a channel.
#[derive(Debug, Clone, PartialEq)]
pub enum TickResult {
    /// A command was issued; `completed` is set when it was the final
    /// column command of a transaction.
    Issued {
        /// The completed transaction, if the command finished one.
        completed: Option<Completion>,
    },
    /// Nothing could issue this cycle.
    Idle {
        /// Earliest cycle at which a queued transaction for this channel
        /// could issue its next command (None when the channel has no
        /// queued work).
        retry_at: Option<Cycle>,
    },
}

/// The QoS-aware memory controller (§3.3, §4.1).
///
/// Five class queues (CPU / GPU / DSP / media / system) split Table 1's
/// 42 entries; each cycle, per channel, the configured policy picks one legal
/// DRAM command to issue. Priority-aware policies honour the SARA priority
/// stamped on each transaction and promote starved entries after T cycles.
///
/// # Examples
///
/// ```
/// use sara_dram::{Dram, DramConfig, Interleave};
/// use sara_memctrl::{McConfig, MemoryController, PolicyKind, TickResult};
/// use sara_types::{Addr, CoreKind, Cycle, DmaId, MemOp, Priority, Transaction, TransactionId};
///
/// let mut dram = Dram::new(DramConfig::table1_1866(), Interleave::default())?;
/// let mut mc = MemoryController::new(McConfig::builder(PolicyKind::Priority).build()?);
/// let txn = Transaction {
///     id: TransactionId::new(0), dma: DmaId::new(0), core: CoreKind::Dsp,
///     class: CoreKind::Dsp.class(), op: MemOp::Read, addr: Addr::new(0),
///     bytes: 128, injected_at: Cycle::ZERO, priority: Priority::new(5), urgent: false,
/// };
/// mc.try_accept(txn, Cycle::ZERO, &dram).unwrap();
/// let mut now = Cycle::ZERO;
/// loop {
///     match mc.tick(0, now, &mut dram) {
///         TickResult::Issued { completed: Some(c) } => { assert!(c.done_at > now); break; }
///         TickResult::Issued { completed: None } => now = now + 1,
///         TickResult::Idle { retry_at: Some(at) } => now = at,
///         TickResult::Idle { retry_at: None } => unreachable!("work is queued"),
///     }
/// }
/// # Ok::<(), sara_types::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct MemoryController {
    cfg: McConfig,
    front: AdmissionControl,
    lanes: Vec<ChannelController>,
}

impl MemoryController {
    /// Creates a controller with the given configuration. Per-channel
    /// controllers are grown on demand as transactions decode to (or ticks
    /// name) new channels, so the facade works against any device geometry
    /// without being told the channel count up front.
    pub fn new(cfg: McConfig) -> Self {
        MemoryController {
            front: AdmissionControl::new(&cfg),
            lanes: Vec::new(),
            cfg,
        }
    }

    /// The configuration.
    #[inline]
    pub fn config(&self) -> &McConfig {
        &self.cfg
    }

    /// Statistics snapshot: the admission front-end's counters
    /// (accepted/rejected, peak occupancy) folded together with every
    /// channel controller's scheduling counters
    /// ([`AdmissionControl::controller_stats`]).
    pub fn stats(&self) -> McStats {
        self.front.controller_stats(&self.lanes)
    }

    /// Transactions currently queued.
    #[inline]
    pub fn occupancy(&self) -> usize {
        self.front.occupancy()
    }

    /// Switches the scheduling policy mid-run without disturbing queued
    /// transactions, statistics, or the round-robin/aging state. The next
    /// [`MemoryController::tick`] arbitrates under the new policy; entries
    /// admitted under the old one simply compete under the new rules.
    pub fn set_policy(&mut self, policy: crate::policy::PolicyKind) {
        self.cfg.set_policy(policy);
        for lane in &mut self.lanes {
            lane.set_policy(policy);
        }
    }

    /// Whether a transaction of `class_queue` would currently be admitted.
    pub fn has_room(&self, class_queue: usize) -> bool {
        self.front.has_room(class_queue)
    }

    fn lane_mut(&mut self, channel: usize) -> &mut ChannelController {
        while self.lanes.len() <= channel {
            let ch = self.lanes.len();
            self.lanes
                .push(ChannelController::new(self.cfg.clone(), ch));
        }
        &mut self.lanes[channel]
    }

    /// Admits a transaction into its class queue on the owning channel.
    ///
    /// # Errors
    ///
    /// Returns the transaction back when its class queue is full
    /// (backpressure into the NoC).
    pub fn try_accept(
        &mut self,
        txn: Transaction,
        now: Cycle,
        dram: &Dram,
    ) -> Result<(), Transaction> {
        let q = txn.class.queue_index();
        if !self.front.has_room(q) {
            self.front.reject(q);
            return Err(txn);
        }
        let loc = dram.decode(txn.addr);
        self.front.admit(q);
        self.lane_mut(loc.channel).accept(txn, loc, now);
        Ok(())
    }

    /// Attempts to issue one DRAM command on `channel` at cycle `now`.
    ///
    /// Work-conserving: among all queued transactions for this channel whose
    /// next command is legal *now*, the configured policy picks one. At most
    /// one command per call; the caller must not call again for the same
    /// channel in the same cycle (the DRAM command bus allows one command
    /// per cycle).
    pub fn tick(&mut self, channel: usize, now: Cycle, dram: &mut Dram) -> TickResult {
        let lane = self.lane_mut(channel);
        let result = lane.tick(now, dram.channel_mut(channel));
        if let TickResult::Issued {
            completed: Some(c), ..
        } = &result
        {
            self.front.release(c.txn.class.queue_index());
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;
    use sara_dram::{DramConfig, Interleave};
    use sara_types::{Addr, CoreKind, DmaId, MemOp, Priority, TransactionId};

    fn dram() -> Dram {
        Dram::new(DramConfig::table1_1866(), Interleave::default()).unwrap()
    }

    fn mc(policy: PolicyKind) -> MemoryController {
        MemoryController::new(McConfig::builder(policy).build().unwrap())
    }

    fn txn(id: u64, core: CoreKind, addr: u64, prio: u8) -> Transaction {
        Transaction {
            id: TransactionId::new(id),
            dma: DmaId::new(id as u16),
            core,
            class: core.class(),
            op: MemOp::Read,
            addr: Addr::new(addr),
            bytes: 128,
            injected_at: Cycle::ZERO,
            priority: Priority::new(prio),
            urgent: false,
        }
    }

    /// Drives channel 0 until `n` transactions complete; returns them.
    fn drain(mcq: &mut MemoryController, d: &mut Dram, n: usize) -> Vec<Completion> {
        let mut out = Vec::new();
        let mut now = Cycle::ZERO;
        let mut guard = 0;
        while out.len() < n {
            guard += 1;
            assert!(guard < 100_000, "scheduler failed to make progress");
            match mcq.tick(0, now, d) {
                TickResult::Issued { completed } => {
                    if let Some(c) = completed {
                        out.push(c);
                    }
                    now += 1;
                }
                TickResult::Idle { retry_at } => match retry_at {
                    Some(at) => now = at,
                    None => panic!("no queued work but {} completions expected", n),
                },
            }
        }
        out
    }

    #[test]
    fn accept_and_complete_single_read() {
        let mut d = dram();
        let mut m = mc(PolicyKind::Fcfs);
        m.try_accept(txn(0, CoreKind::Cpu, 0, 0), Cycle::ZERO, &d)
            .unwrap();
        assert_eq!(m.occupancy(), 1);
        let done = drain(&mut m, &mut d, 1);
        assert_eq!(done.len(), 1);
        assert_eq!(m.occupancy(), 0);
        assert_eq!(m.stats().total_completed(), 1);
        // ACT@0 + RD@34 → data at 86.
        assert_eq!(done[0].done_at, Cycle::new(86));
    }

    #[test]
    fn admission_respects_queue_capacity() {
        let d = dram();
        let cfg = McConfig::builder(PolicyKind::Fcfs)
            .queue_capacities([2, 10, 10, 10, 10])
            .build()
            .unwrap();
        let mut m = MemoryController::new(cfg);
        assert!(m
            .try_accept(txn(0, CoreKind::Cpu, 0, 0), Cycle::ZERO, &d)
            .is_ok());
        assert!(m
            .try_accept(txn(1, CoreKind::Cpu, 128, 0), Cycle::ZERO, &d)
            .is_ok());
        let back = m.try_accept(txn(2, CoreKind::Cpu, 256, 0), Cycle::ZERO, &d);
        assert!(back.is_err());
        assert_eq!(m.stats().total_rejected(), 1);
        // Other classes still admitted.
        assert!(m
            .try_accept(txn(3, CoreKind::Usb, 512, 0), Cycle::ZERO, &d)
            .is_ok());
    }

    #[test]
    fn priority_policy_serves_urgent_first() {
        let mut d = dram();
        let mut m = mc(PolicyKind::Priority);
        // Same bank, same row: low-priority old vs high-priority young.
        m.try_accept(txn(0, CoreKind::Cpu, 0, 1), Cycle::ZERO, &d)
            .unwrap();
        m.try_accept(txn(1, CoreKind::Dsp, 512, 7), Cycle::ZERO, &d)
            .unwrap();
        let done = drain(&mut m, &mut d, 2);
        assert_eq!(done[0].txn.core, CoreKind::Dsp);
        assert_eq!(done[1].txn.core, CoreKind::Cpu);
    }

    #[test]
    fn policy_switch_mid_run_reorders_queued_work() {
        let mut d = dram();
        let mut m = mc(PolicyKind::Fcfs);
        m.try_accept(txn(0, CoreKind::Cpu, 0, 1), Cycle::ZERO, &d)
            .unwrap();
        m.try_accept(txn(1, CoreKind::Dsp, 512, 7), Cycle::ZERO, &d)
            .unwrap();
        // Under FCFS the CPU would win; switching before the first tick
        // must make the already-queued entries compete under Priority.
        m.set_policy(PolicyKind::Priority);
        assert_eq!(m.config().policy(), PolicyKind::Priority);
        let done = drain(&mut m, &mut d, 2);
        assert_eq!(done[0].txn.core, CoreKind::Dsp);
        assert_eq!(m.stats().total_completed(), 2, "stats carried over");
    }

    #[test]
    fn fcfs_serves_in_arrival_order_despite_priority() {
        let mut d = dram();
        let mut m = mc(PolicyKind::Fcfs);
        m.try_accept(txn(0, CoreKind::Cpu, 0, 1), Cycle::ZERO, &d)
            .unwrap();
        m.try_accept(txn(1, CoreKind::Dsp, 512, 7), Cycle::ZERO, &d)
            .unwrap();
        let done = drain(&mut m, &mut d, 2);
        assert_eq!(done[0].txn.core, CoreKind::Cpu);
    }

    #[test]
    fn fr_fcfs_prefers_open_row() {
        let mut d = dram();
        let mut m = mc(PolicyKind::FrFcfs);
        // txn0 and txn2 share a row; txn1 (older than txn2) needs another row
        // in the same bank.
        let map = d.address_map().clone();
        let base = d.decode(Addr::new(0));
        let same_row = map.encode(sara_dram::Location { col: 1, ..base });
        let other_row = map.encode(sara_dram::Location { row: 9, ..base });
        m.try_accept(txn(0, CoreKind::Cpu, 0, 0), Cycle::ZERO, &d)
            .unwrap();
        m.try_accept(
            txn(1, CoreKind::Usb, other_row.as_u64(), 0),
            Cycle::ZERO,
            &d,
        )
        .unwrap();
        m.try_accept(txn(2, CoreKind::Gpu, same_row.as_u64(), 0), Cycle::ZERO, &d)
            .unwrap();
        let done = drain(&mut m, &mut d, 3);
        let order: Vec<u64> = done.iter().map(|c| c.txn.id.as_u64()).collect();
        assert_eq!(order, vec![0, 2, 1], "row hit jumps the queue");
        assert!(done[1].row_hit);
    }

    #[test]
    fn aging_promotes_starved_transaction() {
        let mut d = dram();
        let cfg = McConfig::builder(PolicyKind::Priority)
            .aging_threshold(Some(500))
            .build()
            .unwrap();
        let mut m = MemoryController::new(cfg);
        let map = d.address_map().clone();
        let base = d.decode(Addr::new(0));
        // Victim: low-priority (but QoS-stamped, priority 1) transaction to
        // a conflicting row. Priority-0 best-effort traffic never ages.
        let victim = map.encode(sara_dram::Location { row: 9, ..base });
        m.try_accept(txn(0, CoreKind::Cpu, victim.as_u64(), 1), Cycle::ZERO, &d)
            .unwrap();
        // Endless high-priority same-row stream, injected continuously so it
        // never ages itself: without aging the victim would starve forever.
        let mut next_id = 1u64;
        let mut now = Cycle::ZERO;
        let mut victim_completion = None;
        let mut stream_completions = 0u32;
        while victim_completion.is_none() && stream_completions < 400 {
            while m.has_room(sara_types::CoreClass::Dsp.queue_index()) {
                let addr = map.encode(sara_dram::Location {
                    col: (next_id % 16) as u32,
                    ..base
                });
                m.try_accept(txn(next_id, CoreKind::Dsp, addr.as_u64(), 7), now, &d)
                    .unwrap();
                next_id += 1;
            }
            match m.tick(0, now, &mut d) {
                TickResult::Issued { completed } => {
                    if let Some(c) = completed {
                        if c.txn.id.as_u64() == 0 {
                            victim_completion = Some(c);
                        } else {
                            stream_completions += 1;
                        }
                    }
                    now += 1;
                }
                TickResult::Idle { retry_at } => now = retry_at.expect("work queued"),
            }
        }
        let victim = victim_completion.expect("aging must rescue the victim from starvation");
        assert!(victim.was_aged);
        assert!(
            victim.queued_for >= 500,
            "victim completed only after aging"
        );
        assert_eq!(m.stats().class(sara_types::CoreClass::Cpu).aged, 1);
    }

    #[test]
    fn idle_reports_retry_time() {
        let mut d = dram();
        let mut m = mc(PolicyKind::Fcfs);
        m.try_accept(txn(0, CoreKind::Cpu, 0, 0), Cycle::ZERO, &d)
            .unwrap();
        // Issue ACT at 0; RD not legal until 34.
        assert!(matches!(
            m.tick(0, Cycle::ZERO, &mut d),
            TickResult::Issued { completed: None }
        ));
        match m.tick(0, Cycle::new(1), &mut d) {
            TickResult::Idle { retry_at } => assert_eq!(retry_at, Some(Cycle::new(34))),
            other => panic!("expected idle, got {other:?}"),
        }
    }

    #[test]
    fn idle_with_no_work_reports_none() {
        let mut d = dram();
        let mut m = mc(PolicyKind::Fcfs);
        match m.tick(0, Cycle::ZERO, &mut d) {
            TickResult::Idle { retry_at } => assert_eq!(retry_at, None),
            other => panic!("expected idle, got {other:?}"),
        }
    }

    #[test]
    fn channels_tracked_independently() {
        let d = dram();
        let mut m = mc(PolicyKind::Fcfs);
        m.try_accept(txn(0, CoreKind::Cpu, 0, 0), Cycle::ZERO, &d)
            .unwrap(); // ch 0
        m.try_accept(txn(1, CoreKind::Cpu, 128, 0), Cycle::ZERO, &d)
            .unwrap(); // ch 1
        assert_eq!(m.lanes[0].queued(), 1);
        assert_eq!(m.lanes[1].queued(), 1);
    }
}

#[cfg(test)]
mod policy_integration {
    use super::*;
    use crate::policy::PolicyKind;
    use sara_dram::{DramConfig, Interleave};
    use sara_types::{Addr, CoreKind, DmaId, MemOp, Priority, TransactionId};

    fn dram() -> Dram {
        Dram::new(DramConfig::table1_1866(), Interleave::default()).unwrap()
    }

    fn txn_with(
        id: u64,
        core: CoreKind,
        addr: u64,
        prio: u8,
        urgent: bool,
        op: MemOp,
    ) -> Transaction {
        Transaction {
            id: TransactionId::new(id),
            dma: DmaId::new(id as u16),
            core,
            class: core.class(),
            op,
            addr: Addr::new(addr),
            bytes: 128,
            injected_at: Cycle::ZERO,
            priority: Priority::new(prio),
            urgent,
        }
    }

    fn drain_n(m: &mut MemoryController, d: &mut Dram, n: usize) -> Vec<Completion> {
        let mut out = Vec::new();
        let mut now = Cycle::ZERO;
        let mut guard = 0;
        while out.len() < n {
            guard += 1;
            assert!(guard < 200_000, "no progress");
            match m.tick(0, now, d) {
                TickResult::Issued { completed } => {
                    if let Some(c) = completed {
                        out.push(c);
                    }
                    now += 1;
                }
                TickResult::Idle { retry_at } => now = retry_at.expect("queued work"),
            }
        }
        out
    }

    #[test]
    fn frame_qos_serves_urgent_media_before_older_traffic() {
        let mut d = dram();
        let mut m = MemoryController::new(McConfig::builder(PolicyKind::FrameQos).build().unwrap());
        m.try_accept(
            txn_with(0, CoreKind::Cpu, 0, 0, false, MemOp::Read),
            Cycle::ZERO,
            &d,
        )
        .unwrap();
        m.try_accept(
            txn_with(1, CoreKind::Display, 512, 0, true, MemOp::Read),
            Cycle::ZERO,
            &d,
        )
        .unwrap();
        let done = drain_n(&mut m, &mut d, 2);
        assert_eq!(done[0].txn.core, CoreKind::Display, "urgent first");
    }

    #[test]
    fn qos_rb_defers_precharge_until_pending_hits_drain() {
        let mut d = dram();
        let mut m =
            MemoryController::new(McConfig::builder(PolicyKind::QosRowBuffer).build().unwrap());
        let map = d.address_map().clone();
        let base = d.decode(Addr::new(0));
        // Open the row with the first transaction...
        for i in 0..3u64 {
            let addr = map.encode(sara_dram::Location {
                col: i as u32,
                ..base
            });
            m.try_accept(
                txn_with(i, CoreKind::Cpu, addr.as_u64(), 0, false, MemOp::Read),
                Cycle::ZERO,
                &d,
            )
            .unwrap();
        }
        let first = drain_n(&mut m, &mut d, 1);
        assert_eq!(first[0].txn.id.as_u64(), 0);
        // ...then inject a higher-priority (but < δ) conflicting transaction
        // while same-row hits are still queued.
        let other = map.encode(sara_dram::Location { row: 5, ..base });
        m.try_accept(
            txn_with(9, CoreKind::Usb, other.as_u64(), 3, false, MemOp::Read),
            Cycle::ZERO,
            &d,
        )
        .unwrap();
        let done = drain_n(&mut m, &mut d, 3);
        let order: Vec<u64> = done.iter().map(|c| c.txn.id.as_u64()).collect();
        assert_eq!(
            order,
            vec![1, 2, 9],
            "P3 < delta: the open row must be milked before the conflicting PRE"
        );
    }

    #[test]
    fn qos_rb_lets_urgent_traffic_break_the_row() {
        let mut d = dram();
        let cfg = McConfig::builder(PolicyKind::QosRowBuffer)
            .queue_capacities([16, 6, 6, 8, 6])
            .build()
            .unwrap();
        let mut m = MemoryController::new(cfg);
        let map = d.address_map().clone();
        let base = d.decode(Addr::new(0));
        // A long run of same-row hits (row stays legal-to-close only after
        // tRAS, so the first few hits always slip in regardless).
        for i in 0..8u64 {
            let addr = map.encode(sara_dram::Location {
                col: i as u32,
                ..base
            });
            m.try_accept(
                txn_with(i, CoreKind::Cpu, addr.as_u64(), 0, false, MemOp::Read),
                Cycle::ZERO,
                &d,
            )
            .unwrap();
        }
        let first = drain_n(&mut m, &mut d, 1);
        assert_eq!(first[0].txn.id.as_u64(), 0);
        let other = map.encode(sara_dram::Location { row: 5, ..base });
        // Priority 7 >= delta(6): allowed to close the hot row as soon as
        // the precharge is timing-legal.
        m.try_accept(
            txn_with(9, CoreKind::Dsp, other.as_u64(), 7, false, MemOp::Read),
            Cycle::ZERO,
            &d,
        )
        .unwrap();
        let done = drain_n(&mut m, &mut d, 8);
        let pos = done.iter().position(|c| c.txn.id.as_u64() == 9).unwrap();
        assert!(
            pos < 7,
            "urgent transaction must not wait for the whole row run: order {:?}",
            done.iter().map(|c| c.txn.id.as_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn best_effort_priority_zero_never_ages() {
        let mut d = dram();
        let cfg = McConfig::builder(PolicyKind::Priority)
            .aging_threshold(Some(100))
            .build()
            .unwrap();
        let mut m = MemoryController::new(cfg);
        m.try_accept(
            txn_with(0, CoreKind::Cpu, 0, 0, false, MemOp::Read),
            Cycle::ZERO,
            &d,
        )
        .unwrap();
        // Tick far past the threshold; the lone candidate completes, but
        // must not be counted as aged.
        let done = drain_n(&mut m, &mut d, 1);
        assert!(!done[0].was_aged);
        // Even when the wait hugely exceeded T:
        m.try_accept(
            txn_with(1, CoreKind::Cpu, 1 << 20, 0, false, MemOp::Read),
            Cycle::ZERO,
            &d,
        )
        .unwrap();
        let mut now = Cycle::new(1_000_000);
        let c = loop {
            match m.tick(0, now, &mut d) {
                TickResult::Issued { completed: Some(c) } => break c,
                TickResult::Issued { completed: None } => now += 1,
                TickResult::Idle { retry_at } => now = retry_at.unwrap(),
            }
        };
        assert!(
            !c.was_aged,
            "priority-0 traffic is exempt from backlog clearing"
        );
    }

    #[test]
    fn write_transactions_complete_with_write_timing() {
        let mut d = dram();
        let mut m = MemoryController::new(McConfig::builder(PolicyKind::Fcfs).build().unwrap());
        m.try_accept(
            txn_with(0, CoreKind::Camera, 0, 0, false, MemOp::Write),
            Cycle::ZERO,
            &d,
        )
        .unwrap();
        let done = drain_n(&mut m, &mut d, 1);
        // ACT@0, WR@34, data done at 34 + WL(18) + BL(16) = 68.
        assert_eq!(done[0].done_at, Cycle::new(68));
        assert!(!done[0].txn.op.is_read());
    }
}
