//! An arbitration node: per-input FIFOs + switch allocation.

use std::collections::VecDeque;

use sara_types::{ConfigError, Cycle, Transaction};

use crate::arbiter::{select, ArbiterKind, Contender};

/// One buffered input port of an arbitration node.
#[derive(Debug, Clone)]
pub(crate) struct InputPort {
    queue: VecDeque<(Cycle, Transaction)>,
    capacity: usize,
}

impl InputPort {
    fn new(capacity: usize) -> Self {
        InputPort {
            queue: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    #[inline]
    pub(crate) fn is_full(&self) -> bool {
        self.queue.len() >= self.capacity
    }

    fn push(&mut self, ready_at: Cycle, txn: Transaction) -> Result<(), Transaction> {
        if self.is_full() {
            return Err(txn);
        }
        self.queue.push_back((ready_at, txn));
        Ok(())
    }

    /// Head transaction if it has arrived by `now`.
    fn ready_head(&self, now: Cycle) -> Option<&Transaction> {
        match self.queue.front() {
            Some((ready, txn)) if *ready <= now => Some(txn),
            _ => None,
        }
    }

    /// Earliest instant the head becomes ready (None if empty).
    fn head_ready_at(&self) -> Option<Cycle> {
        self.queue.front().map(|(ready, _)| *ready)
    }

    fn pop(&mut self) -> Option<Transaction> {
        self.queue.pop_front().map(|(_, txn)| txn)
    }

    /// Returns a just-popped transaction to the head of the queue, already
    /// arrived (used to undo a refused forward).
    fn push_front_ready(&mut self, txn: Transaction) {
        self.queue.push_front((Cycle::ZERO, txn));
    }
}

/// Counters for one arbitration node.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Transactions forwarded downstream.
    pub forwarded: u64,
    /// Forward attempts refused by a full downstream buffer.
    pub blocked: u64,
    /// Highest combined occupancy observed across input ports.
    pub peak_occupancy: usize,
}

/// A switch-allocation point: several buffered inputs, one output, one
/// transaction forwarded per `service_period` cycles, winner chosen by an
/// [`ArbiterKind`] policy.
#[derive(Debug, Clone)]
pub struct ArbiterNode {
    kind: ArbiterKind,
    inputs: Vec<InputPort>,
    cursor: usize,
    service_period: u64,
    next_free: Cycle,
    /// Transactions queued across all ports, kept in step by
    /// enqueue/take/undo.
    occupancy: usize,
    stats: NodeStats,
    scratch: Vec<Contender>,
    /// Saved (cursor, next_free) for undoing a refused take.
    undo: Option<(usize, Cycle)>,
}

impl ArbiterNode {
    /// Creates a node with `ports` input FIFOs of `capacity` entries each.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `ports`, `capacity` or `service_period`
    /// is zero.
    pub fn new(
        kind: ArbiterKind,
        ports: usize,
        capacity: usize,
        service_period: u64,
    ) -> Result<Self, ConfigError> {
        if ports == 0 || capacity == 0 || service_period == 0 {
            return Err(ConfigError::new(
                "arbiter node needs ports > 0, capacity > 0, service_period > 0",
            ));
        }
        Ok(ArbiterNode {
            kind,
            inputs: (0..ports).map(|_| InputPort::new(capacity)).collect(),
            cursor: 0,
            service_period,
            next_free: Cycle::ZERO,
            occupancy: 0,
            stats: NodeStats::default(),
            scratch: Vec::with_capacity(ports),
            undo: None,
        })
    }

    /// Number of input ports.
    #[inline]
    pub fn ports(&self) -> usize {
        self.inputs.len()
    }

    /// The arbitration policy.
    #[inline]
    pub fn kind(&self) -> ArbiterKind {
        self.kind
    }

    /// Statistics snapshot.
    #[inline]
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// Whether input `port` can accept another transaction.
    #[inline]
    pub fn can_accept(&self, port: usize) -> bool {
        !self.inputs[port].is_full()
    }

    /// Total queued transactions across ports.
    #[inline]
    pub fn occupancy(&self) -> usize {
        self.occupancy
    }

    /// Enqueues `txn` into input `port`, visible to arbitration at
    /// `ready_at` (arrival time after link latency).
    ///
    /// # Errors
    ///
    /// Returns the transaction back if the port FIFO is full.
    pub fn enqueue(
        &mut self,
        port: usize,
        ready_at: Cycle,
        txn: Transaction,
    ) -> Result<(), Transaction> {
        let res = self.inputs[port].push(ready_at, txn);
        if res.is_ok() {
            self.occupancy += 1;
            self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.occupancy);
        }
        res
    }

    /// The winning head at `now`, if the node is free and any head is ready.
    pub fn winner(&mut self, now: Cycle) -> Option<Contender> {
        self.gather(now, 0);
        select(self.kind, &self.scratch, self.cursor)
    }

    /// Collects the ready heads of the ports not flagged in `blocked` into
    /// the contender scratch (left empty while the node is busy).
    fn gather(&mut self, now: Cycle, blocked: u64) {
        self.scratch.clear();
        if self.occupancy == 0 || now < self.next_free {
            return;
        }
        for (i, port) in self.inputs.iter().enumerate() {
            if i < 64 && blocked & (1 << i) != 0 {
                continue;
            }
            if let Some(txn) = port.ready_head(now) {
                self.scratch.push(Contender {
                    port: i,
                    id: txn.id,
                    priority: txn.priority,
                    urgent: txn.urgent,
                });
            }
        }
    }

    /// Offers ready heads to `sink` in arbitration order until one is
    /// accepted (returns `true`) or every head has been refused. A refused
    /// head stays queued, counts in [`NodeStats::blocked`], and flags its
    /// port in `blocked` (bit `i` = port `i`; ports past 63 cannot be
    /// flagged), which keeps it from being offered again while the caller
    /// holds the flag — per-class virtual-channel flow control: a head
    /// destined for a full downstream queue must not block other classes.
    pub fn offer(
        &mut self,
        now: Cycle,
        blocked: &mut u64,
        sink: &mut dyn FnMut(Transaction) -> Result<(), Transaction>,
    ) -> bool {
        // A refusal changes nothing the arbiter reads, so the contenders
        // are gathered once and the refused one just drops out.
        self.gather(now, *blocked);
        while let Some(winner) = select(self.kind, &self.scratch, self.cursor) {
            // Offer-and-undo: the dequeue only sticks on sink acceptance.
            let txn = self.take(winner, now);
            match sink(txn) {
                Ok(()) => return true,
                Err(txn) => {
                    self.undo_take(winner.port, txn);
                    self.stats.blocked += 1;
                    if winner.port < 64 {
                        *blocked |= 1 << winner.port;
                    }
                    self.scratch.retain(|c| c.port != winner.port);
                }
            }
        }
        false
    }

    /// Removes and returns the winner chosen by [`Self::winner`], advancing
    /// the round-robin cursor and the service window.
    pub fn take(&mut self, contender: Contender, now: Cycle) -> Transaction {
        self.undo = Some((self.cursor, self.next_free));
        let txn = self.inputs[contender.port]
            .pop()
            .expect("winner port cannot be empty");
        debug_assert_eq!(txn.id, contender.id, "winner desynchronised from port head");
        self.cursor = contender.port + 1;
        self.next_free = now + self.service_period;
        self.occupancy -= 1;
        self.stats.forwarded += 1;
        txn
    }

    /// Reverts the most recent [`Self::take`], returning `txn` to the head
    /// of `port`. Used when the downstream sink refuses the transaction.
    ///
    /// # Panics
    ///
    /// Panics if no take is pending to undo.
    pub fn undo_take(&mut self, port: usize, txn: Transaction) {
        let (cursor, next_free) = self.undo.take().expect("no take to undo");
        self.cursor = cursor;
        self.next_free = next_free;
        self.occupancy += 1;
        self.stats.forwarded -= 1;
        self.inputs[port].push_front_ready(txn);
    }

    /// Earliest cycle at which this node could possibly forward something,
    /// or `None` if all inputs are empty.
    pub fn earliest_action(&self) -> Option<Cycle> {
        if self.occupancy == 0 {
            return None;
        }
        let head = self.inputs.iter().filter_map(|p| p.head_ready_at()).min()?;
        Some(head.max(self.next_free))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use sara_types::{Addr, CoreKind, DmaId, MemOp, Priority, TransactionId};

    fn txn(id: u64, prio: u8) -> Transaction {
        Transaction {
            id: TransactionId::new(id),
            dma: DmaId::new(0),
            core: CoreKind::Cpu,
            class: CoreKind::Cpu.class(),
            op: MemOp::Read,
            addr: Addr::new(id * 128),
            bytes: 128,
            injected_at: Cycle::ZERO,
            priority: Priority::new(prio),
            urgent: false,
        }
    }

    #[test]
    fn rejects_zero_config() {
        assert!(ArbiterNode::new(ArbiterKind::Fcfs, 0, 4, 1).is_err());
        assert!(ArbiterNode::new(ArbiterKind::Fcfs, 2, 0, 1).is_err());
        assert!(ArbiterNode::new(ArbiterKind::Fcfs, 2, 4, 0).is_err());
    }

    #[test]
    fn backpressure_when_port_full() {
        let mut n = ArbiterNode::new(ArbiterKind::Fcfs, 1, 2, 1).unwrap();
        assert!(n.enqueue(0, Cycle::ZERO, txn(0, 0)).is_ok());
        assert!(n.enqueue(0, Cycle::ZERO, txn(1, 0)).is_ok());
        let rejected = n.enqueue(0, Cycle::ZERO, txn(2, 0));
        assert_eq!(rejected.unwrap_err().id, TransactionId::new(2));
        assert!(!n.can_accept(0));
        assert_eq!(n.occupancy(), 2);
    }

    #[test]
    fn head_not_ready_until_arrival_time() {
        let mut n = ArbiterNode::new(ArbiterKind::Fcfs, 1, 4, 1).unwrap();
        n.enqueue(0, Cycle::new(10), txn(0, 0)).unwrap();
        assert!(n.winner(Cycle::new(5)).is_none());
        assert!(n.winner(Cycle::new(10)).is_some());
        assert_eq!(n.earliest_action(), Some(Cycle::new(10)));
    }

    #[test]
    fn service_period_throttles_forwarding() {
        let mut n = ArbiterNode::new(ArbiterKind::Fcfs, 1, 4, 4).unwrap();
        n.enqueue(0, Cycle::ZERO, txn(0, 0)).unwrap();
        n.enqueue(0, Cycle::ZERO, txn(1, 0)).unwrap();
        let w = n.winner(Cycle::ZERO).unwrap();
        let t = n.take(w, Cycle::ZERO);
        assert_eq!(t.id, TransactionId::new(0));
        assert!(n.winner(Cycle::new(3)).is_none(), "node busy until +4");
        assert!(n.winner(Cycle::new(4)).is_some());
        assert_eq!(n.stats().forwarded, 1);
    }

    #[test]
    fn priority_arbitration_across_ports() {
        let mut n = ArbiterNode::new(ArbiterKind::Priority, 2, 4, 1).unwrap();
        n.enqueue(0, Cycle::ZERO, txn(0, 1)).unwrap();
        n.enqueue(1, Cycle::ZERO, txn(1, 6)).unwrap();
        let w = n.winner(Cycle::ZERO).unwrap();
        assert_eq!(w.port, 1);
        assert_eq!(w.priority, Priority::new(6));
    }

    #[test]
    fn earliest_action_empty_is_none() {
        let n = ArbiterNode::new(ArbiterKind::Fcfs, 2, 4, 1).unwrap();
        assert_eq!(n.earliest_action(), None);
    }

    #[test]
    fn peak_occupancy_tracked() {
        let mut n = ArbiterNode::new(ArbiterKind::Fcfs, 2, 4, 1).unwrap();
        n.enqueue(0, Cycle::ZERO, txn(0, 0)).unwrap();
        n.enqueue(1, Cycle::ZERO, txn(1, 0)).unwrap();
        n.enqueue(1, Cycle::ZERO, txn(2, 0)).unwrap();
        assert_eq!(n.stats().peak_occupancy, 3);
    }

    /// The running occupancy equals the sum of the port lengths, and the
    /// peak equals a maximum recomputed after every successful enqueue,
    /// over seeded enqueue / take / take-and-undo / offer sequences.
    #[test]
    fn running_occupancy_matches_the_port_sum() {
        for seed in 0..48u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0x0cc0_0000 + seed);
            let ports = rng.gen_range(1usize..7);
            let mut n = ArbiterNode::new(ArbiterKind::Priority, ports, 3, 1).unwrap();
            let mut peak = 0;
            let mut id = 0u64;
            for step in 0..400u64 {
                let now = Cycle::new(step);
                match rng.gen_range(0u8..4) {
                    0 | 1 => {
                        let txn = txn(id, rng.gen_range(0u8..8));
                        id += 1;
                        if n.enqueue(rng.gen_range(0..ports), now, txn).is_ok() {
                            peak = peak.max(n.inputs.iter().map(|p| p.queue.len()).sum());
                        }
                    }
                    2 => {
                        if let Some(w) = n.winner(now) {
                            let txn = n.take(w, now);
                            if rng.gen_bool(0.4) {
                                n.undo_take(w.port, txn);
                            }
                        }
                    }
                    _ => {
                        // Refuse a random number of heads, then accept.
                        let mut refusals = rng.gen_range(0u8..3);
                        let mut blocked = 0;
                        n.offer(now, &mut blocked, &mut |txn| {
                            if refusals > 0 {
                                refusals -= 1;
                                Err(txn)
                            } else {
                                Ok(())
                            }
                        });
                    }
                }
                let sum: usize = n.inputs.iter().map(|p| p.queue.len()).sum();
                assert_eq!(n.occupancy(), sum, "seed {seed} step {step}");
                assert_eq!(n.stats().peak_occupancy, peak, "seed {seed} step {step}");
                assert_eq!(n.earliest_action().is_none(), sum == 0);
            }
        }
    }

    /// `offer` tries heads in arbitration order, counts and flags each
    /// refusal, and leaves refused heads queued in place.
    #[test]
    fn offer_skips_refused_heads_in_arbitration_order() {
        let mut n = ArbiterNode::new(ArbiterKind::Priority, 3, 4, 1).unwrap();
        for (port, prio) in [(0, 7u8), (1, 5), (2, 3)] {
            n.enqueue(port, Cycle::ZERO, txn(port as u64, prio))
                .unwrap();
        }
        let mut offered = Vec::new();
        let mut blocked = 0;
        let accepted = n.offer(Cycle::ZERO, &mut blocked, &mut |txn| {
            offered.push(txn.id.as_u64());
            if txn.id.as_u64() < 2 {
                Err(txn)
            } else {
                Ok(())
            }
        });
        assert!(accepted);
        assert_eq!(offered, [0, 1, 2], "highest priority first");
        assert_eq!(blocked, 0b011);
        assert_eq!(n.stats().blocked, 2);
        assert_eq!(n.stats().forwarded, 1);
        assert_eq!(n.occupancy(), 2);
        // The node is busy for its service period; the flagged heads stay.
        assert!(!n.offer(Cycle::ZERO, &mut blocked, &mut |_| Ok(())));
        let mut all = 0;
        assert!(n.offer(Cycle::new(1), &mut all, &mut |txn| {
            assert_eq!(txn.id.as_u64(), 0, "refused head kept its place");
            Ok(())
        }));
    }
}

#[cfg(test)]
mod undo_tests {
    use super::*;
    use sara_types::{Addr, CoreKind, DmaId, MemOp, Priority, TransactionId};

    fn txn(id: u64) -> Transaction {
        Transaction {
            id: TransactionId::new(id),
            dma: DmaId::new(0),
            core: CoreKind::Cpu,
            class: CoreKind::Cpu.class(),
            op: MemOp::Read,
            addr: Addr::new(id * 128),
            bytes: 128,
            injected_at: Cycle::ZERO,
            priority: Priority::LOWEST,
            urgent: false,
        }
    }

    #[test]
    fn undo_take_restores_order_cursor_and_stats() {
        let mut n = ArbiterNode::new(ArbiterKind::RoundRobin, 2, 4, 3).unwrap();
        n.enqueue(0, Cycle::ZERO, txn(0)).unwrap();
        n.enqueue(1, Cycle::ZERO, txn(1)).unwrap();
        let w = n.winner(Cycle::ZERO).unwrap();
        let t = n.take(w, Cycle::ZERO);
        n.undo_take(w.port, t);
        assert_eq!(n.stats().forwarded, 0);
        assert_eq!(n.occupancy(), 2);
        // Same winner again: cursor was restored.
        let w2 = n.winner(Cycle::ZERO).unwrap();
        assert_eq!(w2.port, w.port);
        assert_eq!(w2.id, w.id);
        // Service window was restored too: taking now must succeed at t=0.
        let t2 = n.take(w2, Cycle::ZERO);
        assert_eq!(t2.id, w.id);
    }

    #[test]
    #[should_panic(expected = "no take to undo")]
    fn undo_without_take_panics() {
        let mut n = ArbiterNode::new(ArbiterKind::Fcfs, 1, 4, 1).unwrap();
        n.undo_take(0, txn(0));
    }
}
