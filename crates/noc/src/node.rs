//! An arbitration node: per-input FIFOs + switch allocation.

use std::collections::VecDeque;

use sara_types::{ConfigError, Cycle, Priority, Transaction, TransactionId};

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

    fn pop(&mut self) -> Option<Transaction> {
        self.queue.pop_front().map(|(_, txn)| txn)
    }

    /// What arbitration reads of the head (`Head::EMPTY` if none queued).
    fn head(&self) -> Head {
        self.queue
            .front()
            .map_or(Head::EMPTY, |(ready_at, txn)| Head {
                ready_at: *ready_at,
                id: txn.id,
                priority: txn.priority,
                urgent: txn.urgent,
            })
    }
}

/// The arbitration metadata of one port's head, cached by the node so a
/// decision reads one compact array instead of every port's queue front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Head {
    /// Arrival cycle of the head; [`Cycle::MAX`] while the port is empty.
    ready_at: Cycle,
    id: TransactionId,
    priority: Priority,
    urgent: bool,
}

impl Head {
    const EMPTY: Head = Head {
        ready_at: Cycle::MAX,
        id: TransactionId::new(0),
        priority: Priority::LOWEST,
        urgent: false,
    };
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
pub(crate) struct ArbiterNode {
    kind: ArbiterKind,
    inputs: Vec<InputPort>,
    cursor: usize,
    service_period: u64,
    next_free: Cycle,
    /// Transactions queued across all ports, kept in step by enqueue/take.
    occupancy: usize,
    stats: NodeStats,
    scratch: Vec<Contender>,
    /// Each port's head, refreshed when an enqueue fills an empty port and
    /// when a take exposes the next entry.
    heads: Vec<Head>,
    /// Earliest head arrival across ports ([`Cycle::MAX`] when all are
    /// empty): below it no head is ready.
    min_arrival: Cycle,
}

impl ArbiterNode {
    /// Creates a node with `ports` input FIFOs of `capacity` entries each.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `ports`, `capacity` or `service_period`
    /// is zero.
    pub(crate) fn new(
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
            heads: vec![Head::EMPTY; ports],
            min_arrival: Cycle::MAX,
        })
    }

    /// Statistics snapshot.
    #[inline]
    pub(crate) fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// Whether input `port` can accept another transaction.
    #[inline]
    pub(crate) fn can_accept(&self, port: usize) -> bool {
        !self.inputs[port].is_full()
    }

    /// Total queued transactions across ports.
    #[inline]
    pub(crate) fn occupancy(&self) -> usize {
        self.occupancy
    }

    /// Enqueues `txn` into input `port`, visible to arbitration at
    /// `ready_at` (arrival time after link latency).
    ///
    /// # Errors
    ///
    /// Returns the transaction back if the port FIFO is full.
    pub(crate) fn enqueue(
        &mut self,
        port: usize,
        ready_at: Cycle,
        txn: Transaction,
    ) -> Result<(), Transaction> {
        let res = self.inputs[port].push(ready_at, txn);
        if res.is_ok() {
            self.occupancy += 1;
            self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.occupancy);
            if self.inputs[port].queue.len() == 1 {
                self.heads[port] = self.inputs[port].head();
                self.min_arrival = self.min_arrival.min(ready_at);
            }
        }
        res
    }

    /// The winning head at `now`, if the node is free and any head is ready.
    pub(crate) fn winner(&mut self, now: Cycle) -> Option<Contender> {
        if self.earliest_action().is_none_or(|at| at > now) {
            return None;
        }
        self.gather(now);
        select(self.kind, &self.scratch, self.cursor)
    }

    /// Collects the ready heads into the contender scratch.
    fn gather(&mut self, now: Cycle) {
        self.scratch.clear();
        for (i, head) in self.heads.iter().enumerate() {
            if head.ready_at <= now {
                self.scratch.push(Contender {
                    port: i,
                    id: head.id,
                    priority: head.priority,
                    urgent: head.urgent,
                });
            }
        }
    }

    /// Forwards the first ready head, in arbitration order, whose port is
    /// open, dequeuing it into `sink`; returns the refused ports (bit `i` =
    /// port `i`; a node that offers has at most 64 ports). A port flagged in
    /// `closed` is refused when its ready head is ranked above the forwarded
    /// one, or when no open head is ready; each refusal counts once in
    /// [`NodeStats::blocked`] and the head stays queued — per-class
    /// virtual-channel flow control: a head bound for a full downstream
    /// queue must not block other classes.
    pub(crate) fn offer(&mut self, now: Cycle, closed: u64, sink: impl FnOnce(Transaction)) -> u64 {
        debug_assert!(self.heads.len() <= 64, "ports past 63 cannot be flagged");
        if self.earliest_action().is_none_or(|at| at > now) {
            return 0;
        }
        let mut ready = 0u64;
        for (i, head) in self.heads.iter().enumerate() {
            ready |= u64::from(head.ready_at <= now) << i;
        }
        if ready & !closed == 0 {
            self.stats.blocked += u64::from(ready.count_ones());
            return ready;
        }
        // A refusal changes nothing the arbiter reads, so the contenders
        // are gathered once and a refused one just drops out; reselecting
        // recomputes the round-robin modulus over those that remain.
        self.gather(now);
        let mut refused = 0;
        loop {
            let winner =
                select(self.kind, &self.scratch, self.cursor).expect("an open head is ready");
            if closed & 1 << winner.port == 0 {
                sink(self.take(winner, now));
                return refused;
            }
            self.stats.blocked += 1;
            refused |= 1 << winner.port;
            self.scratch.retain(|c| c.port != winner.port);
        }
    }

    /// Removes and returns the winner chosen by [`Self::winner`], advancing
    /// the round-robin cursor and the service window.
    pub(crate) fn take(&mut self, contender: Contender, now: Cycle) -> Transaction {
        let port = &mut self.inputs[contender.port];
        let txn = port.pop().expect("winner port cannot be empty");
        debug_assert_eq!(txn.id, contender.id, "winner desynchronised from port head");
        self.heads[contender.port] = port.head();
        self.min_arrival = self
            .heads
            .iter()
            .fold(Cycle::MAX, |min, head| min.min(head.ready_at));
        self.cursor = contender.port + 1;
        self.next_free = now + self.service_period;
        self.occupancy -= 1;
        self.stats.forwarded += 1;
        txn
    }

    /// Earliest cycle at which this node could possibly forward something,
    /// or `None` if all inputs are empty.
    #[inline]
    pub(crate) fn earliest_action(&self) -> Option<Cycle> {
        (self.occupancy > 0).then(|| self.min_arrival.max(self.next_free))
    }
}

#[cfg(test)]
impl ArbiterNode {
    /// The offer-by-offer root loop [`ArbiterNode::offer`] replaced, kept as
    /// its oracle: shows ready heads to `sink` in arbitration order, and
    /// counts, flags and drops each refused one before reselecting, until
    /// one is accepted (dequeued and returned).
    pub(crate) fn offer_by_offer(
        &mut self,
        now: Cycle,
        blocked: &mut u64,
        sink: &mut dyn FnMut(&Transaction) -> bool,
    ) -> Option<Transaction> {
        self.scratch.clear();
        if now >= self.next_free.max(self.min_arrival) {
            self.gather(now);
        }
        while let Some(winner) = select(self.kind, &self.scratch, self.cursor) {
            let (_, head) = self.inputs[winner.port].queue.front().unwrap();
            if sink(head) {
                return Some(self.take(winner, now));
            }
            self.stats.blocked += 1;
            *blocked |= 1 << winner.port;
            self.scratch.retain(|c| c.port != winner.port);
        }
        None
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

    /// The running occupancy equals the sum of the port lengths, the peak
    /// equals a maximum recomputed after every successful enqueue, and the
    /// cached heads and their minimum equal what the queues hold, over
    /// seeded enqueue / take / refused-offer / offer sequences.
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
                        // Some arrive now, some a few cycles out.
                        let ready_at = now + rng.gen_range(0u64..4);
                        if n.enqueue(rng.gen_range(0..ports), ready_at, txn).is_ok() {
                            peak = peak.max(n.inputs.iter().map(|p| p.queue.len()).sum());
                        }
                    }
                    2 => {
                        if rng.gen_bool(0.4) {
                            // Every port closed: nothing may move.
                            let before = n.stats().forwarded;
                            n.offer(now, u64::MAX, |_| panic!("every port is closed"));
                            assert_eq!(n.stats().forwarded, before);
                        } else if let Some(w) = n.winner(now) {
                            n.take(w, now);
                        }
                    }
                    _ => {
                        // Close a random set of ports; an open head moves.
                        n.offer(now, rng.gen_range(0u64..1 << ports), |_| ());
                    }
                }
                let sum: usize = n.inputs.iter().map(|p| p.queue.len()).sum();
                assert_eq!(n.occupancy(), sum, "seed {seed} step {step}");
                assert_eq!(n.stats().peak_occupancy, peak, "seed {seed} step {step}");
                for (port, cached) in n.inputs.iter().zip(&n.heads) {
                    assert_eq!(*cached, port.head(), "seed {seed} step {step}");
                }
                let arrivals = n.inputs.iter().filter_map(|p| p.queue.front());
                let min = arrivals.map(|(at, _)| *at).min();
                assert_eq!(n.min_arrival, min.unwrap_or(Cycle::MAX));
                assert_eq!(n.earliest_action(), min.map(|at| at.max(n.next_free)));
            }
        }
    }

    /// `offer` skips closed heads in arbitration order, counts and flags
    /// each one ranked above the forwarded head, and leaves them queued in
    /// place.
    #[test]
    fn offer_skips_refused_heads_in_arbitration_order() {
        let mut n = ArbiterNode::new(ArbiterKind::Priority, 4, 4, 1).unwrap();
        for (port, prio) in [(0, 7u8), (1, 5), (2, 3), (3, 1)] {
            n.enqueue(port, Cycle::ZERO, txn(port as u64, prio))
                .unwrap();
        }
        // Ports 0, 1 and 3 closed: 0 and 1 outrank the open port 2, so they
        // are refused; 3 ranks below it and is not.
        let mut forwarded = Vec::new();
        let refused = n.offer(Cycle::ZERO, 0b1011, |txn| forwarded.push(txn.id.as_u64()));
        assert_eq!(forwarded, [2], "highest-priority open head");
        assert_eq!(refused, 0b0011);
        assert_eq!(n.stats().blocked, 2);
        assert_eq!(n.stats().forwarded, 1);
        assert_eq!(n.occupancy(), 3);
        // The node is busy for its service period: nothing is refused.
        assert_eq!(n.offer(Cycle::ZERO, 0b1011, |_| panic!("busy")), 0);
        // Every ready head closed: all of them count, none moves.
        assert_eq!(n.offer(Cycle::new(1), 0b1011, |_| panic!("closed")), 0b1011);
        assert_eq!(n.stats().blocked, 5);
        n.offer(Cycle::new(1), 0, |txn| {
            assert_eq!(txn.id.as_u64(), 0, "refused head kept its place");
        });
        assert_eq!(n.stats().forwarded, 2);
    }
}
