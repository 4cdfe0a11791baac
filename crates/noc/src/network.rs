//! The on-chip network: a class-grouped tree of arbitration nodes between
//! the DMAs and the memory controller.
//!
//! The paper's MPSoC (Fig. 1) funnels all masters through the interconnect
//! into the memory controller. We model the interconnect as a two-level
//! arbitration tree — one leaf node per traffic class (CPU, GPU, DSP, media,
//! system) and a root node at the controller ingress. Every node applies the
//! same arbitration policy so that QoS is consistent end to end (§2's
//! criticism of single-layer QoS).

use sara_types::{ConfigError, CoreClass, Cycle, Transaction};

use crate::arbiter::ArbiterKind;
use crate::node::{ArbiterNode, NodeStats};

/// Per-hop link latency in cycles: a forward is ready at the next node
/// this much later. Non-zero, which is what makes one sweep per pump
/// complete (see [`Noc::pump_closed`]).
const HOP_LATENCY: u64 = 6;

/// Cycles per forwarded transaction per node.
const SERVICE_PERIOD: u64 = 2;

/// Configuration of the arbitration tree: the policy and the port depths.
/// Hops take 6 cycles and every node forwards one transaction per 2
/// cycles; neither is settable.
///
/// # Examples
///
/// ```
/// use sara_noc::{ArbiterKind, Noc, NocConfig};
/// use sara_types::CoreClass;
///
/// // The default depths: 64-entry leaf ports, 8-entry root ports.
/// let noc = Noc::class_tree(NocConfig::new(ArbiterKind::Priority), &[CoreClass::Cpu])?;
/// assert!(noc.can_inject(0));
/// # Ok::<(), sara_types::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NocConfig {
    kind: ArbiterKind,
    port_capacity: usize,
    root_port_capacity: usize,
}

impl NocConfig {
    /// Creates the default tree configuration with the given policy:
    /// 64-entry leaf port FIFOs (deep enough to hold a DMA's full
    /// outstanding window, so arbitration — not ingress blocking — decides
    /// shares) and 8-entry root ports (shallow, so a high-priority
    /// transaction is never buried behind a long run of low-priority
    /// same-class traffic).
    pub fn new(kind: ArbiterKind) -> Self {
        NocConfig {
            kind,
            port_capacity: 64,
            root_port_capacity: 8,
        }
    }
}

/// Where a DMA's traffic enters the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ingress {
    leaf: usize,
    port: usize,
}

/// Outcome of a [`Noc::pump_closed`] sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PumpOutcome {
    /// Transactions delivered to the memory controller in this sweep.
    pub delivered: u32,
    /// Earliest cycle at which the network could make further progress on
    /// its own (head arrivals / service windows), ignoring backpressure.
    pub next_action: Option<Cycle>,
    /// Classes whose root head was refused in this sweep (bit `i` = class
    /// queue `i`, [`CoreClass::queue_index`]): each counted once in the
    /// root's [`NodeStats::blocked`].
    pub refused: u8,
    /// Leaves that forwarded to the root in this sweep (bit `i` = the leaf
    /// of class queue `i`): each freed an ingress slot for its DMAs.
    pub leaves_forwarded: u8,
}

/// The arbitration tree.
///
/// Transactions are injected per-DMA ([`Noc::inject`]) and travel
/// leaf → root → memory controller. The network is passive: the simulation
/// engine calls [`Noc::pump_closed`] whenever an event may have enabled progress
/// (injection, controller dequeue, service window expiry).
#[derive(Debug)]
pub struct Noc {
    /// Leaf nodes, one per class in [`CoreClass::ALL`] order.
    leaves: Vec<ArbiterNode>,
    /// Root node with one port per leaf.
    root: ArbiterNode,
    ingress: Vec<Ingress>,
}

impl Noc {
    /// Builds the class tree for the given per-DMA classes.
    ///
    /// `dma_classes[i]` is the class of the DMA with index `i`; each DMA
    /// gets its own input port on its class leaf.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `dma_classes` is empty or the
    /// configuration has zero capacities/periods.
    pub fn class_tree(cfg: NocConfig, dma_classes: &[CoreClass]) -> Result<Self, ConfigError> {
        if dma_classes.is_empty() {
            return Err(ConfigError::new("NoC needs at least one DMA"));
        }
        let mut per_class_count = [0usize; 5];
        let mut ingress = Vec::with_capacity(dma_classes.len());
        for class in dma_classes {
            let leaf = class.queue_index();
            ingress.push(Ingress {
                leaf,
                port: per_class_count[leaf],
            });
            per_class_count[leaf] += 1;
        }
        let mut leaves = Vec::with_capacity(5);
        for count in per_class_count {
            leaves.push(ArbiterNode::new(
                cfg.kind,
                count.max(1),
                cfg.port_capacity,
                SERVICE_PERIOD,
            )?);
        }
        let root = ArbiterNode::new(cfg.kind, 5, cfg.root_port_capacity, SERVICE_PERIOD)?;
        Ok(Noc {
            leaves,
            root,
            ingress,
        })
    }

    /// Whether DMA `dma_index` can inject right now (its leaf port has room).
    pub fn can_inject(&self, dma_index: usize) -> bool {
        let ing = self.ingress[dma_index];
        self.leaves[ing.leaf].can_accept(ing.port)
    }

    /// Injects a transaction from DMA `dma_index` at cycle `now`.
    ///
    /// # Errors
    ///
    /// Returns the transaction back if the DMA's leaf port is full
    /// (backpressure into the DMA).
    pub fn inject(
        &mut self,
        dma_index: usize,
        now: Cycle,
        txn: Transaction,
    ) -> Result<(), Transaction> {
        let ing = self.ingress[dma_index];
        self.leaves[ing.leaf].enqueue(ing.port, now + HOP_LATENCY, txn)
    }

    /// Sweeps the tree with every class open: [`Noc::pump_closed`] with an
    /// empty mask.
    ///
    /// `sink` receives the transaction leaving the root (the
    /// memory-controller ingress), if one does. A class is refused by
    /// closing it in [`Noc::pump_closed`]; an `Err` from `sink` is a caller
    /// bug and panics.
    pub fn pump(
        &mut self,
        now: Cycle,
        sink: &mut dyn FnMut(Transaction) -> Result<(), Transaction>,
    ) -> PumpOutcome {
        self.pump_closed(now, 0, |txn| {
            sink(txn).expect("a pump sink cannot refuse: close the class instead");
        })
    }

    /// Sweeps the tree once, forwarding everything that can move at `now`.
    ///
    /// The root refuses the classes flagged in `closed` (bit `i` = class
    /// queue `i`, [`CoreClass::queue_index`]: the controller queues that
    /// are full) and hands the first open ready head in arbitration order,
    /// dequeued, to `sink`. A closed head ranked above it, or every ready
    /// head if none is open, stays queued and is reported in
    /// [`PumpOutcome::refused`] — the paper's five transaction queues
    /// behave like virtual channels. Then every leaf with room at the root
    /// forwards its winner.
    ///
    /// One sweep is complete: a forward lands `HOP_LATENCY` (6) cycles
    /// later, so nothing enqueued during the sweep is ready at `now`; every
    /// node that forwarded is busy for its service period; and the root's
    /// delivery — the one thing that frees space a leaf waits for —
    /// precedes the leaves. A second sweep at the same cycle would move
    /// nothing; it would only count the same refusals again.
    pub fn pump_closed(
        &mut self,
        now: Cycle,
        closed: u8,
        sink: impl FnOnce(Transaction),
    ) -> PumpOutcome {
        let mut delivered = 0;
        let refused = self.root.offer(now, u64::from(closed), |txn| {
            debug_assert_eq!(closed & 1 << txn.class.queue_index(), 0, "closed class");
            delivered = 1;
            sink(txn);
        }) as u8;
        debug_assert_eq!(refused & !closed, 0, "refused an open class");
        // Only genuinely time-gated work counts towards the wake hint; a
        // node whose head is ready *now* but blocked by space will be
        // re-pumped by the drain event that frees that space.
        let wake = |node: &ArbiterNode| node.earliest_action().filter(|&at| at > now);
        let mut next_action = None;
        let mut leaves_forwarded = 0;
        for (i, leaf) in self.leaves.iter_mut().enumerate() {
            if self.root.can_accept(i) {
                if let Some(winner) = leaf.winner(now) {
                    let txn = leaf.take(winner, now);
                    self.root
                        .enqueue(i, now + HOP_LATENCY, txn)
                        .expect("checked can_accept above");
                    leaves_forwarded |= 1 << i;
                }
            }
            next_action = next_action.into_iter().chain(wake(leaf)).min();
        }
        next_action = next_action.into_iter().chain(wake(&self.root)).min();
        PumpOutcome {
            delivered,
            next_action,
            refused,
            leaves_forwarded,
        }
    }

    /// Total transactions buffered anywhere in the tree.
    pub fn occupancy(&self) -> usize {
        self.leaves.iter().map(|l| l.occupancy()).sum::<usize>() + self.root.occupancy()
    }

    /// Statistics of the root node.
    pub fn root_stats(&self) -> &NodeStats {
        self.root.stats()
    }

    /// Statistics of the leaf node serving `class`.
    pub fn leaf_stats(&self, class: CoreClass) -> &NodeStats {
        self.leaves[class.queue_index()].stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sara_types::{Addr, CoreKind, DmaId, MemOp, Priority, TransactionId};

    fn txn(id: u64, core: CoreKind, prio: u8) -> Transaction {
        Transaction {
            id: TransactionId::new(id),
            dma: DmaId::new(0),
            core,
            class: core.class(),
            op: MemOp::Read,
            addr: Addr::new(id * 128),
            bytes: 128,
            injected_at: Cycle::ZERO,
            priority: Priority::new(prio),
            urgent: false,
        }
    }

    fn small_noc(kind: ArbiterKind) -> Noc {
        let classes = [
            CoreKind::Cpu.class(),
            CoreKind::Display.class(),
            CoreKind::Usb.class(),
        ];
        Noc::class_tree(NocConfig::new(kind), &classes).unwrap()
    }

    #[test]
    fn traverses_two_hops() {
        let mut noc = small_noc(ArbiterKind::Fcfs);
        noc.inject(0, Cycle::ZERO, txn(0, CoreKind::Cpu, 0))
            .unwrap();
        let mut out = Vec::new();
        let mut sink = |t: Transaction| {
            out.push(t);
            Ok(())
        };
        // Not yet arrived at the leaf.
        let r = noc.pump(Cycle::new(1), &mut sink);
        assert_eq!(r.delivered, 0);
        assert_eq!(r.next_action, Some(Cycle::new(6)));
        // Leaf forwards at 6 (hop latency), root head ready at 12.
        let r = noc.pump(Cycle::new(6), &mut sink);
        assert_eq!(r.delivered, 0);
        let r = noc.pump(Cycle::new(12), &mut sink);
        assert_eq!(r.delivered, 1);
        assert_eq!(out.len(), 1);
        assert_eq!(noc.occupancy(), 0);
    }

    /// The mask closing `class` alone.
    fn closing(class: CoreClass) -> u8 {
        1 << class.queue_index()
    }

    #[test]
    fn sink_backpressure_keeps_transaction_at_root() {
        let mut noc = small_noc(ArbiterKind::Fcfs);
        noc.inject(0, Cycle::ZERO, txn(0, CoreKind::Cpu, 0))
            .unwrap();
        let cpu = closing(CoreClass::Cpu);
        noc.pump_closed(Cycle::new(6), cpu, |_| panic!("CPU is closed"));
        let r = noc.pump_closed(Cycle::new(12), cpu, |_| panic!("CPU is closed"));
        assert_eq!(r.delivered, 0);
        assert_eq!(r.refused, cpu);
        assert_eq!(noc.occupancy(), 1);
        assert_eq!(noc.root_stats().blocked, 1);
        // Accepting sink gets it on the next pump.
        let mut out = 0;
        let mut accept = |_t: Transaction| {
            out += 1;
            Ok(())
        };
        let r = noc.pump(Cycle::new(14), &mut accept);
        assert_eq!(r.delivered, 1);
        assert_eq!(r.refused, 0);
        assert_eq!(out, 1);
    }

    #[test]
    #[should_panic(expected = "a pump sink cannot refuse")]
    fn a_refusing_pump_sink_is_a_caller_bug() {
        let mut noc = small_noc(ArbiterKind::Fcfs);
        noc.inject(0, Cycle::ZERO, txn(0, CoreKind::Cpu, 0))
            .unwrap();
        for t in [6u64, 12] {
            noc.pump(Cycle::new(t), &mut |t| Err(t));
        }
    }

    #[test]
    fn ingress_backpressure_rejects_when_leaf_full() {
        let cfg = NocConfig {
            port_capacity: 2,
            ..NocConfig::new(ArbiterKind::Fcfs)
        };
        let mut noc = Noc::class_tree(cfg, &[CoreClass::Cpu]).unwrap();
        assert!(noc.can_inject(0));
        noc.inject(0, Cycle::ZERO, txn(0, CoreKind::Cpu, 0))
            .unwrap();
        noc.inject(0, Cycle::ZERO, txn(1, CoreKind::Cpu, 0))
            .unwrap();
        assert!(!noc.can_inject(0));
        assert!(noc
            .inject(0, Cycle::ZERO, txn(2, CoreKind::Cpu, 0))
            .is_err());
    }

    #[test]
    fn priority_wins_at_root() {
        let mut noc = small_noc(ArbiterKind::Priority);
        // CPU injects low priority, display high priority.
        noc.inject(0, Cycle::ZERO, txn(0, CoreKind::Cpu, 0))
            .unwrap();
        noc.inject(1, Cycle::ZERO, txn(1, CoreKind::Display, 7))
            .unwrap();
        let mut out = Vec::new();
        let mut sink = |t: Transaction| {
            out.push(t);
            Ok(())
        };
        noc.pump(Cycle::new(6), &mut sink);
        noc.pump(Cycle::new(12), &mut sink);
        assert_eq!(out[0].core, CoreKind::Display, "high priority first");
    }

    #[test]
    fn full_class_queue_does_not_block_other_classes() {
        // CPU head refused (its queue is "full"); the system-class head
        // behind a different root port must still get through in the same
        // sweep.
        let mut noc = small_noc(ArbiterKind::Fcfs);
        noc.inject(0, Cycle::ZERO, txn(0, CoreKind::Cpu, 0))
            .unwrap();
        noc.inject(2, Cycle::ZERO, txn(1, CoreKind::Usb, 0))
            .unwrap();
        let mut delivered = Vec::new();
        let cpu = closing(CoreClass::Cpu);
        noc.pump_closed(Cycle::new(6), cpu, |t| delivered.push(t));
        let r = noc.pump_closed(Cycle::new(12), cpu, |t| delivered.push(t));
        assert_eq!(r.delivered, 1, "USB must bypass the blocked CPU head");
        assert_eq!(r.refused, cpu, "the older CPU head ranked first");
        assert_eq!(delivered[0].core, CoreKind::Usb);
        assert_eq!(noc.occupancy(), 1); // CPU transaction still queued
    }

    /// Reference test of a known wake-hint gap, due to be fixed in
    /// ROADMAP item 1's `ENGINE_VERSION` bump: when every ready head at
    /// the root is refused, the root's wake (`earliest_action`, the oldest
    /// head's arrival) is not after `now`, so the hint drops the root, and
    /// a later head of an open class already queued there gets no wake.
    /// Here the USB head reaches the root at 15, yet the pump at 12
    /// returns `next_action: None`; a script pumping at 15 delivers it,
    /// while in the engine it waits for an unrelated pump.
    #[test]
    fn a_root_refusing_every_ready_head_hides_a_later_open_head() {
        let mut noc = small_noc(ArbiterKind::Fcfs);
        noc.inject(0, Cycle::ZERO, txn(0, CoreKind::Cpu, 0))
            .unwrap();
        noc.inject(2, Cycle::new(3), txn(1, CoreKind::Usb, 0))
            .unwrap();
        let cpu = closing(CoreClass::Cpu);
        let mut delivered = Vec::new();
        for t in [6u64, 9] {
            noc.pump_closed(Cycle::new(t), cpu, |t| delivered.push(t));
        }
        let r = noc.pump_closed(Cycle::new(12), cpu, |t| delivered.push(t));
        assert_eq!(r.refused, cpu);
        assert_eq!(r.next_action, None, "item 1: the USB head's 15 is missed");
        let r = noc.pump_closed(Cycle::new(15), cpu, |t| delivered.push(t));
        assert_eq!(r.delivered, 1);
        assert_eq!(delivered[0].core, CoreKind::Usb);
    }

    #[test]
    fn min_traversal_matches_observed() {
        let mut noc = small_noc(ArbiterKind::Fcfs);
        noc.inject(0, Cycle::ZERO, txn(0, CoreKind::Cpu, 0))
            .unwrap();
        let mut delivered_at = None;
        for t in 0..32u64 {
            let mut sink = |_t: Transaction| Ok(());
            if noc.pump(Cycle::new(t), &mut sink).delivered > 0 {
                delivered_at = Some(t);
                break;
            }
        }
        // Two hops of 6 cycles; service slots were free, so 12 cycles.
        assert_eq!(delivered_at, Some(12));
    }
}

#[cfg(test)]
mod conservation {
    use super::*;
    use crate::arbiter::ArbiterKind;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sara_types::{Addr, CoreKind, Cycle, DmaId, MemOp, Priority, Transaction, TransactionId};

    /// Injected transactions are never lost or duplicated: everything
    /// is either delivered to the sink or still buffered in the tree,
    /// whatever the policy, priorities and closed classes (seeded random
    /// streams).
    #[test]
    fn inject_pump_conserves_transactions() {
        for case in 0u64..32 {
            let mut rng = StdRng::seed_from_u64(0x0c70_0000 + case);
            let policy = rng.gen_range(0usize..4);
            let txns: Vec<(u16, u8, bool, u8)> = (0..rng.gen_range(1usize..120))
                .map(|_| {
                    (
                        rng.gen_range(0u16..6),
                        rng.gen_range(0u8..8),
                        rng.gen_bool(0.5),
                        rng.gen_range(0u8..32),
                    )
                })
                .collect();
            let refusal_period = rng.gen_range(2u64..7);
            let kinds = [
                ArbiterKind::Fcfs,
                ArbiterKind::RoundRobin,
                ArbiterKind::FrameUrgent,
                ArbiterKind::Priority,
            ];
            let cores = [
                CoreKind::Cpu,
                CoreKind::Gpu,
                CoreKind::Dsp,
                CoreKind::Display,
                CoreKind::Usb,
                CoreKind::VideoCodec,
            ];
            let classes: Vec<_> = cores.iter().map(|k| k.class()).collect();
            let mut noc = Noc::class_tree(NocConfig::new(kinds[policy]), &classes).unwrap();

            let mut injected = 0u64;
            let mut delivered: Vec<u64> = Vec::new();
            let mut now = 0u64;
            for (i, (dma_sel, prio, urgent, closed)) in txns.iter().enumerate() {
                let dma = (*dma_sel as usize) % cores.len();
                let txn = Transaction {
                    id: TransactionId::new(i as u64),
                    dma: DmaId::new(dma as u16),
                    core: cores[dma],
                    class: classes[dma],
                    op: MemOp::Read,
                    addr: Addr::new((i as u64) * 128),
                    bytes: 128,
                    injected_at: Cycle::new(now),
                    priority: Priority::new(*prio),
                    urgent: *urgent,
                };
                if noc.inject(dma, Cycle::new(now), txn).is_ok() {
                    injected += 1;
                }
                // Every n-th pump closes a random set of classes.
                let closed = if (i as u64).is_multiple_of(refusal_period) {
                    *closed
                } else {
                    0
                };
                noc.pump_closed(Cycle::new(now), closed, |t| delivered.push(t.id.as_u64()));
                now += 3;
            }
            // Drain with an always-accepting sink.
            for _ in 0..2000 {
                let mut sink = |t: Transaction| {
                    delivered.push(t.id.as_u64());
                    Ok(())
                };
                let out = noc.pump(Cycle::new(now), &mut sink);
                now += 2;
                if noc.occupancy() == 0 {
                    break;
                }
                if let Some(at) = out.next_action {
                    now = now.max(at.as_u64());
                }
            }
            assert_eq!(noc.occupancy(), 0, "case {case}: tree failed to drain");
            assert_eq!(delivered.len() as u64, injected, "case {case}");
            // No duplicates.
            let mut unique = delivered.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(unique.len(), delivered.len(), "case {case}");
        }
    }
}

#[cfg(test)]
mod by_reference {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sara_types::{Addr, CoreKind, DmaId, MemOp, Priority, TransactionId};

    const KINDS: [ArbiterKind; 4] = [
        ArbiterKind::Fcfs,
        ArbiterKind::RoundRobin,
        ArbiterKind::FrameUrgent,
        ArbiterKind::Priority,
    ];
    /// Two CPU DMAs share a leaf; the other classes have one each.
    const CORES: [CoreKind; 6] = [
        CoreKind::Cpu,
        CoreKind::Cpu,
        CoreKind::Gpu,
        CoreKind::Dsp,
        CoreKind::Display,
        CoreKind::Usb,
    ];

    fn noc(cfg: NocConfig) -> Noc {
        let classes: Vec<_> = CORES.iter().map(|k| k.class()).collect();
        Noc::class_tree(cfg, &classes).unwrap()
    }

    fn txn(id: u64, dma: usize, now: Cycle, rng: &mut StdRng) -> Transaction {
        Transaction {
            id: TransactionId::new(id),
            dma: DmaId::new(dma as u16),
            core: CORES[dma],
            class: CORES[dma].class(),
            op: MemOp::Read,
            addr: Addr::new(id * 128),
            bytes: 128,
            injected_at: now,
            priority: Priority::new(rng.gen_range(0u8..8)),
            urgent: rng.gen_bool(0.3),
        }
    }

    /// Everything a pump can change that a caller can read.
    fn observable(noc: &Noc) -> (Vec<NodeStats>, usize) {
        let mut stats = vec![noc.root_stats().clone()];
        stats.extend(CoreClass::ALL.map(|c| noc.leaf_stats(c).clone()));
        (stats, noc.occupancy())
    }

    /// The offer-by-offer pump [`Noc::pump_closed`] replaced, kept as its
    /// oracle: the root shows its heads one by one to a sink that refuses
    /// the closed classes, then the leaves forward, then the wake hint is
    /// read off every node, and the leaves that forwarded are found by
    /// comparing their counters.
    fn pump_by_offer(
        noc: &mut Noc,
        now: Cycle,
        closed: u8,
        out: &mut Vec<Transaction>,
    ) -> PumpOutcome {
        let before = CoreClass::ALL.map(|c| noc.leaf_stats(c).forwarded);
        let mut refused = 0;
        let left = noc.root.offer_by_offer(now, &mut refused, &mut |t| {
            closed & 1 << t.class.queue_index() == 0
        });
        let delivered = u32::from(left.is_some());
        out.extend(left);
        for (leaf_idx, leaf) in noc.leaves.iter_mut().enumerate() {
            if !noc.root.can_accept(leaf_idx) {
                continue;
            }
            if let Some(winner) = leaf.winner(now) {
                let txn = leaf.take(winner, now);
                noc.root.enqueue(leaf_idx, now + HOP_LATENCY, txn).unwrap();
            }
        }
        let next_action = noc
            .leaves
            .iter()
            .chain(core::iter::once(&noc.root))
            .filter_map(ArbiterNode::earliest_action)
            .filter(|&at| at > now)
            .min();
        let leaves_forwarded = CoreClass::ALL
            .iter()
            .filter(|&&c| noc.leaf_stats(c).forwarded != before[c.queue_index()])
            .fold(0, |mask, c| mask | 1 << c.queue_index());
        PumpOutcome {
            delivered,
            next_action,
            refused: refused as u8,
            leaves_forwarded,
        }
    }

    /// `pump_closed` is the offer-by-offer pump: over 64 seeded
    /// inject/pump scripts per arbitration policy, with none, some or all
    /// classes closed at each pump, both admit the same stream and report
    /// the same refused classes, forwarding leaves and wake hint per pump,
    /// with equal node statistics and occupancy after every step.
    #[test]
    fn pump_closed_matches_the_offer_by_offer_oracle() {
        let (mut all_refused, mut mixed) = (0u32, 0u32);
        for kind in KINDS {
            for seed in 0..64u64 {
                let mut rng = StdRng::seed_from_u64(0x0b7e_f000 + seed);
                let cfg = NocConfig {
                    port_capacity: rng.gen_range(2usize..6),
                    root_port_capacity: rng.gen_range(1usize..4),
                    ..NocConfig::new(kind)
                };
                let (mut fast, mut oracle) = (noc(cfg.clone()), noc(cfg));
                let (mut out_fast, mut out_oracle) = (Vec::new(), Vec::new());
                let mut id = 0u64;
                for step in 0..600u64 {
                    let now = Cycle::new(step);
                    if rng.gen_bool(0.6) {
                        let dma = rng.gen_range(0..CORES.len());
                        let t = txn(id, dma, now, &mut rng);
                        id += 1;
                        let a = fast.inject(dma, now, t.clone()).is_ok();
                        let b = oracle.inject(dma, now, t).is_ok();
                        assert_eq!(a, b, "{kind:?} seed {seed} step {step}");
                    } else {
                        let closed = match rng.gen_range(0u8..3) {
                            0 => 0,
                            1 => rng.gen_range(1u8..0b11111),
                            _ => 0b11111,
                        };
                        let a = fast.pump_closed(now, closed, |t| out_fast.push(t));
                        let b = pump_by_offer(&mut oracle, now, closed, &mut out_oracle);
                        assert_eq!(a, b, "{kind:?} seed {seed} step {step} closed {closed:05b}");
                        all_refused += u32::from(a.refused != 0 && a.delivered == 0);
                        mixed += u32::from(a.refused != 0 && a.delivered == 1);
                    }
                    assert_eq!(
                        observable(&fast),
                        observable(&oracle),
                        "{kind:?} seed {seed}"
                    );
                }
                assert_eq!(out_fast, out_oracle, "{kind:?} seed {seed}");
                assert!(
                    !out_fast.is_empty(),
                    "{kind:?} seed {seed}: the script moved nothing"
                );
            }
        }
        assert!(all_refused > 1000 && mixed > 1000, "{all_refused} {mixed}");
    }

    /// With the default 6-cycle hop a second sweep at the same cycle moves
    /// nothing: it delivers nothing, no leaf forwards, and it only counts
    /// again the refusals of a root that delivered nothing. So pumping once
    /// and pumping twice leave two networks identical up to those counts,
    /// under contention on a shared leaf, full root ports and a closed
    /// class.
    #[test]
    fn a_second_sweep_at_the_same_cycle_changes_nothing() {
        let mut rng = StdRng::seed_from_u64(0x2_5eeb);
        let cfg = NocConfig {
            root_port_capacity: 2,
            ..NocConfig::new(ArbiterKind::Priority)
        };
        let (mut once, mut twice) = (noc(cfg.clone()), noc(cfg));
        let (mut out_once, mut out_twice) = (Vec::new(), Vec::new());
        let mut id = 0u64;
        let mut recounted = 0;
        for step in 0..400u64 {
            let now = Cycle::new(step);
            for dma in 0..CORES.len() {
                if rng.gen_bool(0.35) {
                    let t = txn(id, dma, now, &mut rng);
                    id += 1;
                    let a = once.inject(dma, now, t.clone()).is_ok();
                    assert_eq!(a, twice.inject(dma, now, t).is_ok());
                }
            }
            // The CPU queue is "full" for 150 cycles, then every queue is
            // for 50 more, then all drain.
            let closed = match step {
                0..150 => 1 << CoreClass::Cpu.queue_index(),
                150..200 => 0b11111,
                _ => 0,
            };
            let first = once.pump_closed(now, closed, |t| out_once.push(t.id));
            assert_eq!(
                first,
                twice.pump_closed(now, closed, |t| out_twice.push(t.id))
            );
            let second = twice.pump_closed(now, closed, |_| panic!("step {step}: left the root"));
            // A root that delivered is busy; one that did not refuses the
            // same heads again.
            let recount = if first.delivered > 0 {
                0
            } else {
                first.refused
            };
            assert_eq!(second.refused, recount, "step {step}");
            assert_eq!(second.leaves_forwarded, 0, "step {step}");
            assert_eq!(second.next_action, first.next_action, "step {step}");
            recounted += u64::from(recount.count_ones());
            let (mut stats, occupancy) = observable(&twice);
            stats[0].blocked -= recounted;
            assert_eq!(observable(&once), (stats, occupancy), "step {step}");
        }
        assert_eq!(out_once, out_twice);
        assert!(recounted > 0);
        assert!(once.root_stats().blocked > 0 && once.root_stats().forwarded > 100);
        assert!(once.leaf_stats(CoreClass::Cpu).peak_occupancy > 2);
    }
}
