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
/// complete (see [`Noc::pump_ref`]).
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
/// // One-entry leaf ports: a DMA is backpressured after one injection.
/// let cfg = NocConfig::new(ArbiterKind::Priority).with_port_capacity(1);
/// let noc = Noc::class_tree(cfg, &[CoreClass::Cpu])?;
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

    /// Sets the input FIFO depth of every leaf port.
    pub fn with_port_capacity(mut self, entries: usize) -> Self {
        self.port_capacity = entries;
        self
    }

    /// Sets the input FIFO depth of the root's per-class ports.
    pub fn with_root_port_capacity(mut self, entries: usize) -> Self {
        self.root_port_capacity = entries;
        self
    }
}

/// Where a DMA's traffic enters the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ingress {
    leaf: usize,
    port: usize,
}

/// Outcome of a [`Noc::pump`] sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PumpOutcome {
    /// Transactions delivered to the memory controller in this sweep.
    pub delivered: u32,
    /// Earliest cycle at which the network could make further progress on
    /// its own (head arrivals / service windows), ignoring backpressure.
    pub next_action: Option<Cycle>,
}

/// The arbitration tree.
///
/// Transactions are injected per-DMA ([`Noc::inject`]) and travel
/// leaf → root → memory controller. The network is passive: the simulation
/// engine calls [`Noc::pump`] whenever an event may have enabled progress
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

    /// Sweeps the tree, forwarding everything that can move at `now`.
    ///
    /// `sink` receives transactions leaving the root (the memory-controller
    /// ingress) and may refuse them by returning them (`Err`), which leaves
    /// them queued at the root. This is [`Noc::pump_ref`] with each offered
    /// head cloned for the by-value sink.
    pub fn pump(
        &mut self,
        now: Cycle,
        sink: &mut dyn FnMut(Transaction) -> Result<(), Transaction>,
    ) -> PumpOutcome {
        self.pump_ref(now, &mut |txn| sink(txn.clone()).is_ok())
    }

    /// Sweeps the tree, forwarding everything that can move at `now`.
    ///
    /// `sink` is shown each transaction the root would forward (the
    /// memory-controller ingress) while it is still queued, and accepts it
    /// by returning `true`; only then is it dequeued. A refused head stays
    /// where it is.
    ///
    /// The tree is swept once: a forward lands `HOP_LATENCY` (6) cycles
    /// later, so nothing enqueued during the sweep is ready at `now`; every
    /// node that forwarded is busy for its service period; every head the
    /// sink refused is flagged in `blocked`; and the root's delivery — the
    /// one thing that frees space a leaf waits for — precedes the leaves
    /// inside the sweep. A second sweep at the same cycle would therefore
    /// change no state and no statistic.
    pub fn pump_ref(
        &mut self,
        now: Cycle,
        sink: &mut dyn FnMut(&Transaction) -> bool,
    ) -> PumpOutcome {
        // Per-port sink blocking: a head refused by the controller (its
        // class queue is full) must not stall other classes — the paper's
        // five transaction queues behave like virtual channels. A blocked
        // port stays blocked for the rest of this pump (the controller
        // cannot drain mid-pump).
        let mut blocked = 0u64;
        let left_root = self.sweep(now, &mut blocked, sink);

        // Only genuinely time-gated work counts towards the wake hint; a
        // node whose head is ready *now* but blocked by space will be
        // re-pumped by the drain event that frees that space.
        let next_action = self
            .leaves
            .iter()
            .chain(core::iter::once(&self.root))
            .filter_map(ArbiterNode::earliest_action)
            .filter(|&at| at > now)
            .min();
        PumpOutcome {
            delivered: left_root as u32,
            next_action,
        }
    }

    /// One pass over the tree at `now`: the root offers its heads to `sink`
    /// (first, which frees a root input port for the leaves below), then
    /// every leaf with room at the root forwards its winner. Returns whether
    /// a transaction left the root.
    fn sweep(
        &mut self,
        now: Cycle,
        blocked: &mut u64,
        sink: &mut dyn FnMut(&Transaction) -> bool,
    ) -> bool {
        let left_root = self.root.offer(now, blocked, sink);
        for (leaf_idx, leaf) in self.leaves.iter_mut().enumerate() {
            if !self.root.can_accept(leaf_idx) {
                continue;
            }
            if let Some(winner) = leaf.winner(now) {
                let txn = leaf.take(winner, now);
                self.root
                    .enqueue(leaf_idx, now + HOP_LATENCY, txn)
                    .expect("checked can_accept above");
            }
        }
        left_root
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

    #[test]
    fn sink_backpressure_keeps_transaction_at_root() {
        let mut noc = small_noc(ArbiterKind::Fcfs);
        noc.inject(0, Cycle::ZERO, txn(0, CoreKind::Cpu, 0))
            .unwrap();
        let mut refuse = |t: Transaction| Err(t);
        noc.pump(Cycle::new(6), &mut refuse);
        let r = noc.pump(Cycle::new(12), &mut refuse);
        assert_eq!(r.delivered, 0);
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
        assert_eq!(out, 1);
    }

    #[test]
    fn ingress_backpressure_rejects_when_leaf_full() {
        let cfg = NocConfig::new(ArbiterKind::Fcfs).with_port_capacity(2);
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
        // CPU head refused by the sink; the system-class head behind a
        // different root port must still get through in the same sweep.
        let mut noc = small_noc(ArbiterKind::Fcfs);
        noc.inject(0, Cycle::ZERO, txn(0, CoreKind::Cpu, 0))
            .unwrap();
        noc.inject(2, Cycle::ZERO, txn(1, CoreKind::Usb, 0))
            .unwrap();
        let mut delivered = Vec::new();
        let mut sink = |t: Transaction| {
            if t.core == CoreKind::Cpu {
                Err(t) // CPU queue "full"
            } else {
                delivered.push(t);
                Ok(())
            }
        };
        noc.pump(Cycle::new(6), &mut sink);
        let r = noc.pump(Cycle::new(12), &mut sink);
        assert_eq!(r.delivered, 1, "USB must bypass the blocked CPU head");
        assert_eq!(delivered[0].core, CoreKind::Usb);
        assert_eq!(noc.occupancy(), 1); // CPU transaction still queued
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
    /// whatever the policy, priorities and sink behaviour (seeded random
    /// streams).
    #[test]
    fn inject_pump_conserves_transactions() {
        for case in 0u64..32 {
            let mut rng = StdRng::seed_from_u64(0x0c70_0000 + case);
            let policy = rng.gen_range(0usize..4);
            let txns: Vec<(u16, u8, bool)> = (0..rng.gen_range(1usize..120))
                .map(|_| {
                    (
                        rng.gen_range(0u16..6),
                        rng.gen_range(0u8..8),
                        rng.gen_bool(0.5),
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
            let mut attempt = 0u64;
            let mut now = 0u64;
            for (i, (dma_sel, prio, urgent)) in txns.iter().enumerate() {
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
                // Pump with a sink that refuses periodically.
                let mut sink = |t: Transaction| {
                    attempt += 1;
                    if attempt.is_multiple_of(refusal_period) {
                        Err(t)
                    } else {
                        delivered.push(t.id.as_u64());
                        Ok(())
                    }
                };
                noc.pump(Cycle::new(now), &mut sink);
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

    /// The by-value `pump` and `pump_ref` are the same network: over seeded
    /// inject/pump scripts whose sinks refuse one class outright and every
    /// n-th offer besides, both deliver the same transactions in the same
    /// order with the same outcomes, node statistics and occupancy.
    #[test]
    fn pump_and_pump_ref_agree() {
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(0x0b7e_f000 + seed);
            let cfg = NocConfig::new(KINDS[(seed % 4) as usize])
                .with_port_capacity(rng.gen_range(2usize..6))
                .with_root_port_capacity(rng.gen_range(1usize..4));
            let (mut by_value, mut by_ref) = (noc(cfg.clone()), noc(cfg));
            let (mut out_value, mut out_ref) = (Vec::new(), Vec::new());
            let (mut offers_value, mut offers_ref) = (0u64, 0u64);
            let mut id = 0u64;
            for step in 0..600u64 {
                let now = Cycle::new(step);
                // The refused class changes every 50 cycles, so every class
                // is both starved and drained; the count refusal hits the
                // others.
                let starved = CoreClass::ALL[(step / 50 % 5) as usize];
                let period = rng.gen_range(2u64..6);
                if rng.gen_bool(0.6) {
                    let dma = rng.gen_range(0..CORES.len());
                    let t = txn(id, dma, now, &mut rng);
                    id += 1;
                    let a = by_value.inject(dma, now, t.clone()).is_ok();
                    let b = by_ref.inject(dma, now, t).is_ok();
                    assert_eq!(a, b, "seed {seed} step {step}");
                } else {
                    let a = by_value.pump(now, &mut |t| {
                        offers_value += 1;
                        if t.class == starved || offers_value.is_multiple_of(period) {
                            return Err(t);
                        }
                        out_value.push(t);
                        Ok(())
                    });
                    let b = by_ref.pump_ref(now, &mut |t| {
                        offers_ref += 1;
                        if t.class == starved || offers_ref.is_multiple_of(period) {
                            return false;
                        }
                        out_ref.push(t.clone());
                        true
                    });
                    assert_eq!(a, b, "seed {seed} step {step}");
                }
                assert_eq!(observable(&by_value), observable(&by_ref));
            }
            assert_eq!(out_value, out_ref, "seed {seed}");
            assert!(!out_ref.is_empty(), "seed {seed}: the script moved nothing");
            assert!(by_ref.root_stats().blocked > 0, "seed {seed}: no refusal");
        }
    }

    /// A sink that logs what it accepts and refuses the CPU class on demand.
    fn cpu_starving_sink(
        starve: bool,
        out: &mut Vec<TransactionId>,
    ) -> impl FnMut(&Transaction) -> bool + '_ {
        move |t| {
            let accept = !(starve && t.class == CoreClass::Cpu);
            if accept {
                out.push(t.id);
            }
            accept
        }
    }

    /// With the default 6-cycle hop a second sweep at the same cycle finds
    /// nothing to do: sweeping once and sweeping twice (sharing the pump's
    /// `blocked` flags) leave two networks identical, under contention on a
    /// shared leaf, full root ports and a sink that starves a class.
    #[test]
    fn a_second_sweep_at_the_same_cycle_changes_nothing() {
        let mut rng = StdRng::seed_from_u64(0x2_5eeb);
        let cfg = NocConfig::new(ArbiterKind::Priority).with_root_port_capacity(2);
        let (mut once, mut twice) = (noc(cfg.clone()), noc(cfg));
        let (mut out_once, mut out_twice) = (Vec::new(), Vec::new());
        let mut id = 0u64;
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
            // The CPU queue is "full" for the first half, then drains.
            let starve_cpu = step < 200;
            once.sweep(
                now,
                &mut 0,
                &mut cpu_starving_sink(starve_cpu, &mut out_once),
            );
            let mut blocked = 0;
            let mut sink = cpu_starving_sink(starve_cpu, &mut out_twice);
            twice.sweep(now, &mut blocked, &mut sink);
            // Nothing leaves the root; a leaf forward would show in the
            // statistics compared below.
            assert!(!twice.sweep(now, &mut blocked, &mut sink), "step {step}");
            assert_eq!(observable(&once), observable(&twice), "step {step}");
        }
        assert_eq!(out_once, out_twice);
        assert!(once.root_stats().blocked > 0 && once.root_stats().forwarded > 100);
        assert!(once.leaf_stats(CoreClass::Cpu).peak_occupancy > 2);
    }
}
