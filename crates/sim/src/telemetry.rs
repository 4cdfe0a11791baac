//! The simulation's telemetry plane: hot-path recorders and the owned
//! snapshot embedded in every [`SimReport`](crate::SimReport).
//!
//! `SimTelemetry` is the engine's live recorder, fed from exactly two
//! hot paths — the deterministic completion merge (per-class queueing
//! delay, per-lane row-hit counters) and the `Deliver` handler (per-class
//! and per-DMA end-to-end latency). Both paths run on the engine thread in
//! the fixed `(cycle, lane)` merge order, and every accumulator is an
//! integer [`Counter`](sara_telemetry::Counter) or log2 [`Histogram`]
//! with exact merge, so the
//! recorder's state — and the JSON it snapshots to — is a pure function
//! of the simulated run (pinned by the determinism suite).
//!
//! [`TelemetryReport`] is the owned snapshot: the recorder's distributions
//! joined with the admission front-end's stall/reject counters, the DRAM
//! channels' row-conflict counters and the NoC arbiter occupancy — one
//! vocabulary for "where did the cycles go", nested per class / per DMA /
//! per lane, plus a flat [`Registry`] of system totals.

use json::Value;
use sara_dram::DramStats;
use sara_memctrl::McStats;
use sara_noc::{Noc, NodeStats};
use sara_telemetry::{Histogram, Registry};
use sara_types::{CoreClass, CoreKind};

use crate::runtime::DmaRuntime;

/// Live telemetry recorder owned by the engine.
///
/// All state is plain integers and recording is branch-light, so the hot
/// paths (one call per completion, one per delivery) stay cheap. A record
/// allocates only when its sample lands above every filled bucket of its
/// histogram, which happens at most 65 times per histogram.
#[derive(Debug, Clone)]
pub(crate) struct SimTelemetry {
    /// Queueing delay (controller accept → final column command) per
    /// traffic class, in cycles.
    queue_delay: [Histogram; 5],
    /// End-to-end latency (inject → deliver) per traffic class, in cycles.
    class_latency: [Histogram; 5],
    /// End-to-end latency per DMA, in cycles.
    dma_latency: Vec<Histogram>,
    /// Completions merged per lane.
    lane_completions: Vec<u64>,
    /// Row-buffer hits among each lane's completions.
    lane_row_hits: Vec<u64>,
    /// Completions that had been promoted by aging.
    aged: u64,
}

impl SimTelemetry {
    /// A zeroed recorder for `dmas` DMA engines and `lanes` channel lanes.
    pub(crate) fn new(dmas: usize, lanes: usize) -> Self {
        SimTelemetry {
            queue_delay: Default::default(),
            class_latency: Default::default(),
            dma_latency: vec![Histogram::new(); dmas],
            lane_completions: vec![0; lanes],
            lane_row_hits: vec![0; lanes],
            aged: 0,
        }
    }

    /// Records one merged completion (called from the deterministic
    /// `(cycle, lane)` merge, so ordering is mode-independent).
    #[inline]
    pub(crate) fn record_completion(
        &mut self,
        lane: usize,
        class: CoreClass,
        queued_for: u64,
        row_hit: bool,
        was_aged: bool,
    ) {
        self.queue_delay[class.queue_index()].record(queued_for);
        self.lane_completions[lane] += 1;
        if row_hit {
            self.lane_row_hits[lane] += 1;
        }
        if was_aged {
            self.aged += 1;
        }
    }

    /// Records one delivered transaction's end-to-end latency.
    #[inline]
    pub(crate) fn record_delivery(&mut self, dma: usize, class: CoreClass, latency: u64) {
        self.class_latency[class.queue_index()].record(latency);
        self.dma_latency[dma].record(latency);
    }
}

/// Per-class slice of a [`TelemetryReport`].
#[derive(Debug, Clone)]
pub struct ClassTelemetry {
    /// The traffic class.
    pub class: CoreClass,
    /// Admissions into the class queue.
    pub accepted: u64,
    /// Admission rejections (queue or shared budget full).
    pub rejected: u64,
    /// Completions.
    pub completed: u64,
    /// Completions that had been promoted by aging.
    pub aged: u64,
    /// Queueing-delay distribution, cycles.
    pub queue_delay: Histogram,
    /// End-to-end latency distribution, cycles.
    pub latency: Histogram,
}

/// Per-DMA slice of a [`TelemetryReport`].
#[derive(Debug, Clone)]
pub struct DmaTelemetry {
    /// Dense DMA index.
    pub dma: usize,
    /// Owning core.
    pub core: CoreKind,
    /// End-to-end latency distribution, cycles: one sample per delivery,
    /// so its count is the DMA's completed transactions.
    pub latency: Histogram,
}

/// Per-lane slice of a [`TelemetryReport`].
#[derive(Debug, Clone)]
pub struct LaneTelemetry {
    /// Lane (= DRAM channel) index.
    pub lane: usize,
    /// Completions merged from this lane.
    pub completions: u64,
    /// Completions whose final column command found its row already open
    /// (a superset of the DRAM's first-touch row-hit classification).
    pub row_hits: u64,
    /// Row-buffer conflicts observed by the lane's DRAM channel.
    pub row_conflicts: u64,
}

/// The owned telemetry snapshot embedded in a
/// [`SimReport`](crate::SimReport).
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// Per-class admission/queueing/latency telemetry, in queue order.
    pub classes: Vec<ClassTelemetry>,
    /// Per-DMA latency telemetry, in DMA order.
    pub dmas: Vec<DmaTelemetry>,
    /// Per-lane completion/row-buffer telemetry, in lane order.
    pub lanes: Vec<LaneTelemetry>,
    /// Root arbiter of the NoC tree.
    pub noc_root: NodeStats,
    /// Per-class leaf arbiters, in queue order.
    pub noc_leaves: Vec<NodeStats>,
}

impl TelemetryReport {
    /// Joins the live recorder with the admission, DRAM and NoC counters
    /// into an owned snapshot.
    pub(crate) fn new(
        telemetry: &SimTelemetry,
        mc: &McStats,
        dram: &DramStats,
        noc: &Noc,
        dmas: &[DmaRuntime],
    ) -> Self {
        let classes = CoreClass::ALL
            .iter()
            .map(|&class| {
                let qi = class.queue_index();
                let cs = mc.class(class);
                ClassTelemetry {
                    class,
                    accepted: cs.accepted,
                    rejected: cs.rejected,
                    completed: cs.completed,
                    aged: cs.aged,
                    queue_delay: telemetry.queue_delay[qi].clone(),
                    latency: telemetry.class_latency[qi].clone(),
                }
            })
            .collect();
        let dmas = dmas
            .iter()
            .enumerate()
            .map(|(i, dma)| DmaTelemetry {
                dma: i,
                core: dma.core,
                latency: telemetry.dma_latency[i].clone(),
            })
            .collect();
        let lanes = dram
            .per_channel
            .iter()
            .enumerate()
            .map(|(lane, ch)| LaneTelemetry {
                lane,
                completions: telemetry.lane_completions[lane],
                row_hits: telemetry.lane_row_hits[lane],
                row_conflicts: ch.row_conflicts,
            })
            .collect();
        TelemetryReport {
            classes,
            dmas,
            lanes,
            noc_root: noc.root_stats().clone(),
            noc_leaves: CoreClass::ALL
                .iter()
                .map(|&c| noc.leaf_stats(c).clone())
                .collect(),
        }
    }

    /// The system-wide totals as a flat metrics [`Registry`] — the compact
    /// vocabulary `sara report` summarizes.
    pub fn totals(&self) -> Registry {
        let mut reg = Registry::new();
        let mut latency = Histogram::new();
        let mut queue_delay = Histogram::new();
        for c in &self.classes {
            reg.counter("accepted").add(c.accepted);
            reg.counter("rejected").add(c.rejected);
            reg.counter("completed").add(c.completed);
            reg.counter("aged").add(c.aged);
            latency.merge(&c.latency);
            queue_delay.merge(&c.queue_delay);
        }
        reg.histogram("latency_cycles").merge(&latency);
        reg.histogram("queue_delay_cycles").merge(&queue_delay);
        for lane in &self.lanes {
            reg.counter("row_hits").add(lane.row_hits);
            reg.counter("row_conflicts").add(lane.row_conflicts);
        }
        reg.counter("noc_forwarded").add(self.noc_root.forwarded);
        reg.counter("noc_blocked").add(self.noc_root.blocked);
        reg.gauge("noc_peak_occupancy")
            .set(self.noc_root.peak_occupancy as f64);
        reg
    }

    /// The snapshot as one JSON object node: a `totals` registry plus the
    /// nested per-class / per-DMA / per-lane / NoC breakdowns, all in
    /// fixed order.
    pub fn to_json_value(&self) -> Value {
        let class_value = |c: &ClassTelemetry| {
            Value::Object(vec![
                ("class".to_string(), c.class.name().into()),
                ("accepted".to_string(), c.accepted.into()),
                ("rejected".to_string(), c.rejected.into()),
                ("completed".to_string(), c.completed.into()),
                ("aged".to_string(), c.aged.into()),
                (
                    "queue_delay_cycles".to_string(),
                    c.queue_delay.to_json_value(),
                ),
                ("latency_cycles".to_string(), c.latency.to_json_value()),
            ])
        };
        let dma_value = |d: &DmaTelemetry| {
            Value::Object(vec![
                ("dma".to_string(), d.dma.into()),
                ("core".to_string(), d.core.name().into()),
                ("latency_cycles".to_string(), d.latency.to_json_value()),
            ])
        };
        let lane_value = |l: &LaneTelemetry| {
            Value::Object(vec![
                ("lane".to_string(), l.lane.into()),
                ("completions".to_string(), l.completions.into()),
                ("row_hits".to_string(), l.row_hits.into()),
                ("row_conflicts".to_string(), l.row_conflicts.into()),
            ])
        };
        let node_value = |n: &NodeStats| {
            Value::Object(vec![
                ("forwarded".to_string(), n.forwarded.into()),
                ("blocked".to_string(), n.blocked.into()),
                ("peak_occupancy".to_string(), n.peak_occupancy.into()),
            ])
        };
        let noc = Value::Object(vec![
            ("root".to_string(), node_value(&self.noc_root)),
            (
                "leaves".to_string(),
                Value::Array(
                    self.noc_leaves
                        .iter()
                        .zip(CoreClass::ALL)
                        .map(|(n, class)| {
                            let mut v = node_value(n);
                            if let Value::Object(members) = &mut v {
                                members.insert(0, ("class".to_string(), class.name().into()));
                            }
                            v
                        })
                        .collect(),
                ),
            ),
        ]);
        Value::Object(vec![
            ("totals".to_string(), self.totals().to_json_value()),
            (
                "classes".to_string(),
                Value::Array(self.classes.iter().map(class_value).collect()),
            ),
            (
                "dmas".to_string(),
                Value::Array(self.dmas.iter().map(dma_value).collect()),
            ),
            (
                "lanes".to_string(),
                Value::Array(self.lanes.iter().map(lane_value).collect()),
            ),
            ("noc".to_string(), noc),
        ])
    }
}
