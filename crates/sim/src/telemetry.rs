//! The simulation's telemetry plane: hot-path recorders and the owned
//! snapshot embedded in every [`SimReport`](crate::SimReport).
//!
//! `SimTelemetry` is the engine's live recorder, and it keeps only what no
//! other layer counts: per-class queueing delay and per-lane row-buffer
//! hits from the deterministic completion merge, per-DMA end-to-end
//! latency from the `Deliver` handler. Both paths run on the engine thread
//! in the fixed `(cycle, lane)` merge order, and every accumulator is an
//! integer or a log2 [`Histogram`] with exact merge, so the recorder's
//! state — and the JSON it snapshots to — is a pure function of the
//! simulated run (pinned by the determinism suite).
//!
//! [`TelemetryReport`] is the owned snapshot: those distributions (a
//! class's latency is the merge of its DMAs') and the NoC arbiters. Its
//! JSON and [`Registry`] of totals read the counts other layers own —
//! admissions, refusals, completions, aging ([`McStats`]), column accesses
//! and row conflicts ([`DramStats`]) — from their owners: one vocabulary
//! for "where did the cycles go", per class / per DMA / per lane.

use json::Value;
use sara_dram::{ChannelStats, DramStats};
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
    /// End-to-end latency (inject → deliver) per DMA, in cycles.
    dma_latency: Vec<Histogram>,
    /// Row-buffer hits among each lane's completions.
    lane_row_hits: Vec<u64>,
}

impl SimTelemetry {
    /// A zeroed recorder for `dmas` DMA engines and `lanes` channel lanes.
    pub(crate) fn new(dmas: usize, lanes: usize) -> Self {
        SimTelemetry {
            queue_delay: Default::default(),
            dma_latency: vec![Histogram::new(); dmas],
            lane_row_hits: vec![0; lanes],
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
    ) {
        self.queue_delay[class.queue_index()].record(queued_for);
        if row_hit {
            self.lane_row_hits[lane] += 1;
        }
    }

    /// Records one delivered transaction's end-to-end latency.
    #[inline]
    pub(crate) fn record_delivery(&mut self, dma: usize, latency: u64) {
        self.dma_latency[dma].record(latency);
    }
}

/// Per-class slice of a [`TelemetryReport`]. The class's admission,
/// refusal, completion and aging counts are
/// [`SimReport::mc`](crate::SimReport::mc)`.class(class)`.
#[derive(Debug, Clone)]
pub struct ClassTelemetry {
    /// The traffic class.
    pub class: CoreClass,
    /// A copy of the controller's `accepted` count, kept for the benchmark
    /// package's reader (the JSON reads the controller's).
    pub accepted: u64,
    /// Queueing-delay distribution, cycles; its `max()` is the class's
    /// worst queueing delay.
    pub queue_delay: Histogram,
    /// End-to-end latency distribution, cycles: the merge of the class's
    /// per-DMA latency histograms.
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

/// Per-lane slice of a [`TelemetryReport`]. The lane's completions and row
/// conflicts are its channel's in [`SimReport::dram`](crate::SimReport::dram).
#[derive(Debug, Clone)]
pub struct LaneTelemetry {
    /// Lane (= DRAM channel) index.
    pub lane: usize,
    /// Completions whose final column command found its row already open
    /// (a superset of the DRAM's first-touch row-hit classification).
    pub row_hits: u64,
}

/// The owned telemetry snapshot embedded in a
/// [`SimReport`](crate::SimReport).
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// Per-class queueing/latency telemetry, in queue order.
    pub classes: Vec<ClassTelemetry>,
    /// Per-DMA latency telemetry, in DMA order.
    pub dmas: Vec<DmaTelemetry>,
    /// Per-lane row-buffer telemetry, in lane order.
    pub lanes: Vec<LaneTelemetry>,
    /// Root arbiter of the NoC tree.
    pub noc_root: NodeStats,
    /// Per-class leaf arbiters, in queue order.
    pub noc_leaves: Vec<NodeStats>,
}

impl TelemetryReport {
    /// Snapshots the live recorder and the NoC arbiters.
    pub(crate) fn new(
        telemetry: &SimTelemetry,
        mc: &McStats,
        noc: &Noc,
        dmas: &[DmaRuntime],
    ) -> Self {
        let classes = CoreClass::ALL
            .iter()
            .map(|&class| {
                let mut latency = Histogram::new();
                for (dma, hist) in dmas.iter().zip(&telemetry.dma_latency) {
                    if dma.class == class {
                        latency.merge(hist);
                    }
                }
                ClassTelemetry {
                    class,
                    accepted: mc.class(class).accepted,
                    queue_delay: telemetry.queue_delay[class.queue_index()].clone(),
                    latency,
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
        let lanes = telemetry
            .lane_row_hits
            .iter()
            .enumerate()
            .map(|(lane, &row_hits)| LaneTelemetry { lane, row_hits })
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
    /// vocabulary `sara report` summarizes. `mc` and `dram` are the same
    /// report's controller and DRAM counters.
    pub fn totals(&self, mc: &McStats, dram: &DramStats) -> Registry {
        let mut reg = Registry::new();
        let mut latency = Histogram::new();
        let mut queue_delay = Histogram::new();
        for c in &self.classes {
            let counts = mc.class(c.class);
            reg.counter("accepted").add(counts.accepted);
            reg.counter("rejected").add(counts.rejected);
            reg.counter("completed").add(counts.completed);
            reg.counter("aged").add(counts.aged);
            latency.merge(&c.latency);
            queue_delay.merge(&c.queue_delay);
        }
        reg.histogram("latency_cycles").merge(&latency);
        reg.histogram("queue_delay_cycles").merge(&queue_delay);
        let row_hits = self.lanes.iter().map(|lane| lane.row_hits).sum();
        reg.counter("row_hits").add(row_hits);
        reg.counter("row_conflicts").add(dram.total.row_conflicts);
        reg.counter("noc_forwarded").add(self.noc_root.forwarded);
        reg.counter("noc_blocked").add(self.noc_root.blocked);
        reg.gauge("noc_peak_occupancy")
            .set(self.noc_root.peak_occupancy as f64);
        reg
    }

    /// The snapshot as one JSON object node: a `totals` registry plus the
    /// nested per-class / per-DMA / per-lane / NoC breakdowns, all in
    /// fixed order. `mc` and `dram` are the same report's controller and
    /// DRAM counters, which supply the per-class and per-lane counts.
    pub fn to_json_value(&self, mc: &McStats, dram: &DramStats) -> Value {
        let class_value = |c: &ClassTelemetry| {
            let counts = mc.class(c.class);
            Value::Object(vec![
                ("class".to_string(), c.class.name().into()),
                ("accepted".to_string(), counts.accepted.into()),
                ("rejected".to_string(), counts.rejected.into()),
                ("completed".to_string(), counts.completed.into()),
                ("aged".to_string(), counts.aged.into()),
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
        let lane_value = |(l, ch): (&LaneTelemetry, &ChannelStats)| {
            Value::Object(vec![
                ("lane".to_string(), l.lane.into()),
                ("completions".to_string(), ch.column_accesses().into()),
                ("row_hits".to_string(), l.row_hits.into()),
                ("row_conflicts".to_string(), ch.row_conflicts.into()),
            ])
        };
        let lanes = self.lanes.iter().zip(&dram.per_channel);
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
            ("totals".to_string(), self.totals(mc, dram).to_json_value()),
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
                Value::Array(lanes.map(lane_value).collect()),
            ),
            ("noc".to_string(), noc),
        ])
    }
}
