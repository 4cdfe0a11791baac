//! # sara-analytic
//!
//! The closed-form tier in front of the cycle-accurate simulator: given a
//! cell's DRAM timing/geometry, frequency, channel count and workload
//! specs, compute in microseconds
//!
//! * an **optimistic aggregate-bandwidth bound** — peak beats/second minus
//!   refresh overhead, derated by the row-hit/row-conflict mix the
//!   scenario's access patterns admit at best,
//! * a **per-DMA latency/deadline feasibility check** against the QoS
//!   ratings (can this limit be met even on an unloaded device?), and
//! * a **MultiAmdahl-style optimal static allocation** — the bandwidth
//!   share each core would receive from an oracle that splits the bound
//!   proportionally to rated demand and gives elastic cores the rest,
//!
//! and fold them into a screening verdict:
//!
//! * [`ScreenVerdict::ProvablyInfeasible`] — rated demand exceeds the
//!   optimistic bound by more than the soundness margin (or a latency
//!   limit is below the unloaded floor), so simulation *must* miss
//!   targets;
//! * [`ScreenVerdict::ProvablyTrivial`] — demand fits under a brutally
//!   pessimistic capacity estimate with wide slack (and every latency
//!   limit clears a worst-case queueing estimate), so targets are met
//!   under *any* scheduling policy;
//! * [`ScreenVerdict::NeedsSim`] — everything in between.
//!
//! Everything is deterministic: all reductions run in workload order with
//! no hashing and no parallelism, so equal inputs produce bit-equal
//! floats. The margins are deliberately asymmetric — both provable
//! verdicts must survive `sara matrix --screen=verify` and the generated
//! soundness property test, which simulate anyway and hard-error on any
//! verdict the engine contradicts.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use json::Value;
use sara_dram::TimingParams;
use sara_types::MegaHertz;
use sara_workloads::{CoreSpec, DmaSpec, MeterSpec, PatternSpec, TrafficSpec};

/// Demand must exceed the optimistic bound by this factor before a cell
/// is declared infeasible. The engine fails a core below NPI 0.97, so an
/// aggregate shortfall of 10% (on top of a bound real schedules cannot
/// reach) guarantees at least one rated DMA lands well under threshold.
pub const INFEASIBLE_MARGIN: f64 = 1.10;

/// A trivial verdict requires rated demand at or below this fraction of
/// the *pessimistic* capacity (every burst a row conflict, doubled
/// refresh charge) — conservative enough to hold under plain FCFS.
pub const TRIVIAL_UTILIZATION: f64 = 0.35;

/// Latency limits must clear the worst-case queueing estimate by this
/// factor before a trivial verdict is allowed.
pub const TRIVIAL_LATENCY_SLACK: f64 = 4.0;

/// The screening classification of one matrix cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScreenVerdict {
    /// Demand provably exceeds what the device can deliver: targets must
    /// miss, simulation is pointless.
    ProvablyInfeasible,
    /// Demand provably fits with wide slack under any policy: targets
    /// must be met, simulation is pointless.
    ProvablyTrivial,
    /// The analytic model cannot decide; simulate.
    NeedsSim,
}

impl ScreenVerdict {
    /// The wire label of a prunable verdict (`None` for [`Self::NeedsSim`]).
    pub fn label(self) -> Option<&'static str> {
        match self {
            ScreenVerdict::ProvablyInfeasible => Some("infeasible"),
            ScreenVerdict::ProvablyTrivial => Some("trivial"),
            ScreenVerdict::NeedsSim => None,
        }
    }

    /// Whether the cell still needs cycle-accurate simulation.
    pub fn needs_sim(self) -> bool {
        self == ScreenVerdict::NeedsSim
    }
}

/// Everything the model needs about one cell, borrowed from the lowered
/// system configuration (DRAM timing + geometry, clock, workload).
#[derive(Debug, Clone, Copy)]
pub struct AnalyticInput<'a> {
    /// DRAM timing at the cell's operating point, in I/O-bus beats.
    pub timing: &'a TimingParams,
    /// Independent DRAM channels.
    pub channels: usize,
    /// Ranks per channel.
    pub ranks: usize,
    /// Banks per rank.
    pub banks: usize,
    /// Bytes transferred per I/O-bus beat.
    pub bytes_per_beat: u32,
    /// Row (page) size in bytes.
    pub row_bytes: u64,
    /// Burst transfer size in bytes.
    pub burst_bytes: u32,
    /// The beat clock the cell runs at.
    pub freq: MegaHertz,
    /// The workload: every core with its DMA specs.
    pub cores: &'a [CoreSpec],
    /// Admission front-end latency in beat cycles.
    pub admit_latency: u64,
    /// Read-response return latency in beat cycles.
    pub read_response_latency: u64,
}

/// The optimal-static-allocation share of one core (MultiAmdahl-style:
/// the oracle splits the bound proportionally to rated demand; elastic
/// cores divide whatever is left).
#[derive(Debug, Clone, PartialEq)]
pub struct StaticShare {
    /// Core name (its kind label).
    pub core: String,
    /// The core's rated demand in GB/s (0 for purely elastic cores).
    pub demand_gbs: f64,
    /// Fraction of the aggregate bound the oracle allocates to the core.
    pub share: f64,
}

/// The full analytic evaluation of one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyticReport {
    /// Optimistic aggregate bandwidth bound in GB/s: no simulated
    /// schedule can sustainably deliver more.
    pub bound_gbs: f64,
    /// Aggregate rated demand in GB/s (elastic traffic excluded).
    pub demand_gbs: f64,
    /// `demand_gbs / bound_gbs` (0 when the bound is 0).
    pub utilization: f64,
    /// Demand-weighted row-mix efficiency in (0, 1]: the bus-vs-activate
    /// derate the access patterns admit at best.
    pub mix_efficiency: f64,
    /// The screening verdict.
    pub verdict: ScreenVerdict,
    /// One-line human-readable justification of the verdict.
    pub reason: String,
    /// Optimal static allocation baseline, one entry per core in
    /// workload order.
    pub static_alloc: Vec<StaticShare>,
}

impl AnalyticReport {
    /// The bound/demand headline as JSON members — the `analytic` section
    /// every `SimReport` carries (`achieved_over_bound` is appended by
    /// the report layer, which knows the achieved bandwidth).
    pub fn summary_members(&self) -> Vec<(String, Value)> {
        vec![
            ("bound_gbs".to_string(), self.bound_gbs.into()),
            ("demand_gbs".to_string(), self.demand_gbs.into()),
            ("utilization".to_string(), self.utilization.into()),
        ]
    }

    /// The full evaluation as one JSON node — what a screened (pruned)
    /// matrix cell carries instead of a simulated report.
    pub fn to_json_value(&self) -> Value {
        let static_alloc = Value::Array(
            self.static_alloc
                .iter()
                .map(|s| {
                    Value::Object(vec![
                        ("core".to_string(), s.core.as_str().into()),
                        ("demand_gbs".to_string(), s.demand_gbs.into()),
                        ("share".to_string(), s.share.into()),
                    ])
                })
                .collect(),
        );
        Value::Object(vec![
            ("bound_gbs".to_string(), self.bound_gbs.into()),
            ("demand_gbs".to_string(), self.demand_gbs.into()),
            ("utilization".to_string(), self.utilization.into()),
            ("mix_efficiency".to_string(), self.mix_efficiency.into()),
            ("reason".to_string(), self.reason.as_str().into()),
            ("static_alloc".to_string(), static_alloc),
        ])
    }
}

/// Optimistic sustainable bandwidth of **one channel** in bytes/second,
/// before any pattern derate: the bus streams one `burst_bytes` transfer
/// every `tCCD` beats, minus the fraction of time refresh holds the
/// device (`tRFC`/`tREFI`). The byte count is clock-invariant while
/// `tCCD` stretches (ceil) under [`TimingParams::rescaled`] and `tREFI`
/// stays wall-clock pinned, so the bound tracks a DVFS rung exactly as
/// the engine does — and rounding only ever *lowers* it, keeping it a
/// true upper bound.
pub fn channel_bound_bytes_per_s(timing: &TimingParams, burst_bytes: u32, beat_hz: f64) -> f64 {
    let t = timing;
    beat_hz * f64::from(burst_bytes) / t.tccd() as f64 * refresh_derate(t)
}

/// The fraction of time the device is *not* refreshing (1 with refresh
/// disabled).
fn refresh_derate(t: &TimingParams) -> f64 {
    if t.refresh_enabled() {
        1.0 - t.trfc() as f64 / t.trefi() as f64
    } else {
        1.0
    }
}

/// Optimistic bursts served per row activation for one access pattern:
/// sequential walks drain the whole row, strides touch it every
/// `stride` bytes, random traffic gets one burst per visit.
fn bursts_per_row_visit(pattern: &PatternSpec, row_bytes: u64, burst_bytes: u32) -> f64 {
    let burst = u64::from(burst_bytes).max(1);
    match pattern {
        PatternSpec::Sequential { .. } => (row_bytes / burst).max(1) as f64,
        PatternSpec::Strided { stride_bytes, .. } => {
            (row_bytes / (*stride_bytes).max(burst)).max(1) as f64
        }
        PatternSpec::Random { .. } => 1.0,
    }
}

/// Evaluates the closed-form model for one cell.
///
/// Deterministic: every reduction runs in workload order, so equal inputs
/// produce bit-equal outputs regardless of host, thread count, or
/// evaluation order elsewhere in the process.
pub fn evaluate(input: &AnalyticInput<'_>) -> AnalyticReport {
    let t = input.timing;
    let beat_hz = f64::from(input.freq.as_u32()) * 1e6;
    let channel_peak = channel_bound_bytes_per_s(t, input.burst_bytes, beat_hz);

    // Row-mix derate: per DMA, the best achievable bus efficiency given
    // how many bursts each row activation can serve against the bank
    // machinery's activate throughput (tRC per bank, tFAW and tRRD per
    // rank — all amortized across the parallel banks an optimistic
    // schedule keeps busy).
    let parallel_banks = (input.banks * input.ranks).max(1) as f64;
    let act_floor_beats = (t.trc() as f64 / parallel_banks)
        .max(t.tfaw() as f64 / (4.0 * input.ranks.max(1) as f64))
        .max(t.trrd() as f64 / input.ranks.max(1) as f64);
    let mut demand = 0.0f64;
    let mut weighted_inverse_eff = 0.0f64;
    for core in input.cores {
        for dma in &core.dmas {
            let Some(rate) = dma.traffic.mean_bytes_per_s() else {
                continue;
            };
            let bursts = bursts_per_row_visit(&dma.pattern, input.row_bytes, input.burst_bytes);
            let bus_beats = bursts * t.burst_beats() as f64;
            let eff = bus_beats / bus_beats.max(act_floor_beats); // ≤ 1
            demand += rate;
            weighted_inverse_eff += rate / eff;
        }
    }
    let mix_efficiency = if demand > 0.0 {
        demand / weighted_inverse_eff
    } else {
        1.0
    };
    let bound = channel_peak * input.channels as f64 * mix_efficiency;

    // Rated demand: bytes/second that *must* be delivered for every meter
    // to read healthy. A bandwidth meter only demands its target
    // fraction; best-effort meters demand nothing.
    let mut required = 0.0f64;
    for core in input.cores {
        for dma in &core.dmas {
            if !dma.is_qos_rated() {
                continue;
            }
            let rate = dma.traffic.mean_bytes_per_s().unwrap_or(0.0);
            required += match &dma.meter {
                MeterSpec::Bandwidth {
                    target_fraction, ..
                } => rate * target_fraction,
                _ => rate,
            };
        }
    }

    let bound_gbs = bound / 1e9;
    let demand_gbs = required / 1e9;
    let utilization = if bound > 0.0 { required / bound } else { 0.0 };

    let (verdict, reason) = classify(input, bound, required, beat_hz);
    let static_alloc = static_allocation(input.cores, bound, required);

    AnalyticReport {
        bound_gbs,
        demand_gbs,
        utilization,
        mix_efficiency,
        verdict,
        reason,
        static_alloc,
    }
}

/// The unloaded service floor of one transaction in beat cycles — the
/// absolute best case (open row, idle queues): admission, CAS latency,
/// the burst itself, and (for reads) the response return.
fn latency_floor_cycles(input: &AnalyticInput<'_>, is_read: bool) -> f64 {
    let t = input.timing;
    let cas = if is_read { t.cl() } else { t.wl() };
    let response = if is_read {
        input.read_response_latency
    } else {
        0
    };
    (input.admit_latency + cas + t.burst_beats() + response) as f64
}

/// A pessimistic per-burst service cost in beats: precharge + activate, a
/// CAS, the burst, and a turnaround — what a row-conflict-ridden FCFS
/// schedule pays per transaction.
fn worst_burst_beats(t: &TimingParams) -> f64 {
    (t.row_conflict_penalty() + t.cl() + t.burst_beats() + t.rtw_gap()) as f64
}

/// Every DMA with a latency limit or a work-unit deadline, paired with
/// that limit in ns.
fn timed_dmas(cores: &[CoreSpec]) -> impl Iterator<Item = (&DmaSpec, f64)> {
    cores.iter().flat_map(|c| &c.dmas).filter_map(|dma| {
        let limit_ns = match (&dma.meter, &dma.traffic) {
            (MeterSpec::Latency { limit_ns, .. }, _) => *limit_ns,
            (MeterSpec::WorkUnit, TrafficSpec::Batch { deadline_ns, .. }) => *deadline_ns,
            _ => return None,
        };
        Some((dma, limit_ns))
    })
}

fn classify(
    input: &AnalyticInput<'_>,
    bound: f64,
    required: f64,
    beat_hz: f64,
) -> (ScreenVerdict, String) {
    let t = input.timing;
    let ns_to_cycles = beat_hz / 1e9;

    // --- Infeasibility: optimistic checks that a real run can only do
    // worse than. --------------------------------------------------------
    if required > bound * INFEASIBLE_MARGIN {
        return (
            ScreenVerdict::ProvablyInfeasible,
            format!(
                "rated demand {:.2} GB/s exceeds the optimistic bound {:.2} GB/s by more than {:.0}%",
                required / 1e9,
                bound / 1e9,
                (INFEASIBLE_MARGIN - 1.0) * 100.0
            ),
        );
    }
    for (dma, limit_ns) in timed_dmas(input.cores) {
        let limit_cycles = limit_ns * ns_to_cycles;
        let floor = latency_floor_cycles(input, dma.op.is_read());
        // Even an unloaded device cannot answer fast enough: the
        // meter's NPI tops out below the pass threshold.
        if limit_cycles * 1.05 < floor {
            return (
                ScreenVerdict::ProvablyInfeasible,
                format!(
                    "{}: limit {limit_ns} ns ({limit_cycles:.0} cycles) is under the \
                     unloaded service floor ({floor:.0} cycles)",
                    dma.name
                ),
            );
        }
    }

    // --- Triviality: pessimistic checks that must hold under any policy,
    // FCFS included. -----------------------------------------------------
    let pess_refresh = (1.0 - 2.0 * t.trfc() as f64 / t.trefi() as f64).max(0.1);
    let pess_capacity = beat_hz * f64::from(input.burst_bytes) / worst_burst_beats(t)
        * input.channels as f64
        * pess_refresh;
    if required > TRIVIAL_UTILIZATION * pess_capacity {
        return (
            ScreenVerdict::NeedsSim,
            format!(
                "utilization {:.2} of the optimistic bound; not provably decidable",
                if bound > 0.0 { required / bound } else { 0.0 }
            ),
        );
    }
    // Worst-case queueing: every outstanding transaction in the system
    // ahead of ours, each paying the full row-conflict service cost.
    let total_window: usize = input
        .cores
        .iter()
        .flat_map(|c| &c.dmas)
        .map(|d| d.window)
        .sum();
    let worst_wait = total_window as f64 * worst_burst_beats(t) + t.trfc() as f64;
    for (dma, limit_ns) in timed_dmas(input.cores) {
        let limit_cycles = limit_ns * ns_to_cycles;
        let pess_latency = latency_floor_cycles(input, dma.op.is_read()) + worst_wait;
        if limit_cycles < TRIVIAL_LATENCY_SLACK * pess_latency {
            return (
                ScreenVerdict::NeedsSim,
                format!(
                    "{}: limit {limit_cycles:.0} cycles is within {TRIVIAL_LATENCY_SLACK}x \
                     of the worst-case estimate {pess_latency:.0}; not provably trivial",
                    dma.name
                ),
            );
        }
    }
    (
        ScreenVerdict::ProvablyTrivial,
        format!(
            "rated demand {:.2} GB/s fits under {:.0}% of the pessimistic capacity {:.2} GB/s \
             with latency slack >= {TRIVIAL_LATENCY_SLACK}x",
            required / 1e9,
            TRIVIAL_UTILIZATION * 100.0,
            pess_capacity / 1e9
        ),
    )
}

/// The MultiAmdahl-style oracle: rated cores receive bound shares
/// proportional to demand (scaled down uniformly when oversubscribed);
/// elastic cores split the leftover evenly.
fn static_allocation(cores: &[CoreSpec], bound: f64, required: f64) -> Vec<StaticShare> {
    let scale = if required > bound && required > 0.0 {
        bound / required
    } else {
        1.0
    };
    let mut shares: Vec<StaticShare> = cores
        .iter()
        .map(|core| {
            let demand = core.mean_demand_bytes_per_s();
            StaticShare {
                core: core.kind.name().to_string(),
                demand_gbs: demand / 1e9,
                share: if bound > 0.0 {
                    demand * scale / bound
                } else {
                    0.0
                },
            }
        })
        .collect();
    let rated_total: f64 = shares.iter().map(|s| s.share).sum();
    let leftover = (1.0 - rated_total).max(0.0);
    let elastic = shares.iter().filter(|s| s.demand_gbs == 0.0).count();
    if elastic > 0 {
        let each = leftover / elastic as f64;
        for s in &mut shares {
            if s.demand_gbs == 0.0 {
                s.share = each;
            }
        }
    }
    shares
}

#[cfg(test)]
mod tests {
    use super::*;
    use sara_types::{CoreKind, MemOp};
    use sara_workloads::DmaSpec;

    fn dma(name: &str, rate: f64, meter: MeterSpec) -> DmaSpec {
        DmaSpec::new(
            name,
            MemOp::Read,
            TrafficSpec::Constant { bytes_per_s: rate },
            PatternSpec::Sequential {
                region_bytes: 1 << 20,
            },
            meter,
            8,
        )
    }

    fn occupancy() -> MeterSpec {
        MeterSpec::FrameRate
    }

    fn input_with<'a>(timing: &'a TimingParams, cores: &'a [CoreSpec]) -> AnalyticInput<'a> {
        AnalyticInput {
            timing,
            channels: 2,
            ranks: 2,
            banks: 8,
            bytes_per_beat: 8,
            row_bytes: 2048,
            burst_bytes: 128,
            freq: MegaHertz::new(1866),
            cores,
            admit_latency: 48,
            read_response_latency: 10,
        }
    }

    #[test]
    fn bound_sits_below_raw_peak_and_tracks_refresh() {
        let t = TimingParams::lpddr4_1866();
        let per_channel = channel_bound_bytes_per_s(&t, 128, 1866e6);
        let raw_peak = 8.0 * 1866e6;
        assert!(per_channel < raw_peak);
        assert!(per_channel > raw_peak * 0.9, "refresh costs ~7%");
        // Slower rungs stretch tRFC against the pinned tREFI: the derate
        // deepens and the bound falls faster than linearly.
        let slow = t.rescaled(1866, 933);
        let half = channel_bound_bytes_per_s(&slow, 128, 1866e6);
        assert!(half < per_channel / 2.0);
    }

    #[test]
    fn oversubscription_is_provably_infeasible() {
        let t = TimingParams::lpddr4_1866();
        // ~30 GB/s peak at 1866 MHz x 2ch; demand 50 GB/s cannot fit.
        let cores = vec![CoreSpec::new(
            CoreKind::Gpu,
            vec![dma("hog", 50e9, occupancy())],
        )];
        let report = evaluate(&input_with(&t, &cores));
        assert_eq!(report.verdict, ScreenVerdict::ProvablyInfeasible);
        assert!(report.utilization > INFEASIBLE_MARGIN);
        assert!(report.reason.contains("exceeds"));
    }

    #[test]
    fn light_load_is_provably_trivial_and_near_bound_is_needs_sim() {
        let t = TimingParams::lpddr4_1866();
        let light = vec![CoreSpec::new(
            CoreKind::Display,
            vec![dma("panel", 0.5e9, occupancy())],
        )];
        let report = evaluate(&input_with(&t, &light));
        assert_eq!(
            report.verdict,
            ScreenVerdict::ProvablyTrivial,
            "{}",
            report.reason
        );

        let heavy = vec![CoreSpec::new(
            CoreKind::Gpu,
            vec![dma("gpu", 20e9, occupancy())],
        )];
        let report = evaluate(&input_with(&t, &heavy));
        assert_eq!(report.verdict, ScreenVerdict::NeedsSim);
    }

    #[test]
    fn impossible_latency_limit_is_infeasible() {
        let t = TimingParams::lpddr4_1866();
        let cores = vec![CoreSpec::new(
            CoreKind::Dsp,
            vec![dma(
                "dsp",
                0.1e9,
                MeterSpec::Latency {
                    limit_ns: 10.0, // ~19 cycles at 1866 MHz; floor is ~110
                    alpha: 0.1,
                },
            )],
        )];
        let report = evaluate(&input_with(&t, &cores));
        assert_eq!(report.verdict, ScreenVerdict::ProvablyInfeasible);
        assert!(report.reason.contains("floor"));
    }

    #[test]
    fn mix_efficiency_derates_for_random_on_narrow_geometry() {
        let t = TimingParams::lpddr4_1866();
        let cores = vec![CoreSpec::new(
            CoreKind::Cpu,
            vec![DmaSpec::new(
                "cpu",
                MemOp::Read,
                TrafficSpec::Constant { bytes_per_s: 1e9 },
                PatternSpec::Random {
                    region_bytes: 1 << 24,
                },
                occupancy(),
                8,
            )],
        )];
        // Table 1 geometry: 16 parallel banks hide activates entirely.
        let wide = evaluate(&input_with(&t, &cores));
        assert!((wide.mix_efficiency - 1.0).abs() < 1e-12);
        // One bank, one rank: tRC dominates the 16-beat burst and random
        // traffic pays it on every access.
        let mut narrow = input_with(&t, &cores);
        narrow.banks = 1;
        narrow.ranks = 1;
        let narrow = evaluate(&narrow);
        assert!(narrow.mix_efficiency < 0.2, "{}", narrow.mix_efficiency);
        assert!(narrow.bound_gbs < wide.bound_gbs);
    }

    #[test]
    fn static_allocation_splits_bound_and_leftover() {
        let t = TimingParams::lpddr4_1866();
        let cores = vec![
            CoreSpec::new(CoreKind::Gpu, vec![dma("gpu", 10e9, occupancy())]),
            CoreSpec::new(
                CoreKind::Cpu,
                vec![DmaSpec::new(
                    "cpu",
                    MemOp::Read,
                    TrafficSpec::Elastic,
                    PatternSpec::Random {
                        region_bytes: 1 << 24,
                    },
                    MeterSpec::BestEffort,
                    8,
                )],
            ),
        ];
        let report = evaluate(&input_with(&t, &cores));
        assert_eq!(report.static_alloc.len(), 2);
        let gpu = &report.static_alloc[0];
        let cpu = &report.static_alloc[1];
        assert!(gpu.share > 0.0 && gpu.share < 1.0);
        assert!(cpu.demand_gbs == 0.0);
        assert!(
            (gpu.share + cpu.share - 1.0).abs() < 1e-12,
            "elastic absorbs the leftover"
        );
        // Oversubscribed: rated shares are scaled onto the bound, elastic
        // gets nothing.
        let hog = vec![CoreSpec::new(
            CoreKind::Gpu,
            vec![dma("hog", 100e9, occupancy())],
        )];
        let report = evaluate(&input_with(&t, &hog));
        assert!((report.static_alloc[0].share - 1.0).abs() < 1e-12);
    }

    #[test]
    fn evaluation_is_deterministic_and_serializes() {
        let t = TimingParams::lpddr4_1866();
        let cores = vec![CoreSpec::new(
            CoreKind::Gpu,
            vec![dma("gpu", 6e9, occupancy()), dma("tex", 3e9, occupancy())],
        )];
        let input = input_with(&t, &cores);
        let a = evaluate(&input);
        let b = evaluate(&input);
        assert_eq!(a, b);
        let text = a.to_json_value().to_string_compact();
        assert_eq!(text, b.to_json_value().to_string_compact());
        let doc = json::parse(&text).expect("analytic JSON parses");
        assert!(doc.get("bound_gbs").is_some());
        assert!(doc.get("static_alloc").is_some());
        let summary = Value::Object(a.summary_members()).to_string_compact();
        assert!(summary.contains("\"utilization\""));
    }
}
