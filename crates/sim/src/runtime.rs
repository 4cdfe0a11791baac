//! Lowering workload specs into runnable DMA state.

use sara_core::{
    BandwidthMeter, BoxedMeter, FrameProgressMeter, LatencyMeter, OccupancyMeter, PriorityMap,
    SelfAwareDma, WorkUnitMeter,
};
use sara_dram::BURST_BYTES;
use sara_types::{Clock, ConfigError, CoreClass, CoreKind, MemOp, PriorityBits};
use sara_workloads::{
    AddressPattern, BatchStimulus, BestEffortMeter, BurstStimulus, ConstantRateStimulus, CoreSpec,
    DmaSpec, ElasticStimulus, MeterSpec, PatternSpec, PoissonStimulus, Stimulus, TrafficSpec,
};

/// Runtime state of one DMA engine.
#[derive(Debug)]
pub(crate) struct DmaRuntime {
    /// Owning core kind.
    pub core: CoreKind,
    /// Traffic class.
    pub class: CoreClass,
    /// Transfer direction.
    pub op: MemOp,
    /// Release process.
    pub stimulus: Box<dyn Stimulus>,
    /// Address generator.
    pub pattern: AddressPattern,
    /// SARA meter + priority adaptation.
    pub adapter: SelfAwareDma,
    /// Outstanding-request window.
    pub window: usize,
    /// Transactions injected so far.
    pub injected: u64,
    /// Transactions currently in flight.
    pub inflight: usize,
    /// Whether injection is currently stalled on NoC backpressure.
    pub blocked_on_noc: bool,
}

/// Allocates private, 1 MiB-aligned DRAM regions to DMAs.
#[derive(Debug)]
struct RegionAllocator {
    next: u64,
    capacity: u64,
}

impl RegionAllocator {
    fn new(capacity: u64) -> Self {
        RegionAllocator { next: 0, capacity }
    }

    fn alloc(&mut self, bytes: u64) -> Result<u64, ConfigError> {
        const ALIGN: u64 = 1 << 20;
        let base = self.next;
        let len = bytes.div_ceil(ALIGN) * ALIGN;
        if base + len > self.capacity {
            return Err(ConfigError::new(format!(
                "workload regions exceed DRAM capacity ({} > {})",
                base + len,
                self.capacity
            )));
        }
        self.next = base + len;
        Ok(base)
    }
}

/// Lowers core specs into DMA runtimes for a given clock and frame period.
///
/// # Errors
///
/// Returns [`ConfigError`] when a meter spec is incompatible with its
/// traffic spec (e.g. an occupancy meter on bursty traffic) or the address
/// regions exceed DRAM capacity.
pub(crate) fn build_dmas(
    cores: &[CoreSpec],
    clock: Clock,
    frame_period_cycles: u64,
    dram_capacity: u64,
    seed: u64,
    priority_bits: PriorityBits,
) -> Result<Vec<DmaRuntime>, ConfigError> {
    let mut regions = RegionAllocator::new(dram_capacity);
    let mut out = Vec::new();
    for core in cores {
        for dma in &core.dmas {
            let index = out.len();
            out.push(build_dma(
                core.kind,
                dma,
                clock,
                frame_period_cycles,
                &mut regions,
                seed ^ (index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                priority_bits,
            )?);
        }
    }
    if out.is_empty() {
        return Err(ConfigError::new("workload has no DMAs"));
    }
    Ok(out)
}

fn build_dma(
    kind: CoreKind,
    spec: &DmaSpec,
    clock: Clock,
    frame_period_cycles: u64,
    regions: &mut RegionAllocator,
    seed: u64,
    priority_bits: PriorityBits,
) -> Result<DmaRuntime, ConfigError> {
    if spec.window == 0 {
        return Err(ConfigError::new(format!(
            "{}: outstanding window must be positive",
            spec.name
        )));
    }
    let burst = BURST_BYTES as u64;

    // --- stimulus -------------------------------------------------------
    let frame_seconds = clock.ns_from_cycles(frame_period_cycles) * 1e-9;
    let bytes_per_frame = |rate: f64| -> u64 {
        let b = (rate * frame_seconds).round() as u64;
        b.div_ceil(burst) * burst
    };
    let interval = |rate: f64| -> f64 { burst as f64 / clock.bytes_per_cycle(rate) };
    let stimulus: Box<dyn Stimulus> = match &spec.traffic {
        TrafficSpec::Burst { bytes_per_s } => Box::new(BurstStimulus::new(
            bytes_per_frame(*bytes_per_s) / burst,
            frame_period_cycles,
        )),
        TrafficSpec::Constant { bytes_per_s } => {
            Box::new(ConstantRateStimulus::new(interval(*bytes_per_s)))
        }
        TrafficSpec::Poisson { bytes_per_s } => {
            Box::new(PoissonStimulus::new(interval(*bytes_per_s), seed))
        }
        TrafficSpec::Batch {
            unit_bytes,
            period_ns,
            ..
        } => Box::new(BatchStimulus::new(
            unit_bytes.div_ceil(burst),
            clock.cycles_from_ns(*period_ns),
        )),
        TrafficSpec::Elastic => Box::new(ElasticStimulus::new()),
    };

    // --- meter ----------------------------------------------------------
    let meter: BoxedMeter = match &spec.meter {
        MeterSpec::Latency { limit_ns, alpha } => Box::new(LatencyMeter::new(
            clock.cycles_from_ns(*limit_ns) as f64,
            *alpha,
        )),
        MeterSpec::FrameRate => match &spec.traffic {
            TrafficSpec::Burst { bytes_per_s } => Box::new(FrameProgressMeter::new(
                bytes_per_frame(*bytes_per_s),
                frame_period_cycles,
            )),
            other => {
                return Err(ConfigError::new(format!(
                    "{}: frame-rate meter needs Burst traffic, got {other:?}",
                    spec.name
                )))
            }
        },
        MeterSpec::Occupancy {
            direction,
            capacity_bytes,
        } => match &spec.traffic {
            // Start with prefetch headroom on the healthy side of the
            // half-full reference so service jitter does not oscillate the
            // health reading around exactly 1.0.
            TrafficSpec::Constant { bytes_per_s } => Box::new(OccupancyMeter::with_initial_fill(
                *direction,
                *capacity_bytes,
                clock.bytes_per_cycle(*bytes_per_s),
                match direction {
                    sara_core::BufferDirection::ConstantDrain => 0.55,
                    sara_core::BufferDirection::ConstantFill => 0.45,
                },
            )),
            other => {
                return Err(ConfigError::new(format!(
                    "{}: occupancy meter needs Constant traffic, got {other:?}",
                    spec.name
                )))
            }
        },
        MeterSpec::Bandwidth {
            target_fraction,
            window_ns,
        } => {
            let rate = spec.traffic.mean_bytes_per_s().ok_or_else(|| {
                ConfigError::new(format!(
                    "{}: bandwidth meter needs rated traffic",
                    spec.name
                ))
            })?;
            Box::new(BandwidthMeter::new(
                target_fraction * clock.bytes_per_cycle(rate),
                clock.cycles_from_ns(*window_ns),
            ))
        }
        MeterSpec::WorkUnit => match &spec.traffic {
            TrafficSpec::Batch {
                unit_bytes,
                period_ns,
                deadline_ns,
            } => Box::new(WorkUnitMeter::new(
                unit_bytes.div_ceil(burst) * burst,
                clock.cycles_from_ns(*period_ns),
                clock.cycles_from_ns(*deadline_ns),
            )),
            other => {
                return Err(ConfigError::new(format!(
                    "{}: work-unit meter needs Batch traffic, got {other:?}",
                    spec.name
                )))
            }
        },
        MeterSpec::BestEffort => Box::new(BestEffortMeter::new()),
    };

    // --- address pattern --------------------------------------------------
    let region_bytes = spec.pattern.region_bytes();
    if region_bytes < burst {
        return Err(ConfigError::new(format!(
            "{}: region smaller than one burst",
            spec.name
        )));
    }
    let base = regions.alloc(region_bytes)?;
    let pattern = match spec.pattern {
        PatternSpec::Sequential { .. } => AddressPattern::sequential(base, region_bytes),
        PatternSpec::Strided { stride_bytes, .. } => {
            AddressPattern::strided(base, region_bytes, stride_bytes)
        }
        PatternSpec::Random { .. } => AddressPattern::random(base, region_bytes, seed),
    };

    // Per-core map customisation (§3.2): latency-bounded cores use the
    // Fig. 4(a) map (floor at level 3 under load); hard-deadline work-unit
    // cores escalate early (level 6 while still on pace); everything else
    // uses the default 3-bit ramp. Non-default encoding widths (the k-bits
    // ablation) use a uniform linear ramp at the requested width.
    let map = match spec.meter {
        MeterSpec::Latency { .. } => PriorityMap::latency_sensitive_for(priority_bits)?,
        MeterSpec::WorkUnit => PriorityMap::deadline_for(priority_bits)?,
        _ if priority_bits == PriorityBits::PAPER => PriorityMap::paper_default(),
        _ => PriorityMap::linear(priority_bits, 1.25, 0.70)?,
    };
    Ok(DmaRuntime {
        core: kind,
        class: kind.class(),
        op: spec.op,
        stimulus,
        pattern,
        adapter: SelfAwareDma::new(meter, map),
        window: spec.window,
        injected: 0,
        inflight: 0,
        blocked_on_noc: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sara_types::MegaHertz;
    use sara_workloads::builders::*;

    fn clock() -> Clock {
        Clock::new(MegaHertz::new(1866))
    }

    /// A camcorder-sized workload: one core of every kind with a read and
    /// a write DMA, 28 in all, cycling through every traffic, pattern and
    /// meter arm.
    fn every_kind_twice() -> Vec<CoreSpec> {
        let arms = [
            (burst_mb(500.0), seq_mib(32), frame_rate()),
            (
                constant_mb(400.0),
                strided_mib(32, 64),
                occupancy_fill_kib(256),
            ),
            (poisson_mb(100.0), random_mib(16), latency_ns(500.0, 0.1)),
            (batch_kib(256, 4.0e6, 2.0e6), seq_mib(8), work_unit()),
            (constant_mb(200.0), seq_mib(8), bandwidth(0.9, 2.0e5)),
            (elastic(), seq_mib(64), best_effort()),
            (constant_mb(900.0), seq_mib(64), occupancy_drain_kib(512)),
        ];
        let dma = |i: usize, op: MemOp| {
            let (traffic, pattern, meter) = arms[i % arms.len()].clone();
            DmaSpec::new(format!("dma-{i}"), op, traffic, pattern, meter, 4)
        };
        let core = |(i, &kind): (usize, &CoreKind)| {
            CoreSpec::new(
                kind,
                vec![dma(2 * i, MemOp::Read), dma(2 * i + 1, MemOp::Write)],
            )
        };
        CoreKind::ALL.iter().enumerate().map(core).collect()
    }

    #[test]
    fn builds_full_camcorder() {
        let dmas = build_dmas(
            &every_kind_twice(),
            clock(),
            62_200_000,
            2 << 30,
            7,
            PriorityBits::PAPER,
        )
        .unwrap();
        // 14 cores, two DMAs each.
        assert!(dmas.len() >= 20, "got {}", dmas.len());
        // Regions must be disjoint.
        let mut regions: Vec<(u64, u64)> = dmas.iter().map(|d| d.pattern.region()).collect();
        regions.sort();
        for pair in regions.windows(2) {
            assert!(pair[0].0 + pair[0].1 <= pair[1].0, "overlap: {pair:?}");
        }
    }

    #[test]
    fn meter_traffic_mismatch_rejected() {
        use sara_types::MemOp;
        use sara_workloads::{CoreSpec, DmaSpec};
        let bad = CoreSpec::new(
            CoreKind::Display,
            vec![DmaSpec::new(
                "display-rd",
                MemOp::Read,
                TrafficSpec::Elastic,
                PatternSpec::Sequential {
                    region_bytes: 1 << 20,
                },
                MeterSpec::FrameRate,
                4,
            )],
        );
        assert!(build_dmas(&[bad], clock(), 62_200_000, 2 << 30, 7, PriorityBits::PAPER).is_err());
    }

    #[test]
    fn oversized_regions_rejected() {
        use sara_types::MemOp;
        use sara_workloads::{CoreSpec, DmaSpec};
        let big = CoreSpec::new(
            CoreKind::Cpu,
            vec![DmaSpec::new(
                "cpu",
                MemOp::Read,
                TrafficSpec::Elastic,
                PatternSpec::Sequential {
                    region_bytes: 3 << 30,
                },
                MeterSpec::BestEffort,
                4,
            )],
        );
        assert!(build_dmas(&[big], clock(), 62_200_000, 2 << 30, 7, PriorityBits::PAPER).is_err());
    }

    #[test]
    fn empty_workload_rejected() {
        assert!(build_dmas(&[], clock(), 1000, 2 << 30, 7, PriorityBits::PAPER).is_err());
    }
}
