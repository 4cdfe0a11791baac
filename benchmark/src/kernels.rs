//! Layer kernels: direct loops over one layer's public functions with
//! fixed iteration counts, each reported as the quiet-host value
//! ([`stats::quiet`]) of [`BATCHES`] batches. They run the same in every traced run, whatever the workload:
//! they say what one decision of a layer costs, the replay spans say how
//! much of a job that layer is.

use std::hint::black_box;
use std::time::Instant;

use sara_core::{FrameProgressMeter, LatencyMeter, Npi, PerformanceMeter, PriorityMap};
use sara_dram::{Dram, DramConfig, Interleave, Location};
use sara_governor::run_governed;
use sara_memctrl::{
    select, Candidate, McConfig, MemoryController, PolicyKind, PolicyState, TickResult,
};
use sara_noc::{ArbiterKind, Contender, Noc, NocConfig};
use sara_scenarios::{
    catalog, cell_fingerprint, screen_cell, CellOutcome, CellSpec, MatrixCell, Scenario,
};
use sara_serve::ResultCache;
use sara_telemetry::{prometheus, Histogram, Registry};
use sara_types::{
    Addr, ConfigError, CoreClass, CoreKind, Cycle, DmaId, MegaHertz, MemOp, Priority, Transaction,
    TransactionId,
};

use crate::engine::run_cell;
use crate::outcome::{Checks, Reading};
use crate::stats;

/// Batches per kernel; the reported figure is their quiet-host value.
const BATCHES: usize = 11;

/// Quiet-host nanoseconds per call of `op` from [`BATCHES`] batches of
/// `iters` calls.
fn ns_per_op(iters: usize, mut op: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                op();
            }
            t0.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .collect();
    stats::quiet(&batches)
}

fn txn(id: u64, class: CoreClass, addr: u64, priority: u8, now: Cycle) -> Transaction {
    Transaction {
        id: TransactionId::new(id),
        dma: DmaId::new((id % 21) as u16),
        core: CoreKind::Dsp,
        class,
        op: MemOp::Read,
        addr: Addr::new(addr),
        bytes: 128,
        injected_at: now,
        priority: Priority::new(priority),
        urgent: false,
    }
}

fn dram_kernels(out: &mut Vec<Reading>) -> Result<(), ConfigError> {
    let new_dram = || Dram::new(DramConfig::table1_1866(), Interleave::default());

    let dram = new_dram()?;
    let mut addr = 0u64;
    let decode = ns_per_op(400_000, || {
        addr = addr.wrapping_add(0x1_2345_6780);
        black_box(dram.decode(Addr::new(addr)));
    });
    out.push(Reading::new("dram.decode_ns", decode, BATCHES));

    // One whole read transaction (every command up to the column burst):
    // sequential addresses mostly hit the open row, alternating rows of
    // one bank conflict every time.
    let issue_all = |dram: &mut Dram, now: &mut Cycle, loc: &Location| loop {
        *now = (*now).max(dram.earliest(loc, MemOp::Read));
        if dram.issue(loc, MemOp::Read, *now).completion().is_some() {
            break;
        }
    };
    let mut dram = new_dram()?;
    let (mut now, mut addr) = (Cycle::ZERO, 0u64);
    let seq = ns_per_op(100_000, || {
        let loc = dram.decode(Addr::new(addr));
        addr = (addr + 128) & ((1 << 28) - 1);
        issue_all(&mut dram, &mut now, &loc);
    });
    out.push(Reading::new("dram.issue_seq_ns", seq, BATCHES));

    let mut dram = new_dram()?;
    let (mut now, mut row) = (Cycle::ZERO, 0u32);
    let conflict = ns_per_op(50_000, || {
        row ^= 1;
        let loc = Location {
            channel: 0,
            rank: 0,
            bank: 0,
            row,
            col: 0,
        };
        issue_all(&mut dram, &mut now, &loc);
    });
    out.push(Reading::new("dram.issue_conflict_ns", conflict, BATCHES));
    black_box(now);
    Ok(())
}

fn memctrl_kernels(out: &mut Vec<Reading>) -> Result<(), ConfigError> {
    // A full 42-entry candidate set, the selection loop's worst case and
    // what `frame_dense` presents on almost every decision.
    let candidates: Vec<Candidate> = (0..42)
        .map(|i| Candidate {
            queue: i % 5,
            seq: (i * 37 % 42) as u64,
            dma: DmaId::new((i % 21) as u16),
            priority: Priority::new((i % 8) as u8),
            effective_priority: (i % 8) as u8,
            urgent: i % 5 == 0,
            row_hit: i % 3 == 0,
        })
        .collect();
    for policy in PolicyKind::ALL {
        let mut state = PolicyState::default();
        let ns = ns_per_op(40_000, || {
            black_box(select(
                policy,
                black_box(&candidates),
                &mut state,
                Priority::new(6),
            ));
        });
        let name = format!("memctrl.select42_ns.{}", policy.name());
        out.push(Reading::new(&name, ns, BATCHES));
    }

    // Accept one transaction and tick its channel until it completes.
    let mut dram = Dram::new(DramConfig::table1_1866(), Interleave::default())?;
    let mut mc = MemoryController::new(McConfig::builder(PolicyKind::Priority).build()?);
    let (mut now, mut id) = (Cycle::ZERO, 0u64);
    let ns = ns_per_op(50_000, || {
        id += 1;
        let t = txn(
            id,
            CoreClass::ALL[(id % 5) as usize],
            id * 128,
            (id % 8) as u8,
            now,
        );
        let channel = dram.decode(t.addr).channel;
        mc.try_accept(t, now, &dram)
            .expect("the controller is empty");
        loop {
            match mc.tick(channel, now, &mut dram) {
                TickResult::Issued { completed: Some(_) } => break,
                TickResult::Issued { completed: None } => now += 1,
                TickResult::Idle { retry_at: Some(at) } => now = at,
                TickResult::Idle { retry_at: None } => unreachable!("work is queued"),
            }
        }
        now += 1;
    });
    out.push(Reading::new("memctrl.accept_tick_ns", ns, BATCHES));
    Ok(())
}

fn noc_kernels(out: &mut Vec<Reading>) -> Result<(), ConfigError> {
    // camcorder-a's shape: 21 DMAs spread over the five class leaves.
    let classes: Vec<CoreClass> = (0..21).map(|i| CoreClass::ALL[i % 5]).collect();
    let mut noc = Noc::class_tree(NocConfig::new(ArbiterKind::Priority), &classes)?;
    let (mut now, mut id) = (Cycle::ZERO, 0u64);
    let ns = ns_per_op(50_000, || {
        id += 1;
        let dma = (id % 21) as usize;
        let t = txn(id, classes[dma], id * 128, (id % 8) as u8, now);
        noc.inject(dma, now, t).expect("the leaf port is empty");
        // Pump until the transaction has left the root.
        let mut delivered = 0;
        while delivered == 0 {
            let outcome = noc.pump(now, &mut |t| {
                black_box(t);
                Ok(())
            });
            delivered = outcome.delivered;
            if delivered == 0 {
                now = outcome.next_action.expect("a queued transaction can move");
            }
        }
    });
    out.push(Reading::new("noc.inject_pump_ns", ns, BATCHES));

    let contenders: Vec<Contender> = (0..5)
        .map(|port| Contender {
            port,
            id: TransactionId::new((port * 37 % 5) as u64),
            priority: Priority::new((port % 4) as u8),
            urgent: port == 3,
        })
        .collect();
    let mut cursor = 0usize;
    let ns = ns_per_op(400_000, || {
        cursor += 1;
        black_box(sara_noc::select(
            ArbiterKind::Priority,
            black_box(&contenders),
            cursor,
        ));
    });
    out.push(Reading::new("noc.arbiter_select_ns", ns, BATCHES));
    Ok(())
}

fn core_kernels(out: &mut Vec<Reading>) {
    let mut meter = LatencyMeter::new(653.0, 0.05);
    let mut now = Cycle::ZERO;
    let ns = ns_per_op(400_000, || {
        now += 100;
        meter.on_inject(now);
        meter.on_complete(now + 1, 128, 400, MemOp::Read);
        black_box(meter.npi(now + 1));
    });
    out.push(Reading::new("core.latency_meter_ns", ns, BATCHES));

    let mut meter = FrameProgressMeter::new(40_000_000, 62_000_000);
    let mut now = Cycle::ZERO;
    let ns = ns_per_op(400_000, || {
        now += 64;
        meter.on_complete(now, 128, 500, MemOp::Read);
        black_box(meter.npi(now));
    });
    out.push(Reading::new("core.frame_meter_ns", ns, BATCHES));

    let map = PriorityMap::paper_default();
    let mut x = 0.0f64;
    let ns = ns_per_op(400_000, || {
        x = (x + 0.013) % 2.0;
        black_box(map.map(Npi::new(x)));
    });
    out.push(Reading::new("core.priority_lut_ns", ns, BATCHES));
}

fn cell_of(scenario: &Scenario, freq: MegaHertz) -> CellSpec {
    CellSpec {
        scenario: 0,
        policy: PolicyKind::Priority,
        freq,
        channels: scenario.channels,
        duration_ms: 0.2,
    }
}

/// The per-request work of the harness and the service around a cell:
/// screening, fingerprinting, parsing, cache read, record emit.
fn harness_kernels(camcorder: &Scenario, out: &mut Vec<Reading>) -> Result<(), ConfigError> {
    let us = |ns: f64| ns / 1e3;
    let saturation = catalog::saturation();
    let slow = cell_of(&saturation, MegaHertz::new(266));
    screen_cell(&saturation, &slow)?;
    let ns = ns_per_op(200, || {
        black_box(screen_cell(&saturation, &slow).expect("checked above"));
    });
    out.push(Reading::new("analytic.screen_cell_us", us(ns), BATCHES));

    let cell = cell_of(camcorder, camcorder.freq);
    let ns = ns_per_op(200, || {
        black_box(cell_fingerprint(camcorder, &cell, sara_sim::ENGINE_VERSION));
    });
    out.push(Reading::new("scenarios.fingerprint_us", us(ns), BATCHES));

    let text = camcorder.to_json();
    Scenario::from_json_str(&text)?;
    let ns = ns_per_op(200, || {
        black_box(Scenario::from_json_str(&text).expect("checked above"));
    });
    out.push(Reading::new("scenarios.parse_us", us(ns), BATCHES));
    let ns = ns_per_op(200, || {
        black_box(camcorder.to_json());
    });
    out.push(Reading::new("scenarios.to_json_us", us(ns), BATCHES));

    let request = "{\"format\":\"sara-serve/v1\",\"type\":\"submit\",\"id\":\"k\",\"scenarios\":[\"camcorder-a\"],\"duration_ms\":0.2}";
    let ns = ns_per_op(10_000, || {
        black_box(sara_serve::protocol::parse_request(request).is_ok());
    });
    out.push(Reading::new("serve.parse_request_us", us(ns), BATCHES));

    // One cached report: what a hit clones out, and what a cell record
    // costs to build and emit.
    let report = run_cell(camcorder, PolicyKind::Priority, 0.2, false)?.report;
    let mut cache = ResultCache::new();
    cache.insert(42, report.clone());
    let ns = ns_per_op(2_000, || {
        black_box(cache.lookup(42));
    });
    out.push(Reading::new("serve.cache_hit_us", us(ns), BATCHES));

    let matrix_cell = MatrixCell {
        scenario: camcorder.name.clone(),
        policy: PolicyKind::Priority,
        freq: camcorder.freq,
        channels: camcorder.channels,
        outcome: CellOutcome::Simulated(Box::new(report.clone())),
    };
    let mut sink = Vec::with_capacity(32 << 10);
    let ns = ns_per_op(200, || {
        sink.clear();
        sara_serve::protocol::cell_record("k", 0, &matrix_cell)
            .write_ndjson_line(&mut sink)
            .expect("writing to a Vec cannot fail");
    });
    out.push(Reading::new("serve.cell_record_us", us(ns), BATCHES));

    let value = report.to_json_value();
    let emitted = value.to_string_compact();
    let mb = emitted.len() as f64 / 1e6;
    let ns = ns_per_op(200, || {
        black_box(value.to_string_compact());
    });
    out.push(Reading::new("json.emit_mb_s", mb / (ns / 1e9), BATCHES));
    let ns = ns_per_op(100, || {
        black_box(json::parse(&emitted).is_ok());
    });
    out.push(Reading::new("json.parse_mb_s", mb / (ns / 1e9), BATCHES));
    Ok(())
}

fn telemetry_kernels(out: &mut Vec<Reading>) {
    let mut hist = Histogram::new();
    let mut v = 1u64;
    let ns = ns_per_op(400_000, || {
        v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        hist.record(v >> 40);
    });
    black_box(hist.count());
    out.push(Reading::new("telemetry.hist_record_ns", ns, BATCHES));

    // The serve registry's shape: eight counters, four stage histograms.
    let mut registry = Registry::new();
    for name in sara_serve::COUNTERS {
        registry.counter(name).add(1234);
    }
    for name in sara_serve::STAGE_HISTOGRAMS {
        for i in 0..1000u64 {
            registry.histogram(name).record(i * i);
        }
    }
    let ns = ns_per_op(200, || {
        black_box(prometheus::encode(&registry));
    });
    out.push(Reading::new(
        "telemetry.prometheus_encode_us",
        ns / 1e3,
        BATCHES,
    ));
}

/// Whole-run ratios: parallel over sequential lane stepping on the
/// 8-lane scenario (reports must be byte-identical), and a governed run
/// over a plain QoS run on `camcorder-a`. The first needs every core of
/// the host: call it unpinned.
///
/// # Errors
///
/// Returns the [`ConfigError`] of a scenario that fails to lower.
pub fn ratios(checks: &mut Checks, out: &mut Vec<Reading>) -> Result<(), ConfigError> {
    let camcorder = &catalog::camcorder_a();
    const PAIRS: usize = 3;
    // Short on purpose: on a two-core host the eight-worker lane pool runs
    // about a hundred times slower than sequential stepping.
    const PAR_MS: f64 = 0.1;
    let lanes = catalog::ml_inference_8ch();
    let mut ratios = Vec::with_capacity(PAIRS);
    for _ in 0..PAIRS {
        let seq = run_cell(&lanes, PolicyKind::Priority, PAR_MS, false)?;
        let par = run_cell(&lanes, PolicyKind::Priority, PAR_MS, true)?;
        checks.op(seq.bytes == par.bytes, || {
            "parallel lane stepping changed the report bytes".to_string()
        });
        ratios.push(par.secs(1, 2) / seq.secs(1, 2));
    }
    out.push(Reading::new(
        "sim.par_over_seq",
        stats::median(&ratios),
        PAIRS,
    ));

    let spec = camcorder.governor_spec();
    let mut ratios = Vec::with_capacity(PAIRS);
    for _ in 0..PAIRS {
        let t0 = Instant::now();
        black_box(run_governed(camcorder, &spec, 1.0)?);
        let governed = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        black_box(
            camcorder
                .clone()
                .with_policy(PolicyKind::Priority)
                .run_for_ms(1.0)?,
        );
        ratios.push(governed / t1.elapsed().as_secs_f64());
    }
    out.push(Reading::new(
        "governor.governed_over_plain",
        stats::median(&ratios),
        PAIRS,
    ));
    Ok(())
}

/// Runs every single-core layer kernel.
///
/// # Errors
///
/// Returns the [`ConfigError`] of a substrate that fails to build.
pub fn run() -> Result<Vec<Reading>, ConfigError> {
    let camcorder = catalog::camcorder_a();
    let mut out = Vec::new();
    dram_kernels(&mut out)?;
    memctrl_kernels(&mut out)?;
    noc_kernels(&mut out)?;
    core_kernels(&mut out);
    harness_kernels(&camcorder, &mut out)?;
    telemetry_kernels(&mut out);
    Ok(out)
}
