//! Determinism and cross-crate consistency: identical configurations must
//! produce bit-identical results, and the DRAM command stream produced by
//! the controller must satisfy the independent timing checker.

use sara::dram::{
    CommandRecord, Dram, DramCommand, DramConfig, Interleave, Issued, TimingChecker, TimingParams,
};
use sara::governor::{run_governed, run_pinned, trace};
use sara::memctrl::{McConfig, MemoryController, PolicyKind, TickResult};
use sara::scenarios::{catalog, Scenario};
use sara::types::{
    Addr, CoreClass, CoreKind, Cycle, DmaId, MegaHertz, MemOp, Priority, Transaction, TransactionId,
};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn identical_runs_are_bit_identical() {
    let camcorder = catalog::camcorder_a().with_policy(PolicyKind::QosRowBuffer);
    let a = camcorder.run_for_ms(1.0).unwrap();
    let b = camcorder.run_for_ms(1.0).unwrap();
    assert_eq!(a.dram.total, b.dram.total);
    assert_eq!(a.noc_forwarded, b.noc_forwarded);
    for (x, y) in a.cores.iter().zip(&b.cores) {
        assert_eq!(x.kind, y.kind);
        assert_eq!(x.completed, y.completed);
        assert_eq!(x.min_npi, y.min_npi);
        assert_eq!(x.priority_residency, y.priority_residency);
    }
    for (kind, series) in &a.npi_series {
        assert_eq!(series, &b.npi_series[kind]);
    }

    // Wider channel counts mean more lanes in the `(cycle, lane)` merge
    // (and the XOR-skewed address map), so this is where an ordering bug
    // would surface first: the catalog's channel-scaled variants, and two
    // unrelated 2-channel workloads re-scaled through `with_channels`.
    let mut subjects = Vec::new();
    for (name, channels) in [("ml-inference-4ch", 4), ("ml-inference-8ch", 8)] {
        let s = catalog::by_name(name).unwrap();
        assert_eq!(s.channels, channels, "{name}: wrong channel count");
        subjects.push(s);
    }
    for name in ["adas", "camcorder-b"] {
        for channels in [4usize, 8] {
            subjects.push(Scenario {
                channels,
                ..catalog::by_name(name).unwrap()
            });
        }
    }
    for s in subjects {
        let json = || s.run_for_ms(0.2).unwrap().to_json();
        assert_eq!(
            json(),
            json(),
            "{} at {} channels: report drifted between runs",
            s.name,
            s.channels
        );
    }
}

/// 64-bit FNV-1a over a report's JSON bytes, as 16 hex digits.
fn fnv1a_hex(bytes: &[u8]) -> String {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

#[path = "support/golden.rs"]
mod golden;

/// Every catalog scenario × every policy, 0.1 ms: the report JSON hashes
/// to the digest committed in `tests/data/catalog-report-digests.json`.
/// This is the check behind "`ENGINE_VERSION` did not need to move": an
/// engine refactor that claims no behaviour change must pass it unmodified.
///
/// A diff here means simulated behaviour (or the report format) changed:
/// if intentional, bump the engine version and regenerate with
/// `SARA_UPDATE_GOLDENS=1 cargo test --test determinism catalog_report`.
/// One `"scenario/policy": "digest"` member per line, so the first
/// differing line names the cell that drifted.
#[test]
fn catalog_report_digests_match_the_committed_golden() {
    let mut digests = Vec::new();
    for s in catalog::builtin() {
        for policy in PolicyKind::ALL {
            let report = s.clone().with_policy(policy).run_for_ms(0.1).unwrap();
            digests.push((
                format!("{}/{}", s.name, policy.name()),
                json::Value::from(fnv1a_hex(report.to_json().as_bytes())),
            ));
        }
    }
    let emitted = json::Value::Object(digests).to_string_pretty() + "\n";
    golden::check("catalog-report-digests.json", &emitted);
}

/// `tests/data/engine-digests.txt` holds one `workload seconds digest` row
/// per benchmark workload: the benchmark's `sim_digest` at seed 1, which
/// CI checks row by row. The rows must name exactly `BENCHMARK.json`'s
/// workloads, so a renamed workload cannot leave CI checking nothing.
#[test]
fn engine_digest_file_covers_every_benchmark_workload() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifest = std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap();
    let manifest = json::parse(&manifest).unwrap();
    let workloads: Vec<&str> = manifest
        .get("workloads")
        .and_then(json::Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(json::Value::as_str).unwrap())
        .collect();
    let text = std::fs::read_to_string(golden::path("engine-digests.txt")).unwrap();
    let rows = text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'));
    let mut named = Vec::new();
    for row in rows {
        let fields: Vec<&str> = row.split_whitespace().collect();
        let [workload, seconds, digest] = fields[..] else {
            panic!("{row:?}: expected `workload seconds digest`");
        };
        assert!(
            seconds.parse::<f64>().is_ok_and(|s| s > 0.0),
            "{row:?}: seconds"
        );
        assert!(
            digest.len() == 16 && digest.bytes().all(|b| b.is_ascii_hexdigit()),
            "{row:?}: a digest is 16 hex digits"
        );
        named.push(workload);
    }
    assert_eq!(named, workloads, "engine-digests.txt vs BENCHMARK.json");
}

/// The refusal and forward counters, in readable form where the digest
/// above only says "differs": per-class `rejected`, the NoC root's
/// `blocked` and `noc_forwarded` for two QoS cells at 0.5 ms, as the
/// offer-by-offer root counted them, pinned in
/// `tests/data/refusal-counts.txt` (one counter per line). Every refused
/// root head counts once in its class's `rejected` and once in `blocked`;
/// leaves never refuse.
#[test]
fn refusal_counters_match_the_pinned_counts() {
    let mut pinned =
        String::from("# QoS at 0.5 ms: scenario, counter, count (tests/determinism.rs)\n");
    for name in ["camcorder-a", "ml-inference-8ch"] {
        let report = catalog::by_name(name)
            .unwrap()
            .with_policy(PolicyKind::Priority)
            .run_for_ms(0.5)
            .unwrap();
        let telemetry = &report.telemetry;
        let mut pin = |counter: &str, count: u64| {
            pinned += &format!("{name:<16} {counter:<17} {count}\n");
        };
        for class in CoreClass::ALL {
            pin(
                &format!("rejected.{}", class.name()),
                report.mc.class(class).rejected,
            );
        }
        pin("noc_root.blocked", telemetry.noc_root.blocked);
        pin("noc_forwarded", report.noc_forwarded);
        assert_eq!(
            report.mc.total_rejected(),
            telemetry.noc_root.blocked,
            "{name}: rejected summed over classes vs noc_root.blocked"
        );
        assert!(telemetry.noc_leaves.iter().all(|leaf| leaf.blocked == 0));
    }
    golden::check("refusal-counts.txt", &pinned);
}

/// The governor's per-epoch trace — JSON and CSV — is part of the
/// determinism contract: identical inputs must serialize to identical
/// bytes, including the online frequency/policy actuation inside the run
/// and the pinned static baseline alongside it.
#[test]
fn governor_epoch_trace_json_is_byte_identical() {
    let scenario = catalog::by_name("adas-overload").unwrap();
    let spec = scenario
        .governor
        .clone()
        .expect("adas-overload carries a stanza");
    let run = || {
        let governed = run_governed(&scenario, &spec, 1.0).unwrap();
        let pinned = run_pinned(&scenario, &spec, MegaHertz::new(spec.start_mhz()), 1.0).unwrap();
        let json = trace::trace_json(&[(governed.clone(), Some(pinned))]);
        let csv = trace::trace_csv(&[governed]);
        (json, csv)
    };
    let (json_a, csv_a) = run();
    let (json_b, csv_b) = run();
    assert_eq!(json_a, json_b, "governed JSON trace drifted between runs");
    assert_eq!(csv_a, csv_b, "governed CSV trace drifted between runs");
    // And the trace really recorded online adaptation, not a static run.
    assert!(csv_a.lines().any(|l| l.contains(",up:")), "{csv_a}");

    // Every catalog scenario under its own governor spec — including
    // per-channel control where the spec enables it.
    for s in catalog::builtin() {
        let spec = s.governor_spec();
        let text = || {
            let out = run_governed(&s, &spec, 0.6).unwrap();
            trace::trace_json(&[(out.clone(), None)]) + &trace::trace_csv(&[out])
        };
        assert_eq!(
            text(),
            text(),
            "{}: governed trace drifted between runs",
            s.name
        );
    }
}

#[test]
fn different_seeds_change_stochastic_cores_only_slightly() {
    use sara::sim::Simulation;
    let camcorder = catalog::camcorder_a().with_policy(PolicyKind::Priority);
    let mut cfg_a = camcorder.config().unwrap();
    cfg_a.seed = 1;
    let mut cfg_b = camcorder.config().unwrap();
    cfg_b.seed = 2;
    let a = Simulation::new(cfg_a).unwrap().run_for_ms(3.0);
    let b = Simulation::new(cfg_b).unwrap().run_for_ms(3.0);
    // Different Poisson arrivals → different transaction counts...
    assert_ne!(
        a.core(CoreKind::Dsp).unwrap().completed,
        b.core(CoreKind::Dsp).unwrap().completed
    );
    // ...but the system conclusion (all targets met) must be seed-robust.
    assert!(a.all_targets_met());
    assert!(b.all_targets_met());
}

/// Drives the controller with random traffic and validates every issued
/// DRAM command against the independent shadow checker, under a policy
/// with the row guard (QoS-RB) and one without (FCFS).
#[test]
fn controller_command_stream_passes_timing_checker() {
    for policy in [PolicyKind::QosRowBuffer, PolicyKind::Fcfs] {
        // Refresh is internal to the model (the checker cannot observe it),
        // so cross-validate with refresh disabled.
        let timing = TimingParams::builder()
            .refresh_enabled(false)
            .build()
            .unwrap();
        let cfg = DramConfig::builder().timing(timing).build().unwrap();
        let mut dram = Dram::new(cfg.clone(), Interleave::default()).unwrap();
        let mut checker = TimingChecker::new(cfg);
        let mut mc = MemoryController::new(McConfig::builder(policy).build().unwrap());

        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let mut now = Cycle::ZERO;
        let mut id = 0u64;
        let mut issued = 0u64;
        let kinds = [
            CoreKind::Cpu,
            CoreKind::Gpu,
            CoreKind::Dsp,
            CoreKind::Display,
            CoreKind::Usb,
        ];

        while issued < 20_000 {
            // Keep the queues pressurised with random traffic.
            for _ in 0..4 {
                let core = kinds[rng.gen_range(0..kinds.len())];
                let txn = Transaction {
                    id: TransactionId::new(id),
                    dma: DmaId::new((id % 7) as u16),
                    core,
                    class: core.class(),
                    op: if rng.gen_bool(0.6) {
                        MemOp::Read
                    } else {
                        MemOp::Write
                    },
                    addr: Addr::new(rng.gen_range(0..(1u64 << 28)) & !127),
                    bytes: 128,
                    injected_at: now,
                    priority: Priority::new(rng.gen_range(0..8)),
                    urgent: rng.gen_bool(0.1),
                };
                if mc.try_accept(txn, now, &dram).is_ok() {
                    id += 1;
                }
            }
            for ch in 0..2 {
                if let TickResult::Issued { .. } = mc.tick(ch, now, &mut dram) {
                    issued += 1;
                    let rec = dram
                        .channel(ch)
                        .last_issued()
                        .expect("the tick just issued a command");
                    assert_eq!(rec.at, now, "{policy:?}: record is this tick's command");
                    checker
                        .check(&rec)
                        .unwrap_or_else(|v| panic!("{policy:?} issued illegal command {rec}: {v}"));
                }
            }
            now += 1;
            if now.as_u64() > 10_000_000 {
                panic!("{policy:?} failed to issue 20k commands in 10M cycles");
            }
        }
        // Sanity: the run really exercised both channels and all queues.
        assert!(dram
            .stats()
            .per_channel
            .iter()
            .all(|c| c.column_accesses() > 100));
    }
}

/// Random command streams at the device level must agree with the checker.
#[test]
fn device_vs_checker_random_streams() {
    let timing = TimingParams::builder()
        .refresh_enabled(false)
        .build()
        .unwrap();
    let cfg = DramConfig::builder().timing(timing).build().unwrap();
    let mut dram = Dram::new(cfg.clone(), Interleave::default()).unwrap();
    let mut checker = TimingChecker::new(cfg);
    let mut rng = StdRng::seed_from_u64(7);

    let mut now = Cycle::ZERO;
    for _ in 0..5_000 {
        let addr = Addr::new(rng.gen_range(0..(1u64 << 26)) & !127);
        let op = if rng.gen_bool(0.5) {
            MemOp::Read
        } else {
            MemOp::Write
        };
        let loc = dram.decode(addr);
        // Issue every command of this transaction at its earliest legal
        // time, mirroring into the checker.
        loop {
            now = now.max(dram.earliest(&loc, op));
            let issued = dram.issue(&loc, op, now);
            let cmd = match issued {
                Issued::Activate => DramCommand::Activate { row: loc.row },
                Issued::Precharge => DramCommand::Precharge,
                Issued::Read { .. } => DramCommand::Read,
                Issued::Write { .. } => DramCommand::Write,
            };
            checker
                .check(&CommandRecord { at: now, loc, cmd })
                .unwrap_or_else(|v| panic!("model issued illegal command: {v} at {now}"));
            if issued.completion().is_some() {
                break;
            }
        }
    }
}
