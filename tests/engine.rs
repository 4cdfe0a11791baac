//! The engine on the paper's camcorder: how both Table 1 cases lower,
//! resumable runs, the governor's online actuators and health snapshot,
//! the report's telemetry, JSON and CSV, and the analytic screen. Every
//! system is a catalog entry under a policy, lowered through its own cell
//! (`Scenario::config`).

use json::Value;
use sara::memctrl::PolicyKind;
use sara::scenarios::catalog;
use sara::sim::{analytic_report, ScreenVerdict, SimReport, Simulation, SystemConfig};
use sara::types::{Cycle, MegaHertz};

/// The catalog entry `name` under `policy`, lowered onto its system.
fn system(name: &str, policy: PolicyKind) -> SystemConfig {
    let s = catalog::by_name(name).expect("a catalog entry");
    s.with_policy(policy).config().unwrap()
}

/// `name` under `policy`, simulated for `ms` milliseconds.
fn run(name: &str, policy: PolicyKind, ms: f64) -> SimReport {
    Simulation::new(system(name, policy))
        .unwrap()
        .run_for_ms(ms)
}

// --- lowering -----------------------------------------------------------------

#[test]
fn camcorder_config_matches_case() {
    let a = system("camcorder-a", PolicyKind::Priority);
    assert_eq!(a.freq().as_u32(), 1866);
    assert_eq!(a.dram.io_freq().as_u32(), 1866);
    assert_eq!(a.cores.len(), 14);
    let b = system("camcorder-b", PolicyKind::Fcfs);
    assert_eq!(b.freq().as_u32(), 1700);
    assert_eq!(b.cores.len(), 10);
    assert!(b.frame_period_cycles() < a.frame_period_cycles());
}

#[test]
fn frame_period_is_one_thirtieth_second() {
    let cfg = system("camcorder-a", PolicyKind::Priority);
    let expected = 1866.0e6 / 30.0;
    assert!((cfg.frame_period_cycles() as f64 - expected).abs() < 2.0);
}

#[test]
fn retimed_dram_moves_clock_and_frame_period_together() {
    use sara::dram::{DramConfig, Interleave};
    let mut cfg = system("camcorder-a", PolicyKind::Fcfs);
    let period_ns = cfg.frame_period_ns;
    cfg.dram = DramConfig::table1(MegaHertz::new(1300));
    assert_eq!(cfg.freq().as_u32(), 1300);
    assert_eq!(cfg.clock().freq().as_u32(), 1300);
    assert_eq!(cfg.frame_period_ns, period_ns);
    let expected = 1300.0e6 / 30.0;
    assert!((cfg.frame_period_cycles() as f64 - expected).abs() < 2.0);
    // The address map follows `dram`'s channel count, not its clock.
    assert_eq!(cfg.interleave(), Interleave::default());
    let sim = Simulation::new(cfg).expect("a retimed system builds");
    assert_eq!(sim.channel_freqs(), vec![MegaHertz::new(1300); 2]);
}

/// README's "Model constants" paragraph names every `SystemConfig` field:
/// the destructuring is exhaustive, so a new field breaks this build.
#[test]
fn readme_names_every_system_config_field() {
    macro_rules! field_names {
        ($cfg:expr, $($field:ident),*) => {{
            let SystemConfig { $($field: _),* } = $cfg;
            vec![$(stringify!($field)),*]
        }};
    }
    let mut fields = field_names!(
        system("camcorder-a", PolicyKind::Fcfs),
        cores,
        frame_period_ns,
        noc,
        mc,
        dram,
        seed,
        priority_bits
    );
    let words = ["five", "six", "seven", "eight", "nine", "ten", "eleven"];
    let lead = format!("`SystemConfig`'s {} fields:", words[fields.len() - 5]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/README.md");
    let readme = std::fs::read_to_string(path).expect("README.md");
    let readme = readme.split_whitespace().collect::<Vec<_>>().join(" ");
    let start = readme
        .find(&lead)
        .unwrap_or_else(|| panic!("README lacks {lead:?}"));
    let sentence = &readme[start + lead.len()..];
    let sentence = &sentence[..sentence.find(". ").expect("the sentence ends")];
    // Backticked identifiers only: a backticked command is no field name.
    let mut named: Vec<&str> = sentence
        .split('`')
        .skip(1)
        .step_by(2)
        .filter(|s| s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'))
        .collect();
    fields.sort_unstable();
    named.sort_unstable();
    assert_eq!(
        named, fields,
        "README's SystemConfig sentence vs the struct"
    );
}

// --- running ------------------------------------------------------------------

/// A short smoke run: the full camcorder system simulates end to end
/// and produces sane numbers. (Figure-length runs are `sara repro`.)
#[test]
fn camcorder_smoke() {
    let report = run("camcorder-a", PolicyKind::Priority, 0.5);
    assert!(report.bandwidth_gbs > 1.0, "bw = {}", report.bandwidth_gbs);
    assert_eq!(report.cores.len(), 14);
    assert!(report.noc_forwarded > 1000);
    assert!(report.mc.total_completed() > 1000);
    // Series exist for every core.
    for c in &report.cores {
        assert!(!report.npi_series[&c.kind].is_empty());
    }
}

#[test]
fn deterministic_across_runs() {
    let a = run("camcorder-b", PolicyKind::Fcfs, 0.3);
    let b = run("camcorder-b", PolicyKind::Fcfs, 0.3);
    assert_eq!(a.dram.total, b.dram.total);
    assert_eq!(a.mc.total_completed(), b.mc.total_completed());
    for (x, y) in a.cores.iter().zip(&b.cores) {
        assert_eq!(x.min_npi, y.min_npi);
        assert_eq!(x.completed, y.completed);
    }
}

#[test]
fn run_until_is_resumable() {
    // One run to 0.4 ms must equal stacked runs cut anywhere, byte for
    // byte: a lane's fused retry jump may straddle the boundary of an
    // `advance_until` call, and the cut must not move it.
    let cfg = system("camcorder-b", PolicyKind::QosRowBuffer);
    let end = cfg.clock().cycles_from_ms(0.4);
    let mut one = Simulation::new(cfg.clone()).unwrap();
    let full = one.run_until(Cycle::new(end)).to_json();

    // Half way, an odd cycle just past it, and three cuts in one run.
    for cuts in [
        vec![end / 2],
        vec![end / 2 + 7],
        vec![end / 5, end / 3 + 1, end - 9],
    ] {
        let mut stacked = Simulation::new(cfg.clone()).unwrap();
        for &cut in &cuts {
            stacked.advance_until(Cycle::new(cut));
        }
        let resumed = stacked.run_until(Cycle::new(end)).to_json();
        assert!(full == resumed, "cuts at {cuts:?} changed the report");
    }
}

#[test]
fn now_advances_to_run_end() {
    let cfg = system("camcorder-b", PolicyKind::Fcfs);
    let mut sim = Simulation::new(cfg).unwrap();
    let _ = sim.run_for_ms(0.1);
    let expected = sim.config().clock().cycles_from_ms(0.1);
    assert_eq!(sim.now().as_u64(), expected);
}

#[test]
fn a_run_that_ends_in_the_past_is_a_no_op() {
    let cfg = system("camcorder-b", PolicyKind::Fcfs);
    let mut sim = Simulation::new(cfg.clone()).unwrap();
    let first = sim.run_for_ms(0.2).to_json();
    let reached = sim.now();
    let second = sim.run_for_ms(0.1).to_json();
    assert_eq!(sim.now(), reached, "time ran backwards");
    assert!(first == second, "the shorter request changed the report");
    let resumed = sim.run_for_ms(0.3).to_json();
    let uninterrupted = Simulation::new(cfg).unwrap().run_for_ms(0.3).to_json();
    assert!(resumed == uninterrupted, "the no-op request left a mark");
}

// --- the governor's actuators and health snapshot -------------------------------

#[test]
fn dvfs_step_down_reduces_delivered_bandwidth() {
    let cfg = system("camcorder-b", PolicyKind::Priority);
    let mut pinned = Simulation::new(cfg.clone()).unwrap();
    let full = pinned.run_for_ms(0.4);

    let mut stepped = Simulation::new(cfg).unwrap();
    assert_eq!(stepped.channel_freqs(), vec![MegaHertz::new(1700); 2]);
    let _ = stepped.run_for_ms(0.2);
    stepped.set_dram_freq(MegaHertz::new(850)).unwrap();
    assert_eq!(stepped.channel_freqs(), vec![MegaHertz::new(850); 2]);
    let slowed = stepped.run_for_ms(0.4);
    assert!(
        slowed.dram.total.total_bytes() < full.dram.total.total_bytes(),
        "half-speed DRAM in the second half must deliver fewer bytes \
         ({} vs {})",
        slowed.dram.total.total_bytes(),
        full.dram.total.total_bytes()
    );
}

#[test]
fn dvfs_step_back_up_restores_service_and_is_deterministic() {
    let cfg = system("camcorder-b", PolicyKind::Priority);
    let run = |cfg: SystemConfig| {
        let mut sim = Simulation::new(cfg).unwrap();
        let _ = sim.run_for_ms(0.1);
        sim.set_dram_freq(MegaHertz::new(850)).unwrap();
        let _ = sim.run_for_ms(0.2);
        sim.set_dram_freq(MegaHertz::new(1700)).unwrap();
        sim.run_for_ms(0.4)
    };
    let a = run(cfg.clone());
    let b = run(cfg);
    assert_eq!(a.dram.total, b.dram.total);
    assert_eq!(a.mc.total_completed(), b.mc.total_completed());
    for (x, y) in a.cores.iter().zip(&b.cores) {
        assert_eq!(x.min_npi, y.min_npi);
        assert_eq!(x.completed, y.completed);
    }
}

#[test]
fn dvfs_above_beat_clock_rejected_and_idempotent_step_is_free() {
    let cfg = system("camcorder-b", PolicyKind::Priority);
    let mut sim = Simulation::new(cfg).unwrap();
    assert!(sim.set_dram_freq(MegaHertz::new(1866)).is_err());
    sim.set_dram_freq(MegaHertz::new(1700)).unwrap();
    assert_eq!(sim.channel_freqs(), vec![MegaHertz::new(1700); 2]);
}

#[test]
fn per_channel_steps_decouple_the_lanes() {
    let cfg = system("camcorder-b", PolicyKind::Priority);
    let mut sim = Simulation::new(cfg).unwrap();
    let _ = sim.run_for_ms(0.1);
    sim.set_channel_freq(1, MegaHertz::new(850)).unwrap();
    assert_eq!(
        sim.channel_freqs()
            .iter()
            .map(|f| f.as_u32())
            .collect::<Vec<_>>(),
        vec![1700, 850]
    );
    // Health carries the same per-lane vector.
    let h = sim.health();
    assert_eq!(h.freq_per_channel, sim.channel_freqs());
    // Out-of-range channel and over-clock are rejected.
    assert!(sim.set_channel_freq(7, MegaHertz::new(850)).is_err());
    assert!(sim.set_channel_freq(0, MegaHertz::new(1866)).is_err());
    // Asymmetric lanes still simulate deterministically.
    let a = sim.run_for_ms(0.3);
    assert!(a.mc.total_completed() > 0);
}

#[test]
fn per_channel_slowdown_skews_channel_bandwidth() {
    let cfg = system("camcorder-b", PolicyKind::Priority);
    let mut even = Simulation::new(cfg.clone()).unwrap();
    let balanced = even.run_for_ms(0.4);

    let mut skewed = Simulation::new(cfg).unwrap();
    skewed.set_channel_freq(0, MegaHertz::new(566)).unwrap();
    let report = skewed.run_for_ms(0.4);
    let slow = report.dram.per_channel[0].total_bytes();
    let fast = report.dram.per_channel[1].total_bytes();
    assert!(
        slow < fast,
        "the down-clocked lane must move fewer bytes ({slow} vs {fast})"
    );
    // The balanced run splits roughly evenly by interleave.
    let b0 = balanced.dram.per_channel[0].total_bytes() as f64;
    let b1 = balanced.dram.per_channel[1].total_bytes() as f64;
    assert!(
        (b0 / b1 - 1.0).abs() < 0.2,
        "balanced split drifted: {b0} {b1}"
    );
}

#[test]
fn policy_switch_mid_run_takes_effect() {
    let cfg = system("camcorder-b", PolicyKind::Fcfs);
    let mut sim = Simulation::new(cfg).unwrap();
    let _ = sim.run_for_ms(0.1);
    sim.set_policy(PolicyKind::Priority);
    let report = sim.run_for_ms(0.2);
    assert_eq!(report.policy, PolicyKind::Priority);
    assert_eq!(sim.health().policy, PolicyKind::Priority);
}

#[test]
fn a_policy_switch_leaves_one_policy() {
    let mut sim = Simulation::new(system("camcorder-b", PolicyKind::Fcfs)).unwrap();
    let _ = sim.run_for_ms(0.1);
    sim.set_policy(PolicyKind::QosRowBuffer);
    assert_eq!(sim.config().policy(), PolicyKind::QosRowBuffer);
    assert_eq!(sim.config().mc.policy(), PolicyKind::QosRowBuffer);
    assert_eq!(sim.health().policy, PolicyKind::QosRowBuffer);
    assert_eq!(sim.run_for_ms(0.2).policy, PolicyKind::QosRowBuffer);
}

#[test]
fn health_reports_floors_and_mark_epoch_resets_them() {
    let scenario = catalog::by_name("camcorder-b").unwrap();
    let cfg = system("camcorder-b", PolicyKind::Priority);
    let mut sim = Simulation::new(cfg).unwrap();
    let _ = sim.run_for_ms(0.2);
    let h = sim.health();
    assert_eq!(h.dmas.len(), scenario.dma_count());
    assert!(h.worst_npi().is_finite());
    assert!(h.dmas.iter().all(|d| d.epoch_floor.is_finite()));
    assert!(h.dram_bytes > 0);
    assert_eq!(h.queued_per_channel.len(), 2);
    assert_eq!(h.freq_per_channel.len(), 2);
    sim.mark_epoch();
    let fresh = sim.health();
    assert!(
        fresh.dmas.iter().all(|d| d.epoch_floor.is_infinite()),
        "mark_epoch must clear the sampled floors"
    );
    // Live NPI still reads without samples.
    assert!(fresh.worst_npi().is_finite());
}

/// A DMA's `epoch_floor` is the minimum of its sampled NPI series over the
/// samples taken since the last `mark_epoch`: infinite until the first one,
/// then the worst of them. A core with one DMA reports that DMA's series.
#[test]
fn epoch_floor_is_the_minimum_sampled_npi_since_the_mark() {
    let mut sim = Simulation::new(system("camcorder-a", PolicyKind::Priority)).unwrap();
    let clock = sim.config().clock();
    sim.advance_until(Cycle::new(clock.cycles_from_ms(0.5) + 7));
    let at_mark = sim.report();
    let marked = at_mark.npi_series.values().next().unwrap().len();
    sim.mark_epoch();
    let first_sample = (marked as u64 + 1) * at_mark.sample_period;
    sim.advance_until(Cycle::new(first_sample - 1));
    let before = sim.health();
    assert!(
        before.dmas.iter().all(|d| d.epoch_floor == f64::INFINITY),
        "no sample since the mark yet"
    );

    sim.advance_until(Cycle::new(clock.cycles_from_ms(1.5)));
    let (health, report) = (sim.health(), sim.report());
    let mut checked = 0;
    let mut dma = 0;
    for core in &sim.config().cores {
        let series = &report.npi_series[&core.kind];
        let sharing: usize = sim
            .config()
            .cores
            .iter()
            .filter(|c| c.kind == core.kind)
            .map(|c| c.dmas.len())
            .sum();
        if sharing == 1 {
            assert!(
                series.len() > marked,
                "{:?}: samples after the mark",
                core.kind
            );
            let floor = series[marked..]
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min);
            assert_eq!(health.dmas[dma].epoch_floor, floor, "{:?}", core.kind);
            checked += 1;
        }
        dma += core.dmas.len();
    }
    assert!(checked >= 3, "only {checked} single-DMA cores");
}

// --- what a report carries ------------------------------------------------------

#[test]
fn telemetry_accounts_for_every_completion_and_delivery() {
    let report = run("camcorder-b", PolicyKind::Priority, 0.3);
    let t = &report.telemetry;
    let completed = report.mc.total_completed();
    // Every merged completion landed in exactly one class histogram.
    let hist_total: u64 = t.classes.iter().map(|c| c.queue_delay.count()).sum();
    assert_eq!(hist_total, completed);
    // Each completion is one column access on its lane's channel
    // (refreshes and activates are not completions).
    let column_accesses: u64 = report
        .dram
        .per_channel
        .iter()
        .map(|ch| ch.column_accesses())
        .sum();
    assert_eq!(column_accesses, completed);
    // Every delivery is one sample in its DMA's latency histogram, and a
    // completion is delivered a response latency later: the run may end
    // in between, never the other way round.
    let dma_total: u64 = t.dmas.iter().map(|d| d.latency.count()).sum();
    assert!(
        dma_total <= completed,
        "{dma_total} deliveries > {completed} completions"
    );
    for (l, ch) in t.lanes.iter().zip(&report.dram.per_channel) {
        // `row_hits` counts final column commands that found their row
        // open — a superset of the DRAM's first-touch hit class.
        assert!(l.row_hits >= ch.row_hits, "lane {}", l.lane);
        assert!(l.row_hits <= ch.column_accesses(), "lane {}", l.lane);
    }
    assert_eq!(t.noc_root.forwarded, report.noc_forwarded);
}

#[test]
fn totals_registry_matches_the_breakdowns() {
    let report = run("camcorder-b", PolicyKind::Priority, 0.3);
    let t = &report.telemetry;
    let totals = t.totals(&report.mc, &report.dram);
    let doc = totals.to_json_value();
    assert_eq!(
        doc.get("completed").and_then(Value::as_u64),
        Some(report.mc.total_completed())
    );
    assert_eq!(
        doc.get("noc_forwarded").and_then(Value::as_u64),
        Some(report.noc_forwarded)
    );
    let lat = doc.get("latency_cycles").expect("latency histogram");
    assert!(lat.get("p99").and_then(Value::as_u64).unwrap() > 0);
}

#[test]
fn report_json_is_deterministic_and_parses_back() {
    let a = run("camcorder-b", PolicyKind::Fcfs, 0.3);
    let b = run("camcorder-b", PolicyKind::Fcfs, 0.3);
    assert_eq!(a.to_json(), b.to_json());

    let json = a.to_json();
    // The emitted document re-parses, and re-emitting the parse is
    // byte-identical — a stronger check than brace counting now that a
    // real reader exists. (Tree equality is too strict: whole-valued
    // floats like 0.0 emit as "0" and read back as integers.)
    let doc = json::parse(&json).expect("report JSON parses");
    assert_eq!(doc.to_string_compact(), json);
    assert_eq!(
        doc.get("policy").and_then(Value::as_str),
        Some("FCFS"),
        "{json}"
    );
    assert_eq!(
        doc.get("cores")
            .and_then(Value::as_array)
            .map(<[Value]>::len),
        Some(a.cores.len())
    );

    let mut buf = Vec::new();
    a.to_json_writer(&mut buf).unwrap();
    assert_eq!(String::from_utf8(buf).unwrap(), format!("{json}\n"));
}

#[test]
fn csv_writers_produce_well_formed_files() {
    let report = run("camcorder-b", PolicyKind::Priority, 0.3);
    let dir = std::env::temp_dir().join("sara_report_csv_test");
    std::fs::create_dir_all(&dir).unwrap();

    let npi = dir.join("npi.csv");
    report.write_npi_csv(&npi).unwrap();
    let text = std::fs::read_to_string(&npi).unwrap();
    let mut lines = text.lines();
    let header = lines.next().unwrap();
    assert!(header.starts_with("time_ms,"));
    let cols = header.split(',').count();
    for line in lines {
        assert_eq!(line.split(',').count(), cols, "ragged row: {line}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

// --- the analytic screen ----------------------------------------------------------

#[test]
fn camcorder_is_not_provably_infeasible() {
    let cfg = system("camcorder-a", PolicyKind::Priority);
    let report = analytic_report(&cfg);
    assert!(report.bound_gbs > 0.0);
    assert!(
        report.verdict != ScreenVerdict::ProvablyInfeasible,
        "the paper's working set must not screen out: {}",
        report.reason
    );
    // The bound is an upper bound on the theoretical peak too.
    let peak = cfg.dram.peak_bandwidth_bytes_per_s() / 1e9;
    assert!(report.bound_gbs <= peak, "{} > {peak}", report.bound_gbs);
}

#[test]
fn evaluation_is_stable_across_calls() {
    let cfg = system("camcorder-b", PolicyKind::Fcfs);
    assert_eq!(analytic_report(&cfg), analytic_report(&cfg));
}
