//! Macro-benchmark of the online governor: the cost of the closed loop
//! (epoch snapshots + in-run re-parameterisation) versus the same window
//! simulated statically, and the offline search it replaces.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use sara_governor::{run_governed, run_pinned, GovernorSearch};
use sara_scenarios::catalog;
use sara_types::MegaHertz;

fn bench_governed_vs_static(c: &mut Criterion) {
    let scenario = catalog::by_name("adas-overload").unwrap();
    let spec = scenario
        .governor
        .clone()
        .expect("adas-overload carries a stanza");

    let mut group = c.benchmark_group("governor/adas-overload-1ms");
    group.bench_function("governed", |b| {
        b.iter(|| black_box(run_governed(&scenario, &spec, 1.0).unwrap().freq_changes));
    });
    group.bench_function("static", |b| {
        let top = MegaHertz::new(*spec.ladder_mhz.last().unwrap());
        b.iter(|| {
            black_box(
                run_pinned(&scenario, &spec, top, 1.0)
                    .unwrap()
                    .failing_epochs,
            )
        });
    });
    // The offline alternative re-simulates once per rung: the online loop
    // should cost roughly one run, not one per candidate.
    group.bench_function("offline-search", |b| {
        let search = GovernorSearch::new(spec.ladder_mhz.clone()).with_duration_ms(1.0);
        b.iter(|| black_box(search.run(&scenario).unwrap().chosen));
    });
    // Per-channel control rides the same lanes: one automaton per channel.
    group.bench_function("per-channel", |b| {
        let pc = spec.clone().with_per_channel(true);
        b.iter(|| {
            black_box(
                run_governed(&scenario, &pc, 1.0)
                    .unwrap()
                    .final_freq_per_channel,
            )
        });
    });
    group.finish();
}

criterion_group!(benches, bench_governed_vs_static);
criterion_main!(benches);
