//! The one place cells run on threads: the ordered executor under
//! `sara serve` jobs, and on it [`run_systems`], the one batch of systems
//! every other harness simulates through; both run each system through
//! [`run_system`], the one simulate step.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use sara_sim::{SimReport, Simulation, SystemConfig};
use sara_types::{ConfigError, Cycle};

use crate::matrix::CellProfile;

/// Simulates each `(system, duration_ms)` run on up to `threads` workers
/// ([`run_ordered`]), one [`run_system`] each, and returns its report and
/// harness profile, aligned with `runs`. Equal runs simulate once: a
/// repeat gets the first one's report and an empty profile. `start_ms`
/// counts from the batch's start.
///
/// # Errors
///
/// Returns the [`ConfigError`] of the earliest run whose system fails to
/// build; once one has failed, no further run starts.
pub fn run_systems(
    runs: &[(SystemConfig, f64)],
    threads: usize,
) -> Result<Vec<(SimReport, CellProfile)>, ConfigError> {
    // first[i]: the first run equal to run i (i itself when none is).
    let first: Vec<usize> = (0..runs.len())
        .map(|i| runs[..i].iter().position(|r| *r == runs[i]).unwrap_or(i))
        .collect();
    let epoch = Instant::now();
    let run = |i: usize, worker| {
        (first[i] == i).then(|| {
            let start_ms = ms(epoch, Instant::now());
            let (report, mut profile) = run_system(runs[i].0.clone(), runs[i].1)?;
            (profile.worker, profile.start_ms) = (worker, start_ms);
            Ok((report, profile))
        })
    };
    let mut results: Vec<(SimReport, CellProfile)> = Vec::with_capacity(runs.len());
    let stopped = run_ordered(runs.len(), threads, run, |i, ran| {
        // A first moves in; only a repeat clones (its first's report).
        results.push(match ran {
            Some(Ok(done)) => done,
            Some(Err(e)) => return ControlFlow::Break(e),
            None => (results[first[i]].0.clone(), CellProfile::default()),
        });
        ControlFlow::Continue(())
    });
    match stopped {
        ControlFlow::Continue(()) => Ok(results),
        ControlFlow::Break(e) => Err(e),
    }
}

/// The one simulate step (under [`run_systems`], [`run_cell`](crate::run_cell)
/// and a `sara serve` worker): builds `system`, runs it `duration_ms`
/// simulated ms and reports, timing each phase; a batch fills in the
/// profile's `worker` and `start_ms`.
///
/// # Errors
///
/// Returns the [`ConfigError`] of a system that fails to build.
pub fn run_system(
    system: SystemConfig,
    duration_ms: f64,
) -> Result<(SimReport, CellProfile), ConfigError> {
    let end = Cycle::new(system.clock().cycles_from_ms(duration_ms));
    let started = Instant::now();
    let mut sim = Simulation::new(system)?;
    let built = Instant::now();
    sim.advance_until(end);
    let advanced = Instant::now();
    let report = sim.report();
    let profile = CellProfile {
        setup_ms: ms(started, built),
        sim_ms: ms(built, advanced),
        report_ms: ms(advanced, Instant::now()),
        ..CellProfile::default()
    };
    Ok((report, profile))
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64() * 1e3
}

/// Runs `run(i, worker)` for every `i` in `0..items` on up to `workers`
/// scoped threads and hands each result to `sink(i, result)` on the
/// calling thread, strictly in index order, as soon as it and all its
/// predecessors are ready.
///
/// With `workers <= 1` (or a single item) nothing is spawned: item `i`
/// runs on the calling thread immediately before it is sunk, so every
/// side effect of `run` and `sink` happens on one thread in index order.
///
/// Once `sink` breaks, no further item is claimed (items already running
/// finish and are discarded) and the break value is returned.
pub fn run_ordered<T: Send, B>(
    items: usize,
    workers: usize,
    run: impl Fn(usize, usize) -> T + Sync,
    mut sink: impl FnMut(usize, T) -> ControlFlow<B>,
) -> ControlFlow<B> {
    let workers = workers.min(items);
    if workers <= 1 {
        for i in 0..items {
            sink(i, run(i, 0))?;
        }
        return ControlFlow::Continue(());
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let (tx, next, run) = (tx.clone(), &next, &run);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                // A closed channel is the sink's stop.
                if i >= items || tx.send((i, run(i, worker))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // Results that overtook a predecessor wait here for their turn.
        let mut early: Vec<Option<T>> = (0..items).map(|_| None).collect();
        let mut want = 0;
        // Consuming the receiver closes the channel on an early return,
        // before the scope joins the workers.
        for (i, result) in rx {
            early[i] = Some(result);
            while let Some(result) = early.get_mut(want).and_then(Option::take) {
                sink(want, result)?;
                want += 1;
            }
        }
        ControlFlow::Continue(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Mutex;
    use std::thread::yield_now;

    #[test]
    fn results_sink_in_index_order_when_workers_finish_in_reverse() {
        // Item i may only finish once item i + 1 has: four workers hold
        // all four items at once, so completion order is 3, 2, 1, 0.
        let done: Vec<AtomicBool> = (0..4).map(|_| AtomicBool::new(false)).collect();
        let mut sunk = Vec::new();
        let run = |i: usize, _| {
            while i + 1 < done.len() && !done[i + 1].load(Ordering::SeqCst) {
                yield_now();
            }
            done[i].store(true, Ordering::SeqCst);
            i * 10
        };
        let flow = run_ordered(4, 4, run, |i, result| {
            sunk.push((i, result));
            ControlFlow::<()>::Continue(())
        });
        assert!(flow.is_continue());
        assert_eq!(sunk, [(0, 0), (1, 10), (2, 20), (3, 30)]);
    }

    #[test]
    fn one_worker_runs_each_item_right_before_sinking_it() {
        for workers in [0, 1] {
            let log = Mutex::new(Vec::new());
            let caller = std::thread::current().id();
            let run = |i: usize, worker: usize| {
                assert_eq!((std::thread::current().id(), worker), (caller, 0));
                log.lock().unwrap().push(format!("run {i}"));
            };
            let flow = run_ordered(3, workers, run, |i, ()| {
                log.lock().unwrap().push(format!("sink {i}"));
                ControlFlow::<()>::Continue(())
            });
            assert!(flow.is_continue());
            let log = log.into_inner().unwrap();
            assert_eq!(
                log,
                ["run 0", "sink 0", "run 1", "sink 1", "run 2", "sink 2"]
            );
        }
    }

    #[test]
    fn a_stop_from_the_sink_leaves_unclaimed_items_unrun() {
        // Serial: exactly the items up to the stop ran.
        let ran = AtomicUsize::new(0);
        let count = |_, _| ran.fetch_add(1, Ordering::SeqCst);
        let flow = run_ordered(100, 1, count, |i, _| match i {
            2 => ControlFlow::Break("stopped at 2"),
            _ => ControlFlow::Continue(()),
        });
        assert_eq!(flow, ControlFlow::Break("stopped at 2"));
        assert_eq!(ran.into_inner(), 3);

        // Pooled: every item after the first blocks until the sink has
        // seen item 0, so at the stop about one item per worker is in
        // flight; the rest of the 10 000 must never start.
        let (ran, seen) = (AtomicUsize::new(0), AtomicBool::new(false));
        let run = |i: usize, _| {
            ran.fetch_add(1, Ordering::SeqCst);
            while i > 0 && !seen.load(Ordering::SeqCst) {
                yield_now();
            }
            yield_now();
        };
        let flow = run_ordered(10_000, 4, run, |i, ()| {
            seen.store(true, Ordering::SeqCst);
            ControlFlow::Break(i)
        });
        assert_eq!(flow, ControlFlow::Break(0));
        let ran = ran.into_inner();
        assert!(ran < 10_000, "all {ran} items ran past the stop");
    }
}
