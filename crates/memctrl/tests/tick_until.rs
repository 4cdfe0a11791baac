//! `ChannelController::tick_until` against the chain of `tick` calls it
//! replaces: a lane that follows each `retry_at` one call at a time must
//! see the same commands at the same cycles, the same completions and the
//! same counters as a lane that lets the controller walk the chain itself.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sara_dram::{Channel, ChannelStats, Location, TimingParams};
use sara_memctrl::{ChannelController, McConfig, McStats, PolicyKind, TickResult};
use sara_types::{Addr, CoreKind, Cycle, DmaId, MemOp, Priority, Transaction, TransactionId};

const CORES: [CoreKind; 5] = [
    CoreKind::Cpu,
    CoreKind::Gpu,
    CoreKind::Dsp,
    CoreKind::Display,
    CoreKind::Usb,
];

fn random_txn(rng: &mut StdRng, id: u64, now: Cycle) -> (Transaction, Location) {
    let core = CORES[rng.gen_range(0..CORES.len())];
    let txn = Transaction {
        id: TransactionId::new(id),
        dma: DmaId::new(rng.gen_range(0u16..7)),
        core,
        class: core.class(),
        op: if rng.gen_bool(0.6) {
            MemOp::Read
        } else {
            MemOp::Write
        },
        addr: Addr::new(id * 128),
        bytes: 128,
        injected_at: now,
        priority: Priority::new(rng.gen_range(0u8..8)),
        urgent: rng.gen_bool(0.1),
    };
    // Few rows per bank, so hits, misses and conflicts all occur.
    let loc = Location {
        channel: 0,
        rank: rng.gen_range(0usize..2),
        bank: rng.gen_range(0usize..8),
        row: rng.gen_range(0u32..3),
        col: rng.gen_range(0u32..64),
    };
    (txn, loc)
}

/// What `tick_until(t, limit, chan)` replaces: one `tick` per link of the
/// retry chain, stopping at the first result that is not an `Idle` with a
/// retry inside the window.
fn tick_chain(
    ctrl: &mut ChannelController,
    chan: &mut Channel,
    t: Cycle,
    limit: Cycle,
) -> (Cycle, TickResult) {
    let mut at = t;
    loop {
        match ctrl.tick(at, chan) {
            TickResult::Idle {
                retry_at: Some(next),
            } if next < limit => at = next,
            result => break (at, result),
        }
    }
}

/// What one lane saw: every tick result with the cycle it was produced at,
/// the final counters, and how many fused calls performed a refresh after
/// moving past the cycle they were entered at.
struct Run {
    log: Vec<(Cycle, TickResult)>,
    mc: McStats,
    dram: ChannelStats,
    jumps_over_refresh: usize,
}

/// Drives one controller/channel pair through a seeded script of windows
/// the way `ChannelLane::advance_to` does: new transactions arrive at the
/// window start, then the tick chain runs to the window end. `fused` picks
/// `tick_until`; otherwise every link of the chain is its own `tick`.
fn drive(seed: u64, policy: PolicyKind, fused: bool) -> Run {
    let mut rng = StdRng::seed_from_u64(seed);
    let timing = TimingParams::lpddr4_1866();
    assert!(timing.refresh_enabled());
    let horizon = Cycle::new(3 * timing.trefi());
    let clock_step_at = Cycle::new(timing.trefi() + timing.trefi() / 2);
    let mut chan = Channel::new(timing, 2, 8, 128);
    // A short aging threshold, so promotion depends on the decision cycle.
    let cfg = McConfig::builder(policy)
        .aging_threshold(Some(600))
        .build()
        .unwrap();
    let mut ctrl = ChannelController::new(cfg, 0);

    let mut run = Run {
        log: Vec::new(),
        mc: McStats::default(),
        dram: ChannelStats::default(),
        jumps_over_refresh: 0,
    };
    let mut id = 0u64;
    let mut pending: Option<Cycle> = None;
    let mut frontier = Cycle::ZERO;
    let mut start = Cycle::ZERO;
    let mut stepped_clock = false;
    while start < horizon {
        let end = start + rng.gen_range(1u64..400);
        if !stepped_clock && start >= clock_step_at {
            chan.set_clock(3, 2);
            stepped_clock = true;
            if ctrl.queued() > 0 {
                pending = Some(pending.map_or(start.max(frontier), |t| t.min(start.max(frontier))));
            }
        }
        for _ in 0..rng.gen_range(0usize..4) {
            if ctrl.queued() < 40 {
                let (txn, loc) = random_txn(&mut rng, id, start);
                id += 1;
                // Like the engine, stamp the admission latency: entries can
                // be scheduled before `accepted_at` (a recorded fidelity
                // gap both paths must reproduce).
                ctrl.accept(txn, loc, start + 48);
                let wake = start.max(frontier);
                pending = Some(pending.map_or(wake, |t| t.min(wake)));
            }
        }
        while let Some(t) = pending.filter(|&t| t < end) {
            let (at, result) = if fused {
                let before = chan.stats().refreshes;
                let (at, result) = ctrl.tick_until(t, end, &mut chan);
                if at > t && chan.stats().refreshes != before {
                    run.jumps_over_refresh += 1;
                }
                (at, result)
            } else {
                tick_chain(&mut ctrl, &mut chan, t, end)
            };
            frontier = at + 1;
            pending = match &result {
                TickResult::Issued { .. } => Some(at + 1),
                TickResult::Idle { retry_at } => *retry_at,
            };
            run.log.push((at, result));
        }
        start = end;
    }
    run.mc = ctrl.stats().clone();
    run.dram = chan.stats().clone();
    run
}

#[test]
fn tick_until_equals_the_tick_chain_it_replaces() {
    let mut jumps_over_refresh = 0;
    for policy in PolicyKind::ALL {
        for seed in 0..64u64 {
            let fused = drive(0x71c4_0000 + seed, policy, true);
            let chained = drive(0x71c4_0000 + seed, policy, false);
            assert_eq!(
                fused.log.len(),
                chained.log.len(),
                "{policy:?} seed {seed}: result count"
            );
            for (i, (a, b)) in fused.log.iter().zip(&chained.log).enumerate() {
                assert_eq!(a, b, "{policy:?} seed {seed}: result {i}");
            }
            assert_eq!(fused.mc, chained.mc, "{policy:?} seed {seed}: McStats");
            assert_eq!(
                fused.dram, chained.dram,
                "{policy:?} seed {seed}: ChannelStats"
            );
            assert!(
                fused.dram.refreshes >= 2,
                "{policy:?} seed {seed}: refresh ran"
            );
            assert!(
                fused.mc.total_completed() > 50,
                "{policy:?} seed {seed}: traffic ran"
            );
            jumps_over_refresh += fused.jumps_over_refresh;
        }
    }
    assert!(
        jumps_over_refresh > 0,
        "no fused jump crossed refresh_due: the rescan path was never taken"
    );
}

/// The one place recorded scan values go stale inside a call: the jump
/// target lies past `refresh_due`, the refresh closes the bank, and the
/// entry that was waiting for its column command needs an ACT again.
#[test]
fn a_jump_across_refresh_due_rescans() {
    let timing = TimingParams::lpddr4_1866();
    let due = Cycle::new(timing.trefi());
    let act_at = Cycle::new(timing.trefi() - 10);
    let mut rng = StdRng::seed_from_u64(1);
    let (txn, _) = random_txn(&mut rng, 0, act_at);
    let loc = Location {
        channel: 0,
        rank: 0,
        bank: 0,
        row: 1,
        col: 0,
    };
    let cfg = McConfig::builder(PolicyKind::Fcfs).build().unwrap();

    let mut results = Vec::new();
    for fused in [true, false] {
        let mut chan = Channel::new(timing.clone(), 2, 8, 128);
        let mut ctrl = ChannelController::new(cfg.clone(), 0);
        ctrl.accept(txn.clone(), loc, act_at);
        assert_eq!(
            ctrl.tick(act_at, &mut chan),
            TickResult::Issued { completed: None },
            "ACT just before refresh_due"
        );
        // The column command is legal tRCD later, past refresh_due.
        let limit = act_at + 10_000;
        let mut seen = Vec::new();
        let mut t = act_at + 1;
        loop {
            let (at, result) = if fused {
                ctrl.tick_until(t, limit, &mut chan)
            } else {
                tick_chain(&mut ctrl, &mut chan, t, limit)
            };
            let done = matches!(result, TickResult::Issued { completed: Some(_) });
            seen.push((at, result));
            if done {
                break;
            }
            t = at + 1;
        }
        assert_eq!(chan.stats().refreshes, 1);
        assert_eq!(
            chan.stats().activates,
            2,
            "the refresh closed the opened row"
        );
        assert!(
            seen[0].0 > due,
            "the first command after the ACT waits out the refresh"
        );
        results.push((seen, ctrl.stats().clone(), chan.stats().clone()));
    }
    assert_eq!(results[0], results[1]);
}
