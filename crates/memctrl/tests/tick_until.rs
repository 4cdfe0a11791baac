//! `ChannelController::tick_until` against the chain of `tick` calls it
//! replaces: a lane that follows each `retry_at` one call at a time must
//! see the same commands at the same cycles, the same completions and the
//! same counters as a lane that lets the controller walk the chain itself.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sara_dram::{Channel, ChannelStats, DramCommand, Location, TimingParams};
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
/// the final counters, how many fused calls performed a refresh after
/// moving past the cycle they were entered at, and an FNV-1a fold of the
/// command stream (see [`Lane::run_window`]).
#[derive(Clone)]
struct Run {
    log: Vec<(Cycle, TickResult)>,
    mc: McStats,
    dram: ChannelStats,
    jumps_over_refresh: usize,
    stream: u64,
}

/// Folds `words` into an FNV-1a state, eight little-endian bytes each.
fn fnv1a(hash: &mut u64, words: &[u64]) {
    for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
        *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
}

/// A controller with a short aging threshold, so promotion depends on the
/// decision cycle.
fn controller(policy: PolicyKind) -> ChannelController {
    let cfg = McConfig::builder(policy)
        .aging_threshold(Some(600))
        .build()
        .unwrap();
    ChannelController::new(cfg, 0)
}

/// One controller/channel pair with the wake state `ChannelLane` keeps for
/// it, plus what it has produced so far.
#[derive(Clone)]
struct Lane {
    ctrl: ChannelController,
    chan: Channel,
    pending: Option<Cycle>,
    frontier: Cycle,
    run: Run,
}

impl Lane {
    fn new(policy: PolicyKind, chan: Channel) -> Lane {
        Lane {
            ctrl: controller(policy),
            chan,
            pending: None,
            frontier: Cycle::ZERO,
            run: Run {
                log: Vec::new(),
                mc: McStats::default(),
                dram: ChannelStats::default(),
                jumps_over_refresh: 0,
                stream: 0xcbf2_9ce4_8422_2325,
            },
        }
    }

    /// Requests a tick at `at`, no earlier than the frontier, keeping the
    /// earliest pending wake.
    fn wake(&mut self, at: Cycle) {
        let at = at.max(self.frontier);
        self.pending = Some(self.pending.map_or(at, |t| t.min(at)));
    }

    /// Like the engine, stamps the admission latency: entries can be
    /// scheduled before `accepted_at` (a recorded fidelity gap both paths
    /// must reproduce).
    fn accept(&mut self, txn: Transaction, loc: Location, start: Cycle) {
        self.ctrl.accept(txn, loc, start + 48);
        self.wake(start);
    }

    /// Runs the tick chain to the window end. `fused` picks `tick_until`;
    /// otherwise every link of the chain is its own `tick`. Every issued
    /// command `(at, rank, bank, row, command)` and every completion
    /// `(id, done_at, queued_for, row_hit, was_aged)` is folded into
    /// `run.stream`.
    fn run_window(&mut self, end: Cycle, fused: bool) {
        while let Some(t) = self.pending.filter(|&t| t < end) {
            let (at, result) = if fused {
                let before = self.chan.stats().refreshes;
                let (at, result) = self.ctrl.tick_until(t, end, &mut self.chan);
                if at > t && self.chan.stats().refreshes != before {
                    self.run.jumps_over_refresh += 1;
                }
                (at, result)
            } else {
                tick_chain(&mut self.ctrl, &mut self.chan, t, end)
            };
            self.frontier = at + 1;
            self.pending = match &result {
                TickResult::Issued { completed } => {
                    let cmd = self.chan.last_issued().expect("a command was issued");
                    assert_eq!(cmd.at, at, "last_issued is this tick's command");
                    let (code, row) = match cmd.cmd {
                        DramCommand::Activate { row } => (0, row),
                        DramCommand::Precharge => (1, cmd.loc.row),
                        DramCommand::Read => (2, cmd.loc.row),
                        DramCommand::Write => (3, cmd.loc.row),
                        DramCommand::RefreshAll => unreachable!("refresh is internal"),
                    };
                    let (rank, bank) = (cmd.loc.rank as u64, cmd.loc.bank as u64);
                    fnv1a(
                        &mut self.run.stream,
                        &[at.as_u64(), rank, bank, u64::from(row), code],
                    );
                    if let Some(c) = completed {
                        fnv1a(
                            &mut self.run.stream,
                            &[
                                c.txn.id.as_u64(),
                                c.done_at.as_u64(),
                                c.queued_for,
                                u64::from(c.row_hit),
                                u64::from(c.was_aged),
                            ],
                        );
                    }
                    Some(at + 1)
                }
                TickResult::Idle { retry_at } => *retry_at,
            };
            self.run.log.push((at, result));
        }
    }

    fn finish(mut self) -> Run {
        self.run.mc = self.ctrl.stats().clone();
        self.run.dram = self.chan.stats().clone();
        self.run
    }
}

/// Drives one controller/channel pair through a seeded script of windows
/// the way `ChannelLane::advance_to` does: new transactions arrive at the
/// window start, then the tick chain runs to the window end.
fn drive(seed: u64, policy: PolicyKind, fused: bool) -> Run {
    let mut rng = StdRng::seed_from_u64(seed);
    let timing = TimingParams::lpddr4_1866();
    assert!(timing.refresh_enabled());
    let horizon = Cycle::new(3 * timing.trefi());
    let clock_step_at = Cycle::new(timing.trefi() + timing.trefi() / 2);
    let mut lane = Lane::new(policy, Channel::new(timing, 2, 8, 128));

    let mut id = 0u64;
    let mut start = Cycle::ZERO;
    let mut stepped_clock = false;
    while start < horizon {
        let end = start + rng.gen_range(1u64..400);
        if !stepped_clock && start >= clock_step_at {
            lane.chan.set_clock(3, 2);
            stepped_clock = true;
            if lane.ctrl.queued() > 0 {
                lane.wake(start);
            }
        }
        for _ in 0..rng.gen_range(0usize..4) {
            if lane.ctrl.queued() < 40 {
                let (txn, loc) = random_txn(&mut rng, id, start);
                id += 1;
                lane.accept(txn, loc, start);
            }
        }
        lane.run_window(end, fused);
        start = end;
    }
    lane.finish()
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

#[path = "../../../tests/support/golden.rs"]
mod golden;

/// The command stream of `drive`, pinned: per policy, the FNV-1a fold of
/// every issued command and every completion of the 64 fused scripts, in
/// seed order, in `tests/data/command-streams.txt`. The six values were
/// first produced by the parent of the scheduling-table change (commit
/// `4ba1c20`, `queues: [VecDeque; 5]` and a scan per tick) running this
/// file, and must survive any rewrite of the controller that claims the
/// same simulated results.
#[test]
fn command_stream_equals_the_constants_captured_from_the_parent() {
    let mut pinned = String::from("# policy, FNV-1a over the 64 fused scripts (tick_until.rs)\n");
    for policy in PolicyKind::ALL {
        let mut stream = 0xcbf2_9ce4_8422_2325;
        for seed in 0..64u64 {
            fnv1a(
                &mut stream,
                &[drive(0x71c4_0000 + seed, policy, true).stream],
            );
        }
        pinned += &format!("{:<8} {stream:016x}\n", policy.name());
    }
    golden::check("command-streams.txt", &pinned);
}

/// `drive` with everything that can move a channel behind the
/// controller's back, on a 4-rank × 8-bank channel: besides arrivals, a
/// window may start with a clock step (up or down), a policy switch, a bare
/// `Channel::issue`, a tick of a *second* controller on the same channel,
/// or a `clone()` of the whole lane, after which both copies run the rest
/// of the script. Returns the original lane's run and, if the script
/// cloned, the copy's.
fn drive_disturbed(seed: u64, policy: PolicyKind, fused: bool) -> (Run, Option<Run>) {
    const RATIOS: [(u64, u64); 4] = [(1, 1), (4, 3), (3, 2), (2, 1)];
    let mut rng = StdRng::seed_from_u64(seed);
    let timing = TimingParams::lpddr4_1866();
    assert!(timing.refresh_enabled());
    let horizon = Cycle::new(3 * timing.trefi());
    let mut lanes = vec![Lane::new(policy, Channel::new(timing, 4, 8, 128))];
    // Per lane, the foreign controller: its own table over the lane's channel.
    let mut foreign = vec![controller(policy)];

    let mut id = 0u64;
    let mut start = Cycle::ZERO;
    while start < horizon {
        let end = start + rng.gen_range(1u64..400);
        match rng.gen_range(0u32..12) {
            0 => {
                let (num, den) = RATIOS[rng.gen_range(0..RATIOS.len())];
                for lane in &mut lanes {
                    lane.chan.set_clock(num, den);
                    lane.wake(start);
                }
            }
            1 => {
                let policy = PolicyKind::ALL[rng.gen_range(0..PolicyKind::ALL.len())];
                for lane in &mut lanes {
                    lane.ctrl.set_policy(policy);
                    lane.wake(start);
                }
            }
            2 => {
                let (txn, mut loc) = random_txn(&mut rng, id, start);
                loc.rank = rng.gen_range(0usize..4);
                for lane in &mut lanes {
                    let mut at = start.max(lane.frontier);
                    loop {
                        lane.chan.advance(at);
                        let legal = lane.chan.earliest(&loc, txn.op);
                        if legal <= at {
                            break;
                        }
                        at = legal;
                    }
                    lane.chan.issue(&loc, txn.op, at);
                    lane.wake(start);
                }
            }
            3 => {
                let (txn, mut loc) = random_txn(&mut rng, 1 << 32 | id, start);
                loc.rank = rng.gen_range(0usize..4);
                for (lane, other) in lanes.iter_mut().zip(&mut foreign) {
                    if other.queued() < 8 {
                        other.accept(txn.clone(), loc, start);
                    }
                    let t = start.max(lane.frontier);
                    let result = if fused {
                        other.tick_until(t, end, &mut lane.chan)
                    } else {
                        tick_chain(other, &mut lane.chan, t, end)
                    };
                    lane.run.log.push(result);
                    lane.wake(start);
                }
            }
            4 if lanes.len() == 1 => {
                lanes.push(lanes[0].clone());
                foreign.push(foreign[0].clone());
            }
            _ => {}
        }
        for _ in 0..rng.gen_range(0usize..4) {
            if lanes[0].ctrl.queued() < 40 {
                let (txn, mut loc) = random_txn(&mut rng, id, start);
                loc.rank = rng.gen_range(0usize..4);
                id += 1;
                for lane in &mut lanes {
                    lane.accept(txn.clone(), loc, start);
                }
            }
        }
        for lane in &mut lanes {
            lane.run_window(end, fused);
        }
        start = end;
    }
    let mut runs = lanes.into_iter().map(Lane::finish);
    (runs.next().expect("one lane"), runs.next())
}

fn assert_same_run(a: &Run, b: &Run, what: &str) {
    assert_eq!(a.log.len(), b.log.len(), "{what}: result count");
    for (i, (x, y)) in a.log.iter().zip(&b.log).enumerate() {
        assert_eq!(x, y, "{what}: result {i}");
    }
    assert_eq!(a.stream, b.stream, "{what}: command stream");
    assert_eq!(a.mc, b.mc, "{what}: McStats");
    assert_eq!(a.dram, b.dram, "{what}: ChannelStats");
}

/// The scheduling table against a fresh scan, under every event that can
/// invalidate it. The oracle is the controller's own debug-build check
/// (each tick compares the whole table, `first_legal` and the row-guard
/// mask with a fresh `Channel::probe` of every entry and panics on the
/// first stale one), plus the fused/chained comparison and, for a cloned
/// lane, copy against original.
#[test]
fn the_table_stays_current_under_foreign_drivers_clock_steps_and_clones() {
    if !cfg!(debug_assertions) {
        panic!("the table's self-check is a debug assertion: run this test in a profile with them");
    }
    let (mut clones, mut refreshes) = (0, 0);
    for policy in PolicyKind::ALL {
        for seed in 0..64u64 {
            let what = format!("{policy:?} seed {seed}");
            let (fused, fused_copy) = drive_disturbed(0x7ab1_0000 + seed, policy, true);
            let (chained, _) = drive_disturbed(0x7ab1_0000 + seed, policy, false);
            assert_same_run(&fused, &chained, &what);
            assert!(fused.mc.total_completed() > 50, "{what}: traffic ran");
            refreshes += fused.dram.refreshes;
            if let Some(copy) = fused_copy {
                assert_same_run(&fused, &copy, &format!("{what}, clone"));
                clones += 1;
            }
        }
    }
    assert!(clones > 100, "only {clones} scripts cloned their lane");
    assert!(refreshes > 384, "only {refreshes} refreshes ran");
}
