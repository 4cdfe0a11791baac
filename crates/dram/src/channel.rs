//! Per-channel timing engine: banks, rank constraints, data/command buses,
//! and the refresh engine.

use std::collections::VecDeque;

use sara_types::{Cycle, MemOp};

use crate::address::Location;
use crate::bank::Bank;
use crate::command::{CommandRecord, DramCommand, Issued, NextCommand};
use crate::stats::ChannelStats;
use crate::timing::TimingParams;

/// Rank-scoped activation bookkeeping (tRRD spacing and the tFAW window).
#[derive(Debug, Clone)]
struct RankTiming {
    last_act: Cycle,
    has_act: bool,
    /// Issue times of up to the last four ACTs (for tFAW).
    recent_acts: VecDeque<Cycle>,
    /// Earliest next ACT under the timing in force: tRRD and tFAW applied
    /// to the history above, recomputed whenever either changes.
    next_act: Cycle,
}

impl RankTiming {
    fn new() -> Self {
        RankTiming {
            last_act: Cycle::ZERO,
            has_act: false,
            recent_acts: VecDeque::with_capacity(4),
            next_act: Cycle::ZERO,
        }
    }

    /// Re-derives `next_act` from the ACT history under `timing`.
    fn retime(&mut self, timing: &TimingParams) {
        let mut at = Cycle::ZERO;
        if self.has_act {
            at = at.max(self.last_act + timing.trrd());
        }
        if self.recent_acts.len() == 4 {
            at = at.max(*self.recent_acts.front().expect("len checked") + timing.tfaw());
        }
        self.next_act = at;
    }

    fn record_act(&mut self, t: Cycle, timing: &TimingParams) {
        self.last_act = t;
        self.has_act = true;
        if self.recent_acts.len() == 4 {
            self.recent_acts.pop_front();
        }
        self.recent_acts.push_back(t);
        self.retime(timing);
    }
}

/// The channel-wide half of every legality bound, from [`Channel::gates`]:
/// nothing in here depends on which bank a transaction targets, so a pass
/// over N queue entries pays for it once instead of N times. Valid while
/// [`Channel::version`] reads what it read when the gates were taken:
/// every [`Channel::issue`] moves at least one of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gates {
    /// Command bus free and refresh over: gates ACT and PRE.
    row: Cycle,
    /// `row` plus tCCD, write→read turnaround and the data-bus
    /// reservation: gates RD.
    read: Cycle,
    /// `row` plus tCCD, read→write turnaround and the data-bus
    /// reservation: gates WR.
    write: Cycle,
}

impl Gates {
    /// The channel-wide bound on command `next` of an `op` transaction —
    /// the half of [`Channel::probe`] that [`Channel::probe_local`] leaves
    /// out. It moves with every issued command, so a caller that caches
    /// `probe_local` results must still re-join them with fresh gates
    /// whenever [`Channel::version`] has moved.
    #[inline]
    pub fn bound(&self, next: NextCommand, op: MemOp) -> Cycle {
        // Plain loads behind data-dependent choices, so the match can
        // compile to selects: which entries hit their open row is data a
        // branch predictor cannot learn.
        match (next, op) {
            (NextCommand::Activate | NextCommand::Precharge, _) => self.row,
            (NextCommand::Column, MemOp::Read) => self.read,
            (NextCommand::Column, MemOp::Write) => self.write,
        }
    }
}

/// One DRAM channel: an independent command/data bus with its own ranks and
/// banks, enforcing every timing constraint of [`TimingParams`].
///
/// A channel is a self-contained timing domain. It carries its *reference*
/// timing set (the datasheet values at the beat clock it was built at) and
/// the clock ratio currently in force, so a lane-structured simulation can
/// step each channel's effective DRAM frequency independently via
/// [`Channel::set_clock`] while the simulation beat clock stays fixed.
/// Because every re-parameterisation is derived from the reference set,
/// repeated up/down steps never compound rounding.
#[derive(Debug, Clone)]
pub struct Channel {
    timing: TimingParams,
    /// The datasheet timing set at the beat clock; [`Channel::set_clock`]
    /// always rescales from here, never from the current set.
    reference: TimingParams,
    /// Clock ratio `(num, den)` in force: the effective memory clock runs
    /// at `den/num` of the beat clock (so `num/den ≥ 1` stretches).
    clock_ratio: (u64, u64),
    banks_per_rank: usize,
    burst_bytes: u32,
    banks: Vec<Bank>,
    ranks: Vec<RankTiming>,
    /// First cycle a new data burst may start on the data bus.
    bus_free_at: Cycle,
    /// Earliest next CAS command (tCCD).
    cas_ready: Cycle,
    /// Earliest next RD command (write→read turnaround).
    rd_ready: Cycle,
    /// Earliest next WR command (read→write bus turnaround).
    wr_ready: Cycle,
    /// Command bus: one command per cycle.
    cmd_free_at: Cycle,
    /// Next due time for all-bank refresh (if enabled).
    refresh_due: Cycle,
    /// Channel blocked for refresh until this cycle.
    refresh_busy_until: Cycle,
    /// Latest `advance` time seen — the channel's notion of "now", used
    /// to re-arm refresh sanely when a timing swap re-enables it.
    advanced_to: Cycle,
    /// The most recent command [`Channel::issue`] put on the bus.
    last_issued: Option<CommandRecord>,
    /// Counts the state changes that can move a legality bound; see
    /// [`Channel::version`].
    version: u64,
    stats: ChannelStats,
}

impl Channel {
    /// Creates a channel with the given reference timing and geometry.
    pub fn new(timing: TimingParams, ranks: usize, banks: usize, burst_bytes: u32) -> Self {
        let refresh_due = if timing.refresh_enabled() {
            Cycle::new(timing.trefi())
        } else {
            Cycle::MAX
        };
        Channel {
            banks_per_rank: banks,
            burst_bytes,
            banks: (0..ranks * banks).map(|_| Bank::new()).collect(),
            ranks: (0..ranks).map(|_| RankTiming::new()).collect(),
            bus_free_at: Cycle::ZERO,
            cas_ready: Cycle::ZERO,
            rd_ready: Cycle::ZERO,
            wr_ready: Cycle::ZERO,
            cmd_free_at: Cycle::ZERO,
            refresh_due,
            refresh_busy_until: Cycle::ZERO,
            advanced_to: Cycle::ZERO,
            last_issued: None,
            version: 0,
            stats: ChannelStats::default(),
            reference: timing.clone(),
            clock_ratio: (1, 1),
            timing,
        }
    }

    /// The channel-wide index of `loc`'s bank, `rank * banks + bank`:
    /// distinct for every bank of the channel and below `ranks * banks`
    /// (at most 64 for a [`crate::DramConfig`]-built channel, so it can
    /// index a `u64` bank mask exactly). Two locations with the same index
    /// share their [`Channel::probe_local`] state; a command to one bank
    /// never changes the bank-local bound of a location with another index.
    #[inline]
    pub fn bank_index(&self, loc: &Location) -> usize {
        loc.rank * self.banks_per_rank + loc.bank
    }

    /// A counter that moves whenever a legality bound may have: on every
    /// [`Channel::issue`], on a refresh performed by [`Channel::advance`]
    /// and on [`Channel::set_timing`] (hence [`Channel::set_clock`]).
    /// While it reads the same, every [`Channel::gates`] and
    /// [`Channel::probe_local`] value taken earlier is still exact, so a
    /// scheduler that repairs its cached bounds after its own commands
    /// needs one compare per tick to notice everyone else's.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Statistics of this channel.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// The timing set currently gating commands (the reference set
    /// rescaled by [`Channel::clock_ratio`]).
    #[inline]
    pub fn timing(&self) -> &TimingParams {
        &self.timing
    }

    /// The clock ratio `(num, den)` in force: the effective memory clock
    /// runs at `den/num` of the beat clock.
    #[inline]
    pub fn clock_ratio(&self) -> (u64, u64) {
        self.clock_ratio
    }

    /// Steps this channel's clock domain: the effective memory clock runs
    /// at `den/num` of the beat clock from now on, so every
    /// cycle-denominated constraint is re-derived from the *reference*
    /// timing set stretched by `num/den` (see
    /// [`TimingParams::rescaled`]). The beat clock itself never changes;
    /// state carries over exactly as in [`Channel::set_timing`]. Because
    /// the rescale always starts from the reference set, repeated steps do
    /// not compound rounding, and `set_clock(1, 1)` restores the
    /// reference exactly. Idempotent when the ratio is already in force.
    ///
    /// # Panics
    ///
    /// Panics if `num` or `den` is zero.
    pub fn set_clock(&mut self, num: u64, den: u64) {
        assert!(num > 0 && den > 0, "clock ratio must be positive");
        if self.clock_ratio == (num, den) {
            return;
        }
        let scaled = if (num, den) == (1, 1) {
            self.reference.clone()
        } else {
            self.reference.rescaled(num, den)
        };
        self.set_timing(scaled);
        self.clock_ratio = (num, den);
    }

    /// Swaps the timing set mid-run (online DVFS). All absolute state —
    /// open rows, per-bank next-legal cycles, bus reservations, the
    /// pending refresh deadline — carries over unchanged: constraints
    /// already scheduled under the old clock remain as scheduled, and
    /// every command issued from now on is gated by the new set.
    pub fn set_timing(&mut self, timing: TimingParams) {
        match (self.timing.refresh_enabled(), timing.refresh_enabled()) {
            // Refresh switched on mid-run: arm the first deadline one
            // interval past the channel's current time (not past cycle
            // zero — that would trigger a burst of catch-up refreshes on
            // the next `advance`).
            (false, true) => {
                self.refresh_due = self.advanced_to.max(self.refresh_busy_until) + timing.trefi();
            }
            (true, false) => self.refresh_due = Cycle::MAX,
            // Keep the already-armed deadline; intervals from the next
            // refresh on use the new tREFI.
            _ => {}
        }
        self.timing = timing;
        for rank in &mut self.ranks {
            rank.retime(&self.timing);
        }
        self.version += 1;
    }

    /// Lazily performs any refresh that has become due by `now`; returns
    /// whether one was performed (bank state and the refresh horizon
    /// changed, so values read before the call are stale).
    ///
    /// Refresh is modelled conservatively: once due, the channel stops
    /// accepting new commands, waits until every bank may precharge, then
    /// spends `tRP + tRFC` refreshing. Banks come back closed.
    pub fn advance(&mut self, now: Cycle) -> bool {
        self.advanced_to = self.advanced_to.max(now);
        if now < self.refresh_due || !self.timing.refresh_enabled() {
            return false;
        }
        while now >= self.refresh_due {
            // Refresh may only start once every bank can legally precharge
            // and any previously scheduled refresh has finished.
            let mut start = self.refresh_due.max(self.refresh_busy_until);
            for bank in &self.banks {
                if bank.open_row().is_some() {
                    start = start.max(bank.pre_at());
                }
            }
            let end = start + (self.timing.trp() + self.timing.trfc());
            for bank in &mut self.banks {
                bank.apply_refresh(end);
            }
            self.refresh_busy_until = end;
            self.refresh_due += self.timing.trefi();
            self.stats.refreshes += 1;
        }
        self.version += 1;
        true
    }

    /// The command a transaction at `loc` needs next.
    pub fn next_command(&self, loc: &Location) -> NextCommand {
        self.banks[self.bank_index(loc)].next_command(loc.row)
    }

    /// The channel-wide legality bounds in force right now — the half of
    /// [`Channel::probe`] that does not depend on the bank.
    pub fn gates(&self) -> Gates {
        let t = &self.timing;
        let row = self.cmd_free_at.max(self.refresh_busy_until);
        let cas = row.max(self.cas_ready);
        // Data may start at issue + CL (WL for writes); it must not
        // overlap the bus reservation.
        let read_data = Cycle::new(self.bus_free_at.saturating_sub(Cycle::new(t.cl())));
        let write_data = Cycle::new(self.bus_free_at.saturating_sub(Cycle::new(t.wl())));
        Gates {
            row,
            read: cas.max(self.rd_ready).max(read_data),
            write: cas.max(self.wr_ready).max(write_data),
        }
    }

    /// The command a transaction at `loc` needs next and the bank- and
    /// rank-local bound on it (tRCD, tRAS, tRTP, tWR, tRP, tRFC; tRRD and
    /// tFAW for an ACT), from one bank lookup — the half of
    /// [`Channel::probe`] a scheduler may cache. With [`Channel::version`]
    /// unmoved the pair is exact; an [`Channel::issue`] changes it only
    /// for locations with the issued [`Channel::bank_index`] and, when the
    /// command was an ACT, for locations of the same rank that themselves
    /// need an ACT; a refresh or a timing swap may change all of them.
    #[inline]
    pub fn probe_local(&self, loc: &Location) -> (NextCommand, Cycle) {
        let bank = &self.banks[self.bank_index(loc)];
        let next = bank.next_command(loc.row);
        let local = match next {
            NextCommand::Activate => bank.act_at().max(self.ranks[loc.rank].next_act),
            NextCommand::Precharge => bank.pre_at(),
            NextCommand::Column => bank.cas_at(),
        };
        (next, local)
    }

    /// The command (`loc`, `op`) needs next and the earliest cycle it may
    /// legally issue: [`Channel::probe_local`] joined with
    /// [`Gates::bound`]. This is the one place legality is computed —
    /// [`Channel::earliest`] and [`Channel::issue`]'s assert both go
    /// through it.
    #[inline]
    pub fn probe(&self, gates: &Gates, loc: &Location, op: MemOp) -> (NextCommand, Cycle) {
        let (next, local) = self.probe_local(loc);
        (next, local.max(gates.bound(next, op)))
    }

    /// Earliest cycle at which the *next* command for (`loc`, `op`) may
    /// legally issue. Always ≥ the refresh-busy horizon.
    pub fn earliest(&self, loc: &Location, op: MemOp) -> Cycle {
        self.probe(&self.gates(), loc, op).1
    }

    /// Issues the next command needed by (`loc`, `op`) at cycle `now`.
    ///
    /// # Panics
    ///
    /// Panics (in all builds) if `now` is earlier than [`Self::earliest`]
    /// allows — the memory controller must never issue an illegal command.
    pub fn issue(&mut self, loc: &Location, op: MemOp, now: Cycle) -> Issued {
        let (need, legal_at) = self.probe(&self.gates(), loc, op);
        assert!(
            now >= legal_at,
            "illegal command issue at {now} (earliest {legal_at}) for {loc} {op}"
        );
        let t = &self.timing;
        let bank_idx = self.bank_index(loc);
        let bank = &mut self.banks[bank_idx];
        let issued = match need {
            NextCommand::Activate => {
                bank.apply_activate(now, loc.row, t.trcd(), t.tras());
                self.ranks[loc.rank].record_act(now, t);
                self.stats.activates += 1;
                Issued::Activate
            }
            NextCommand::Precharge => {
                bank.apply_precharge(now, t.trp());
                self.stats.precharges += 1;
                Issued::Precharge
            }
            NextCommand::Column => {
                let bl = t.burst_beats();
                self.cas_ready = now + t.tccd();
                match op {
                    MemOp::Read => {
                        let data_start = now + t.cl();
                        let data_end = data_start + bl;
                        self.bus_free_at = data_end;
                        // Read→write: write data must wait for the bus plus
                        // a turnaround gap.
                        let wr_gate = (data_end + t.rtw_gap()).saturating_sub(Cycle::new(t.wl()));
                        self.wr_ready = self.wr_ready.max(Cycle::new(wr_gate));
                        let outcome = bank.apply_read(now, t.trtp());
                        self.stats.record_outcome(outcome);
                        self.stats.reads += 1;
                        self.stats.data_beats += bl;
                        self.stats.read_bytes += self.burst_bytes as u64;
                        Issued::Read {
                            data_ready: data_end,
                        }
                    }
                    MemOp::Write => {
                        let data_start = now + t.wl();
                        let data_end = data_start + bl;
                        self.bus_free_at = data_end;
                        // Write→read turnaround measured from end of data.
                        self.rd_ready = self.rd_ready.max(data_end + t.twtr());
                        let outcome = bank.apply_write(now, data_end, t.twr());
                        self.stats.record_outcome(outcome);
                        self.stats.writes += 1;
                        self.stats.data_beats += bl;
                        self.stats.write_bytes += self.burst_bytes as u64;
                        Issued::Write {
                            data_done: data_end,
                        }
                    }
                }
            }
        };
        self.cmd_free_at = now + 1;
        self.version += 1;
        self.last_issued = Some(CommandRecord {
            at: now,
            loc: *loc,
            cmd: match issued {
                Issued::Activate => DramCommand::Activate { row: loc.row },
                Issued::Precharge => DramCommand::Precharge,
                Issued::Read { .. } => DramCommand::Read,
                Issued::Write { .. } => DramCommand::Write,
            },
        });
        issued
    }

    /// The most recent command [`Channel::issue`] put on the bus (`None`
    /// before the first). Lets a test tee a controller-driven command
    /// stream into the independent [`crate::TimingChecker`].
    #[inline]
    pub fn last_issued(&self) -> Option<CommandRecord> {
        self.last_issued
    }

    /// Cycle when the channel next becomes usable if it is refresh-blocked.
    pub fn refresh_horizon(&self) -> Cycle {
        self.refresh_busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_channel() -> Channel {
        Channel::new(TimingParams::lpddr4_1866(), 2, 8, 128)
    }

    fn loc(rank: usize, bank: usize, row: u32, col: u32) -> Location {
        Location {
            channel: 0,
            rank,
            bank,
            row,
            col,
        }
    }

    /// Drives the transaction at `loc` to completion, returning (finish
    /// cycle, commands issued).
    fn complete(ch: &mut Channel, l: &Location, op: MemOp, mut now: Cycle) -> (Cycle, u32) {
        let mut cmds = 0;
        loop {
            now = now.max(ch.earliest(l, op));
            let issued = ch.issue(l, op, now);
            cmds += 1;
            if let Some(done) = issued.completion() {
                return (done, cmds);
            }
        }
    }

    #[test]
    fn closed_bank_read_pays_act_plus_cas() {
        let mut ch = test_channel();
        let l = loc(0, 0, 10, 0);
        let (done, cmds) = complete(&mut ch, &l, MemOp::Read, Cycle::ZERO);
        assert_eq!(cmds, 2); // ACT + RD
                             // ACT@0, RD@tRCD=34, data ends at 34+CL+BL = 34+36+16
        assert_eq!(done, Cycle::new(86));
        assert_eq!(ch.stats().row_misses, 1);
    }

    #[test]
    fn row_hit_skips_activate() {
        let mut ch = test_channel();
        let l = loc(0, 0, 10, 0);
        let (_, _) = complete(&mut ch, &l, MemOp::Read, Cycle::ZERO);
        let l2 = loc(0, 0, 10, 1);
        let (done, cmds) = complete(&mut ch, &l2, MemOp::Read, Cycle::new(50));
        assert_eq!(cmds, 1);
        assert_eq!(ch.stats().row_hits, 1);
        // second RD can issue at tCCD after the first (34+16=50)
        assert_eq!(done, Cycle::new(50 + 36 + 16));
    }

    #[test]
    fn row_conflict_pays_pre_act_cas() {
        let mut ch = test_channel();
        let (_, _) = complete(&mut ch, &loc(0, 0, 10, 0), MemOp::Read, Cycle::ZERO);
        let other_row = loc(0, 0, 11, 0);
        let (_, cmds) = complete(&mut ch, &other_row, MemOp::Read, Cycle::new(100));
        assert_eq!(cmds, 3); // PRE + ACT + RD
        assert_eq!(ch.stats().row_conflicts, 1);
        assert_eq!(ch.stats().precharges, 1);
    }

    #[test]
    fn trrd_spaces_activates_same_rank() {
        let mut ch = test_channel();
        ch.issue(&loc(0, 0, 1, 0), MemOp::Read, Cycle::ZERO); // ACT bank0
        let e = ch.earliest(&loc(0, 1, 1, 0), MemOp::Read);
        assert_eq!(e, Cycle::new(19)); // tRRD
    }

    #[test]
    fn different_ranks_not_trrd_constrained() {
        let mut ch = test_channel();
        ch.issue(&loc(0, 0, 1, 0), MemOp::Read, Cycle::ZERO);
        let e = ch.earliest(&loc(1, 0, 1, 0), MemOp::Read);
        // only command-bus spacing applies
        assert_eq!(e, Cycle::new(1));
    }

    #[test]
    fn four_activate_window_with_table1_params_is_trrd_bound() {
        let mut ch = test_channel();
        let mut now = Cycle::ZERO;
        for b in 0..4 {
            let l = loc(0, b, 1, 0);
            now = now.max(ch.earliest(&l, MemOp::Read));
            ch.issue(&l, MemOp::Read, now);
        }
        // ACTs at 0, 19, 38, 57. With Table 1 values 4·tRRD (76) exceeds
        // tFAW (75), so pairwise spacing dominates the window.
        let e = ch.earliest(&loc(0, 4, 1, 0), MemOp::Read);
        assert_eq!(e, Cycle::new(76));
    }

    #[test]
    fn tfaw_binds_when_trrd_is_small() {
        let timing = TimingParams::builder().trrd(10).build().unwrap();
        let mut ch = Channel::new(timing, 2, 8, 128);
        let mut now = Cycle::ZERO;
        for b in 0..4 {
            let l = loc(0, b, 1, 0);
            now = now.max(ch.earliest(&l, MemOp::Read));
            ch.issue(&l, MemOp::Read, now);
        }
        // ACTs at 0, 10, 20, 30; 5th gated by tFAW from the 1st (75), not
        // tRRD from the 4th (40).
        let e = ch.earliest(&loc(0, 4, 1, 0), MemOp::Read);
        assert_eq!(e, Cycle::new(75));
    }

    #[test]
    fn write_to_read_turnaround_enforced() {
        let mut ch = test_channel();
        let l = loc(0, 0, 1, 0);
        let (done, _) = complete(&mut ch, &l, MemOp::Write, Cycle::ZERO);
        // WR issued at 34, data ends 34+18+16=68
        assert_eq!(done, Cycle::new(68));
        let e = ch.earliest(&loc(0, 0, 1, 1), MemOp::Read);
        // rd_ready = data_end + tWTR = 68 + 19 = 87
        assert_eq!(e, Cycle::new(87));
    }

    #[test]
    fn data_bus_serialises_bursts_across_banks() {
        let mut ch = test_channel();
        // Open two banks.
        ch.issue(&loc(0, 0, 1, 0), MemOp::Read, Cycle::ZERO);
        ch.issue(&loc(0, 1, 1, 0), MemOp::Read, Cycle::new(19));
        // Read bank 0 at 34 → data [70, 86).
        let e0 = ch.earliest(&loc(0, 0, 1, 0), MemOp::Read);
        assert_eq!(e0, Cycle::new(34));
        ch.issue(&loc(0, 0, 1, 0), MemOp::Read, Cycle::new(34));
        // Bank 1 CAS legal at 53 (tRCD), but tCCD forces 50 → 53; bus would
        // collide only if issue+CL < 86, i.e. tCCD (16) already spaces it.
        let e1 = ch.earliest(&loc(0, 1, 1, 0), MemOp::Read);
        assert_eq!(e1, Cycle::new(53));
    }

    #[test]
    fn refresh_blocks_channel_and_closes_banks() {
        let mut ch = test_channel();
        let l = loc(0, 0, 1, 0);
        let (_, _) = complete(&mut ch, &l, MemOp::Read, Cycle::ZERO);
        assert_eq!(ch.stats().refreshes, 0);
        // Jump past the refresh interval.
        ch.advance(Cycle::new(8000));
        assert_eq!(ch.stats().refreshes, 1);
        // Bank was closed by refresh → needs ACT, gated by the horizon.
        assert_eq!(ch.next_command(&l), NextCommand::Activate);
        assert!(ch.earliest(&l, MemOp::Read) >= ch.refresh_horizon());
        assert!(ch.refresh_horizon() >= Cycle::new(7280 + 34 + 522));
    }

    #[test]
    fn multiple_overdue_refreshes_processed() {
        let mut ch = test_channel();
        ch.advance(Cycle::new(7280 * 3 + 10));
        assert_eq!(ch.stats().refreshes, 3);
    }

    #[test]
    fn rank_act_spacing_follows_a_timing_swap() {
        // tRRD/tFAW gate the *next* ACT with the timing in force when it
        // is asked for, not the one in force when the last ACT issued.
        let mut ch = test_channel();
        ch.issue(&loc(0, 0, 1, 0), MemOp::Read, Cycle::ZERO);
        let other_bank = loc(0, 1, 1, 0);
        assert_eq!(ch.earliest(&other_bank, MemOp::Read), Cycle::new(19));
        ch.set_clock(2, 1);
        assert_eq!(ch.timing().trrd(), 38);
        assert_eq!(ch.earliest(&other_bank, MemOp::Read), Cycle::new(38));
        ch.set_clock(1, 1);
        assert_eq!(ch.earliest(&other_bank, MemOp::Read), Cycle::new(19));
    }

    #[test]
    fn last_issued_records_each_command() {
        let mut ch = test_channel();
        assert_eq!(ch.last_issued(), None);
        let l = loc(1, 3, 7, 2);
        ch.issue(&l, MemOp::Write, Cycle::new(5));
        let act = ch.last_issued().unwrap();
        assert_eq!((act.at, act.loc), (Cycle::new(5), l));
        assert_eq!(act.cmd, DramCommand::Activate { row: 7 });
        let at = ch.earliest(&l, MemOp::Write);
        ch.issue(&l, MemOp::Write, at);
        assert_eq!(ch.last_issued().unwrap().cmd, DramCommand::Write);
        assert_eq!(ch.last_issued().unwrap().at, at);
    }

    #[test]
    #[should_panic(expected = "illegal command issue")]
    fn premature_issue_panics() {
        let mut ch = test_channel();
        ch.issue(&loc(0, 0, 1, 0), MemOp::Read, Cycle::ZERO); // ACT
                                                              // RD before tRCD elapses must panic.
        ch.issue(&loc(0, 0, 1, 0), MemOp::Read, Cycle::new(10));
    }

    #[test]
    fn re_enabling_refresh_mid_run_does_not_burst_catch_up() {
        let off = TimingParams::builder()
            .refresh_enabled(false)
            .build()
            .unwrap();
        let mut ch = Channel::new(off, 2, 8, 128);
        // Run far past many would-be refresh intervals with refresh off.
        ch.advance(Cycle::new(10_000_000));
        assert_eq!(ch.stats().refreshes, 0);
        // Re-enable: the first deadline must be one interval from *now*,
        // not ~1400 overdue intervals from cycle zero.
        ch.set_timing(TimingParams::lpddr4_1866());
        ch.advance(Cycle::new(10_000_001));
        assert_eq!(ch.stats().refreshes, 0, "no instant catch-up burst");
        ch.advance(Cycle::new(10_000_000 + 7280));
        assert_eq!(ch.stats().refreshes, 1);
    }

    #[test]
    fn clock_domain_steps_from_the_reference_and_restores_exactly() {
        let mut ch = test_channel();
        assert_eq!(ch.clock_ratio(), (1, 1));
        let l = loc(0, 0, 10, 0);
        let (_, _) = complete(&mut ch, &l, MemOp::Read, Cycle::ZERO);
        // Half-speed: constraints double; the open row survives the step.
        ch.set_clock(2, 1);
        assert_eq!(ch.clock_ratio(), (2, 1));
        assert_eq!(ch.timing().trcd(), 68);
        assert_eq!(ch.next_command(&loc(0, 0, 10, 1)), NextCommand::Column);
        // Stepping through a third ratio and back to 1:1 restores the
        // reference timing bit-for-bit (no compounding).
        ch.set_clock(3, 2);
        ch.set_clock(1, 1);
        assert_eq!(ch.timing(), &ch.reference);
        assert_eq!(ch.timing(), &TimingParams::lpddr4_1866());
    }

    #[test]
    #[should_panic(expected = "clock ratio must be positive")]
    fn zero_clock_ratio_panics() {
        let mut ch = test_channel();
        ch.set_clock(0, 1);
    }

    #[test]
    fn refresh_disabled_never_refreshes() {
        let timing = TimingParams::builder()
            .refresh_enabled(false)
            .build()
            .unwrap();
        let mut ch = Channel::new(timing, 2, 8, 128);
        ch.advance(Cycle::new(100_000_000));
        assert_eq!(ch.stats().refreshes, 0);
    }
}
