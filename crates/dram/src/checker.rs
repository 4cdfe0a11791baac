//! Independent timing validator.
//!
//! [`TimingChecker`] re-derives DRAM timing legality from first principles,
//! deliberately sharing no code with [`crate::Dram`]'s bookkeeping. Tests
//! (including property-based tests driving random command mixes) feed every
//! issued command to the checker; any divergence between the two
//! implementations surfaces as a [`TimingViolation`].

use core::fmt;
use std::collections::VecDeque;
use std::error::Error;

use sara_types::Cycle;

use crate::address::Location;
use crate::command::{CommandRecord, DramCommand};
use crate::config::DramConfig;

/// A detected violation of a DRAM timing constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingViolation {
    constraint: &'static str,
    detail: String,
}

impl TimingViolation {
    fn new(constraint: &'static str, detail: String) -> Self {
        TimingViolation { constraint, detail }
    }

    /// Name of the violated constraint (e.g. `"tRCD"`).
    pub fn constraint(&self) -> &'static str {
        self.constraint
    }
}

impl fmt::Display for TimingViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} violation: {}", self.constraint, self.detail)
    }
}

impl Error for TimingViolation {}

#[derive(Debug, Clone)]
struct BankShadow {
    open_row: Option<u32>,
    last_act: Option<Cycle>,
    last_pre: Option<Cycle>,
    last_rd: Option<Cycle>,
    last_wr_data_end: Option<Cycle>,
}

impl BankShadow {
    fn new() -> Self {
        BankShadow {
            open_row: None,
            last_act: None,
            last_pre: None,
            last_rd: None,
            last_wr_data_end: None,
        }
    }
}

/// Shadow model validating a stream of [`CommandRecord`]s.
///
/// # Examples
///
/// ```
/// use sara_dram::{CommandRecord, DramCommand, DramConfig, Location, TimingChecker};
/// use sara_types::Cycle;
///
/// let mut checker = TimingChecker::new(DramConfig::table1_1866());
/// let loc = Location { channel: 0, rank: 0, bank: 0, row: 7, col: 0 };
/// checker.check(&CommandRecord {
///     at: Cycle::ZERO,
///     loc,
///     cmd: DramCommand::Activate { row: 7 },
/// })?;
/// // Reading before tRCD elapses is rejected:
/// let early = CommandRecord { at: Cycle::new(5), loc, cmd: DramCommand::Read };
/// assert!(checker.check(&early).is_err());
/// # Ok::<(), sara_dram::TimingViolation>(())
/// ```
#[derive(Debug, Clone)]
pub struct TimingChecker {
    cfg: DramConfig,
    banks: Vec<Vec<BankShadow>>,          // [channel][rank*banks + bank]
    rank_acts: Vec<Vec<VecDeque<Cycle>>>, // [channel][rank] recent ACT times
    chan_last_cas: Vec<Option<Cycle>>,
    chan_bus: Vec<Option<(Cycle, Cycle)>>, // last data burst [start, end)
    chan_last_wr_data_end: Vec<Option<Cycle>>,
    chan_last_rd_data_end: Vec<Option<Cycle>>,
    chan_last_cmd: Vec<Option<Cycle>>,
}

impl TimingChecker {
    /// Creates a checker for the given geometry/timing.
    pub fn new(cfg: DramConfig) -> Self {
        let nch = cfg.channels();
        let nbanks = cfg.ranks() * cfg.banks();
        TimingChecker {
            banks: (0..nch)
                .map(|_| (0..nbanks).map(|_| BankShadow::new()).collect())
                .collect(),
            rank_acts: (0..nch)
                .map(|_| (0..cfg.ranks()).map(|_| VecDeque::new()).collect())
                .collect(),
            chan_last_cas: vec![None; nch],
            chan_bus: vec![None; nch],
            chan_last_wr_data_end: vec![None; nch],
            chan_last_rd_data_end: vec![None; nch],
            chan_last_cmd: vec![None; nch],
            cfg,
        }
    }

    fn bank(&mut self, loc: &Location) -> &mut BankShadow {
        &mut self.banks[loc.channel][loc.rank * self.cfg.banks() + loc.bank]
    }

    /// Validates one command and folds it into the shadow state.
    ///
    /// # Errors
    ///
    /// Returns the first [`TimingViolation`] detected; state is still
    /// updated so that fuzzers can continue feeding commands.
    pub fn check(&mut self, rec: &CommandRecord) -> Result<(), TimingViolation> {
        let t = self.cfg.timing().clone();
        let at = rec.at;
        let ch = rec.loc.channel;
        let mut result = Ok(());
        let mut fail = |c: &'static str, d: String| {
            if result.is_ok() {
                result = Err(TimingViolation::new(c, d));
            }
        };

        // Command bus: at most one command per cycle per channel.
        if let Some(last) = self.chan_last_cmd[ch] {
            if at <= last {
                fail(
                    "CMD-BUS",
                    format!("{rec} issued at or before previous command {last}"),
                );
            }
        }
        self.chan_last_cmd[ch] = Some(at);

        match rec.cmd {
            DramCommand::Activate { row } => {
                // tRRD / tFAW.
                let acts = &self.rank_acts[ch][rec.loc.rank];
                if let Some(&last) = acts.back() {
                    if at.saturating_sub(last) < t.trrd() {
                        fail("tRRD", format!("{rec}: last ACT at {last}"));
                    }
                }
                if acts.len() >= 4 {
                    let fourth_back = acts[acts.len() - 4];
                    if at.saturating_sub(fourth_back) < t.tfaw() {
                        fail("tFAW", format!("{rec}: 4th-previous ACT at {fourth_back}"));
                    }
                }
                let tras = t.tras();
                let trp = t.trp();
                let bank = self.bank(&rec.loc);
                if bank.open_row.is_some() {
                    fail("ACT-on-open", format!("{rec}: bank already open"));
                }
                if let Some(pre) = bank.last_pre {
                    if at.saturating_sub(pre) < trp {
                        fail("tRP", format!("{rec}: PRE at {pre}"));
                    }
                }
                if let Some(act) = bank.last_act {
                    if at.saturating_sub(act) < tras + trp {
                        fail("tRC", format!("{rec}: previous ACT at {act}"));
                    }
                }
                bank.open_row = Some(row);
                bank.last_act = Some(at);
                let acts = &mut self.rank_acts[ch][rec.loc.rank];
                acts.push_back(at);
                if acts.len() > 8 {
                    acts.pop_front();
                }
            }
            DramCommand::Precharge => {
                let tras = t.tras();
                let trtp = t.trtp();
                let twr = t.twr();
                let bank = self.bank(&rec.loc);
                if bank.open_row.is_none() {
                    fail("PRE-on-closed", format!("{rec}: bank not open"));
                }
                if let Some(act) = bank.last_act {
                    if at.saturating_sub(act) < tras {
                        fail("tRAS", format!("{rec}: ACT at {act}"));
                    }
                }
                if let Some(rd) = bank.last_rd {
                    if at.saturating_sub(rd) < trtp {
                        fail("tRTP", format!("{rec}: RD at {rd}"));
                    }
                }
                if let Some(wr_end) = bank.last_wr_data_end {
                    if at.saturating_sub(wr_end) < twr {
                        fail("tWR", format!("{rec}: write data ended at {wr_end}"));
                    }
                }
                bank.open_row = None;
                bank.last_pre = Some(at);
            }
            DramCommand::Read | DramCommand::Write => {
                let is_read = matches!(rec.cmd, DramCommand::Read);
                let bl = t.burst_beats();
                let (lat, label) = if is_read {
                    (t.cl(), "RD")
                } else {
                    (t.wl(), "WR")
                };
                let data_start = at + lat;
                let data_end = data_start + bl;

                // tCCD.
                if let Some(cas) = self.chan_last_cas[ch] {
                    if at.saturating_sub(cas) < t.tccd() {
                        fail("tCCD", format!("{rec}: last CAS at {cas}"));
                    }
                }
                // Bus overlap.
                if let Some((_, busy_end)) = self.chan_bus[ch] {
                    if data_start < busy_end {
                        fail(
                            "DATA-BUS",
                            format!("{rec}: {label} data starts {data_start} before bus free {busy_end}"),
                        );
                    }
                }
                if is_read {
                    if let Some(wr_end) = self.chan_last_wr_data_end[ch] {
                        if at.saturating_sub(wr_end) < t.twtr() {
                            fail("tWTR", format!("{rec}: write data ended {wr_end}"));
                        }
                    }
                } else if let Some(rd_end) = self.chan_last_rd_data_end[ch] {
                    if data_start.saturating_sub(rd_end) < t.rtw_gap() {
                        fail("RTW-GAP", format!("{rec}: read data ended {rd_end}"));
                    }
                }

                let trcd = t.trcd();
                let row = rec.loc.row;
                let bank = self.bank(&rec.loc);
                match bank.open_row {
                    None => fail("CAS-on-closed", format!("{rec}: bank not open")),
                    Some(open) if open != row => {
                        fail("CAS-wrong-row", format!("{rec}: open row {open}"))
                    }
                    Some(_) => {}
                }
                if let Some(act) = bank.last_act {
                    if at.saturating_sub(act) < trcd {
                        fail("tRCD", format!("{rec}: ACT at {act}"));
                    }
                }
                if is_read {
                    bank.last_rd = Some(at);
                    self.chan_last_rd_data_end[ch] = Some(data_end);
                } else {
                    bank.last_wr_data_end = Some(data_end);
                    self.chan_last_wr_data_end[ch] = Some(data_end);
                }
                self.chan_last_cas[ch] = Some(at);
                self.chan_bus[ch] = Some((data_start, data_end));
            }
            DramCommand::RefreshAll => {
                // Refresh legality is the refresh engine's concern; the
                // checker only resets bank state.
                for bank in &mut self.banks[ch] {
                    bank.open_row = None;
                }
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc(bank: usize, row: u32) -> Location {
        Location {
            channel: 0,
            rank: 0,
            bank,
            row,
            col: 0,
        }
    }

    fn rec(at: u64, l: Location, cmd: DramCommand) -> CommandRecord {
        CommandRecord {
            at: Cycle::new(at),
            loc: l,
            cmd,
        }
    }

    #[test]
    fn accepts_legal_sequence() {
        let mut c = TimingChecker::new(DramConfig::table1_1866());
        let l = loc(0, 3);
        c.check(&rec(0, l, DramCommand::Activate { row: 3 }))
            .unwrap();
        c.check(&rec(34, l, DramCommand::Read)).unwrap();
        c.check(&rec(50, l, DramCommand::Read)).unwrap();
        c.check(&rec(100, l, DramCommand::Precharge)).unwrap();
        c.check(&rec(134, l, DramCommand::Activate { row: 4 }))
            .unwrap();
    }

    #[test]
    fn rejects_trcd_violation() {
        let mut c = TimingChecker::new(DramConfig::table1_1866());
        let l = loc(0, 3);
        c.check(&rec(0, l, DramCommand::Activate { row: 3 }))
            .unwrap();
        let err = c.check(&rec(20, l, DramCommand::Read)).unwrap_err();
        assert_eq!(err.constraint(), "tRCD");
    }

    #[test]
    fn rejects_tras_violation() {
        let mut c = TimingChecker::new(DramConfig::table1_1866());
        let l = loc(0, 3);
        c.check(&rec(0, l, DramCommand::Activate { row: 3 }))
            .unwrap();
        let err = c.check(&rec(40, l, DramCommand::Precharge)).unwrap_err();
        assert_eq!(err.constraint(), "tRAS");
    }

    #[test]
    fn rejects_cas_to_closed_bank() {
        let mut c = TimingChecker::new(DramConfig::table1_1866());
        let err = c.check(&rec(0, loc(0, 3), DramCommand::Read)).unwrap_err();
        assert_eq!(err.constraint(), "CAS-on-closed");
    }

    #[test]
    fn rejects_wrong_row_cas() {
        let mut c = TimingChecker::new(DramConfig::table1_1866());
        let l = loc(0, 3);
        c.check(&rec(0, l, DramCommand::Activate { row: 3 }))
            .unwrap();
        let wrong = Location { row: 9, ..l };
        let err = c.check(&rec(50, wrong, DramCommand::Read)).unwrap_err();
        assert_eq!(err.constraint(), "CAS-wrong-row");
    }

    #[test]
    fn rejects_trrd_violation() {
        let mut c = TimingChecker::new(DramConfig::table1_1866());
        c.check(&rec(0, loc(0, 1), DramCommand::Activate { row: 1 }))
            .unwrap();
        let err = c
            .check(&rec(5, loc(1, 1), DramCommand::Activate { row: 1 }))
            .unwrap_err();
        assert_eq!(err.constraint(), "tRRD");
    }

    #[test]
    fn rejects_data_bus_overlap() {
        let mut c = TimingChecker::new(DramConfig::table1_1866());
        c.check(&rec(0, loc(0, 1), DramCommand::Activate { row: 1 }))
            .unwrap();
        c.check(&rec(19, loc(1, 1), DramCommand::Activate { row: 1 }))
            .unwrap();
        c.check(&rec(53, loc(0, 1), DramCommand::Read)).unwrap();
        // tCCD satisfied at 69, but data 69+36 < 53+36+16 → overlap.
        // Actually 105 >= 105: boundary is legal; use 68 to force both.
        let err = c.check(&rec(68, loc(1, 1), DramCommand::Read)).unwrap_err();
        assert!(err.constraint() == "tCCD" || err.constraint() == "DATA-BUS");
    }

    #[test]
    fn rejects_twtr_violation() {
        let mut c = TimingChecker::new(DramConfig::table1_1866());
        let l = loc(0, 1);
        c.check(&rec(0, l, DramCommand::Activate { row: 1 }))
            .unwrap();
        c.check(&rec(34, l, DramCommand::Write)).unwrap();
        // write data ends 34+18+16=68; RD before 68+19=87 is illegal.
        let err = c.check(&rec(80, l, DramCommand::Read)).unwrap_err();
        assert_eq!(err.constraint(), "tWTR");
    }

    #[test]
    fn rejects_act_on_open_bank() {
        let mut c = TimingChecker::new(DramConfig::table1_1866());
        let l = loc(0, 1);
        c.check(&rec(0, l, DramCommand::Activate { row: 1 }))
            .unwrap();
        let err = c
            .check(&rec(200, l, DramCommand::Activate { row: 2 }))
            .unwrap_err();
        assert_eq!(err.constraint(), "ACT-on-open");
    }
}

#[cfg(test)]
mod fuzz {
    use super::*;
    use crate::{Dram, DramConfig, Interleave, Issued, TimingParams};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sara_types::{Addr, Cycle, MemOp};

    /// The device model never emits a command the independent checker
    /// rejects, for seeded random interleaved transaction streams.
    #[test]
    fn model_agrees_with_checker() {
        for case in 0u64..16 {
            let mut rng = StdRng::seed_from_u64(0xc4ec_0000 + case);
            let n = rng.gen_range(50usize..200);
            let timing = TimingParams::builder()
                .refresh_enabled(false)
                .build()
                .unwrap();
            let cfg = DramConfig::table1_1866().with_timing(timing).unwrap();
            let mut dram = Dram::new(cfg.clone(), Interleave::default()).unwrap();
            let mut checker = TimingChecker::new(cfg);
            let mut now = Cycle::ZERO;
            for _ in 0..n {
                let raw = rng.gen_range(0u64..(1 << 26));
                let op = if rng.gen_bool(0.5) {
                    MemOp::Read
                } else {
                    MemOp::Write
                };
                let loc = dram.decode(Addr::new(raw & !127));
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
                        .unwrap_or_else(|v| panic!("case {case}: illegal: {v}"));
                    if issued.completion().is_some() {
                        break;
                    }
                }
            }
        }
    }
}
