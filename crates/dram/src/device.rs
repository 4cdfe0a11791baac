//! The top-level DRAM device: channels + address map + statistics.

use sara_types::{Addr, ConfigError, Cycle, MemOp};

use crate::address::{AddressMap, Interleave, Location};
use crate::channel::Channel;
use crate::command::{Issued, NextCommand};
use crate::config::DramConfig;
use crate::stats::{ChannelStats, DramStats};
use crate::timing::TimingParams;

/// A cycle-level multi-channel DRAM device.
///
/// `Dram` is passive: it never decides *what* to do, only *when* a command
/// is legal and what its effects are. The memory controller drives it with
/// the three-call protocol:
///
/// 1. [`Dram::advance`] — let due refreshes happen,
/// 2. [`Dram::next_command`] / [`Dram::earliest`] — inspect what a queued
///    transaction needs and when it could issue,
/// 3. [`Dram::issue`] — issue the next command for the chosen transaction.
///
/// # Examples
///
/// ```
/// use sara_dram::{Dram, DramConfig, Interleave, Issued};
/// use sara_types::{Addr, Cycle, MemOp};
///
/// let mut dram = Dram::new(DramConfig::table1_1866(), Interleave::default())?;
/// let loc = dram.decode(Addr::new(0x100));
/// let mut now = Cycle::ZERO;
/// loop {
///     now = now.max(dram.earliest(&loc, MemOp::Read));
///     if let Issued::Read { data_ready } = dram.issue(&loc, MemOp::Read, now) {
///         assert!(data_ready > now);
///         break;
///     }
/// }
/// # Ok::<(), sara_types::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    map: AddressMap,
    channels: Vec<Channel>,
}

impl Dram {
    /// Creates a device from a configuration.
    ///
    /// # Errors
    ///
    /// None today: a [`DramConfig`] is valid by construction. The `Result`
    /// keeps callers that build a device with `?` unchanged.
    pub fn new(cfg: DramConfig, interleave: Interleave) -> Result<Self, ConfigError> {
        let map = AddressMap::new(&cfg, interleave);
        let channels = (0..cfg.channels())
            .map(|_| {
                Channel::new(
                    cfg.timing().clone(),
                    cfg.ranks(),
                    cfg.banks(),
                    cfg.burst_bytes(),
                )
            })
            .collect();
        Ok(Dram { cfg, map, channels })
    }

    /// The device configuration.
    #[inline]
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// The address map in use.
    #[inline]
    pub fn address_map(&self) -> &AddressMap {
        &self.map
    }

    /// Number of channels.
    #[inline]
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Borrows one channel (its timing domain, banks and statistics).
    #[inline]
    pub fn channel(&self, channel: usize) -> &Channel {
        &self.channels[channel]
    }

    /// Mutably borrows one channel — the per-lane stepping hook: a caller
    /// that owns the device can drive each channel's command protocol (and
    /// clock domain) independently.
    #[inline]
    pub fn channel_mut(&mut self, channel: usize) -> &mut Channel {
        &mut self.channels[channel]
    }

    /// Decomposes the device into its configuration, address map and
    /// channels, so a lane-structured engine can own each channel outright
    /// (and step them concurrently) while sharing the map for decode.
    pub fn into_parts(self) -> (DramConfig, AddressMap, Vec<Channel>) {
        (self.cfg, self.map, self.channels)
    }

    /// Decodes a physical address to its DRAM location.
    #[inline]
    pub fn decode(&self, addr: Addr) -> Location {
        self.map.decode(addr)
    }

    /// Performs refresh housekeeping on every channel up to `now`.
    pub fn advance(&mut self, now: Cycle) {
        for ch in &mut self.channels {
            ch.advance(now);
        }
    }

    /// What command the transaction at `loc` needs next.
    #[inline]
    pub fn next_command(&self, loc: &Location) -> NextCommand {
        self.channels[loc.channel].next_command(loc)
    }

    /// Earliest legal issue cycle for the next command of (`loc`, `op`).
    #[inline]
    pub fn earliest(&self, loc: &Location, op: MemOp) -> Cycle {
        self.channels[loc.channel].earliest(loc, op)
    }

    /// Issues the next command needed by (`loc`, `op`) at `now`.
    ///
    /// # Panics
    ///
    /// Panics if the command would violate a timing constraint (the
    /// controller must consult [`Dram::earliest`] first).
    #[inline]
    pub fn issue(&mut self, loc: &Location, op: MemOp, now: Cycle) -> Issued {
        self.channels[loc.channel].issue(loc, op, now)
    }

    /// Swaps the timing set of every channel mid-run (online DVFS; see
    /// [`crate::TimingParams::rescaled`]). Bank, bus and refresh state
    /// carry over: constraints scheduled under the old timing stay as
    /// scheduled, new commands obey the new set. The device configuration
    /// keeps the *reference* timing, so repeated re-parameterisations do
    /// not compound.
    pub fn set_timing(&mut self, timing: TimingParams) {
        for ch in &mut self.channels {
            ch.set_timing(timing.clone());
        }
    }

    /// Statistics of one channel.
    pub fn channel_stats(&self, channel: usize) -> &ChannelStats {
        self.channels[channel].stats()
    }

    /// Aggregated statistics over all channels.
    pub fn stats(&self) -> DramStats {
        let per_channel: Vec<ChannelStats> =
            self.channels.iter().map(|c| c.stats().clone()).collect();
        let mut total = ChannelStats::default();
        for c in &per_channel {
            total.merge(c);
        }
        DramStats { total, per_channel }
    }

    /// Cycle until which `channel` is blocked by an in-progress refresh.
    pub fn refresh_horizon(&self, channel: usize) -> Cycle {
        self.channels[channel].refresh_horizon()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(DramConfig::table1_1866(), Interleave::default()).unwrap()
    }

    fn run_to_completion(d: &mut Dram, addr: u64, op: MemOp, start: Cycle) -> Cycle {
        let loc = d.decode(Addr::new(addr));
        let mut now = start;
        loop {
            now = now.max(d.earliest(&loc, op));
            if let Some(done) = d.issue(&loc, op, now).completion() {
                return done;
            }
        }
    }

    #[test]
    fn channels_are_independent() {
        let mut d = dram();
        // Addresses 0 and 128 decode to different channels with the default
        // interleave; both complete with only their own channel's latency.
        let t0 = run_to_completion(&mut d, 0, MemOp::Read, Cycle::ZERO);
        let t1 = run_to_completion(&mut d, 128, MemOp::Read, Cycle::ZERO);
        assert_eq!(t0, t1, "independent channels see identical timing");
        let s = d.stats();
        assert_eq!(s.per_channel[0].reads, 1);
        assert_eq!(s.per_channel[1].reads, 1);
    }

    #[test]
    fn sequential_stream_mostly_hits() {
        let mut d = dram();
        let mut now = Cycle::ZERO;
        // 32 sequential bursts = 16 per channel, one row each.
        for i in 0..32u64 {
            now = run_to_completion(&mut d, i * 128, MemOp::Read, now);
        }
        let s = d.stats();
        assert_eq!(s.total.reads, 32);
        assert_eq!(s.total.row_misses, 2); // one per channel
        assert_eq!(s.total.row_hits, 30);
        assert_eq!(s.total.row_conflicts, 0);
    }

    #[test]
    fn random_rows_conflict() {
        let mut d = dram();
        // Same channel+bank, different rows back to back.
        let map = d.address_map().clone();
        let base = map.decode(Addr::new(0));
        let mut now = Cycle::ZERO;
        for row in 0..4u32 {
            let loc = Location { row, ..base };
            let addr = map.encode(loc);
            now = run_to_completion(&mut d, addr.as_u64(), MemOp::Read, now);
        }
        let s = d.stats();
        assert_eq!(s.total.row_misses, 1);
        assert_eq!(s.total.row_conflicts, 3);
    }

    #[test]
    fn stats_bandwidth_accounting() {
        let mut d = dram();
        let end = run_to_completion(&mut d, 0, MemOp::Write, Cycle::ZERO);
        let s = d.stats();
        assert_eq!(s.total.write_bytes, 128);
        assert_eq!(s.total.data_beats, 16);
        assert!(s.bandwidth_bytes_per_s(1_866_000_000, end.as_u64()) > 0.0);
    }

    #[test]
    fn set_timing_stretches_new_commands_and_keeps_rows_open() {
        let mut d = dram();
        let t = d.config().timing().clone();
        let first = run_to_completion(&mut d, 0, MemOp::Read, Cycle::ZERO);
        // Halve the memory clock: constraints double in beat cycles.
        d.set_timing(t.rescaled(2, 1));
        // The row opened under the old clock is still open (state carried
        // over): the follow-up burst is a hit, paying only 2·(CL + BL).
        let loc = d.decode(Addr::new(256));
        assert_eq!(d.next_command(&loc), NextCommand::Column);
        let done = run_to_completion(&mut d, 256, MemOp::Read, first);
        assert_eq!(done, first + 2 * (t.cl() + t.burst_beats()));
        assert_eq!(d.stats().total.row_hits, 1);
    }

    #[test]
    fn advance_propagates_to_all_channels() {
        let mut d = dram();
        d.advance(Cycle::new(10_000));
        assert_eq!(d.channel_stats(0).refreshes, 1);
        assert_eq!(d.channel_stats(1).refreshes, 1);
    }
}
