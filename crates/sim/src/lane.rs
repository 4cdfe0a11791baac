//! The per-channel lane: one DRAM channel, its controller slice, and its
//! clock domain, advanced as a self-contained state machine.
//!
//! A [`ChannelLane`] is the unit of decoupling in the lane-structured
//! engine. Between two synchronization horizons (the global events that
//! couple lanes to the NoC and the DMAs — pumps, injects, delivers,
//! samples), a lane's tick chain touches nothing but its own
//! [`ChannelController`] and [`Channel`], so the engine advances the lanes
//! one after another in any order and obtains the same state: every
//! cross-lane effect (completions → delivers, freed budget → pump) is
//! buffered in [`ChannelLane::out`] and merged by the engine in a fixed
//! lane order after all lanes reach the horizon.

use sara_dram::Channel;
use sara_memctrl::{ChannelController, Completion, TickResult};
use sara_types::{ChannelId, ConfigError, Cycle, MegaHertz};

use crate::config::ADMIT_LATENCY;

/// One channel's lane: controller slice + DRAM channel + clock domain +
/// pending-tick state.
#[derive(Debug)]
pub(crate) struct ChannelLane {
    /// Which channel this lane owns.
    pub id: ChannelId,
    /// The channel's scheduling engine (queues, policy state, counters).
    pub ctrl: ChannelController,
    /// The channel's DRAM timing domain (banks, buses, refresh, clock).
    pub chan: Channel,
    /// Earliest scheduled tick, if any. A lane with queued work always has
    /// one; `None` means the lane is idle until the next accept.
    pub pending: Option<Cycle>,
    /// One past the last tick this lane actually processed — the earliest
    /// cycle a new wake may target. Commands were issued up to here, so
    /// the channel's past is immutable; an *idle* stretch leaves the
    /// frontier behind, and a wake landing there simply resumes the lane
    /// in its quiescent gap.
    pub frontier: Cycle,
    /// Effective DRAM frequency of this lane's clock domain (≤ the beat
    /// clock; the beat clock itself never changes).
    pub effective_freq: MegaHertz,
    /// Completions produced by the last advance, in tick order; each
    /// carries the cycle its final column command issued at
    /// ([`Completion::issued_at`], the merge sort key). Drained by the
    /// engine's merge step.
    pub out: Vec<Completion>,
}

impl ChannelLane {
    /// Builds a lane for channel `id`.
    ///
    /// # Errors
    ///
    /// Rejects channel indices beyond what [`ChannelId`] can represent
    /// instead of silently truncating them (two lanes sharing an id would
    /// corrupt per-channel stats and merge ordering).
    pub(crate) fn new(
        id: usize,
        ctrl: ChannelController,
        chan: Channel,
        freq: MegaHertz,
    ) -> Result<Self, ConfigError> {
        let id = u8::try_from(id).map(ChannelId::new).map_err(|_| {
            ConfigError::new(format!(
                "channel index {id} exceeds the {} channels a ChannelId can address",
                usize::from(u8::MAX) + 1
            ))
        })?;
        Ok(ChannelLane {
            id,
            ctrl,
            chan,
            pending: None,
            frontier: Cycle::ZERO,
            effective_freq: freq,
            out: Vec::new(),
        })
    }

    /// Requests a tick at `at` (clamped to the lane's frontier), keeping
    /// only the earliest pending wake — the per-lane analogue of the old
    /// engine's wake-up suppression.
    pub(crate) fn arm(&mut self, at: Cycle) {
        let at = at.max(self.frontier);
        if matches!(self.pending, Some(t) if t <= at) {
            return;
        }
        self.pending = Some(at);
    }

    /// Whether this lane has a tick to run below the (exclusive) horizon.
    #[inline]
    pub(crate) fn has_work_below(&self, bound: Cycle) -> bool {
        matches!(self.pending, Some(t) if t < bound)
    }

    /// Advances this lane's tick chain up to `bound` (exclusive), buffering
    /// completions into [`ChannelLane::out`]. Touches nothing outside the
    /// lane, so the order lanes advance in cannot matter.
    ///
    /// A completion frees a shared-budget entry, and the NoC must get a
    /// chance to exploit it before the lane's own frontier outruns the
    /// freed cycle. The admission latency gives the lane [`ADMIT_LATENCY`]
    /// cycles of slack: the first completion at `t1` caps the advance at
    /// `t1 + ADMIT_LATENCY` (exclusive), because anything the pump admits in
    /// reaction reaches the lane no earlier than that. The engine re-enters
    /// with a fresh horizon after merging, so lanes still run decoupled
    /// through every completion-free stretch.
    pub(crate) fn advance_to(&mut self, bound: Cycle) {
        let mut cap = Cycle::MAX;
        while let Some(t) = self.pending {
            let limit = bound.min(cap);
            if t >= limit {
                break;
            }
            // The controller walks its own retry chain inside the window:
            // `at` is the last cycle it evaluated, i.e. the tick this lane
            // actually processed.
            let (at, result) = self.ctrl.tick_until(t, limit, &mut self.chan);
            self.frontier = at + 1;
            match result {
                TickResult::Issued { completed } => {
                    // Command bus: one command per cycle per channel.
                    self.pending = Some(at + 1);
                    if let Some(c) = completed {
                        if cap == Cycle::MAX {
                            cap = at + ADMIT_LATENCY;
                        }
                        debug_assert_eq!(c.issued_at, at, "completion stamped off its tick");
                        self.out.push(c);
                    }
                }
                TickResult::Idle { retry_at } => self.pending = retry_at,
            }
        }
        debug_assert!(
            self.ctrl.queued() == 0 || self.pending.is_some(),
            "lane {} lost its wake with {} queued",
            self.id,
            self.ctrl.queued()
        );
    }
}
