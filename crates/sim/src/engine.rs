//! The deterministic lane-structured co-simulation engine.
//!
//! Wires DMAs → NoC → per-channel lanes exactly as Fig. 3 of the paper,
//! with the memory subsystem decomposed along the channel boundary: each
//! [`ChannelLane`] owns one DRAM channel, that channel's slice of the
//! controller, and its clock domain, and is advanced as a self-contained
//! state machine. The lanes couple to the rest of the system only at the
//! NoC pump/deliver boundary, through five global event kinds:
//!
//! * `Inject`  — a DMA's stimulus released transactions; stamp priorities
//!   and push them into the NoC (backpressure-aware),
//! * `Pump`    — sweep the NoC arbitration tree; admitted transactions are
//!   routed to their channel's lane,
//! * `Release` — a completed transaction's entry in the shared 42-entry
//!   budget returns to the admission front-end at the cycle its final
//!   column command issued (not at merge time, so a pump earlier in the
//!   same lane window cannot spend it), and the NoC gets a pump there,
//! * `Deliver` — completed data returns to the DMA; its meter and priority
//!   adaptation update,
//! * `Sample`  — periodic NPI/priority/bandwidth sampling.
//!
//! Execution is horizon-stepped with an admission-latency look-ahead: a
//! transaction the NoC admits at cycle `e` reaches its lane at
//! `e + ADMIT_LATENCY`, so when the next global event sits at `h`, every
//! lane may advance its own tick chain through `[h, h + ADMIT_LATENCY)`
//! before any event in that window is processed (DRAM command scheduling
//! never reads anything outside its lane). The lanes' buffered outputs —
//! completions becoming `Deliver` events, freed shared-budget credit
//! waking the NoC — are then merged in a fixed `(cycle, lane)` order and
//! the window's events drain in time order. Lanes advance one after another
//! on the calling thread: a window is well under a microsecond of work per
//! lane, below the cost of any cross-thread handoff, and cores are
//! saturated one level up by running many cells at once.
//!
//! Wake-up suppression keeps the event count proportional to transaction
//! count rather than simulated cycles, so a full 33 ms frame at 1866 MHz
//! (≈62 M cycles, millions of transactions) simulates in seconds.
//!
//! The pending events sit in one short list kept sorted latest first
//! (`crate::event_queue`): the next event is its last element, and events
//! of one cycle dispatch in the order they were pushed because a push
//! inserts behind its cycle-mates — position encodes what a sequence number
//! would, so none is stored. The list is bounded by two events per
//! in-flight transaction plus one timer per DMA plus the pump and sample
//! timers (a few dozen entries in practice), and nearly every push lands
//! within a few cycles of the current one, so an insert is a short
//! `memmove`.

use sara_analytic::channel_bound_bytes_per_s;
use sara_dram::{AddressMap, ChannelStats, Dram, DramStats, BURST_BYTES};
use sara_memctrl::{AdmissionControl, ChannelController, Completion, PolicyKind};
use sara_noc::Noc;
use sara_types::{
    ConfigError, CoreClass, Cycle, DmaId, MegaHertz, MemOp, Transaction, TransactionId,
};

use crate::config::{SystemConfig, ADMIT_LATENCY, READ_RESPONSE_LATENCY};
use crate::event_queue::{EventKind, EventQueue};
use crate::health::{DmaHealth, SystemHealth};
use crate::lane::ChannelLane;
use crate::report::{ReportBuilder, SimReport};
use crate::runtime::{build_dmas, DmaRuntime};
use crate::sampling::Samplers;
use crate::telemetry::{SimTelemetry, TelemetryReport};

/// One runnable system instance.
///
/// # Examples
///
/// ```no_run
/// use sara_memctrl::PolicyKind;
/// use sara_sim::{Simulation, SystemConfig};
/// use sara_types::MegaHertz;
/// # let cores = Vec::new();
///
/// // `cores`: the workload, a `Vec<sara_workloads::CoreSpec>`.
/// let cfg = SystemConfig::from_scenario(
///     MegaHertz::new(1866),
///     PolicyKind::Priority,
///     cores,
///     SystemConfig::DEFAULT_FRAME_PERIOD_NS,
///     SystemConfig::DEFAULT_SEED,
///     SystemConfig::DEFAULT_CHANNELS,
/// )?;
/// let mut sim = Simulation::new(cfg)?;
/// let report = sim.run_for_ms(33.3);
/// assert!(report.all_targets_met());
/// # Ok::<(), sara_types::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct Simulation {
    cfg: SystemConfig,
    map: AddressMap,
    /// The per-channel lanes, in channel order.
    lanes: Vec<ChannelLane>,
    front: AdmissionControl,
    noc: Noc,
    dmas: Vec<DmaRuntime>,
    events: EventQueue,
    now: Cycle,
    txn_seq: u64,
    dma_pending: Vec<Option<Cycle>>,
    noc_pending: Option<Cycle>,
    samplers: Samplers,
    /// Hot-path metrics recorder (fed from the completion merge and the
    /// `Deliver` handler, both on the deterministic engine order).
    telemetry: SimTelemetry,
    /// Samples taken before the last [`Simulation::mark_epoch`].
    epoch_start: usize,
    /// Scratch for the deterministic completion merge: the window's
    /// completions moved out of the lanes, each with its lane index.
    merged: Vec<(usize, Completion)>,
    /// Events at or below this cycle may drain without re-entering the
    /// lanes: every lane has already advanced past it. Raised when a new
    /// look-ahead window opens, shrunk whenever a lane is armed (the
    /// armed lane may now act as early as its arm cycle). Persisted across
    /// [`Simulation::advance_until`] calls so a run cut at an epoch
    /// boundary resumes its in-flight window exactly — stacked runs stay
    /// equal to one uninterrupted run.
    drain_limit: Cycle,
}

impl Simulation {
    /// Builds a system from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the workload or substrate configuration
    /// is inconsistent.
    pub fn new(cfg: SystemConfig) -> Result<Self, ConfigError> {
        let dram = Dram::new(cfg.dram.clone(), cfg.interleave())?;
        let (_, map, channels) = dram.into_parts();
        let lanes: Vec<ChannelLane> = channels
            .into_iter()
            .enumerate()
            .map(|(ch, chan)| {
                ChannelLane::new(
                    ch,
                    ChannelController::new(cfg.mc.clone(), ch),
                    chan,
                    cfg.freq(),
                )
            })
            .collect::<Result<_, _>>()?;
        let front = AdmissionControl::new(&cfg.mc);
        let dmas = build_dmas(
            &cfg.cores,
            cfg.clock(),
            cfg.frame_period_cycles(),
            cfg.dram.capacity_bytes(),
            cfg.seed,
            cfg.priority_bits,
        )?;
        let classes: Vec<CoreClass> = dmas.iter().map(|d| d.class).collect();
        let noc = Noc::class_tree(cfg.noc.clone(), &classes)?;
        let telemetry = SimTelemetry::new(dmas.len(), lanes.len());
        let samplers = Samplers::new(dmas.len(), cfg.sample_period());
        let mut sim = Simulation {
            map,
            lanes,
            front,
            noc,
            dma_pending: vec![None; dmas.len()],
            noc_pending: None,
            events: EventQueue::default(),
            now: Cycle::ZERO,
            txn_seq: 0,
            samplers,
            telemetry,
            epoch_start: 0,
            merged: Vec::new(),
            drain_limit: Cycle::ZERO,
            dmas,
            cfg,
        };
        for i in 0..sim.dmas.len() {
            sim.schedule_inject(i, Cycle::ZERO);
        }
        sim.events
            .push(Cycle::new(sim.samplers.period()), EventKind::Sample);
        Ok(sim)
    }

    /// The configuration this system was built from.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Runs until `end` (absolute cycle) without building a report — the
    /// cheap stepping primitive for epoch-driven callers (the online
    /// governor advances one control epoch at a time and reads
    /// [`Simulation::health`] instead of paying for a full report per
    /// epoch).
    pub fn advance_until(&mut self, end: Cycle) {
        // A request that ends in the past is a no-op: time never runs
        // backwards.
        let end = end.max(self.now);
        loop {
            match self.events.peek() {
                Some(h) if h <= end => {
                    if h > self.drain_limit {
                        // Admission-latency look-ahead: nothing the NoC
                        // decides at or after h can reach a lane before
                        // h + latency, so every lane may run through
                        // [h, h + latency) first. The advance may surface
                        // completions (and with them events earlier than
                        // h); re-peek so the list drains strictly in time
                        // order either way. The drain limit is the window
                        // bound, pulled down to just past the first merged
                        // completion (the pump may react to the freed
                        // entry, and its admission must not land behind a
                        // lane's frontier).
                        let bound = h + ADMIT_LATENCY;
                        let cap = self.advance_lanes(bound);
                        self.drain_limit = bound.min(cap);
                        continue;
                    }
                    // Every lane has advanced past the drain limit, so
                    // events up to it dispatch without re-entering the
                    // lanes. Fresh admissions shrink the limit (see
                    // `Simulation::arm_lane`), closing the window early.
                    let (at, kind) = self.events.pop().expect("peeked");
                    debug_assert!(at >= self.now, "time went backwards");
                    self.now = at;
                    self.dispatch(at, kind);
                }
                _ => {
                    // No global event inside the window: run every lane
                    // through the end boundary (inclusive). Completions may
                    // surface new global events inside the window, so loop
                    // until quiescent.
                    let busy = self.lanes.iter().any(|lane| lane.has_work_below(end + 1));
                    if busy {
                        self.advance_lanes(end + 1);
                    } else {
                        break;
                    }
                }
            }
        }
        self.now = end;
    }

    /// Runs until `end` (absolute cycle), then reports.
    pub fn run_until(&mut self, end: Cycle) -> SimReport {
        self.advance_until(end);
        self.report()
    }

    /// Runs for a wall-clock duration in milliseconds (from time zero).
    pub fn run_for_ms(&mut self, ms: f64) -> SimReport {
        let end = Cycle::new(self.cfg.clock().cycles_from_ms(ms));
        self.run_until(end)
    }

    /// Advances every lane with work below `bound` (exclusive), then
    /// merges the lanes' buffered outputs: completions are re-ordered by
    /// `(cycle, lane)` before any global state is touched.
    ///
    /// Returns the earliest cycle a lane may still produce output before
    /// `bound` (the first merged completion plus the admission latency),
    /// or [`Cycle::MAX`] if the whole window completed — the caller's
    /// event-drain limit.
    fn advance_lanes(&mut self, bound: Cycle) -> Cycle {
        for lane in &mut self.lanes {
            if lane.has_work_below(bound) {
                lane.advance_to(bound);
            }
        }
        self.merge_lane_outputs()
            .map_or(Cycle::MAX, |first| first + ADMIT_LATENCY)
    }

    /// Applies the lanes' buffered window outputs to the global state in
    /// deterministic `(cycle, lane)` order: telemetry, `Deliver`
    /// events, shared-budget releases, and a NoC pump at each completion
    /// cycle (a freed controller entry may unblock the root arbiter).
    /// Returns the earliest merged completion cycle, if any.
    fn merge_lane_outputs(&mut self) -> Option<Cycle> {
        let mut merged = std::mem::take(&mut self.merged);
        for (li, lane) in self.lanes.iter_mut().enumerate() {
            merged.extend(lane.out.drain(..).map(|c| (li, c)));
        }
        // At most one command per cycle per lane makes (cycle, lane)
        // unique, so the order is total.
        merged.sort_unstable_by_key(|(li, c)| (c.issued_at, *li));
        let first = merged.first().map(|(_, c)| c.issued_at);
        for (li, c) in merged.drain(..) {
            self.telemetry
                .record_completion(li, c.txn.class, c.queued_for, c.row_hit);
            let is_read = c.txn.op.is_read();
            let deliver_at = if is_read {
                c.done_at + READ_RESPONSE_LATENCY
            } else {
                c.done_at
            };
            self.events.push(
                deliver_at,
                EventKind::Deliver {
                    dma: c.txn.dma.index() as u16,
                    bytes: c.txn.bytes,
                    injected_at: c.txn.injected_at,
                    is_read,
                },
            );
            // The freed controller entry becomes visible to admission (and
            // the NoC gets its pump) at the completion cycle, not at merge
            // time — see `EventKind::Release`.
            self.events.push(
                c.issued_at,
                EventKind::Release(c.txn.class.queue_index() as u8),
            );
        }
        self.merged = merged;
        first
    }

    fn dispatch(&mut self, at: Cycle, kind: EventKind) {
        match kind {
            EventKind::Inject(i) => {
                let i = i as usize;
                if self.dma_pending[i] != Some(at) {
                    return; // superseded wake
                }
                self.dma_pending[i] = None;
                self.try_inject(i);
            }
            EventKind::Pump => {
                if self.noc_pending != Some(at) {
                    return;
                }
                self.noc_pending = None;
                self.pump();
            }
            EventKind::Release(queue) => {
                self.front.release(queue as usize);
                // The root arbiter may now make progress on the freed
                // entry.
                self.schedule_pump(at);
            }
            EventKind::Deliver {
                dma,
                bytes,
                injected_at,
                is_read,
            } => self.deliver(dma as usize, bytes, injected_at, is_read),
            EventKind::Sample => self.sample(),
        }
    }

    fn schedule_inject(&mut self, dma: usize, at: Cycle) {
        let at = at.max(self.now);
        if matches!(self.dma_pending[dma], Some(t) if t <= at) {
            return;
        }
        self.dma_pending[dma] = Some(at);
        self.events.push(at, EventKind::Inject(dma as u16));
    }

    fn schedule_pump(&mut self, at: Cycle) {
        let at = at.max(self.now);
        if matches!(self.noc_pending, Some(t) if t <= at) {
            return;
        }
        self.noc_pending = Some(at);
        self.events.push(at, EventKind::Pump);
    }

    fn try_inject(&mut self, i: usize) {
        let now = self.now;
        let released = self.dmas[i].stimulus.released(now);
        let mut injected_any = false;
        loop {
            let dma = &mut self.dmas[i];
            if dma.injected >= released || dma.inflight >= dma.window {
                dma.blocked_on_noc = false;
                break;
            }
            if !self.noc.can_inject(i) {
                dma.blocked_on_noc = true;
                break;
            }
            dma.adapter.refresh(now);
            let txn = Transaction {
                id: TransactionId::new(self.txn_seq),
                dma: DmaId::new(i as u16),
                core: dma.core,
                class: dma.class,
                op: dma.op,
                addr: dma.pattern.next_addr(BURST_BYTES),
                bytes: BURST_BYTES,
                injected_at: now,
                priority: dma.adapter.priority(),
                // The frame-rate QoS baseline only understands media
                // real-time urgency (§2).
                urgent: dma.adapter.is_urgent() && dma.class == CoreClass::Media,
            };
            self.txn_seq += 1;
            self.noc
                .inject(i, now, txn)
                .unwrap_or_else(|_| unreachable!("can_inject checked"));
            let dma = &mut self.dmas[i];
            dma.adapter.on_inject(now);
            dma.injected += 1;
            dma.inflight += 1;
            injected_any = true;
        }
        if injected_any {
            self.schedule_pump(now);
        }
        let dma = &self.dmas[i];
        if !dma.blocked_on_noc && dma.inflight < dma.window {
            if let Some(at) = dma.stimulus.next_release(now) {
                self.schedule_inject(i, at);
            }
        }
    }

    fn pump(&mut self) {
        let now = self.now;
        // Admission latency: a transaction the NoC admits now physically
        // reaches its lane `ADMIT_LATENCY` cycles later — the slack that
        // lets lanes run ahead of the event drain.
        let admit_at = now + ADMIT_LATENCY;
        // Root port `q` is class queue `q`. The front-end changes only at
        // the root's one admission, which ends the root's turn, so a queue
        // full now stays full for every head the root ranks.
        let closed = (0..CoreClass::ALL.len())
            .filter(|&q| !self.front.has_room(q))
            .fold(0u8, |closed, q| closed | 1 << q);
        let mut admitted = None;
        let outcome = self.noc.pump_closed(now, closed, |txn| {
            let loc = self.map.decode(txn.addr);
            self.front.admit(txn.class.queue_index());
            let lane = &mut self.lanes[loc.channel];
            debug_assert_eq!(lane.id.index(), loc.channel, "lane order matches channels");
            lane.ctrl.accept(txn, loc, admit_at);
            admitted = Some(loc.channel);
        });
        for q in (0..CoreClass::ALL.len()).filter(|q| outcome.refused & 1 << q != 0) {
            self.front.reject(q);
        }
        if let Some(channel) = admitted {
            self.arm_lane(channel, admit_at);
        }
        if let Some(at) = outcome.next_action {
            self.schedule_pump(at);
        }
        // A leaf that forwarded freed an ingress slot: retry the blocked
        // DMAs of its class.
        for class in CoreClass::ALL {
            if outcome.leaves_forwarded & 1 << class.queue_index() != 0 {
                for i in 0..self.dmas.len() {
                    if self.dmas[i].blocked_on_noc && self.dmas[i].class == class {
                        self.schedule_inject(i, now);
                    }
                }
            }
        }
    }

    fn deliver(&mut self, i: usize, bytes: u32, injected_at: Cycle, is_read: bool) {
        let now = self.now;
        let latency = now.saturating_sub(injected_at);
        self.telemetry.record_delivery(i, latency);
        let dma = &mut self.dmas[i];
        let op = if is_read { MemOp::Read } else { MemOp::Write };
        dma.adapter.on_complete(now, bytes, latency, op);
        debug_assert!(dma.inflight > 0, "completion without in-flight txn");
        dma.inflight -= 1;
        self.try_inject(i);
    }

    fn dram_bytes(&self) -> u64 {
        self.lanes
            .iter()
            .map(|lane| lane.chan.stats().total_bytes())
            .sum()
    }

    fn sample(&mut self) {
        let now = self.now;
        for (i, dma) in self.dmas.iter_mut().enumerate() {
            dma.adapter.refresh(now);
            self.samplers
                .record(i, dma.adapter.npi(), dma.adapter.priority());
        }
        let bytes = self.dram_bytes();
        self.samplers.record_bandwidth(bytes);
        self.events
            .push(now + self.samplers.period(), EventKind::Sample);
    }

    /// Effective DRAM frequency of every channel's clock domain, in
    /// channel order.
    pub fn channel_freqs(&self) -> Vec<MegaHertz> {
        self.lanes.iter().map(|lane| lane.effective_freq).collect()
    }

    /// Steps every channel's clock domain to `target` — the single-knob
    /// actuation of the online DVFS loop.
    ///
    /// The simulation beat clock (and with it every workload rate, frame
    /// period and meter target, all denominated in beat cycles) never
    /// changes; instead each channel's DRAM timing set is re-expressed in
    /// beat cycles at the new memory-clock ratio (see
    /// [`sara_dram::TimingParams::rescaled`]). All device state — open
    /// rows, per-bank next-legal times, bus reservations, refresh
    /// deadlines, queued transactions — carries over: constraints already
    /// scheduled under the old clock stay as scheduled, and commands
    /// issued from now on obey the new one. Idempotent when `target`
    /// already is the effective frequency.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `target` exceeds the beat clock — the
    /// ladder's top rung must be the frequency the system was built at.
    pub fn set_dram_freq(&mut self, target: MegaHertz) -> Result<(), ConfigError> {
        for ch in 0..self.lanes.len() {
            self.set_channel_freq(ch, target)?;
        }
        Ok(())
    }

    /// Steps one channel's clock domain to `target`, leaving the other
    /// lanes untouched — the per-channel actuation of the online DVFS
    /// loop. Semantics per channel are identical to
    /// [`Simulation::set_dram_freq`]; because each step re-derives the
    /// timing set from the channel's reference parameters, ladder walks
    /// never compound rounding.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `target` exceeds the beat clock or
    /// `channel` does not exist.
    pub fn set_channel_freq(
        &mut self,
        channel: usize,
        target: MegaHertz,
    ) -> Result<(), ConfigError> {
        let beat_clock = self.cfg.freq();
        if target > beat_clock {
            return Err(ConfigError::new(format!(
                "DVFS target {target} exceeds the beat clock {beat_clock} the system was built at"
            )));
        }
        if channel >= self.lanes.len() {
            return Err(ConfigError::new(format!(
                "channel {channel} does not exist ({} channels)",
                self.lanes.len()
            )));
        }
        let now = self.now;
        let beat = beat_clock.as_u32() as u64;
        let lane = &mut self.lanes[channel];
        if target == lane.effective_freq {
            return Ok(());
        }
        lane.chan.set_clock(beat, target.as_u32() as u64);
        lane.effective_freq = target;
        // Re-arm the lane if it has queued work: a step *up* moves legal
        // issue times earlier than any pending retry wake, and waiting for
        // the stale (late) wake would idle the faster device.
        if lane.ctrl.queued() > 0 {
            self.arm_lane(channel, now);
        }
        Ok(())
    }

    /// Arms `channel`'s lane for a tick at `at` and pulls the drain limit
    /// down to it: the lane may now produce output from `at` on, so no
    /// later event may dispatch before the lane re-advances.
    fn arm_lane(&mut self, channel: usize, at: Cycle) {
        self.lanes[channel].arm(at);
        self.drain_limit = self.drain_limit.min(at);
    }

    /// Switches the memory-scheduling policy mid-run (the governor's
    /// second actuator). Queued transactions, statistics and aging state
    /// carry over; the NoC arbitration discipline is fixed at build time
    /// and intentionally keeps the original scheme — the controller is the
    /// paper's QoS enforcement point.
    pub fn set_policy(&mut self, policy: PolicyKind) {
        self.cfg.mc.set_policy(policy);
        for lane in &mut self.lanes {
            lane.ctrl.set_policy(policy);
        }
    }

    /// A cheap live health snapshot: per-DMA live NPI + worst sampled NPI
    /// since the last [`Simulation::mark_epoch`], controller queue depths,
    /// each channel's effective frequency and the analytic bandwidth bound
    /// priced from each channel's own current timing set, the policy in
    /// force, and the DRAM byte counter. The governor's sensor.
    pub fn health(&self) -> SystemHealth {
        let now = self.now;
        let dmas = self
            .dmas
            .iter()
            .enumerate()
            .map(|(i, dma)| DmaHealth {
                npi: dma.adapter.meter().npi(now).as_f64(),
                epoch_floor: self.samplers.npi_series(i)[self.epoch_start..]
                    .iter()
                    .copied()
                    .fold(f64::INFINITY, f64::min),
            })
            .collect();
        let burst_bytes = self.cfg.dram.burst_bytes();
        let beat_hz = f64::from(self.cfg.freq().as_u32()) * 1e6;
        SystemHealth {
            dmas,
            mc_occupancy: self.front.occupancy(),
            queued_per_channel: self.lanes.iter().map(|lane| lane.ctrl.queued()).collect(),
            freq_per_channel: self.channel_freqs(),
            bound_gbs: self
                .lanes
                .iter()
                .map(|lane| channel_bound_bytes_per_s(lane.chan.timing(), burst_bytes, beat_hz))
                .sum::<f64>()
                / 1e9,
            dram_bytes: self.dram_bytes(),
            policy: self.cfg.policy(),
        }
    }

    /// Starts a new control epoch: [`Simulation::health`]'s `epoch_floor`
    /// reads only the samples taken from here on.
    pub fn mark_epoch(&mut self) {
        self.epoch_start = self.samplers.samples();
    }

    /// Builds a report for the elapsed window.
    pub fn report(&self) -> SimReport {
        let channel_stats: Vec<ChannelStats> = self
            .lanes
            .iter()
            .map(|lane| lane.chan.stats().clone())
            .collect();
        let dram = DramStats::from_channels(&channel_stats);
        let mc = self
            .front
            .controller_stats(self.lanes.iter().map(|lane| &lane.ctrl));
        let telemetry = TelemetryReport::new(&self.telemetry, &mc, &self.noc, &self.dmas);
        ReportBuilder {
            cfg: &self.cfg,
            now: self.now,
            dmas: &self.dmas,
            dram,
            mc,
            noc: &self.noc,
            samplers: &self.samplers,
            telemetry,
        }
        .build()
    }
}
