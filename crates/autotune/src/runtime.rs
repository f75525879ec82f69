//! The online decision core.
//!
//! [`AutotuneLoop`] is the repository's one SMT-level state machine:
//! sample SMTsm at the top level, require hysteresis before a switch,
//! re-probe the top level while parked. [`AutotuneConfig`] adds the extras:
//! change-point detection on the Eq.-1 factor *vector*, a [`PhaseMemory`]
//! that replays revisited phases' learned levels, and a cooldown.
//! `smt_sched::DynamicSmtController` is the loop with all of them off.
//!
//! [`AutotuneLoop::observe`] is a pure function of the window stream with
//! constant-size state; the drivers ([`SimActuator::run`],
//! [`AutotuneLoop::run_stream`]) keep the decision log, byte-identical
//! whether the windows come from a simulation, a daemon or a `.smtc`
//! trace — which is what the golden-file CI job enforces.

use serde::{Deserialize, Serialize};
use smt_collect::{CounterBackend, TraceWriter};
use smt_sim::{Error, SmtLevel, WindowMeasurement, Workload};
use smtsm::{
    LevelSelector, MetricSpec, OnlineSampler, PhaseDetector, SmtsmFactors, VectorPhaseDetector,
};

use crate::actuator::{Actuator, Command, DecisionReason, SimActuator};
use crate::config::{AutotuneConfig, PhaseDetect};
use crate::memory::{PhaseKey, PhaseMemory};

/// What the loop wants after observing one window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutotuneDecision {
    /// Level the machine should run at for the next window.
    pub level: SmtLevel,
    /// This window triggered a level switch (the driver must actuate).
    pub switched: bool,
    /// Why, when something happened this window.
    pub reason: Option<DecisionReason>,
    /// Smoothed metric value (top-level windows only).
    pub metric: Option<f64>,
    /// Quantized signature of the current phase, once keyed.
    pub phase: Option<PhaseKey>,
}

/// One logged decision event. Plain holds are not logged — the log captures
/// every switch, phase boundary, recall, and memory write, so it stays
/// small, human-auditable, and byte-stable for golden diffs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DecisionRecord {
    /// Global window index (1-based).
    pub window: u64,
    /// Level the window was measured at.
    pub from: SmtLevel,
    /// Level commanded for the next window (== `from` for non-switch
    /// events like `Learn` and unactioned `PhaseChange`).
    pub to: SmtLevel,
    /// What happened.
    pub reason: DecisionReason,
    /// Smoothed metric at decision time (top-level windows only).
    pub metric: Option<f64>,
    /// Phase signature involved, when keyed.
    pub phase: Option<PhaseKey>,
}

/// Summary + decision log of one autotuned run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AutotuneReport {
    /// Windows observed.
    pub windows: u64,
    /// Actuated level switches.
    pub switches: u64,
    /// Switches that were probe returns to the top level.
    pub probes: u64,
    /// Phase boundaries confirmed by the detectors.
    pub phase_changes: u64,
    /// Switches answered from the phase memory.
    pub recalls: u64,
    /// Memory writes.
    pub learned: u64,
    /// Phases the memory holds at the end of the run.
    pub phases_remembered: usize,
    /// Level commanded after the final window.
    pub final_level: SmtLevel,
    /// The full event log.
    pub decisions: Vec<DecisionRecord>,
}

/// Ground-truth outcome of a closed-loop run on the simulator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AutotuneSimReport {
    /// The loop's decisions (identical to what a replay reproduces).
    pub decisions: AutotuneReport,
    /// Cycles elapsed under loop control.
    pub cycles: u64,
    /// Work completed.
    pub work_done: u64,
    /// Work per cycle over the whole managed run.
    pub perf: f64,
    /// The workload ran to completion.
    pub completed: bool,
    /// Cycles lost to pipeline drains across all switches.
    pub drain_cycles: u64,
}

/// The closed-loop phase-aware autotuner.
#[derive(Debug, Clone)]
pub struct AutotuneLoop {
    selector: LevelSelector,
    sampler: OnlineSampler,
    cfg: AutotuneConfig,
    /// Factor-vector change-point detector (fed at the top level).
    detector: VectorPhaseDetector,
    /// IPC change-point watcher (fed while parked below the top level).
    parked_watch: PhaseDetector,
    memory: PhaseMemory,
    /// Candidate level and how many consecutive windows recommended it.
    pending: Option<(SmtLevel, u64)>,
    /// Windows spent parked since the last probe.
    parked_windows: u64,
    /// A probe is due but was deferred by the cooldown.
    probe_armed: bool,
    /// The last switch was a probe to the top: a memory recall may answer
    /// it inside the cooldown, so the probe→recall round trip counts as
    /// one decision against the switch-rate bound.
    recall_exempt: bool,
    /// Windows since the last actuated switch (cooldown accounting).
    since_switch: u64,
    /// Consecutive windows at the top level since arrival.
    windows_at_top: u64,
    /// Signature of the current phase, once computed.
    phase_key: Option<PhaseKey>,
    /// Global window counter.
    window: u64,
    /// Records of the last `observe` (at most two).
    events: Vec<DecisionRecord>,
    switches: u64,
    probes: u64,
    phase_changes: u64,
    recalls: u64,
    learned: u64,
}

/// Windows the loop waits after arriving at the top level before trusting
/// the factor EWMAs enough to key the phase (the first window after a
/// reconfiguration still carries mixed state).
const KEYING_WINDOW: u64 = 2;

impl AutotuneLoop {
    /// Build a loop from a trained selector. Fails on an invalid config.
    pub fn new(
        selector: LevelSelector,
        spec: MetricSpec,
        cfg: AutotuneConfig,
    ) -> Result<AutotuneLoop, Error> {
        cfg.validate()?;
        Ok(AutotuneLoop::new_unchecked(selector, spec, cfg))
    }

    /// Build a loop without validating `cfg`; degenerate values keep their
    /// literal meaning (hysteresis 0 switches on the first disagreement).
    pub fn new_unchecked(
        selector: LevelSelector,
        spec: MetricSpec,
        cfg: AutotuneConfig,
    ) -> AutotuneLoop {
        AutotuneLoop {
            selector,
            sampler: OnlineSampler::new(spec, cfg.window_cycles, cfg.alpha),
            detector: VectorPhaseDetector::for_factors(),
            parked_watch: PhaseDetector::new(0.4, 0.5, 3),
            memory: PhaseMemory::new(cfg.memory_capacity.max(1)),
            cfg,
            pending: None,
            parked_windows: 0,
            probe_armed: false,
            recall_exempt: false,
            since_switch: u64::MAX / 2, // no cooldown before the first switch
            windows_at_top: 0,
            phase_key: None,
            window: 0,
            events: Vec::new(),
            switches: 0,
            probes: 0,
            phase_changes: 0,
            recalls: 0,
            learned: 0,
        }
    }

    /// The highest level the selector knows about.
    pub fn top_level(&self) -> SmtLevel {
        self.selector
            .rungs
            .first()
            .map(|(l, _)| *l)
            .unwrap_or(self.selector.floor)
    }

    /// The loop's policy knobs.
    pub fn config(&self) -> &AutotuneConfig {
        &self.cfg
    }

    /// The trained selector driving decisions.
    pub fn selector(&self) -> &LevelSelector {
        &self.selector
    }

    /// The online sampler (exposes the current smoothed metric).
    pub fn sampler(&self) -> &OnlineSampler {
        &self.sampler
    }

    /// The phase memory (learned levels per phase signature).
    pub fn memory(&self) -> &PhaseMemory {
        &self.memory
    }

    fn can_switch(&self) -> bool {
        self.since_switch >= self.cfg.cooldown
    }

    fn record(
        &mut self,
        from: SmtLevel,
        to: SmtLevel,
        reason: DecisionReason,
        metric: Option<f64>,
        phase: Option<PhaseKey>,
    ) {
        self.events.push(DecisionRecord {
            window: self.window,
            from,
            to,
            reason,
            metric,
            phase,
        });
    }

    /// Issue a switch decision and reset per-level state.
    fn switch_to(
        &mut self,
        from: SmtLevel,
        to: SmtLevel,
        reason: DecisionReason,
        metric: Option<f64>,
    ) -> AutotuneDecision {
        let top = self.top_level();
        self.sampler.reset();
        self.detector.reset();
        self.parked_watch.reset();
        self.pending = None;
        self.parked_windows = 0;
        self.probe_armed = false;
        self.since_switch = 0;
        self.windows_at_top = 0;
        self.recall_exempt =
            to == top && matches!(reason, DecisionReason::Probe | DecisionReason::PhaseChange);
        if to == top {
            // Arriving at the top: the phase will be re-keyed fresh.
            self.phase_key = None;
        }
        self.switches += 1;
        match reason {
            DecisionReason::Probe | DecisionReason::PhaseChange => self.probes += 1,
            DecisionReason::Recall => self.recalls += 1,
            _ => {}
        }
        let phase = self.phase_key;
        self.record(from, to, reason, metric, phase);
        AutotuneDecision {
            level: to,
            switched: true,
            reason: Some(reason),
            metric,
            phase,
        }
    }

    fn current_signature(&self) -> Option<SmtsmFactors> {
        let fast = self.detector.fast()?;
        Some(SmtsmFactors {
            mix_deviation: fast[0],
            disp_held: fast[1],
            scalability: fast[2],
        })
    }

    /// Fold one counter window into the loop and decide what level the
    /// machine should run at next. Windows carry the level they were
    /// measured at (`m.smt`): top-level windows feed the metric and the
    /// factor-vector detector, parked windows feed only the IPC watcher
    /// and the probe timer.
    pub fn observe(&mut self, m: &WindowMeasurement) -> AutotuneDecision {
        self.events.clear();
        self.window += 1;
        self.since_switch = self.since_switch.saturating_add(1);
        let top = self.top_level();
        if m.smt == top {
            self.observe_at_top(m, top)
        } else {
            self.observe_parked(m, top)
        }
    }

    /// Attempt to answer the (re-)keyed phase from memory. Recall may act
    /// inside the cooldown when the loop just probed up — the
    /// probe→recall round trip is one logical decision.
    fn try_recall(&mut self, key: Option<PhaseKey>, top: SmtLevel) -> Option<AutotuneDecision> {
        if !self.cfg.memory || !(self.can_switch() || self.recall_exempt) {
            return None;
        }
        let level = self.memory.recall(key?)?;
        if level == top {
            return None;
        }
        Some(self.switch_to(top, level, DecisionReason::Recall, None))
    }

    fn observe_at_top(&mut self, m: &WindowMeasurement, top: SmtLevel) -> AutotuneDecision {
        self.windows_at_top += 1;
        let (metric, factors) = self.sampler.push_window(m);
        let fired =
            self.cfg.phase_detect == PhaseDetect::Full && self.detector.push_factors(&factors);

        if fired {
            // Confirmed phase boundary while at the top: re-anchor the
            // metric smoothing on the new phase, re-key it, consult memory.
            self.phase_changes += 1;
            self.sampler.reset();
            self.pending = None;
            self.windows_at_top = 1;
            let key = self.current_signature().map(|f| PhaseKey::from_factors(&f));
            self.phase_key = key;
            self.record(top, top, DecisionReason::PhaseChange, Some(metric), key);
            if let Some(d) = self.try_recall(key, top) {
                return d;
            }
            return AutotuneDecision {
                level: top,
                switched: false,
                reason: Some(DecisionReason::PhaseChange),
                metric: Some(metric),
                phase: key,
            };
        }

        // Track the phase signature continuously once the EWMAs have
        // settled after arrival. A key change is a soft phase boundary —
        // the detector tracks drifts it never confirms — and it is the
        // moment a remembered phase can answer without re-probing. Keying
        // *continuously* (not once per arrival) also keeps the learn path
        // below from mislabelling a stale key when a boundary slips past
        // the detector.
        if self.windows_at_top >= KEYING_WINDOW {
            let key = self.current_signature().map(|f| PhaseKey::from_factors(&f));
            if key != self.phase_key {
                self.phase_key = key;
                if let Some(d) = self.try_recall(key, top) {
                    return d;
                }
            }
        }

        let want = self.selector.recommend(metric);
        if want != top && self.windows_at_top > self.cfg.warmup {
            let n = match self.pending {
                Some((lvl, n)) if lvl == want => n + 1,
                _ => 1,
            };
            self.pending = Some((want, n));
            if n >= self.cfg.hysteresis && self.can_switch() {
                if self.cfg.memory {
                    if let Some(k) = self.phase_key {
                        if self.memory.peek(k) != Some(want) {
                            self.memory.learn(k, want);
                            self.learned += 1;
                            self.record(top, top, DecisionReason::Learn, Some(metric), Some(k));
                        }
                    }
                }
                return self.switch_to(top, want, DecisionReason::Metric, Some(metric));
            }
        } else {
            self.pending = None;
            // The phase holds steady at the top: remember that.
            if want == top && self.cfg.memory && self.windows_at_top == self.cfg.settle_windows {
                if let Some(k) = self.phase_key {
                    if self.memory.peek(k) != Some(top) {
                        self.memory.learn(k, top);
                        self.learned += 1;
                        self.record(top, top, DecisionReason::Learn, Some(metric), Some(k));
                    }
                }
            }
        }
        AutotuneDecision {
            level: top,
            switched: false,
            reason: None,
            metric: Some(metric),
            phase: self.phase_key,
        }
    }

    fn observe_parked(&mut self, m: &WindowMeasurement, top: SmtLevel) -> AutotuneDecision {
        self.parked_windows += 1;
        let phase_changed =
            self.cfg.phase_detect != PhaseDetect::Off && self.parked_watch.push(m.ipc());
        if phase_changed {
            self.phase_changes += 1;
            // The phase under our feet moved: the learned level no longer
            // applies, so a probe is due as soon as the cooldown allows.
            self.probe_armed = true;
            self.record(m.smt, m.smt, DecisionReason::PhaseChange, None, None);
        }
        let due = self.probe_armed || self.parked_windows >= self.cfg.probe_interval;
        if due && self.can_switch() {
            let reason = if self.probe_armed && phase_changed {
                DecisionReason::PhaseChange
            } else {
                DecisionReason::Probe
            };
            return self.switch_to(m.smt, top, reason, None);
        }
        AutotuneDecision {
            level: m.smt,
            switched: false,
            reason: phase_changed.then_some(DecisionReason::PhaseChange),
            metric: None,
            phase: self.phase_key,
        }
    }

    /// Summarize the run so far around the decision log a driver kept.
    fn report(&self, decisions: Vec<DecisionRecord>) -> AutotuneReport {
        AutotuneReport {
            windows: self.window,
            switches: self.switches,
            probes: self.probes,
            phase_changes: self.phase_changes,
            recalls: self.recalls,
            learned: self.learned,
            phases_remembered: self.memory.len(),
            final_level: decisions
                .iter()
                .rev()
                .find(|d| d.from != d.to)
                .map(|d| d.to)
                .unwrap_or_else(|| self.top_level()),
            decisions,
        }
    }

    /// Drive the loop from any [`CounterBackend`] (live PMU, simulator
    /// backend, or a recorded `.smtc` trace), sending every switch to
    /// `actuator`. Stops at stream exhaustion or after `max_windows`.
    ///
    /// With a `TraceBackend` and a [`crate::DryRunActuator`] this is the
    /// replay path: windows arrive exactly as recorded, so the decision
    /// log reproduces the original run byte for byte.
    pub fn run_stream(
        &mut self,
        backend: &mut dyn CounterBackend,
        actuator: &mut dyn Actuator,
        max_windows: u64,
    ) -> Result<AutotuneReport, Error> {
        let mut seen = 0u64;
        let mut decisions = Vec::new();
        while seen < max_windows {
            let Some(m) = backend.next_window(self.cfg.window_cycles)? else {
                break;
            };
            seen += 1;
            self.step(&m, actuator, &mut decisions)?;
        }
        Ok(self.report(decisions))
    }

    /// One driver iteration: observe, log, and actuate any switch.
    fn step(
        &mut self,
        m: &WindowMeasurement,
        actuator: &mut dyn Actuator,
        log: &mut Vec<DecisionRecord>,
    ) -> Result<(), Error> {
        let d = self.observe(m);
        log.extend_from_slice(&self.events);
        if d.switched {
            actuator.apply(&Command {
                window: self.window,
                from: m.smt,
                to: d.level,
                reason: d.reason.unwrap_or(DecisionReason::Metric),
            })?;
        }
        Ok(())
    }
}

impl<W: Workload> SimActuator<W> {
    /// Drive `ctl` closed-loop on the owned simulation until the workload
    /// finishes or `max_cycles` elapse. Ground truth: switches really
    /// reconfigure the machine and drains really cost cycles.
    pub fn run(
        &mut self,
        ctl: &mut AutotuneLoop,
        max_cycles: u64,
    ) -> Result<AutotuneSimReport, Error> {
        self.drive::<std::io::Cursor<Vec<u8>>>(ctl, max_cycles, None)
    }

    /// Like [`run`], teeing every observed window into `rec` so the run
    /// can be replayed bit-identically later.
    ///
    /// [`run`]: SimActuator::run
    pub fn run_recording<Wr: std::io::Write + std::io::Seek>(
        &mut self,
        ctl: &mut AutotuneLoop,
        max_cycles: u64,
        rec: &mut TraceWriter<Wr>,
    ) -> Result<AutotuneSimReport, Error> {
        self.drive(ctl, max_cycles, Some(rec))
    }

    fn drive<Wr: std::io::Write + std::io::Seek>(
        &mut self,
        ctl: &mut AutotuneLoop,
        max_cycles: u64,
        mut rec: Option<&mut TraceWriter<Wr>>,
    ) -> Result<AutotuneSimReport, Error> {
        let top = ctl.top_level();
        let start = self.sim().now();
        let window_cycles = ctl.config().window_cycles;
        let mut decisions = Vec::new();
        while !self.sim().finished() && self.sim().now() - start < max_cycles {
            let parked = self.sim().smt() != top;
            let m = self.sim_mut().measure_window(window_cycles);
            if parked && self.sim().finished() {
                // A probe return would only burn drain cycles now.
                break;
            }
            if let Some(r) = rec.as_deref_mut() {
                r.append(&m)?;
            }
            ctl.step(&m, self, &mut decisions)?;
        }
        let cycles = self.sim().now() - start;
        let work_done = self.sim().workload().work_done();
        Ok(AutotuneSimReport {
            decisions: ctl.report(decisions),
            cycles,
            work_done,
            perf: if cycles > 0 {
                work_done as f64 / cycles as f64
            } else {
                0.0
            },
            completed: self.sim().finished(),
            drain_cycles: self.drain_cycles(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actuator::DryRunActuator;
    use smt_collect::{SimBackend, TraceBackend, TraceMeta};
    use smt_sim::{MachineConfig, Simulation};
    use smt_workloads::{catalog, PhasedWorkload, SyntheticWorkload};
    use smtsm::ThresholdPredictor;

    fn selector() -> LevelSelector {
        LevelSelector::three_level(
            ThresholdPredictor::fixed(0.05),
            ThresholdPredictor::fixed(0.10),
        )
    }

    fn small_cfg() -> AutotuneConfig {
        AutotuneConfig {
            window_cycles: 4_000,
            probe_interval: 24,
            ..AutotuneConfig::default()
        }
    }

    fn make_loop(cfg: AutotuneConfig) -> AutotuneLoop {
        AutotuneLoop::new(selector(), MetricSpec::power7(), cfg).expect("valid config")
    }

    fn phased_sim(scale: f64) -> Simulation<PhasedWorkload> {
        let w = PhasedWorkload::new(
            "compute-contention-compute",
            vec![
                catalog::ep().scaled(scale),
                catalog::specjbb_contention().scaled(scale * 1.5),
                catalog::ep().scaled(scale * 0.6),
            ],
        );
        Simulation::new(MachineConfig::power7(1), SmtLevel::Smt4, w)
    }

    #[test]
    fn scalable_workload_stays_at_top() -> Result<(), Error> {
        let sim = Simulation::new(
            MachineConfig::power7(1),
            SmtLevel::Smt4,
            SyntheticWorkload::new(catalog::ep().scaled(0.1)),
        );
        let mut act = SimActuator::new(sim);
        let mut ctl = make_loop(small_cfg());
        let report = act.run(&mut ctl, 50_000_000)?;
        assert!(report.completed);
        assert_eq!(report.decisions.switches, 0, "EP must not switch");
        assert_eq!(report.decisions.final_level, SmtLevel::Smt4);
        Ok(())
    }

    #[test]
    fn contended_workload_parks_low_and_phase_memory_learns() -> Result<(), Error> {
        let mut act = SimActuator::new(phased_sim(0.4));
        let mut ctl = make_loop(small_cfg());
        let report = act.run(&mut ctl, 300_000_000)?;
        assert!(report.completed, "phased run must finish");
        assert!(
            report.decisions.switches >= 2,
            "must switch down for contention and back up: {:#?}",
            report.decisions.decisions
        );
        assert!(
            report
                .decisions
                .decisions
                .iter()
                .any(|d| d.to < SmtLevel::Smt4 && d.from != d.to),
            "contention phase must park below the top"
        );
        assert!(report.decisions.learned >= 1, "memory must learn phases");
        assert!(report.perf > 0.0);
        Ok(())
    }

    #[test]
    fn cooldown_bounds_the_switch_rate() -> Result<(), Error> {
        // Whatever the signal does, two actuated switches can never be
        // closer than `cooldown` windows.
        let cfg = AutotuneConfig {
            cooldown: 6,
            ..small_cfg()
        };
        let mut act = SimActuator::new(phased_sim(0.4));
        let mut ctl = make_loop(cfg);
        let report = act.run(&mut ctl, 300_000_000)?;
        let switches: Vec<(u64, DecisionReason)> = report
            .decisions
            .decisions
            .iter()
            .filter(|d| d.from != d.to)
            .map(|d| (d.window, d.reason))
            .collect();
        for pair in switches.windows(2) {
            // A recall answering a probe is the second half of one round
            // trip and is exempt from the cooldown; every other switch
            // must respect it.
            if pair[1].1 == DecisionReason::Recall {
                continue;
            }
            assert!(
                pair[1].0 - pair[0].0 >= 6,
                "switches at windows {} and {} violate the cooldown",
                pair[0].0,
                pair[1].0
            );
        }
        Ok(())
    }

    #[test]
    fn stream_driver_matches_sim_driver() -> Result<(), Error> {
        // Drive one loop closed-loop on the simulator while recording, then
        // replay the trace through a second loop: decisions must be
        // byte-identical (the golden-file CI invariant).
        let dir = std::env::temp_dir().join("smt-autotune-test");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join("stream_matches_sim.smtc");

        let mut act = SimActuator::new(phased_sim(0.4));
        let mut live = make_loop(small_cfg());
        let meta = TraceMeta {
            machine: "power7x1".to_string(),
            nports: 8,
            window_cycles: small_cfg().window_cycles,
        };
        let mut writer = TraceWriter::create(&path, meta)?;
        let live_report = act.run_recording(&mut live, 300_000_000, &mut writer)?;
        writer.finalize()?;

        let mut replayed = make_loop(small_cfg());
        let mut backend = TraceBackend::open(&path)?;
        let mut dry = DryRunActuator::new();
        let replay_report = replayed.run_stream(&mut backend, &mut dry, u64::MAX)?;

        let live_json = serde_json::to_string(&live_report.decisions)
            .map_err(|e| Error::Serde(e.to_string()))?;
        let replay_json =
            serde_json::to_string(&replay_report).map_err(|e| Error::Serde(e.to_string()))?;
        assert_eq!(live_json, replay_json, "replay diverged from live run");
        assert_eq!(
            dry.log().len() as u64,
            replay_report.switches,
            "every switch must reach the actuator"
        );
        std::fs::remove_file(&path).ok();
        Ok(())
    }

    #[test]
    fn memory_recall_shortens_revisits() -> Result<(), Error> {
        // An oscillator revisits the same two phases; with memory on, later
        // visits should be answered by recall.
        let specs = PhasedWorkload::alternating(
            "osc",
            catalog::ep().scaled(0.4),
            catalog::specjbb_contention().scaled(0.6),
            3,
        );
        let sim = Simulation::new(MachineConfig::power7(1), SmtLevel::Smt4, specs);
        let mut act = SimActuator::new(sim);
        let mut ctl = make_loop(small_cfg());
        let report = act.run(&mut ctl, 600_000_000)?;
        assert!(report.completed);
        assert!(
            report.decisions.recalls >= 1,
            "revisited phases must hit the memory: {:#?}",
            report.decisions
        );
        Ok(())
    }

    #[test]
    fn memory_off_never_recalls() -> Result<(), Error> {
        let cfg = AutotuneConfig {
            memory: false,
            ..small_cfg()
        };
        let mut act = SimActuator::new(phased_sim(0.4));
        let mut ctl = make_loop(cfg);
        let report = act.run(&mut ctl, 300_000_000)?;
        assert_eq!(report.decisions.recalls, 0);
        assert_eq!(report.decisions.learned, 0);
        assert_eq!(report.decisions.phases_remembered, 0);
        Ok(())
    }

    #[test]
    fn sim_backend_stream_with_dry_run_is_decision_only() -> Result<(), Error> {
        // Streaming from a SimBackend with a DryRunActuator: decisions are
        // made but the machine never leaves the top level (nobody actuates
        // on the sim), so every later window still measures at the top.
        let sim = Simulation::new(
            MachineConfig::power7(1),
            SmtLevel::Smt4,
            SyntheticWorkload::new(catalog::specjbb_contention().scaled(0.2)),
        );
        let mut backend = SimBackend::new("contention", sim);
        let mut ctl = make_loop(small_cfg());
        let mut dry = DryRunActuator::new();
        let report = ctl.run_stream(&mut backend, &mut dry, 40)?;
        assert!(report.windows > 0);
        assert_eq!(dry.log().len() as u64, report.switches);
        if let Some(first) = dry.log().first() {
            assert!(first.to < SmtLevel::Smt4, "contention must command down");
        }
        Ok(())
    }
}
