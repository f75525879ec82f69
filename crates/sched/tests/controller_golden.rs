//! Golden decision logs for the dynamic SMT-level controller.
//!
//! The autotune golden trace (`crates/autotune/tests/golden/phased.smtc`)
//! is replayed window by window through a fresh [`DynamicSmtController`]
//! under two pinned configurations: parked IPC phase detection on and off.
//! The full per-window [`StreamDecision`] sequence must equal the JSON
//! committed beside the trace. The controller is what `smtd` sessions, the
//! corpus scorer and `repro sched` run, so any drift here is a behaviour
//! change in all three and must be reviewed (and, if intended,
//! re-goldened).
//!
//! Regenerate both files, together with the autotune golden, with:
//!
//! ```text
//! SMT_AUTOTUNE_REGOLDEN=1 cargo test -p smt-sched --test controller_golden
//! ```

use std::path::PathBuf;

use serde::{Deserialize, Serialize};
use smt_collect::TraceReader;
use smt_sched::{ControllerConfig, DynamicSmtController, StreamDecision};
use smt_sim::Error;
use smtsm::{LevelSelector, MetricSpec, ThresholdPredictor};

/// The thresholds the autotune golden uses.
const T_TOP: f64 = 0.10;
const T_MID: f64 = 0.15;

/// One committed golden: the configuration it was recorded under and the
/// decision the controller returned for every window of the trace.
#[derive(Debug, Serialize, Deserialize)]
struct Golden {
    config: ControllerConfig,
    decisions: Vec<StreamDecision>,
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../autotune/tests/golden")
}

/// Parked windows between probes. Shorter than the trace's parked stints,
/// so both goldens hold interval probes, and long enough that the parked
/// IPC watcher fires first once in the phase-detecting one.
const PROBE_INTERVAL: u64 = 16;

fn config(phase_detect: bool, window_cycles: u64) -> ControllerConfig {
    ControllerConfig {
        window_cycles,
        probe_interval: PROBE_INTERVAL,
        phase_detect,
        ..ControllerConfig::default()
    }
}

fn replay(phase_detect: bool) -> Result<Golden, Error> {
    let mut reader = TraceReader::open(golden_dir().join("phased.smtc"))?;
    let config = config(phase_detect, reader.meta().window_cycles);
    let selector = LevelSelector::three_level(
        ThresholdPredictor::fixed(T_TOP),
        ThresholdPredictor::fixed(T_MID),
    );
    let mut ctl = DynamicSmtController::new(selector, MetricSpec::power7(), config);
    let decisions = reader.read_all()?.iter().map(|w| ctl.observe(w)).collect();
    Ok(Golden { config, decisions })
}

fn check(phase_detect: bool, file: &str) -> Result<(), Error> {
    let golden = replay(phase_detect)?;
    let body =
        serde_json::to_string_pretty(&golden).map_err(|e| Error::Serde(e.to_string()))? + "\n";
    let path = golden_dir().join(file);
    if std::env::var("SMT_AUTOTUNE_REGOLDEN").is_ok() {
        std::fs::write(&path, body)?;
        return Ok(());
    }
    let committed = std::fs::read_to_string(&path)?;
    assert_eq!(
        body, committed,
        "controller decisions drifted from {file}; if the policy change is \
         intended, regenerate with SMT_AUTOTUNE_REGOLDEN=1"
    );
    assert!(
        golden.decisions.iter().any(|d| d.switched),
        "the golden must exercise at least one switch"
    );
    Ok(())
}

#[test]
fn phase_detect_on_replays_to_the_committed_decisions() -> Result<(), Error> {
    check(true, "phased.controller.json")
}

#[test]
fn phase_detect_off_replays_to_the_committed_decisions() -> Result<(), Error> {
    check(false, "phased.controller-nodetect.json")
}
