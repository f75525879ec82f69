//! Loop policy knobs and their environment overrides.
//!
//! Every field of [`AutotuneConfig`] has an `SMT_AUTOTUNE_*` environment
//! override (see [`ENV_KNOBS`]) so deployments can retune the loop without
//! recompiling, the same way `SMT_SIM_ENGINE` selects the simulator's issue
//! engine. Overrides are parsed fallibly: a malformed value is a structured
//! [`Error::Config`], never a panic or a silent default.

use serde::{Deserialize, Serialize};
use smt_sim::Error;

/// Which change-point detectors the loop runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PhaseDetect {
    /// None: only the probe interval ends a parked stint.
    Off,
    /// Watch IPC while parked; probe the top level when it shifts.
    Parked,
    /// `Parked`, plus detection on the Eq.-1 factor vector at the top.
    Full,
}

/// Tuning knobs for [`crate::AutotuneLoop`].
///
/// The hysteresis/cooldown pair is what keeps adversarial oscillators from
/// thrashing the actuator: `hysteresis` windows must *agree* before a
/// metric-driven switch, and after any actuation no further switch is
/// issued for `cooldown` windows. The one exception is a phase-memory
/// recall answering a probe — the probe→recall round trip counts as one
/// decision — so the switch rate stays bounded at two per probe interval
/// no matter how hostile the signal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutotuneConfig {
    /// Counter-sampling window length in cycles.
    pub window_cycles: u64,
    /// EWMA smoothing factor for the metric sampler (1.0 = none).
    pub alpha: f64,
    /// Consecutive windows that must recommend the same level before a
    /// metric-driven switch.
    pub hysteresis: u64,
    /// Minimum windows between actuated switches (thrash guard).
    pub cooldown: u64,
    /// Windows at the top level before metric recommendations count
    /// toward hysteresis. The first windows after a reconfiguration are
    /// ramp-skewed (cold pipelines, blended EWMA state); acting on them
    /// parks SMT-friendly phases on arrival and poisons the phase memory
    /// with mislabelled levels.
    pub warmup: u64,
    /// While parked below the top level, re-probe the top level after this
    /// many windows even if no phase change is detected.
    pub probe_interval: u64,
    /// Which change-point detectors run (see [`PhaseDetect`]).
    pub phase_detect: PhaseDetect,
    /// Keep a phase memory: revisited phases reuse their learned level
    /// instead of re-proving it through the full hysteresis window.
    pub memory: bool,
    /// Windows a phase must hold steady at the top level before the memory
    /// records "this phase prefers the top level".
    pub settle_windows: u64,
    /// Maximum phases the memory retains (oldest evicted first).
    pub memory_capacity: usize,
}

impl Default for AutotuneConfig {
    fn default() -> AutotuneConfig {
        AutotuneConfig {
            window_cycles: 25_000,
            alpha: 0.6,
            hysteresis: 2,
            cooldown: 4,
            warmup: 3,
            probe_interval: 64,
            phase_detect: PhaseDetect::Full,
            memory: true,
            settle_windows: 6,
            memory_capacity: 64,
        }
    }
}

/// The `SMT_AUTOTUNE_*` environment overrides, as `(name, meaning)` pairs —
/// the CLI prints this table from `--help` so the knobs stay documented in
/// exactly one place.
pub const ENV_KNOBS: &[(&str, &str)] = &[
    ("SMT_AUTOTUNE_WINDOW", "sampling window in cycles (u64 > 0)"),
    ("SMT_AUTOTUNE_ALPHA", "metric EWMA weight in (0,1]"),
    (
        "SMT_AUTOTUNE_HYSTERESIS",
        "agreeing windows before a metric switch (u64 >= 1)",
    ),
    (
        "SMT_AUTOTUNE_COOLDOWN",
        "minimum windows between switches (u64)",
    ),
    (
        "SMT_AUTOTUNE_WARMUP",
        "top-level windows before the metric may switch (u64)",
    ),
    (
        "SMT_AUTOTUNE_PROBE_INTERVAL",
        "parked windows between top-level probes (u64 >= 1)",
    ),
    (
        "SMT_AUTOTUNE_PHASE_DETECT",
        "0/1: phase detection (IPC while parked, factor vector at the top)",
    ),
    (
        "SMT_AUTOTUNE_MEMORY",
        "0/1: reuse learned levels for revisited phases",
    ),
];

fn parse_u64(name: &str, s: &str) -> Result<u64, Error> {
    s.trim()
        .parse()
        .map_err(|_| Error::Config(format!("{name}: expected an unsigned integer, got `{s}`")))
}

fn parse_f64(name: &str, s: &str) -> Result<f64, Error> {
    s.trim()
        .parse()
        .map_err(|_| Error::Config(format!("{name}: expected a number, got `{s}`")))
}

fn parse_bool(name: &str, s: &str) -> Result<bool, Error> {
    match s.trim() {
        "0" | "false" | "off" => Ok(false),
        "1" | "true" | "on" => Ok(true),
        other => Err(Error::Config(format!(
            "{name}: expected 0/1/true/false/on/off, got `{other}`"
        ))),
    }
}

impl AutotuneConfig {
    /// Check the invariants the loop relies on.
    pub fn validate(&self) -> Result<(), Error> {
        if self.window_cycles == 0 {
            return Err(Error::Config("window_cycles must be positive".into()));
        }
        if !(self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err(Error::Config(format!(
                "alpha must be in (0,1], got {}",
                self.alpha
            )));
        }
        if self.hysteresis == 0 {
            return Err(Error::Config("hysteresis must be >= 1".into()));
        }
        if self.probe_interval == 0 {
            return Err(Error::Config("probe_interval must be >= 1".into()));
        }
        if self.memory_capacity == 0 {
            return Err(Error::Config("memory_capacity must be >= 1".into()));
        }
        Ok(())
    }

    /// Overlay any `SMT_AUTOTUNE_*` environment overrides onto `self` and
    /// validate the result. Unset variables keep the current value.
    pub fn from_env(mut self) -> Result<AutotuneConfig, Error> {
        if let Ok(s) = std::env::var("SMT_AUTOTUNE_WINDOW") {
            self.window_cycles = parse_u64("SMT_AUTOTUNE_WINDOW", &s)?;
        }
        if let Ok(s) = std::env::var("SMT_AUTOTUNE_ALPHA") {
            self.alpha = parse_f64("SMT_AUTOTUNE_ALPHA", &s)?;
        }
        if let Ok(s) = std::env::var("SMT_AUTOTUNE_HYSTERESIS") {
            self.hysteresis = parse_u64("SMT_AUTOTUNE_HYSTERESIS", &s)?;
        }
        if let Ok(s) = std::env::var("SMT_AUTOTUNE_COOLDOWN") {
            self.cooldown = parse_u64("SMT_AUTOTUNE_COOLDOWN", &s)?;
        }
        if let Ok(s) = std::env::var("SMT_AUTOTUNE_WARMUP") {
            self.warmup = parse_u64("SMT_AUTOTUNE_WARMUP", &s)?;
        }
        if let Ok(s) = std::env::var("SMT_AUTOTUNE_PROBE_INTERVAL") {
            self.probe_interval = parse_u64("SMT_AUTOTUNE_PROBE_INTERVAL", &s)?;
        }
        if let Ok(s) = std::env::var("SMT_AUTOTUNE_PHASE_DETECT") {
            self.phase_detect = if parse_bool("SMT_AUTOTUNE_PHASE_DETECT", &s)? {
                PhaseDetect::Full
            } else {
                PhaseDetect::Off
            };
        }
        if let Ok(s) = std::env::var("SMT_AUTOTUNE_MEMORY") {
            self.memory = parse_bool("SMT_AUTOTUNE_MEMORY", &s)?;
        }
        self.validate()?;
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        AutotuneConfig::default().validate().expect("defaults");
    }

    #[test]
    fn invalid_fields_are_config_errors() {
        let bad = AutotuneConfig {
            window_cycles: 0,
            ..AutotuneConfig::default()
        };
        assert!(matches!(bad.validate(), Err(Error::Config(_))));
        let bad = AutotuneConfig {
            alpha: 1.5,
            ..AutotuneConfig::default()
        };
        assert!(matches!(bad.validate(), Err(Error::Config(_))));
        let bad = AutotuneConfig {
            hysteresis: 0,
            ..AutotuneConfig::default()
        };
        assert!(matches!(bad.validate(), Err(Error::Config(_))));
    }

    #[test]
    fn knob_parsers_reject_garbage() {
        assert!(parse_u64("K", "seven").is_err());
        assert!(parse_f64("K", "fast").is_err());
        assert!(parse_bool("K", "maybe").is_err());
        assert!(parse_bool("K", "on").unwrap());
        assert!(!parse_bool("K", "0").unwrap());
        assert_eq!(parse_u64("K", " 42 ").unwrap(), 42);
    }

    #[test]
    fn every_documented_knob_has_a_name() {
        for (name, desc) in ENV_KNOBS {
            assert!(name.starts_with("SMT_AUTOTUNE_"));
            assert!(!desc.is_empty());
        }
    }
}
