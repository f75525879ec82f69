//! `smtsm`: the SMT-selection metric of Funston et al. (IPDPS 2012).
//!
//! The metric predicts whether a multithreaded application will run better
//! at a higher or lower SMT level, from three counter-derived factors
//! (Eq. 1 of the paper):
//!
//! 1. the Euclidean deviation of the observed instruction mix from the
//!    architecture's *ideal SMT instruction mix* ([`ideal`]),
//! 2. the fraction of cycles the dispatcher was held for lack of resources,
//! 3. the ratio of wall-clock time to average per-thread CPU time
//!    (software-scalability limits).
//!
//! Smaller values mean "prefer more hardware threads". A per-system
//! threshold is learned offline with Gini impurity or the average-PPI
//! method ([`threshold`]) and wrapped into a predictor ([`predictor`]).
//! [`sampler`] provides the periodic online measurement loop, and
//! [`naive`] the four Fig.-2 baseline metrics that famously do *not* work.
//!
//! ```
//! use smtsm::{MetricSpec, smtsm};
//! use smt_sim::{MachineConfig, Simulation, SmtLevel};
//! use smt_workloads::{catalog, SyntheticWorkload};
//!
//! let cfg = MachineConfig::power7(1);
//! let spec = MetricSpec::for_arch(&cfg.arch);
//! let w = SyntheticWorkload::new(catalog::ep().scaled(0.05));
//! let mut sim = Simulation::new(cfg, SmtLevel::Smt4, w);
//! let window = sim.measure_window(10_000);
//! let value = smtsm(&spec, &window);
//! assert!(value.is_finite());
//! ```

#![warn(missing_docs)]

pub mod compute;
pub mod ideal;
pub mod naive;
pub mod phase;
pub mod predictor;
pub mod sampler;
pub mod signature;
pub mod threshold;

pub use compute::{smtsm, smtsm_factors, SmtsmFactors};
pub use ideal::{MetricSpec, MixBasis};
pub use naive::NaiveMetric;
pub use phase::{PhaseDetector, VectorPhaseDetector};
pub use predictor::{
    LevelSelector, SmtPreference, ThresholdPredictor, TrainingMethod, DEFAULT_THRESHOLD_MID,
    DEFAULT_THRESHOLD_TOP,
};
pub use sampler::OnlineSampler;
pub use signature::{CompatModel, SignatureFold, ThreadSignature};
pub use threshold::{gini_sweep, PpiSweep};
