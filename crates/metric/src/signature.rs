//! Per-thread signatures and the co-run compatibility predictor.
//!
//! The SMT-selection metric asks "which SMT level suits this application";
//! the thread-to-core allocator asks the finer question "which threads
//! should share a core". Both are answered from the same counters: a
//! [`ThreadSignature`] condenses the windows observed while a thread ran
//! *alone* into a normalized Eq.-1-style factor vector (instruction-mix
//! vector in the architecture's basis, mix deviation, dispatch-held
//! fraction, memory intensity, utilization, solo throughput).
//!
//! Pairs are then scored by a [`CompatModel`]: two threads co-run well on
//! one SMT core when their per-resource *pressures* do not collide — the
//! overlap `Σ_c min(p_a[c], p_b[c])` of their demanded issue slots per
//! cycle, plus a memory-clash term, determines a compatibility in `(0, 1]`.
//! Threads with complementary mixes (a load-heavy thread next to an
//! FX-heavy one) keep compatibility near 1; two copies of the same
//! port-hammering loop drive it down. The predicted throughput of a core
//! hosting a set of threads is the sum of solo throughputs discounted by
//! pairwise incompatibility — the objective the placement search in
//! `smt-sched` maximizes.

use crate::ideal::{MetricSpec, MixBasis};
use serde::{Deserialize, Serialize};
use smt_sim::{SmtLevel, ThreadCounters, WindowMeasurement};

/// A thread's condensed counter profile, built from solo-run windows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThreadSignature {
    /// Number of windows aggregated into this signature.
    pub windows: usize,
    /// Wall-clock cycles covered by the aggregated windows.
    pub wall_cycles: u64,
    /// Solo throughput: useful work units per wall cycle.
    pub tput: f64,
    /// Instructions issued per runnable CPU cycle.
    pub ipc: f64,
    /// Instruction-mix vector in the metric's basis (class fractions for
    /// the POWER7 basis, port fractions for the uniform-ports basis).
    pub mix: Vec<f64>,
    /// Euclidean deviation of `mix` from the architecture's ideal SMT mix.
    pub mix_deviation: f64,
    /// Fraction of runnable cycles the dispatcher was resource-held.
    pub disp_held: f64,
    /// L1D misses per issued instruction (memory intensity).
    pub mem_intensity: f64,
    /// Memory references (loads + stores) per issued instruction.
    pub mem_rate: f64,
    /// Fraction of time the thread was runnable (vs. sleeping/blocked).
    pub util: f64,
}

impl ThreadSignature {
    /// Condense solo-run windows into a signature. Windows are summed
    /// (counters are deltas, so addition is exact) before the fractions
    /// are taken, weighting each window by its length.
    pub fn from_windows(spec: &MetricSpec, windows: &[WindowMeasurement]) -> ThreadSignature {
        let mut fold = SignatureFold::default();
        for w in windows {
            fold.push(w);
        }
        fold.finish(spec)
    }

    /// Demanded issue slots per cycle at each resource: the mix vector
    /// scaled by IPC and utilization. The overlap of two pressure vectors
    /// is what the compatibility model penalizes.
    pub fn pressure(&self) -> Vec<f64> {
        self.mix.iter().map(|&f| f * self.ipc * self.util).collect()
    }
}

/// The running sum a [`ThreadSignature`] is condensed from. Every field is
/// an integer sum, so folding windows one at a time equals
/// [`ThreadSignature::from_windows`] exactly, in constant space.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SignatureFold {
    /// Merged counters and the first window's level.
    agg: Option<(ThreadCounters, SmtLevel)>,
    wall_cycles: u64,
    windows: usize,
}

impl SignatureFold {
    /// Add one solo-run window.
    pub fn push(&mut self, w: &WindowMeasurement) {
        let a = w.aggregate();
        match &mut self.agg {
            Some((acc, _)) => acc.merge(&a),
            None => self.agg = Some((a, w.smt)),
        }
        self.wall_cycles += w.wall_cycles;
        self.windows += 1;
    }

    /// Condense the windows folded so far into a signature.
    pub fn finish(&self, spec: &MetricSpec) -> ThreadSignature {
        let (agg, smt) = self
            .agg
            .clone()
            .unwrap_or_else(|| (ThreadCounters::new(spec.num_ports), SmtLevel::Smt1));
        let wall = self.wall_cycles;
        let combined = WindowMeasurement {
            wall_cycles: wall,
            smt,
            per_thread: vec![agg],
            cores: smt_sim::CoreCounters::default(),
        };
        let agg = &combined.per_thread[0];
        let mix = match spec.basis {
            MixBasis::Power7Classes => MetricSpec::observed_classes(&combined).to_vec(),
            MixBasis::UniformPorts => combined.port_fractions(),
        };
        let cpu = agg.cpu_cycles;
        let live = cpu + agg.sleep_cycles;
        ThreadSignature {
            windows: self.windows,
            wall_cycles: wall,
            tput: if wall == 0 {
                0.0
            } else {
                agg.work_units as f64 / wall as f64
            },
            ipc: if cpu == 0 {
                0.0
            } else {
                agg.issued as f64 / cpu as f64
            },
            mix,
            mix_deviation: spec.mix_deviation(&combined),
            disp_held: combined.disp_held_fraction(),
            mem_intensity: if agg.issued == 0 {
                0.0
            } else {
                agg.l1d_misses as f64 / agg.issued as f64
            },
            mem_rate: if agg.issued == 0 {
                0.0
            } else {
                agg.mem_refs as f64 / agg.issued as f64
            },
            util: if live == 0 {
                1.0
            } else {
                cpu as f64 / live as f64
            },
        }
    }
}

/// Tunable weights of the pairwise co-run compatibility predictor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CompatModel {
    /// Weight of the per-resource pressure overlap in the clash score.
    pub clash_weight: f64,
    /// Weight of the memory-intensity overlap in the clash score.
    pub mem_weight: f64,
    /// How strongly pairwise incompatibility discounts a core's summed
    /// solo throughput.
    pub contention: f64,
}

impl Default for CompatModel {
    fn default() -> CompatModel {
        CompatModel {
            clash_weight: 2.0,
            mem_weight: 8.0,
            contention: 1.0,
        }
    }
}

impl CompatModel {
    /// Pairwise co-run compatibility in `(0, 1]`: 1 means the pair shares
    /// SMT slots without collision, values near 0 mean their demands land
    /// on the same resources. Symmetric in its arguments.
    ///
    /// The memory term pairs the *lighter* user's reference rate with the
    /// *heavier* user's miss intensity: a cache-resident thread that
    /// references memory constantly is hurt by a co-runner that thrashes
    /// the shared L1/L2, even though its own solo miss rate is near zero.
    pub fn compatibility(&self, a: &ThreadSignature, b: &ThreadSignature) -> f64 {
        let pa = a.pressure();
        let pb = b.pressure();
        let overlap: f64 = pa.iter().zip(&pb).map(|(x, y)| x.min(*y)).sum();
        let mem =
            (a.mem_rate * a.util).min(b.mem_rate * b.util) * a.mem_intensity.max(b.mem_intensity);
        let clash = self.clash_weight * overlap + self.mem_weight * mem;
        1.0 / (1.0 + clash)
    }

    /// Predicted useful-work throughput of one core hosting `sigs`: the
    /// sum of solo throughputs discounted by the pairwise clash of every
    /// co-resident pair. An empty core contributes 0; a lone thread runs
    /// at its solo throughput.
    pub fn core_throughput(&self, sigs: &[&ThreadSignature]) -> f64 {
        let sum: f64 = sigs.iter().map(|s| s.tput).sum();
        let mut penalty = 0.0;
        for i in 0..sigs.len() {
            for j in (i + 1)..sigs.len() {
                penalty += 1.0 - self.compatibility(sigs[i], sigs[j]);
            }
        }
        sum / (1.0 + self.contention * penalty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_sim::{CoreCounters, InstrClass, SmtLevel};

    fn solo_window(classes: [u64; smt_sim::NUM_CLASSES], l1d: u64, work: u64) -> WindowMeasurement {
        let mut t = ThreadCounters::new(8);
        t.class_issued = classes;
        t.issued = classes.iter().sum();
        t.work_units = work;
        t.cpu_cycles = 1000;
        t.l1d_misses = l1d;
        t.mem_refs = classes[InstrClass::Load.index()] + classes[InstrClass::Store.index()];
        WindowMeasurement {
            wall_cycles: 1000,
            smt: SmtLevel::Smt1,
            per_thread: vec![t],
            cores: CoreCounters::default(),
        }
    }

    fn sig(classes: [u64; smt_sim::NUM_CLASSES], l1d: u64) -> ThreadSignature {
        let work = classes.iter().sum();
        ThreadSignature::from_windows(&MetricSpec::power7(), &[solo_window(classes, l1d, work)])
    }

    #[test]
    fn signature_condenses_windows() {
        let s = sig([400, 100, 100, 0, 300, 100], 0);
        assert_eq!(s.windows, 1);
        assert_eq!(s.wall_cycles, 1000);
        assert!((s.ipc - 1.0).abs() < 1e-12);
        assert!((s.tput - 1.0).abs() < 1e-12);
        assert!((s.mix[0] - 0.4).abs() < 1e-12, "load fraction");
        assert!((s.util - 1.0).abs() < 1e-12);
        assert!(s.mix_deviation > 0.0);
    }

    #[test]
    fn empty_signature_is_inert() {
        let s = ThreadSignature::from_windows(&MetricSpec::power7(), &[]);
        assert_eq!(s.windows, 0);
        assert_eq!(s.tput, 0.0);
        assert_eq!(s.ipc, 0.0);
        assert_eq!(s.mix_deviation, 0.0);
    }

    #[test]
    fn multiple_windows_weight_by_length() {
        let w1 = solo_window([1000, 0, 0, 0, 0, 0], 0, 1000);
        let w2 = solo_window([0, 0, 0, 0, 1000, 0], 0, 1000);
        let s = ThreadSignature::from_windows(&MetricSpec::power7(), &[w1, w2]);
        assert_eq!(s.windows, 2);
        assert_eq!(s.wall_cycles, 2000);
        assert!((s.mix[0] - 0.5).abs() < 1e-12);
        let fx = InstrClass::FixedPoint.index();
        assert!(fx < 6); // the class exists in the 5-bucket fold
        assert!((s.mix[3] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn identical_hammers_clash_complementary_mixes_do_not() {
        let m = CompatModel::default();
        let loads = sig([1000, 0, 0, 0, 0, 0], 0);
        let fx = sig([0, 0, 0, 0, 1000, 0], 0);
        let same = m.compatibility(&loads, &loads);
        let complementary = m.compatibility(&loads, &fx);
        assert!(
            complementary > same + 0.2,
            "complementary {complementary} vs colliding {same}"
        );
    }

    #[test]
    fn memory_clash_lowers_compatibility() {
        let m = CompatModel::default();
        let streamy = sig([600, 300, 0, 0, 100, 0], 120);
        let compute = sig([100, 0, 100, 0, 500, 300], 1);
        let two_streams = m.compatibility(&streamy, &streamy.clone());
        let mixed = m.compatibility(&streamy, &compute);
        assert!(mixed > two_streams, "{mixed} vs {two_streams}");
    }

    #[test]
    fn compatibility_is_symmetric_and_bounded() {
        let m = CompatModel::default();
        let a = sig([700, 100, 100, 0, 100, 0], 30);
        let b = sig([100, 100, 100, 0, 400, 300], 2);
        let ab = m.compatibility(&a, &b);
        let ba = m.compatibility(&b, &a);
        assert!((ab - ba).abs() < 1e-15);
        assert!(ab > 0.0 && ab <= 1.0);
    }

    #[test]
    fn core_throughput_sums_and_discounts() {
        let m = CompatModel::default();
        let a = sig([1000, 0, 0, 0, 0, 0], 0);
        let b = sig([0, 0, 0, 0, 1000, 0], 0);
        let lone = m.core_throughput(&[&a]);
        assert!((lone - a.tput).abs() < 1e-12);
        let pair = m.core_throughput(&[&a, &b]);
        let clash_pair = m.core_throughput(&[&a, &a.clone()]);
        assert!(pair > clash_pair, "complementary pair must predict higher");
        assert!(pair <= a.tput + b.tput + 1e-12);
        assert_eq!(m.core_throughput(&[]), 0.0);
    }
}
