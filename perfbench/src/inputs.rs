//! Seeded workload inputs.
//!
//! Everything the program receives is generated here from the `--seed`
//! argument: the catalog specs of the `repro` sweep (each with its own
//! derived workload seed), the corpus build options, and for `serve-*` the
//! workloads behind the window pools and every connection's request
//! schedule. The same seed gives the same inputs; another seed gives other
//! inputs of the same size, so the amount of work per run stays fixed.

use smt_corpus::{BuildOptions, CorpusArch, SizeTier};
use smt_experiments::Machine;
use smt_service::SessionSpec;
use smt_stats::SplitMix64;
use smt_workloads::{catalog, WorkloadSpec};

/// Catalog scale of the `repro` engine sweep.
pub const SWEEP_SCALE: f64 = 0.01;

/// Catalog scale of the smallest corpus tier the `repro` workload builds.
pub const CORPUS_SCALE: f64 = 0.08;

/// Catalog workloads the `repro` corpus is built from (names that appear
/// in both suites give one cell per arch). A fixed subset keeps the build
/// at a few seconds; the full small tier takes minutes.
pub const CORPUS_WORKLOADS: [&str; 11] = [
    "EP",
    "BT",
    "Dedup",
    "IS",
    "SSCA2",
    "Streamcluster",
    "Swim",
    "Equake",
    "Blackscholes",
    "canneal",
    "swaptions",
];

/// FNV-1a of a name, to salt per-item seeds.
fn salt(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A seed derived from the run seed and a label.
pub fn derive(seed: u64, label: &str) -> u64 {
    SplitMix64::new(seed ^ salt(label)).next_u64()
}

/// Inputs of the `repro` workload.
#[derive(Debug, Clone)]
pub struct ReproInputs {
    /// The POWER7-like suite and the Nehalem-like suite, scaled, each spec
    /// carrying a seed derived from the run seed.
    pub suites: Vec<(Machine, Vec<WorkloadSpec>)>,
    /// Reduced corpus build: one tier, a fixed workload subset, short
    /// windows, and a seed-derived warmup that moves the recorded windows.
    pub corpus: BuildOptions,
}

pub fn repro_inputs(seed: u64) -> ReproInputs {
    let suites = [Machine::Power7OneChip, Machine::Nehalem]
        .into_iter()
        .map(|machine| {
            let specs = machine
                .suite()
                .into_iter()
                .map(|mut spec| {
                    spec.seed = derive(seed, &format!("{machine:?}/{}", spec.name));
                    spec.scaled(SWEEP_SCALE)
                })
                .collect();
            (machine, specs)
        })
        .collect();
    let mut rng = SplitMix64::new(derive(seed, "corpus"));
    let corpus = BuildOptions {
        base_scale: CORPUS_SCALE,
        tiers: vec![SizeTier::S],
        arches: CorpusArch::ALL.to_vec(),
        windows: 12,
        window_cycles: 2_000,
        warmup_cycles: 2_000 + 250 * rng.index(9) as u64,
        workload_filter: Some(CORPUS_WORKLOADS.iter().map(|s| s.to_string()).collect()),
        ..BuildOptions::default()
    };
    ReproInputs { suites, corpus }
}

/// Counter windows per pool; ingest batches start at any pool offset.
pub const POOL_WINDOWS: usize = 16;

/// Length of one pooled counter window, in cycles.
pub const WINDOW_CYCLES: u64 = 5_000;

/// Windows per `ingest` batch.
pub const WINDOWS_PER_INGEST: usize = 4;

/// Windows per `ingest_tagged` refresh: the solo profile `bench-serve`'s
/// place tier tags per thread (`PLACE_PROFILE_WINDOWS` in
/// `smt_service::bench`, not exported).
pub const WINDOWS_PER_TAG: usize = 8;

/// Every this many `ingest` requests, a placement refresh follows: once per
/// `probe_interval` × `hysteresis` streamed windows of the session every
/// connection opens, the stretch after which a parked controller has
/// probed and can have switched. With [`SessionSpec::power7`]'s 8 × 2 and
/// 4-window batches, every 4th ingest.
pub fn place_every() -> usize {
    let spec = SessionSpec::power7();
    ((spec.probe_interval * spec.hysteresis) as usize / WINDOWS_PER_INGEST).max(1)
}

/// Tagged client threads each session rotates through.
pub const TAGGED_THREADS: u32 = 6;

/// Distinct workloads behind the window pools.
pub const POOL_WORKLOADS: usize = 4;

/// One request of a connection's schedule. Batches index a pool offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Ingest { batch: u16 },
    Recommend,
    Tag { thread: u32, batch: u16 },
    Place,
}

impl Op {
    /// Verb label used in reports and span names.
    pub fn verb(self) -> Verb {
        match self {
            Op::Ingest { .. } => Verb::Ingest,
            Op::Recommend => Verb::Recommend,
            Op::Tag { .. } => Verb::Tag,
            Op::Place => Verb::Place,
        }
    }
}

/// Request verbs the load generator times separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    Hello,
    Ingest,
    Recommend,
    Tag,
    Place,
}

impl Verb {
    pub const TIMED: [Verb; 4] = [Verb::Ingest, Verb::Recommend, Verb::Tag, Verb::Place];

    pub fn name(self) -> &'static str {
        match self {
            Verb::Hello => "hello",
            Verb::Ingest => "ingest",
            Verb::Recommend => "recommend",
            Verb::Tag => "tag",
            Verb::Place => "place",
        }
    }

    /// Name of the span around one round trip of this verb.
    pub fn span_name(self) -> &'static str {
        match self {
            Verb::Hello => "service.rtt.hello",
            Verb::Ingest => "service.rtt.ingest",
            Verb::Recommend => "service.rtt.recommend",
            Verb::Tag => "service.rtt.tag",
            Verb::Place => "service.rtt.place",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }
}

/// Inputs of the `serve-*` workloads.
#[derive(Debug, Clone)]
pub struct ServeInputs {
    /// Workloads simulated into the window pools ([`POOL_WORKLOADS`] of
    /// them), seeds derived.
    pub workloads: Vec<WorkloadSpec>,
    /// Per connection: the pool its `ingest` stream reads.
    pub stream_pool: Vec<usize>,
    /// Per connection: the full request schedule after `hello`.
    pub schedules: Vec<Vec<Op>>,
}

/// The pool a tagged thread's solo windows come from.
pub fn tag_pool(thread: u32) -> usize {
    thread as usize % POOL_WORKLOADS
}

pub fn serve_inputs(seed: u64, connections: usize, requests: usize) -> ServeInputs {
    // Fixed workloads (scalable, contended, memory-bound, mixed) keep the
    // set-up cost independent of the seed; their streams come from it.
    let workloads = [
        catalog::ep(),
        catalog::specjbb_contention(),
        catalog::stream(),
        catalog::blackscholes(),
    ]
    .into_iter()
    .map(|mut spec| {
        spec.seed = derive(seed, &format!("serve/{}", spec.name));
        spec
    })
    .collect();
    let mut rng = SplitMix64::new(derive(seed, "serve/pools"));
    let stream_pool = (0..connections)
        .map(|c| (c + rng.index(POOL_WORKLOADS)) % POOL_WORKLOADS)
        .collect();
    let schedules = (0..connections)
        .map(|c| schedule(derive(seed, &format!("serve/schedule/{c}")), requests))
        .collect();
    ServeInputs {
        workloads,
        stream_pool,
        schedules,
    }
}

/// `requests` requests of `stream` traffic: `ingest` batches, a
/// `recommend` after every fifth, and every [`place_every`] ingests a
/// placement refresh (`ingest_tagged` for the next thread in rotation,
/// then `place` over every tagged thread). The schedule always ends with
/// a `recommend` and a `place`, the answers the offline check compares.
fn schedule(seed: u64, requests: usize) -> Vec<Op> {
    let body = requests.max(3) - 2;
    let mut rng = SplitMix64::new(seed);
    let mut ops = Vec::with_capacity(body + 4);
    let place_every = place_every();
    let mut ingests = 0usize;
    let mut refreshes = 0u32;
    while ops.len() < body {
        ops.push(Op::Ingest {
            batch: rng.index(POOL_WINDOWS) as u16,
        });
        ingests += 1;
        if ingests.is_multiple_of(5) {
            ops.push(Op::Recommend);
        }
        if ingests.is_multiple_of(place_every) {
            ops.push(Op::Tag {
                thread: refreshes % TAGGED_THREADS,
                batch: rng.index(POOL_WINDOWS) as u16,
            });
            ops.push(Op::Place);
            refreshes += 1;
        }
    }
    ops.truncate(body);
    if !ops.iter().any(|o| matches!(o, Op::Tag { .. })) {
        let last = ops.len() - 1;
        ops[last] = Op::Tag {
            thread: 0,
            batch: rng.index(POOL_WINDOWS) as u16,
        };
    }
    ops.push(Op::Recommend);
    ops.push(Op::Place);
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repro_fingerprint(seed: u64) -> String {
        let r = repro_inputs(seed);
        let specs: Vec<String> = r
            .suites
            .iter()
            .flat_map(|(m, s)| {
                s.iter()
                    .map(move |w| format!("{m:?}/{}/{}/{}", w.name, w.seed, w.total_work))
            })
            .collect();
        format!(
            "{specs:?}|{}|{:?}",
            r.corpus.warmup_cycles, r.corpus.workload_filter
        )
    }

    fn serve_fingerprint(seed: u64) -> String {
        let s = serve_inputs(seed, 2, 500);
        let names: Vec<(String, u64)> = s
            .workloads
            .iter()
            .map(|w| (w.name.clone(), w.seed))
            .collect();
        format!("{names:?}|{:?}|{:?}", s.stream_pool, s.schedules)
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        assert_eq!(repro_fingerprint(7), repro_fingerprint(7));
        assert_eq!(serve_fingerprint(7), serve_fingerprint(7));
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        assert_ne!(repro_fingerprint(1), repro_fingerprint(2));
        assert_ne!(serve_fingerprint(1), serve_fingerprint(2));
    }

    #[test]
    fn every_spec_seed_depends_on_the_run_seed() {
        let (a, b) = (repro_inputs(11), repro_inputs(12));
        for ((_, sa), (_, sb)) in a.suites.iter().zip(&b.suites) {
            for (x, y) in sa.iter().zip(sb) {
                assert_eq!(x.name, y.name);
                assert_eq!(
                    x.total_work, y.total_work,
                    "size must not depend on the seed"
                );
                assert_ne!(x.seed, y.seed, "{} kept its catalog seed", x.name);
            }
        }
    }

    #[test]
    fn schedules_have_fixed_length_and_end_with_the_checked_answers() {
        for seed in 0..4 {
            let s = serve_inputs(seed, 2, 1_000);
            for ops in &s.schedules {
                assert_eq!(ops.len(), 1_000);
                assert_eq!(&ops[ops.len() - 2..], &[Op::Recommend, Op::Place]);
                assert!(ops.iter().any(|o| matches!(o, Op::Tag { .. })));
            }
        }
    }
}
