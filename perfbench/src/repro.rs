//! The `repro` workload: one offline reproduction at reduced size.
//!
//! A pass runs, in order: a cold engine sweep of both suites at every SMT
//! level into a fresh cache, the same sweep warm from that cache,
//! threshold training, a reduced corpus build, corpus verification,
//! scoring, a `TraceReader` pass over the built traces, and a replay of
//! every trace through both online decision cores. Passes repeat until
//! `--seconds` have gone by (at least [`MIN_PASSES`]); the end-to-end
//! figures are medians over passes, except the job-latency percentiles,
//! which pool every cold job of the run.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use smt_autotune::{AutotuneConfig, AutotuneLoop};
use smt_collect::TraceReader;
use smt_corpus::{
    build_corpus, machine_for_tag, score_corpus, selector_for_machine, suite_for_arch,
    verify_corpus, CorpusManifest, ReplayPolicy, ScoreOptions,
};
use smt_experiments::{
    Engine, JobOutcome, Machine, ProgressEvent, ProgressSink, RunPlan, RunRequest, SuiteData,
    SweepResult,
};
use smt_sched::DynamicSmtController;
use smt_sim::{PhaseProfile, Simulation, SmtLevel, WindowMeasurement};
use smt_stats::{summary::percentile, SpeedupCase};
use smt_workloads::SyntheticWorkload;
use smtsm::{gini_sweep, MetricSpec, PpiSweep};

use crate::inputs::{repro_inputs, ReproInputs};
use crate::report::{describe_percentiles, quantile, Outcome};
use crate::trace::{union_ns, Span, SpanId, Tracer};

/// Fewest passes a run makes, however long they take.
pub const MIN_PASSES: usize = 4;

/// Cold sweeps an untraced run adds after each pass, outside the pass's
/// wall time, only to sample more job latencies for `p50_ms`/`p99_ms`.
const LATENCY_SWEEPS: usize = 2;

/// Set-ups before each pass; `setup_s` is the median over all of them.
/// One set-up takes about 0.1 ms: many repetitions, spread over the run,
/// keep a stall of the host from moving the median.
const SETUP_REPS: usize = 201;

/// Specs of the POWER7-like suite run under the phase profiler in a
/// traced run, and the cycle cap of each profiled run.
const PROFILE_SPECS: usize = 4;
const PROFILE_CYCLES: u64 = 20_000;

/// One finished engine job as the progress sink saw it.
#[derive(Debug, Clone)]
struct JobEvent {
    start: Instant,
    elapsed: Duration,
    outcome: JobOutcome,
}

/// Progress sink that keeps every job's interval and outcome.
#[derive(Default)]
struct JobLog {
    events: Mutex<Vec<JobEvent>>,
}

impl ProgressSink for JobLog {
    fn on_event(&self, event: &ProgressEvent<'_>) {
        if let ProgressEvent::JobFinished {
            outcome, elapsed, ..
        } = event
        {
            let now = Instant::now();
            self.events
                .lock()
                .expect("job log poisoned by a panicking sink")
                .push(JobEvent {
                    start: now.checked_sub(*elapsed).unwrap_or(now),
                    elapsed: *elapsed,
                    outcome: *outcome,
                });
        }
    }
}

impl JobLog {
    fn take(&self) -> Vec<JobEvent> {
        std::mem::take(&mut *self.events.lock().expect("job log poisoned"))
    }
}

/// Everything one pass measured.
#[derive(Debug, Default)]
struct Pass {
    wall_s: f64,
    sweep_s: f64,
    job_busy_s: f64,
    tail_s: f64,
    warm_s: f64,
    jobs: u64,
    jobs_failed: u64,
    cache_hits: u64,
    cycles: u64,
    train_s: f64,
    build_s: f64,
    score_s: f64,
    cells: u64,
    cells_failed: u64,
    entries_scored: u64,
    entries_failed: u64,
    trace_read_s: f64,
    windows: u64,
    sched_s: f64,
    autotune_s: f64,
    accuracy_pct: f64,
    /// Cold-sweep latency of each computed job, seconds.
    job_latencies: Vec<f64>,
}

impl Pass {
    fn operations(&self) -> (u64, u64) {
        let attempted = 2 * self.jobs + self.cells + self.entries_scored;
        let failed = self.jobs_failed
            + (self.jobs - self.cache_hits)
            + self.cells_failed
            + self.entries_failed;
        (attempted, failed)
    }
}

/// Prepared inputs: the seeded specs planned into engine runs.
struct Prepared {
    inputs: ReproInputs,
    plans: Vec<(Machine, RunPlan)>,
}

fn prepare(seed: u64, tmp: &Path) -> Result<Prepared, String> {
    let inputs = repro_inputs(seed);
    let plans = inputs
        .suites
        .iter()
        .map(|(machine, specs)| {
            RunRequest::on(machine.config())
                .benchmarks(specs.clone())
                .all_levels()
                .plan()
                .map(|p| (*machine, p))
                .map_err(|e| format!("planning {machine:?}: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    if tmp.exists() {
        std::fs::remove_dir_all(tmp).map_err(|e| format!("clearing {}: {e}", tmp.display()))?;
    }
    std::fs::create_dir_all(tmp).map_err(|e| format!("creating {}: {e}", tmp.display()))?;
    Ok(Prepared { inputs, plans })
}

/// Set up [`SETUP_REPS`] times: seeded specs, engine plans, a fresh
/// scratch directory. Records each duration; returns the last set-up.
fn set_up(seed: u64, tmp: &Path, tr: &Tracer, setups: &mut Vec<f64>) -> Result<Prepared, String> {
    let mut prep = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let p = tr.span("workloads.prepare", SpanId::ROOT, 0, |_| prepare(seed, tmp))?;
        setups.push(t.elapsed().as_secs_f64());
        prep = Some(p);
    }
    Ok(prep.expect("SETUP_REPS is positive"))
}

/// Serialized results, for the warm == cold comparison.
fn results_json(sweeps: &[SweepResult]) -> String {
    sweeps
        .iter()
        .map(|s| {
            serde_json::to_string(&s.results).unwrap_or_else(|e| format!("unserializable: {e}"))
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Cases for threshold training: metric at the top level, speedup of the
/// top level over SMT1 (Figs. 6 and 10).
fn training_cases(machine: Machine, sweep: &SweepResult) -> Result<Vec<SpeedupCase>, String> {
    let top = *machine
        .config()
        .smt_levels()
        .last()
        .ok_or("machine has no SMT levels")?;
    let data = SuiteData {
        machine,
        scale: crate::inputs::SWEEP_SCALE,
        results: sweep.results.clone(),
    };
    data.scatter_points(top, top, SmtLevel::Smt1)
        .map(|pts| {
            pts.into_iter()
                .map(|(n, m, s)| SpeedupCase::new(n, m, s))
                .collect()
        })
        .map_err(|e| format!("training cases for {machine:?}: {e}"))
}

/// Stage timer: runs `f` inside a span under the pass span and returns
/// its result with its duration in seconds.
fn stage<T>(
    tr: &Tracer,
    name: &'static str,
    parent: SpanId,
    f: impl FnOnce(SpanId) -> T,
) -> (T, f64) {
    let t = Instant::now();
    let out = tr.span(name, parent, 0, f);
    (out, t.elapsed().as_secs_f64())
}

/// Run one engine sweep per suite, recording each job as a span.
fn sweep(
    tr: &Tracer,
    prep: &Prepared,
    cache: &Path,
    log: &Arc<JobLog>,
    parent: SpanId,
    job_span: &'static str,
) -> (Vec<SweepResult>, Vec<JobEvent>, f64) {
    let engine = Engine::new()
        .cache_dir(cache)
        .progress(Arc::clone(log) as Arc<dyn ProgressSink>);
    let mut results = Vec::new();
    let mut events = Vec::new();
    let mut tail = 0.0;
    for (i, (_, plan)) in prep.plans.iter().enumerate() {
        tr.span("experiments.run", parent, 0, |run| {
            let r = engine.run(plan);
            let end = Instant::now();
            let evs = log.take();
            if let Some(last) = evs.iter().map(|e| e.start).max() {
                tail += end.saturating_duration_since(last).as_secs_f64();
            }
            for (j, e) in evs.iter().enumerate() {
                tr.record(
                    job_span,
                    run,
                    ((i as u64) << 32) | (j as u64 + 1),
                    e.start,
                    e.elapsed,
                );
            }
            events.extend(evs);
            results.push(r);
        });
    }
    (results, events, tail)
}

fn run_pass(tr: &Tracer, prep: &Prepared, dir: &Path, out: &mut Outcome) -> Result<Pass, String> {
    let log = Arc::new(JobLog::default());
    let cache = dir.join("cache");
    let corpus_dir = dir.join("corpus");
    let mut p = Pass::default();
    let t_pass = Instant::now();
    let done = tr.span(
        "bench.pass",
        SpanId::ROOT,
        0,
        |pass| -> Result<(), String> {
            // Cold sweep.
            let ((cold, events, tail), secs) = stage(tr, "experiments.sweep_cold", pass, |sid| {
                sweep(tr, prep, &cache, &log, sid, "sim.job")
            });
            p.sweep_s = secs;
            p.tail_s = tail;
            for e in &events {
                if e.outcome == JobOutcome::Computed {
                    p.job_busy_s += e.elapsed.as_secs_f64();
                    p.job_latencies.push(e.elapsed.as_secs_f64());
                }
            }
            for s in &cold {
                p.jobs += s.metrics.jobs_total as u64;
                p.jobs_failed += s.metrics.jobs_failed as u64;
                p.cycles += s.metrics.cycles_simulated;
                out.check(s.all_ok(), || {
                    format!("cold sweep failed jobs: {:?}", s.errors)
                });
            }

            // Warm sweep from the same cache.
            let ((warm, _, _), secs) = stage(tr, "experiments.sweep_warm", pass, |sid| {
                sweep(tr, prep, &cache, &log, sid, "experiments.cache_hit")
            });
            p.warm_s = secs;
            p.cache_hits = warm.iter().map(|s| s.metrics.cache_hits as u64).sum();
            out.check(p.cache_hits == p.jobs, || {
                format!(
                    "warm sweep hit the cache for {} of {} jobs",
                    p.cache_hits, p.jobs
                )
            });
            out.check(results_json(&warm) == results_json(&cold), || {
                "warm sweep results differ from the cold sweep".to_string()
            });

            // Threshold training on each suite.
            let (trained, secs) = stage(tr, "stats.train", pass, |_| -> Result<(), String> {
                for ((machine, _), s) in prep.plans.iter().zip(&cold) {
                    let cases = training_cases(*machine, s)?;
                    if cases.is_empty() {
                        return Err(format!("no training cases for {machine:?}"));
                    }
                    let g = gini_sweep(&cases);
                    let ppi = PpiSweep::run(&cases);
                    std::hint::black_box((g.best_separator(), ppi.best_threshold));
                }
                Ok(())
            });
            p.train_s = secs;
            trained?;

            // Corpus build.
            let (built, secs) = stage(tr, "corpus.build", pass, |_| {
                build_corpus(&corpus_dir, &prep.inputs.corpus)
            });
            p.build_s = secs;
            let expected_cells = expected_cells(prep);
            let built = match built {
                Ok(b) => b,
                Err(e) => {
                    p.cells = expected_cells;
                    p.cells_failed = expected_cells;
                    return Err(format!("corpus build failed: {e}"));
                }
            };
            let manifest: CorpusManifest = built.manifest;
            let manifest_path = built.manifest_path;
            p.cells = manifest.entries.len() as u64;
            out.check(p.cells == expected_cells, || {
                format!("corpus has {} cells, expected {expected_cells}", p.cells)
            });

            // Verify the sealed corpus.
            let (verified, _) = stage(tr, "corpus.verify", pass, |_| {
                verify_corpus(&manifest, &manifest_path)
            });
            let failures = verified.failures();
            out.check(failures.is_empty(), || {
                format!("verify_corpus failed: {failures:?}")
            });

            // Score every cell.
            let (scored, secs) = stage(tr, "corpus.score", pass, |_| {
                score_corpus(
                    &manifest,
                    &manifest_path,
                    &dir.join("journal.jsonl"),
                    false,
                    &ScoreOptions {
                        label: Some("perfbench".to_string()),
                        ..ScoreOptions::default()
                    },
                )
            });
            p.score_s = secs;
            let report = scored
                .map_err(|e| format!("score_corpus failed: {e}"))?
                .report
                .ok_or("score_corpus left entries unscored")?;
            p.entries_scored = report.entries.len() as u64;
            p.entries_failed = report.entries.iter().filter(|e| e.error.is_some()).count() as u64;
            out.check(p.entries_scored == p.cells && p.entries_failed == 0, || {
                format!(
                    "{} of {} cells scored, {} with errors",
                    p.entries_scored, p.cells, p.entries_failed
                )
            });
            p.accuracy_pct = report.summary.accuracy * 100.0;

            // Read every built trace back.
            let (traces, secs) = stage(tr, "collector.trace_read", pass, |_| {
                manifest
                    .entries
                    .iter()
                    .map(|e| {
                        let mut r = TraceReader::open(manifest.trace_path(&manifest_path, e))?;
                        let machine = r.meta().machine.clone();
                        let cycles = r.meta().window_cycles;
                        Ok((e.arch, machine, cycles, r.read_all()?))
                    })
                    .collect::<Result<Vec<_>, smt_sim::Error>>()
            });
            p.trace_read_s = secs;
            let traces = traces.map_err(|e| format!("reading traces: {e}"))?;
            p.windows = traces.iter().map(|t| t.3.len() as u64).sum();

            // Both online decision cores over every trace.
            let (sched, secs) = stage(tr, "sched.replay", pass, |_| -> Result<(), String> {
                for (arch, tag, _, windows) in &traces {
                    let (mut ctl, _) = decision_cores(&manifest, *arch, tag, 0)?;
                    observe_all(windows, |w| ctl.observe(w).level);
                }
                Ok(())
            });
            p.sched_s = secs;
            sched?;
            let (auto, secs) = stage(tr, "autotune.replay", pass, |_| -> Result<(), String> {
                for (arch, tag, cycles, windows) in &traces {
                    let (_, mut tuner) = decision_cores(&manifest, *arch, tag, *cycles)?;
                    observe_all(windows, |w| tuner.observe(w).level);
                }
                Ok(())
            });
            p.autotune_s = secs;
            auto?;
            Ok(())
        },
    );
    p.wall_s = t_pass.elapsed().as_secs_f64();
    done?;
    Ok(p)
}

/// One cold sweep outside any pass, adding its job latencies to `lat`.
fn latency_sweep(
    tr: &Tracer,
    prep: &Prepared,
    cache: &Path,
    lat: &mut Vec<f64>,
    out: &mut Outcome,
) {
    let log = Arc::new(JobLog::default());
    let (results, events, _) = sweep(tr, prep, cache, &log, SpanId::ROOT, "sim.job");
    for s in &results {
        out.attempted += s.metrics.jobs_total as u64;
        out.failed += s.metrics.jobs_failed as u64;
        out.check(s.all_ok(), || {
            format!("latency sweep failed jobs: {:?}", s.errors)
        });
    }
    lat.extend(
        events
            .iter()
            .filter(|e| e.outcome == JobOutcome::Computed)
            .map(|e| e.elapsed.as_secs_f64()),
    );
}

/// Feed every window to a decision core, keeping its answers observable.
fn observe_all(windows: &[WindowMeasurement], mut f: impl FnMut(&WindowMeasurement) -> SmtLevel) {
    for w in windows {
        std::hint::black_box(f(w));
    }
}

/// The scorer's controller and a dry-run autotuner for one trace.
fn decision_cores(
    manifest: &CorpusManifest,
    arch: smt_corpus::CorpusArch,
    tag: &str,
    window_cycles: u64,
) -> Result<(DynamicSmtController, AutotuneLoop), String> {
    let policy =
        ReplayPolicy::from_arch_policy(manifest.arch_policy(arch).map_err(|e| e.to_string())?);
    let machine = machine_for_tag(tag).map_err(|e| e.to_string())?;
    let spec = MetricSpec::for_arch(&machine.arch);
    let selector = selector_for_machine(&machine, &policy).map_err(|e| e.to_string())?;
    let ctl = DynamicSmtController::new(selector.clone(), spec, policy.controller);
    let cfg = AutotuneConfig {
        window_cycles: window_cycles.max(1),
        ..AutotuneConfig::default()
    };
    let tuner = AutotuneLoop::new(selector, spec, cfg).map_err(|e| e.to_string())?;
    Ok((ctl, tuner))
}

fn expected_cells(prep: &Prepared) -> u64 {
    let opts = &prep.inputs.corpus;
    let filter = opts.workload_filter.as_deref().unwrap_or(&[]);
    let per_tier: usize = opts
        .arches
        .iter()
        .map(|&a| {
            suite_for_arch(a)
                .iter()
                .filter(|s| filter.is_empty() || filter.contains(&s.name))
                .count()
        })
        .sum();
    (per_tier * opts.tiers.len()) as u64
}

/// Shares of the simulator's phases on a sample of the sweep's specs.
fn phase_shares(tr: &Tracer, prep: &Prepared) -> [(&'static str, f64); 6] {
    let mut prof = PhaseProfile::default();
    tr.span("sim.profile", SpanId::ROOT, 0, |_| {
        let (machine, specs) = &prep.inputs.suites[0];
        for spec in specs.iter().take(PROFILE_SPECS) {
            let mut sim = Simulation::new(
                machine.config(),
                SmtLevel::Smt4,
                SyntheticWorkload::new(spec.clone()),
            );
            sim.run_cycles_profiled(PROFILE_CYCLES, &mut prof);
        }
    });
    let total = prof.total_ticks().max(1) as f64;
    [
        ("issue", prof.issue as f64 / total),
        ("dispatch", prof.dispatch as f64 / total),
        ("fetch", prof.fetch as f64 / total),
        ("mem", prof.mem as f64 / total),
        ("retire", prof.retire as f64 / total),
        ("bookkeeping", prof.bookkeeping as f64 / total),
    ]
}

/// Median share of each `parent_name` span that its direct children cover.
pub fn stage_coverage(spans: &[Span], parent_name: &str) -> f64 {
    let shares: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == parent_name)
        .map(|parent| {
            let kids = spans
                .iter()
                .filter(|s| s.parent == parent.id)
                .map(|s| (s.start_ns, s.end_ns))
                .collect();
            union_ns(kids) as f64 / parent.duration_ns().max(1) as f64
        })
        .collect();
    if shares.is_empty() {
        return 0.0;
    }
    percentile(&shares, 50.0)
}

/// Snapshot of a directory tree: relative paths with sizes and mtimes.
fn tree_snapshot(root: &Path) -> Vec<(PathBuf, u64, Option<std::time::SystemTime>)> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(rd) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in rd.flatten() {
            let path = entry.path();
            let Ok(meta) = entry.metadata() else { continue };
            if meta.is_dir() {
                stack.push(path.clone());
            }
            out.push((path, meta.len(), meta.modified().ok()));
        }
    }
    out.sort();
    out
}

pub fn run(seed: u64, seconds: f64, tr: &Tracer, tmp: &Path) -> Outcome {
    let mut out = Outcome::default();
    let results_dir = Path::new("results");
    let before = tree_snapshot(results_dir);
    let traced = tr.enabled();

    let mut setups = Vec::new();
    let mut prep = None;
    let mut passes: Vec<Pass> = Vec::new();
    let mut untraced_walls = Vec::new();
    let mut lat = Vec::new();
    let t_run = Instant::now();
    let mut k = 0usize;
    let min_passes = if traced { 2 * MIN_PASSES } else { MIN_PASSES };
    while k < min_passes || t_run.elapsed().as_secs_f64() < seconds {
        // A traced run alternates untraced and traced passes; the untraced
        // ones are the reference for the tracer's overhead.
        let record = traced && k % 2 == 1;
        let p = match set_up(seed, tmp, tr, &mut setups) {
            Ok(p) => prep.insert(p),
            Err(e) => {
                out.problems.push(e);
                return out;
            }
        };
        tr.set_enabled(record);
        let dir = tmp.join(format!("pass-{k}"));
        let pass = run_pass(tr, p, &dir, &mut out);
        tr.set_enabled(traced);
        if !traced && pass.is_ok() {
            for r in 0..LATENCY_SWEEPS {
                latency_sweep(tr, p, &dir.join(format!("latency-{r}")), &mut lat, &mut out);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        match pass {
            Ok(p) => {
                let (a, f) = p.operations();
                out.attempted += a;
                out.failed += f;
                if traced && !record {
                    untraced_walls.push(p.wall_s);
                } else {
                    lat.extend_from_slice(&p.job_latencies);
                    passes.push(p);
                }
            }
            Err(e) => {
                out.problems.push(e);
                out.failed += 1;
                out.attempted += 1;
                break;
            }
        }
        k += 1;
    }
    let _ = std::fs::remove_dir_all(tmp);
    out.check(tree_snapshot(results_dir) == before, || {
        "the workload wrote under results/".to_string()
    });
    if passes.is_empty() {
        out.problems.push("no pass completed".to_string());
        return out;
    }

    let med = |f: fn(&Pass) -> f64| percentile(&passes.iter().map(f).collect::<Vec<_>>(), 50.0);
    // Every cold job of the run, pooled: three sweeps of 130 jobs a pass.
    // One sweep's p99 would be its second-slowest job, whose time swings by
    // up to half from sweep to sweep; over four passes' pool it is the
    // 16th-slowest sample.
    lat.sort_by(f64::total_cmp);
    let accuracies: Vec<f64> = passes.iter().map(|p| p.accuracy_pct).collect();
    out.check(accuracies.iter().all(|a| *a == accuracies[0]), || {
        format!("accuracy differs between passes of one seed: {accuracies:?}")
    });
    let wall = med(|p| p.wall_s);
    out.notes.push(format!(
        "repro: {} passes, wall {:.3} s median, accuracy {:.2}%, {} cells, {} windows replayed",
        passes.len(),
        wall,
        accuracies[0],
        passes[0].cells,
        passes[0].windows
    ));
    out.notes.push(describe_percentiles(
        "cold engine job latency (every cold job of the run)",
        &lat,
        1e3,
        "ms",
    ));

    let m = &mut out.metrics;
    if !traced {
        m.set("setup_s", percentile(&setups, 50.0), "s");
        m.set("wall_s", wall, "s");
        m.set("accuracy_pct", accuracies[0], "%");
        let ops = |p: &Pass| p.operations().0 as f64 / p.wall_s;
        m.set("throughput_rps", med(ops), "1/s");
        m.set("p50_ms", quantile(&lat, 0.50) * 1e3, "ms");
        m.set("p99_ms", quantile(&lat, 0.99) * 1e3, "ms");
        return out;
    }

    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    m.set("experiments.sweep_s", med(|p| p.sweep_s), "s");
    m.set("experiments.job_busy_s", med(|p| p.job_busy_s), "s");
    m.set(
        "experiments.worker_util",
        percentile(
            &passes
                .iter()
                .map(|p| p.job_busy_s / (p.sweep_s * workers))
                .collect::<Vec<_>>(),
            50.0,
        ),
        "ratio",
    );
    m.set("experiments.tail_s", med(|p| p.tail_s), "s");
    m.set("experiments.cache.warm_s", med(|p| p.warm_s), "s");
    m.set("experiments.jobs", passes[0].jobs as f64, "count");
    m.set(
        "experiments.jobs_failed",
        passes[0].jobs_failed as f64,
        "count",
    );
    m.set(
        "experiments.cache.hits",
        passes[0].cache_hits as f64,
        "count",
    );
    m.set("sim.cycles", passes[0].cycles as f64, "count");
    m.set(
        "sim.cycles_per_s",
        percentile(
            &passes
                .iter()
                .map(|p| p.cycles as f64 / p.job_busy_s)
                .collect::<Vec<_>>(),
            50.0,
        ),
        "1/s",
    );
    let prep = prep.expect("a pass ran, so a set-up did");
    for (phase, share) in phase_shares(tr, &prep) {
        m.set(&format!("sim.phase.{phase}_share"), share, "share");
    }
    m.set("stats.train_s", med(|p| p.train_s), "s");
    m.set("corpus.build_s", med(|p| p.build_s), "s");
    m.set("corpus.score_s", med(|p| p.score_s), "s");
    m.set("corpus.cells", passes[0].cells as f64, "count");
    m.set(
        "corpus.entries_scored",
        passes[0].entries_scored as f64,
        "count",
    );
    m.set("collector.trace_read_s", med(|p| p.trace_read_s), "s");
    let per_window = |secs: f64, p: &Pass| secs * 1e9 / p.windows.max(1) as f64;
    m.set(
        "sched.observe_ns",
        percentile(
            &passes
                .iter()
                .map(|p| per_window(p.sched_s, p))
                .collect::<Vec<_>>(),
            50.0,
        ),
        "ns",
    );
    m.set(
        "autotune.observe_ns",
        percentile(
            &passes
                .iter()
                .map(|p| per_window(p.autotune_s, p))
                .collect::<Vec<_>>(),
            50.0,
        ),
        "ns",
    );
    let traced_wall = wall;
    let untraced = percentile(&untraced_walls, 50.0);
    m.set(
        "trace.overhead_pct",
        (traced_wall / untraced - 1.0) * 100.0,
        "%",
    );
    m.set(
        "trace.stage_coverage_pct",
        stage_coverage(&tr.spans(), "bench.pass") * 100.0,
        "%",
    );
    out
}
