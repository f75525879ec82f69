//! `smtselect` — command-line front end to the SMT-selection toolkit.
//!
//! ```text
//! smtselect list
//!     The benchmark catalog (Table I).
//!
//! smtselect analyze <benchmark> [--machine p7|p7x2|nhm] [--scale S]
//!                   [--threshold T] [--verify]
//!     Measure SMTsm online at the machine's top SMT level, print the three
//!     factors and the recommendation; --verify also runs every level to
//!     completion and reports whether the recommendation was right.
//!
//! smtselect train [--machine p7|p7x2|nhm] [--scale S] [--out FILE]
//!     Run the machine's whole suite, train Gini and PPI thresholds for
//!     top-vs-bottom prediction, print them (and save JSON with --out).
//!
//! smtselect tune <benchmark> [--machine p7|p7x2|nhm] [--scale S]
//!                [--threshold T] [--mid T]
//!     Run the benchmark under the dynamic SMT controller and print the
//!     switch log and final throughput.
//!
//! smtselect autotune <benchmark> [<benchmark> ...] [--machine p7|p7x2|nhm]
//!                    [--scale S] [--threshold T] [--mid T]
//!                    [--window-cycles C] [--record FILE] [--json]
//! smtselect autotune --replay <trace.smtc> [--threshold T] [--mid T] [--json]
//! smtselect autotune --probe-affinity [--json]
//!     Run the closed-loop phase-aware autotuner. With benchmark names the
//!     phases run back to back as one workload on the simulator, the loop
//!     switches the machine's SMT level live (change-point detection +
//!     phase memory + hysteresis/cooldown), and --record tees every
//!     counter window into a .smtc trace. --replay re-feeds a recorded
//!     trace through the identical decision core with a dry-run actuator:
//!     the decision log is byte-identical to the live run's (the CI golden
//!     check). --probe-affinity reports whether this host lets the
//!     affinity actuator pin threads (sched_setaffinity), and never fails:
//!     an unusable host is a finding. Every policy knob also has an
//!     SMT_AUTOTUNE_* environment override; see --help.
//!
//! smtselect serve [--addr ENDPOINT] [--unix PATH] [--shards N]
//!                 [--max-sessions N] [--codecs both|ndjson|binary]
//!                 [--debug-verbs] [--verbose]
//!     Run smtd, the recommendation daemon: an epoll reactor with session
//!     state sharded across --shards threads. Clients open with an NDJSON
//!     hello and may negotiate the length-prefixed binary codec; --codecs
//!     restricts what hello may grant. ENDPOINT is tcp://HOST:PORT,
//!     unix:///PATH, or bare HOST:PORT. Returns when a client sends the
//!     shutdown verb.
//!
//! smtselect bench-serve [--addr ENDPOINT | --spawn] [--quick]
//!                       [--connections N] [--requests N] [--label L]
//!                       [--codec ndjson|binary|both]
//!                       [--op stream|place|both] [--tiers MAX]
//!                       [--check FILE] [--tolerance F] [--out FILE]
//!                       [--shutdown]
//!     Load-test a running smtd (or an in-process one with --spawn) and
//!     report throughput and first-class p50/p99 latency in milliseconds.
//!     --tiers MAX sweeps a doubling ladder of connection counts
//!     (1, 2, 4, ... MAX) per selected codec and op — `stream` is
//!     ingest/recommend traffic, `place` times nothing but placement
//!     solves against pre-tagged sessions. --check gates throughput AND
//!     tail latency per (op, codec, connections) tier against a committed
//!     BENCH_serve.json baseline, --out appends the run to the
//!     trajectory, --shutdown stops the server afterwards.
//!
//! smtselect place <bench> <bench> ... [--machine p7|p7x2|nhm] [--scale S]
//!                 [--windows N] [--window-cycles C] [--json]
//!                 [--connect --addr ENDPOINT [--codec ndjson|binary]]
//!     Profile each benchmark solo (N counter windows on one core at
//!     SMT1), then solve for the thread-to-core placement the co-run
//!     compatibility model predicts best. The answer goes through the
//!     daemon's own session type — with --connect the tagged windows are
//!     streamed to a live smtd instead, and the JSON answers are
//!     byte-identical by construction.
//!
//! smtselect collect <benchmark> [--backend sim|perf] [--pid P]
//!                   [--machine p7|p7x2|nhm] [--scale S] [--windows N]
//!                   [--window-cycles C] [--events p7|nhm|generic]
//!                   [--record FILE] [--probe] [--json]
//!     Pull counter windows from a backend — the simulator (default) or a
//!     live process via perf_event_open (--backend perf --pid P) — feed
//!     them through the online sampler, and print the recommendation.
//!     --record tees every window into a .smtc trace file; --probe only
//!     reports which PMU events this host supports and exits.
//!
//! smtselect record <benchmark> --out FILE [collect options]
//!     Shorthand for `collect --record FILE`: capture a trace corpus.
//!
//! smtselect replay <trace.smtc> [--threshold T] [--mid T] [--json]
//!                  [--connect --addr ENDPOINT [--codec ndjson|binary]]
//!                  [--verbose]
//!     Re-feed a recorded trace window-by-window into the daemon's session
//!     type (or, with --connect, a live smtd) and print the
//!     recommendation the stream converges to. Replay is bit-identical:
//!     the same trace always yields the same answer.
//!
//! smtselect corpus build [--out DIR] [--tier s|m|l] [--base-scale S]
//!                        [--check MANIFEST] [--json]
//! smtselect corpus verify [MANIFEST] [--json]
//!     Manage the canonical benchmark corpus. `build` deterministically
//!     regenerates every (arch × tier × workload) trace plus its
//!     simulate-every-level oracle label and writes a sealed, checksummed
//!     manifest under DIR (default results/corpus); --check compares the
//!     rebuild against a committed manifest and exits nonzero on drift
//!     (the CI byte-stability gate). `verify` re-checksums every trace a
//!     manifest lists (default results/corpus/manifest.json) and exits
//!     nonzero if any file is missing, truncated, or edited. `repro score`
//!     replays the corpus to reproduce the paper's accuracy headline.
//!
//! `analyze` and `tune` also take `--json`: the recommendation is printed
//! as one JSON line rendered from the same `Recommendation` struct the
//! daemon serves, so offline and online answers are byte-comparable.
//! ```

use std::sync::Arc;
use std::time::Duration;

use smt_select::prelude::*;
use smt_select::service;

/// Resolve `--machine` through the daemon's canonical table
/// ([`service::machine_by_name`]) so the CLI and `smtd` can never disagree
/// about what a name means; the label is display-only.
fn machine_by_name(name: &str) -> (MachineConfig, &'static str) {
    let cfg = service::machine_by_name(name).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let label = match name {
        "p7" => "8-core POWER7-like chip",
        "p7x2" => "two 8-core POWER7-like chips",
        _ => "quad-core Nehalem-like",
    };
    (cfg, label)
}

fn find_spec(name: &str) -> WorkloadSpec {
    catalog::power7_suite()
        .into_iter()
        .chain(catalog::nehalem_suite())
        .find(|s| s.name.eq_ignore_ascii_case(name))
        .unwrap_or_else(|| {
            eprintln!("unknown benchmark {name:?}; try `smtselect list`");
            std::process::exit(2);
        })
}

struct Opts {
    machine: String,
    scale: f64,
    threshold: f64,
    mid: f64,
    out: Option<String>,
    verify: bool,
    json: bool,
    addr: String,
    unix: Option<String>,
    workers: usize,
    shards: usize,
    codecs: String,
    codec: String,
    op: String,
    tiers: Option<usize>,
    max_sessions: usize,
    debug_verbs: bool,
    verbose: bool,
    quick: bool,
    spawn: bool,
    shutdown: bool,
    connections: Option<usize>,
    requests: Option<usize>,
    label: Option<String>,
    check: Option<String>,
    tolerance: f64,
    windows: u64,
    window_cycles: u64,
    backend: String,
    pid: Option<u32>,
    record: Option<String>,
    events: String,
    probe: bool,
    connect: bool,
    replay: Option<String>,
    probe_affinity: bool,
    tier: Option<String>,
    base_scale: Option<f64>,
    positional: Vec<String>,
}

fn parse(args: &[String]) -> Opts {
    let mut o = Opts {
        machine: "p7".into(),
        scale: 0.3,
        threshold: DEFAULT_THRESHOLD_TOP,
        mid: DEFAULT_THRESHOLD_MID,
        out: None,
        verify: false,
        json: false,
        addr: "127.0.0.1:7099".into(),
        unix: None,
        workers: 8,
        shards: 0,
        codecs: "both".into(),
        codec: "ndjson".into(),
        op: "stream".into(),
        tiers: None,
        max_sessions: 1024,
        debug_verbs: false,
        verbose: false,
        quick: false,
        spawn: false,
        shutdown: false,
        connections: None,
        requests: None,
        label: None,
        check: None,
        tolerance: 0.2,
        windows: 32,
        window_cycles: 50_000,
        backend: "sim".into(),
        pid: None,
        record: None,
        events: "generic".into(),
        probe: false,
        connect: false,
        replay: None,
        probe_affinity: false,
        tier: None,
        base_scale: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--machine" => o.machine = it.next().expect("--machine takes a value").clone(),
            "--scale" => {
                o.scale = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale takes a number")
            }
            "--threshold" => {
                o.threshold = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threshold takes a number")
            }
            "--mid" => {
                o.mid = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--mid takes a number")
            }
            "--out" => o.out = Some(it.next().expect("--out takes a path").clone()),
            "--verify" => o.verify = true,
            "--json" => o.json = true,
            "--addr" => o.addr = it.next().expect("--addr takes an endpoint").clone(),
            "--unix" => o.unix = Some(it.next().expect("--unix takes a path").clone()),
            "--workers" => {
                o.workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--workers takes a count")
            }
            "--shards" => {
                o.shards = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--shards takes a count")
            }
            "--codecs" => {
                o.codecs = it
                    .next()
                    .expect("--codecs takes both|ndjson|binary")
                    .clone()
            }
            "--codec" => o.codec = it.next().expect("--codec takes ndjson|binary|both").clone(),
            "--op" => o.op = it.next().expect("--op takes stream|place|both").clone(),
            "--tiers" => {
                o.tiers = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--tiers takes a max connection count"),
                )
            }
            "--max-sessions" => {
                o.max_sessions = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--max-sessions takes a count")
            }
            "--debug-verbs" => o.debug_verbs = true,
            "--verbose" => o.verbose = true,
            "--quick" => o.quick = true,
            "--spawn" => o.spawn = true,
            "--shutdown" => o.shutdown = true,
            "--connections" => {
                o.connections = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--connections takes a count"),
                )
            }
            "--requests" => {
                o.requests = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--requests takes a count"),
                )
            }
            "--windows" => {
                o.windows = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--windows takes a count")
            }
            "--window-cycles" => {
                o.window_cycles = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--window-cycles takes a cycle count")
            }
            "--backend" => o.backend = it.next().expect("--backend takes sim|perf").clone(),
            "--pid" => {
                o.pid = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--pid takes a process id"),
                )
            }
            "--record" => o.record = Some(it.next().expect("--record takes a path").clone()),
            "--events" => o.events = it.next().expect("--events takes p7|nhm|generic").clone(),
            "--probe" => o.probe = true,
            "--connect" => o.connect = true,
            "--replay" => o.replay = Some(it.next().expect("--replay takes a path").clone()),
            "--probe-affinity" => o.probe_affinity = true,
            "--tier" => o.tier = Some(it.next().expect("--tier takes s|m|l").clone()),
            "--base-scale" => {
                o.base_scale = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--base-scale takes a number"),
                )
            }
            "--label" => o.label = Some(it.next().expect("--label takes a value").clone()),
            "--check" => o.check = Some(it.next().expect("--check takes a path").clone()),
            "--tolerance" => {
                o.tolerance = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--tolerance takes a fraction")
            }
            other => o.positional.push(other.to_string()),
        }
    }
    o
}

/// The session parameters the CLI's offline paths and `smtd` clients share.
fn session_spec(o: &Opts) -> service::SessionSpec {
    let mut spec = service::SessionSpec::power7();
    spec.machine = o.machine.clone();
    spec.threshold = o.threshold;
    spec.mid = o.mid;
    spec
}

/// The offline session every local verb answers through, or exit 2.
fn open_session(sspec: &service::SessionSpec) -> service::Session {
    service::Session::new(0, sspec).unwrap_or_else(|e| {
        eprintln!("bad session parameters: {e}");
        std::process::exit(2);
    })
}

fn cmd_list() {
    let mut seen = std::collections::HashSet::new();
    println!("{:<22} {:<14} description", "benchmark", "suite");
    println!("{}", "-".repeat(78));
    for s in catalog::power7_suite()
        .into_iter()
        .chain(catalog::nehalem_suite())
    {
        if seen.insert(s.name.clone()) {
            println!("{:<22} {:<14} {}", s.name, s.suite, s.description);
        }
    }
}

fn cmd_analyze(o: &Opts) {
    let name = o.positional.first().unwrap_or_else(|| {
        eprintln!("analyze needs a benchmark name");
        std::process::exit(2);
    });
    let (cfg, label) = machine_by_name(&o.machine);
    let spec = find_spec(name).scaled(o.scale);
    let top = *cfg.smt_levels().last().expect("levels");
    let mspec = MetricSpec::for_arch(&cfg.arch);

    if o.json {
        // Offline analysis through the daemon's own session type: stream
        // top-level windows into a Session and print its recommendation,
        // so this line is byte-identical to what `smtd` would serve for
        // the same counter stream.
        let sspec = session_spec(o);
        let mut session = open_session(&sspec);
        let mut sim = Simulation::new(cfg, top, SyntheticWorkload::new(spec));
        sim.run_cycles(25_000);
        for _ in 0..8 {
            if sim.finished() {
                break;
            }
            let m = sim.measure_window(sspec.window_cycles);
            session.ingest(std::slice::from_ref(&m));
        }
        let line = serde_json::to_string(&session.recommend()).expect("serialize");
        println!("{line}");
        return;
    }

    let mut sim = Simulation::new(cfg.clone(), top, SyntheticWorkload::new(spec.clone()));
    sim.run_cycles(25_000);
    let window = sim.measure_window(60_000);
    let f = smtsm_factors(&mspec, &window);
    let predictor = ThresholdPredictor::fixed(o.threshold);
    let pref = predictor.predict(f.value());

    println!("benchmark : {} on {label} @ {top}", spec.name);
    println!(
        "factors   : mix-deviation {:.4}  disp-held {:.4}  scalability {:.4}",
        f.mix_deviation, f.disp_held, f.scalability
    );
    println!(
        "SMTsm     : {:.4}  (threshold {:.4})",
        f.value(),
        o.threshold
    );
    println!(
        "verdict   : prefer {} SMT",
        match pref {
            SmtPreference::Higher => "the HIGHER",
            SmtPreference::Lower => "a LOWER",
        }
    );
    let (used, held, other) = window.utilization_breakdown(cfg.arch.dispatch_width as u64);
    println!(
        "dispatch  : {:.0}% used, {:.0}% held, {:.0}% idle/stalled",
        used * 100.0,
        held * 100.0,
        other * 100.0
    );

    if o.verify {
        println!("\nverify (full runs):");
        let oracle = oracle_sweep(&cfg, || SyntheticWorkload::new(spec.clone()), 2_000_000_000)
            .unwrap_or_else(|e| {
                eprintln!("oracle sweep failed: {e}");
                std::process::exit(1);
            });
        for l in &oracle.levels {
            println!(
                "  {}: {:.2} work/cycle{}",
                l.smt,
                l.result.perf(),
                if l.smt == oracle.best {
                    "   <- best"
                } else {
                    ""
                }
            );
        }
        let correct = match pref {
            SmtPreference::Higher => oracle.best == top,
            SmtPreference::Lower => oracle.best < top,
        };
        println!(
            "  prediction was {}",
            if correct { "CORRECT" } else { "WRONG" }
        );
    }
}

fn cmd_train(o: &Opts) {
    use smt_select::stats::classify::SpeedupCase;
    let (cfg, label) = machine_by_name(&o.machine);
    let suite = if o.machine == "nhm" {
        catalog::nehalem_suite()
    } else {
        catalog::power7_suite()
    };
    let specs: Vec<WorkloadSpec> = suite.into_iter().map(|s| s.scaled(o.scale)).collect();
    let levels = cfg.smt_levels();
    let top = *levels.last().expect("levels");
    let bottom = levels[0];
    eprintln!(
        "training on {} benchmarks ({label}, {top} vs {bottom})...",
        specs.len()
    );
    let plan = RunRequest::on(cfg)
        .workloads(specs)
        .levels(levels)
        .plan()
        .unwrap_or_else(|e| {
            eprintln!("invalid training request: {e}");
            std::process::exit(2);
        });
    let sweep = Engine::cached().run(&plan);
    for err in &sweep.errors {
        eprintln!("job failed: {err}");
    }
    let cases: Vec<SpeedupCase> = sweep
        .results
        .iter()
        .filter_map(|r| {
            let metric = r.metric_at(top).ok()?;
            let speedup = r.speedup(top, bottom).ok()?;
            Some(SpeedupCase::new(r.name.clone(), metric, speedup))
        })
        .collect();
    let gini = ThresholdPredictor::train_gini(&cases);
    let ppi = ThresholdPredictor::train_ppi(&cases);
    let sweep = PpiSweep::run(&cases);
    println!(
        "gini threshold : {:.4} (accuracy {:.1}%)",
        gini.threshold,
        gini.accuracy(&cases) * 100.0
    );
    println!(
        "ppi threshold  : {:.4} (accuracy {:.1}%, avg improvement {:.1}%)",
        ppi.threshold,
        ppi.accuracy(&cases) * 100.0,
        sweep.best_improvement
    );
    // The shipped defaults are what every untrained consumer (CLI flags,
    // corpus scorer, daemon sessions) resolves to; print the drift so a
    // trained threshold diverging from them is visible, never silent.
    println!(
        "shipped default: {DEFAULT_THRESHOLD_TOP:.4} top / {DEFAULT_THRESHOLD_MID:.4} mid \
         (gini drift {:+.4})",
        gini.threshold - DEFAULT_THRESHOLD_TOP
    );
    if let Some(path) = &o.out {
        let body = serde_json::json!({
            "machine": o.machine,
            "scale": o.scale,
            "gini": gini,
            "ppi": ppi,
            "default_threshold_top": DEFAULT_THRESHOLD_TOP,
            "default_threshold_mid": DEFAULT_THRESHOLD_MID,
            "cases": cases,
        });
        std::fs::write(
            path,
            serde_json::to_string_pretty(&body).expect("serialize"),
        )
        .expect("write thresholds");
        eprintln!("wrote {path}");
    }
}

fn cmd_corpus(o: &Opts) {
    use smt_select::corpus::{check_against, DEFAULT_MANIFEST};
    let verb = o.positional.first().map(String::as_str).unwrap_or_else(|| {
        eprintln!("usage: smtselect corpus <build|verify> ...; see --help");
        std::process::exit(2);
    });
    match verb {
        "build" => {
            // The window geometry (windows, window_cycles, warmup) is
            // deliberately NOT flag-overridable: a corpus built with a
            // different geometry could never byte-match the committed
            // manifest, so only the size knobs are exposed.
            let mut opts = BuildOptions::default();
            if let Some(t) = &o.tier {
                let tier = SizeTier::from_name(t).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2);
                });
                opts = opts.tier(tier);
            }
            if let Some(s) = o.base_scale {
                opts.base_scale = s;
            }
            let out = o.out.clone().unwrap_or_else(|| "results/corpus".into());
            let cells = opts.tiers.len()
                * opts
                    .arches
                    .iter()
                    .map(|&a| smt_select::corpus::suite_for_arch(a).len())
                    .sum::<usize>();
            eprintln!("building {cells} corpus cells into {out}/ ...");
            let outcome = smt_select::corpus::build_corpus(std::path::Path::new(&out), &opts)
                .unwrap_or_else(|e| {
                    eprintln!("corpus build failed: {e}");
                    std::process::exit(1);
                });
            let manifest = outcome.manifest;
            if o.json {
                let body = serde_json::json!({
                    "manifest": outcome.manifest_path.display().to_string(),
                    "entries": manifest.entries.len(),
                    "checksum": format!("{:#018x}", manifest.checksum),
                });
                println!("{}", serde_json::to_string(&body).expect("serialize"));
            } else {
                println!(
                    "built {} entries, manifest {} (checksum {:#018x})",
                    manifest.entries.len(),
                    outcome.manifest_path.display(),
                    manifest.checksum
                );
            }
            if let Some(committed_path) = &o.check {
                let committed = CorpusManifest::load(std::path::Path::new(committed_path))
                    .unwrap_or_else(|e| {
                        eprintln!("loading {committed_path}: {e}");
                        std::process::exit(1);
                    });
                let drifts = check_against(&manifest, &committed);
                if drifts.is_empty() {
                    println!("check OK: rebuild matches {committed_path}");
                } else {
                    eprintln!("rebuild drifts from {committed_path}:");
                    for d in &drifts {
                        eprintln!("  {}: {}", d.id, d.what);
                    }
                    std::process::exit(1);
                }
            }
        }
        "verify" => {
            let path = o
                .positional
                .get(1)
                .cloned()
                .unwrap_or_else(|| DEFAULT_MANIFEST.to_string());
            let manifest = CorpusManifest::load(std::path::Path::new(&path)).unwrap_or_else(|e| {
                eprintln!("loading {path}: {e}");
                std::process::exit(1);
            });
            let report = verify_corpus(&manifest, std::path::Path::new(&path));
            if o.json {
                let body = serde_json::json!({
                    "manifest": path,
                    "entries": manifest.entries.len(),
                    "failures": report.failures().len(),
                    "ok": report.ok(),
                });
                println!("{}", serde_json::to_string(&body).expect("serialize"));
            } else {
                print!("{}", report.render());
            }
            if !report.ok() {
                std::process::exit(1);
            }
        }
        other => {
            eprintln!("unknown corpus verb {other:?}; expected build|verify");
            std::process::exit(2);
        }
    }
}

fn cmd_tune(o: &Opts) {
    let name = o.positional.first().unwrap_or_else(|| {
        eprintln!("tune needs a benchmark name");
        std::process::exit(2);
    });
    let (cfg, label) = machine_by_name(&o.machine);
    let spec = find_spec(name).scaled(o.scale);
    let top = *cfg.smt_levels().last().expect("levels");
    let selector = LevelSelector::fixed_for_top(top, o.threshold, o.mid);
    if o.json {
        // Closed-loop tuning through the daemon's session type: the local
        // simulation plays the client's machine, applying each level the
        // session answers with, and the final recommendation is printed
        // exactly as `smtd` would serve it.
        let sspec = session_spec(o);
        let mut session = open_session(&sspec);
        let mut sim = Simulation::new(cfg, top, SyntheticWorkload::new(spec));
        while !sim.finished() && sim.now() < 5_000_000_000 {
            let m = sim.measure_window(sspec.window_cycles);
            let summary = session.ingest(std::slice::from_ref(&m));
            if sim.smt() != summary.level && !sim.finished() {
                sim.reconfigure(summary.level);
            }
        }
        let line = serde_json::to_string(&session.recommend()).expect("serialize");
        println!("{line}");
        return;
    }

    let mut sim = Simulation::new(cfg.clone(), top, SyntheticWorkload::new(spec.clone()));
    let mut ctl = DynamicSmtController::new(
        selector,
        MetricSpec::for_arch(&cfg.arch),
        ControllerConfig::default(),
    );
    let report = ctl.run(&mut sim, 5_000_000_000);
    println!(
        "tuned {} on {label}: {:.2} work/cycle over {} cycles ({} windows, completed: {})",
        spec.name, report.perf, report.cycles, report.windows, report.completed
    );
    if report.switches.is_empty() {
        println!("no switches: stayed at {top}");
    }
    for s in &report.switches {
        match s.metric {
            Some(m) => println!("  cycle {:>10}: -> {} (SMTsm {:.4})", s.at_cycle, s.to, m),
            None => println!("  cycle {:>10}: -> {} (probe)", s.at_cycle, s.to),
        }
    }
}

fn print_autotune_summary(report: &AutotuneReport, verbose: bool) {
    println!(
        "decisions  : {} window(s): {} switch(es), {} probe(s), {} phase change(s), \
         {} recall(s), {} learned, {} phase(s) remembered",
        report.windows,
        report.switches,
        report.probes,
        report.phase_changes,
        report.recalls,
        report.learned,
        report.phases_remembered
    );
    println!("final      : {}", report.final_level);
    if verbose {
        for d in &report.decisions {
            match d.metric {
                Some(m) => println!(
                    "  window {:>5}: {} -> {} ({:?}, SMTsm {m:.4})",
                    d.window, d.from, d.to, d.reason
                ),
                None => println!(
                    "  window {:>5}: {} -> {} ({:?})",
                    d.window, d.from, d.to, d.reason
                ),
            }
        }
    }
}

/// The autotune loop for `cfg` under the CLI thresholds and any
/// `SMT_AUTOTUNE_*` overrides of `tune`, or exit 2.
fn autotune_loop(o: &Opts, cfg: &MachineConfig, tune: AutotuneConfig) -> AutotuneLoop {
    let tune = tune.from_env().unwrap_or_else(|e| {
        eprintln!("bad SMT_AUTOTUNE_* override: {e}");
        std::process::exit(2);
    });
    let top = *cfg.smt_levels().last().expect("levels");
    let selector = LevelSelector::fixed_for_top(top, o.threshold, o.mid);
    AutotuneLoop::new(selector, MetricSpec::for_arch(&cfg.arch), tune).unwrap_or_else(|e| {
        eprintln!("bad autotune config: {e}");
        std::process::exit(2);
    })
}

fn cmd_autotune(o: &Opts) {
    if o.probe_affinity {
        // Capability probe, same contract as `collect --probe`: always a
        // structured answer, never a failure.
        let report = AffinityActuator::probe(std::process::id() as i32);
        if o.json {
            println!("{}", serde_json::to_string(&report).expect("serialize"));
        } else {
            print!("{}", report.render());
        }
        return;
    }

    if let Some(path) = &o.replay {
        let mut backend = TraceBackend::open(path).unwrap_or_else(|e| {
            eprintln!("cannot open {path}: {e}");
            std::process::exit(1);
        });
        let meta = backend.meta().clone();
        let machine = if service::machine_by_name(&meta.machine).is_ok() {
            meta.machine.clone()
        } else {
            o.machine.clone()
        };
        let (cfg, _label) = machine_by_name(&machine);
        let mut tune = AutotuneConfig::default();
        if meta.window_cycles > 0 {
            tune.window_cycles = meta.window_cycles;
        }
        let mut ctl = autotune_loop(o, &cfg, tune);
        let mut dry = DryRunActuator::new();
        let report = ctl
            .run_stream(&mut backend, &mut dry, u64::MAX)
            .unwrap_or_else(|e| {
                eprintln!("replay failed: {e}");
                std::process::exit(1);
            });
        if o.json {
            // The byte-diffable decision log: replaying the same trace
            // with the same thresholds always prints the same bytes.
            println!("{}", serde_json::to_string(&report).expect("serialize"));
        } else {
            println!("replayed   : {path} (machine {})", meta.machine);
            print_autotune_summary(&report, true);
        }
        return;
    }

    if o.positional.is_empty() {
        eprintln!("autotune needs benchmark name(s), --replay FILE, or --probe-affinity");
        std::process::exit(2);
    }
    let (cfg, label) = machine_by_name(&o.machine);
    let top = *cfg.smt_levels().last().expect("levels");
    let specs: Vec<WorkloadSpec> = o
        .positional
        .iter()
        .map(|n| find_spec(n).scaled(o.scale))
        .collect();
    let phased = PhasedWorkload::new(o.positional.join("+"), specs);
    let tune = AutotuneConfig {
        window_cycles: o.window_cycles,
        ..AutotuneConfig::default()
    };
    let mut ctl = autotune_loop(o, &cfg, tune);
    let tune = *ctl.config();
    let mut act = SimActuator::new(Simulation::new(cfg.clone(), top, phased));

    let report = if let Some(path) = &o.record {
        let meta = TraceMeta {
            machine: o.machine.clone(),
            nports: cfg.arch.num_ports(),
            window_cycles: tune.window_cycles,
        };
        let mut writer = TraceWriter::create(path, meta).unwrap_or_else(|e| {
            eprintln!("cannot record to {path}: {e}");
            std::process::exit(1);
        });
        let report = act
            .run_recording(&mut ctl, 5_000_000_000, &mut writer)
            .unwrap_or_else(|e| {
                eprintln!("autotune run failed: {e}");
                std::process::exit(1);
            });
        writer.finalize().unwrap_or_else(|e| {
            eprintln!("finalizing {path} failed: {e}");
            std::process::exit(1);
        });
        eprintln!("recorded   : {path}");
        report
    } else {
        act.run(&mut ctl, 5_000_000_000).unwrap_or_else(|e| {
            eprintln!("autotune run failed: {e}");
            std::process::exit(1);
        })
    };

    if o.json {
        println!("{}", serde_json::to_string(&report).expect("serialize"));
        return;
    }
    println!(
        "autotuned  : {} on {label} @ {top} ({} cycles/window)",
        o.positional.join("+"),
        tune.window_cycles
    );
    println!(
        "perf       : {:.3} work/cycle over {} cycles (drains {}, completed: {})",
        report.perf, report.cycles, report.drain_cycles, report.completed
    );
    print_autotune_summary(&report.decisions, o.verbose);
}

fn cmd_collect(o: &Opts, record_to: Option<&str>) {
    use smt_select::collect::perf;
    let map = EventMap::by_name(&o.events).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

    if o.probe {
        // Capability probe: report per-event support and exit. Always a
        // structured answer, never a failure — an unusable host is a
        // finding, not an error.
        let report = perf::probe(&map);
        if o.json {
            println!("{}", serde_json::to_string(&report).expect("serialize"));
        } else {
            print!("{}", report.render());
        }
        return;
    }

    let (cfg, _label) = machine_by_name(&o.machine);
    let top = *cfg.smt_levels().last().expect("levels");
    let nports = cfg.arch.num_ports();

    let backend: Box<dyn CounterBackend> = match o.backend.as_str() {
        "sim" => {
            let name = o.positional.first().unwrap_or_else(|| {
                eprintln!("collect with the sim backend needs a benchmark name");
                std::process::exit(2);
            });
            let spec = find_spec(name).scaled(o.scale);
            let sim = Simulation::new(cfg.clone(), top, SyntheticWorkload::new(spec));
            Box::new(SimBackend::new(name.clone(), sim).warmup(25_000))
        }
        "perf" => {
            let pid = o.pid.unwrap_or_else(|| {
                eprintln!("collect --backend perf needs --pid <process id>");
                std::process::exit(2);
            });
            match PerfBackend::attach(pid, map) {
                Ok(b) => {
                    for skipped in b.skipped_events() {
                        eprintln!("note: optional event {skipped} unavailable, continuing");
                    }
                    Box::new(b)
                }
                Err(e) => {
                    eprintln!("live collection unavailable: {e}");
                    eprintln!(
                        "hint: `smtselect collect --probe --events {}` reports per-event support",
                        o.events
                    );
                    std::process::exit(1);
                }
            }
        }
        other => {
            eprintln!("unknown backend {other:?} (expected sim or perf)");
            std::process::exit(2);
        }
    };

    let mut collector = Collector::new(backend);
    if let Some(path) = record_to {
        let meta = TraceMeta {
            machine: o.machine.clone(),
            nports,
            window_cycles: o.window_cycles,
        };
        collector = collector.record_to(path, meta).unwrap_or_else(|e| {
            eprintln!("cannot record to {path}: {e}");
            std::process::exit(1);
        });
    }

    eprintln!("collecting from {}...", collector.backend().describe());
    let windows = collector
        .collect(o.windows, o.window_cycles)
        .unwrap_or_else(|e| {
            eprintln!("collection failed: {e}");
            std::process::exit(1);
        });

    // The recommendation comes from the daemon's own session type, so a
    // collected stream answers exactly as `smtd` would for the same bits.
    let mut sspec = session_spec(o);
    sspec.window_cycles = o.window_cycles;
    let mut session = open_session(&sspec);
    session.ingest(&windows);
    let report = collector.finish().unwrap_or_else(|e| {
        eprintln!("finalizing trace failed: {e}");
        std::process::exit(1);
    });
    let rec = session.recommend();

    if o.json {
        let body = serde_json::json!({ "report": report, "recommendation": rec });
        println!("{}", serde_json::to_string(&body).expect("serialize"));
        return;
    }
    println!(
        "collected  : {} window(s) of {} cycles via {} backend{}",
        report.windows,
        o.window_cycles,
        report.backend,
        if report.exhausted {
            " (source exhausted)"
        } else {
            ""
        }
    );
    if let Some(path) = &report.recorded_to {
        println!("recorded   : {path}");
    }
    println!(
        "recommend  : {} (SMTsm {:.4}, confidence {:.2}, {} windows)",
        rec.level, rec.smtsm, rec.confidence, rec.windows
    );
}

fn cmd_record(o: &Opts) {
    let Some(out) = o.out.clone() else {
        eprintln!("record needs --out FILE (the trace to write)");
        std::process::exit(2);
    };
    cmd_collect(o, Some(&out));
}

fn cmd_replay(o: &Opts) {
    let path = o.positional.first().unwrap_or_else(|| {
        eprintln!("replay needs a trace file");
        std::process::exit(2);
    });
    let mut backend = TraceBackend::open(path).unwrap_or_else(|e| {
        eprintln!("cannot open {path}: {e}");
        std::process::exit(1);
    });
    let meta = backend.meta().clone();
    let mut sspec = session_spec(o);
    sspec.machine = meta.machine.clone();
    if meta.window_cycles > 0 {
        sspec.window_cycles = meta.window_cycles;
    }

    if o.connect {
        // Stream the trace into a live smtd instead of a local session.
        let mut client = Client::connect(&o.addr, Duration::from_secs(10)).unwrap_or_else(|e| {
            eprintln!("cannot connect to {}: {e}", o.addr);
            std::process::exit(1);
        });
        let codec = o.codec.parse::<CodecKind>().unwrap_or_else(|e| {
            eprintln!("bad --codec: {e}");
            std::process::exit(2);
        });
        let (session, top, granted) = client.hello_with(&sspec, codec).unwrap_or_else(|e| {
            eprintln!("hello failed: {e}");
            std::process::exit(1);
        });
        eprintln!(
            "session {session} (top {top}, codec {granted}) on {}",
            o.addr
        );
        let summary = client
            .ingest_stream(WindowIter::new(&mut backend, 0), 16)
            .unwrap_or_else(|e| {
                eprintln!("streaming failed: {e}");
                std::process::exit(1);
            });
        let rec = client.recommend().unwrap_or_else(|e| {
            eprintln!("recommend failed: {e}");
            std::process::exit(1);
        });
        if o.json {
            println!("{}", serde_json::to_string(&rec).expect("serialize"));
        } else {
            let streamed = summary.map(|s| s.total_windows).unwrap_or(0);
            println!(
                "streamed   : {streamed} window(s) from {path} to {}",
                o.addr
            );
            println!(
                "recommend  : {} (SMTsm {:.4}, confidence {:.2})",
                rec.level, rec.smtsm, rec.confidence
            );
        }
        return;
    }

    let mut session = open_session(&sspec);
    let mut replayed = 0u64;
    loop {
        match backend.next_window(0) {
            Ok(Some(w)) => {
                let s = session.ingest(std::slice::from_ref(&w));
                replayed += 1;
                if o.verbose {
                    println!("window {replayed:>4}: level {}", s.level);
                }
            }
            Ok(None) => break,
            Err(e) => {
                eprintln!("replay failed after {replayed} windows: {e}");
                std::process::exit(1);
            }
        }
    }
    let rec = session.recommend();
    if o.json {
        println!("{}", serde_json::to_string(&rec).expect("serialize"));
    } else {
        println!(
            "replayed   : {replayed} window(s) from {path} (machine {})",
            meta.machine
        );
        println!(
            "recommend  : {} (SMTsm {:.4}, confidence {:.2})",
            rec.level, rec.smtsm, rec.confidence
        );
    }
}

fn cmd_place(o: &Opts) {
    if o.positional.is_empty() {
        eprintln!("place needs at least one benchmark name; try `smtselect list`");
        std::process::exit(2);
    }
    let (cfg, label) = machine_by_name(&o.machine);
    let mspec = MetricSpec::for_arch(&cfg.arch);

    // Solo profiles: each benchmark runs alone on one core of the target
    // machine at SMT1, and its counter windows become one tagged thread.
    let names: Vec<String> = o.positional.clone();
    let mut profiles: Vec<Vec<WindowMeasurement>> = Vec::with_capacity(names.len());
    for name in &names {
        let spec = find_spec(name).scaled(o.scale);
        let (_sig, windows) = solo_signature(
            &cfg,
            &mspec,
            Box::new(SyntheticWorkload::new(spec)),
            o.windows as usize,
            o.window_cycles,
        );
        profiles.push(windows);
    }

    let sspec = session_spec(o);
    let report = if o.connect {
        // Stream the tagged profiles into a live smtd and ask it to place.
        let mut client = Client::connect(&o.addr, Duration::from_secs(10)).unwrap_or_else(|e| {
            eprintln!("cannot connect to {}: {e}", o.addr);
            std::process::exit(1);
        });
        let codec = o.codec.parse::<CodecKind>().unwrap_or_else(|e| {
            eprintln!("bad --codec: {e}");
            std::process::exit(2);
        });
        let (session, top, granted) = client.hello_with(&sspec, codec).unwrap_or_else(|e| {
            eprintln!("hello failed: {e}");
            std::process::exit(1);
        });
        eprintln!(
            "session {session} (top {top}, codec {granted}) on {}",
            o.addr
        );
        for (i, windows) in profiles.iter().enumerate() {
            client.ingest_tagged(i as u32, windows).unwrap_or_else(|e| {
                eprintln!("ingest_tagged failed for {}: {e}", names[i]);
                std::process::exit(1);
            });
        }
        client.place(&[]).unwrap_or_else(|e| {
            eprintln!("place failed: {e}");
            std::process::exit(1);
        })
    } else {
        // Offline: the daemon's own session type answers locally, so this
        // line is byte-identical to what a live smtd would serve.
        let mut session = open_session(&sspec);
        for (i, windows) in profiles.iter().enumerate() {
            session.ingest_tagged(i as u32, windows);
        }
        session.place(&[]).unwrap_or_else(|e| {
            eprintln!("place failed: {}", e.message());
            std::process::exit(1);
        })
    };

    if o.json {
        println!("{}", serde_json::to_string(&report).expect("serialize"));
        return;
    }
    println!(
        "placed     : {} thread(s) on {label} ({} windows each)",
        names.len(),
        o.windows
    );
    for (core, (members, tput)) in report.cores.iter().zip(&report.per_core).enumerate() {
        let who: Vec<String> = members
            .iter()
            .map(|&t| format!("{t}:{}", names[t as usize]))
            .collect();
        println!(
            "  core {core}: {:<40} predicted {tput:.3} work/cycle",
            who.join("  ")
        );
    }
    println!(
        "predicted  : {:.3} work/cycle total (from {} solo windows)",
        report.predicted, report.windows
    );
}

fn parse_endpoint(addr: &str) -> Endpoint {
    addr.parse().unwrap_or_else(|e| {
        eprintln!("bad --addr {addr:?}: {e}");
        std::process::exit(2);
    })
}

fn parse_codec_policy(s: &str) -> CodecPolicy {
    s.parse().unwrap_or_else(|e| {
        eprintln!("bad --codecs: {e}");
        std::process::exit(2);
    })
}

/// The codec list `--codec` selects for bench runs.
fn parse_codec_list(s: &str) -> Vec<CodecKind> {
    match s {
        "both" => vec![CodecKind::Ndjson, CodecKind::Binary],
        one => vec![one.parse().unwrap_or_else(|e| {
            eprintln!("bad --codec: {e}");
            std::process::exit(2);
        })],
    }
}

/// The op list `--op` selects for bench runs.
fn parse_op_list(s: &str) -> Vec<BenchOp> {
    match s {
        "stream" => vec![BenchOp::Stream],
        "place" => vec![BenchOp::Place],
        "both" => vec![BenchOp::Stream, BenchOp::Place],
        other => {
            eprintln!("bad --op {other:?} (expected stream, place, or both)");
            std::process::exit(2);
        }
    }
}

fn cmd_serve(o: &Opts) {
    let mut cfg = service::ServerConfig::at(&parse_endpoint(&o.addr))
        .shards(o.shards)
        .max_sessions(o.max_sessions)
        .codecs(parse_codec_policy(&o.codecs))
        .debug(o.debug_verbs);
    cfg.workers = o.workers;
    if let Some(path) = &o.unix {
        cfg.unix_path = Some(std::path::PathBuf::from(path));
    }
    let shards = cfg.shard_count();
    let sink: Arc<dyn ServiceSink> = if o.verbose {
        Arc::new(service::StderrSink)
    } else {
        Arc::new(service::NullSink)
    };
    let unix_path = cfg.unix_path.clone();
    let handle = service::spawn_with_sink(cfg, sink).unwrap_or_else(|e| {
        eprintln!("smtd failed to start: {e}");
        std::process::exit(1);
    });
    println!(
        "smtd listening on {} ({shards} shard{})",
        Endpoint::tcp(handle.local_addr().to_string()),
        if shards == 1 { "" } else { "s" }
    );
    if let Some(path) = &unix_path {
        println!("smtd listening on {}", Endpoint::unix(path));
    }
    handle.join();
    eprintln!("smtd: shut down");
}

fn cmd_bench_serve(o: &Opts) {
    let mut bench = if o.quick {
        BenchOptions::quick()
    } else {
        BenchOptions::full()
    };
    if let Some(label) = &o.label {
        bench = bench.label(label.clone());
    }
    if let Some(n) = o.connections {
        bench.connections = n;
    }
    if let Some(n) = o.requests {
        bench.requests = n;
    }
    let codecs = parse_codec_list(&o.codec);
    let ops = parse_op_list(&o.op);
    let widest = o.tiers.unwrap_or(bench.connections).max(bench.connections);

    // --spawn runs the server in-process on a free port; otherwise drive
    // an already-running daemon at --addr.
    let spawned = if o.spawn {
        let cfg = service::ServerConfig::at(&Endpoint::tcp("127.0.0.1:0"))
            .shards(o.shards)
            .max_sessions((widest * 2).max(64));
        Some(service::spawn(cfg).unwrap_or_else(|e| {
            eprintln!("smtd failed to start: {e}");
            std::process::exit(1);
        }))
    } else {
        None
    };
    let addr = match &spawned {
        Some(h) => h.local_addr().to_string(),
        None => o.addr.clone(),
    };

    // One ServeRun holds every (op, codec) ladder so `--check` against
    // `latest()` still sees each tier kind in a single baseline run.
    let tiers = ops
        .iter()
        .map(|&op| {
            let bench = bench.clone().op(op);
            match o.tiers {
                Some(max) => run_tier_sweep(&addr, &bench, max, &codecs),
                None => codecs
                    .iter()
                    .map(|&codec| run_bench(&addr, &bench.clone().codec(codec)))
                    .collect(),
            }
        })
        .collect::<Result<Vec<_>, _>>()
        .map(|per_op| per_op.into_iter().flatten().collect::<Vec<_>>())
        .unwrap_or_else(|e| {
            eprintln!("bench-serve failed against {addr}: {e}");
            std::process::exit(1);
        });
    for summary in &tiers {
        println!("{}", summary.render());
    }
    let current = ServeRun {
        label: bench.label.clone(),
        tiers,
    };

    if let Some(check) = &o.check {
        let baseline = ServeReport::load(check).unwrap_or_else(|e| {
            eprintln!("cannot load baseline {check}: {e}");
            std::process::exit(1);
        });
        let Some(base_run) = baseline.latest() else {
            eprintln!("{check} contains no runs to check against");
            std::process::exit(1);
        };
        let violations = check_serve_regression(base_run, &current, o.tolerance);
        if violations.is_empty() {
            eprintln!(
                "bench-serve check OK vs `{}` (tolerance {:.0}%)",
                base_run.label,
                o.tolerance * 100.0
            );
        } else {
            for v in &violations {
                eprintln!("bench-serve REGRESSION: {v}");
            }
            std::process::exit(1);
        }
    }

    if let Some(out) = &o.out {
        let mut report = if std::path::Path::new(out).exists() {
            ServeReport::load(out).unwrap_or_else(|e| {
                eprintln!("cannot load {out}: {e}");
                std::process::exit(1);
            })
        } else {
            ServeReport::new()
        };
        report.push(current);
        if let Err(e) = report.save(out) {
            eprintln!("cannot save {out}: {e}");
            std::process::exit(1);
        }
        eprintln!("appended run to {out}");
    }

    if o.shutdown || spawned.is_some() {
        let mut client = Client::connect(&addr, Duration::from_secs(5)).unwrap_or_else(|e| {
            eprintln!("cannot connect for shutdown: {e}");
            std::process::exit(1);
        });
        if let Err(e) = client.shutdown() {
            eprintln!("shutdown failed: {e}");
            std::process::exit(1);
        }
        eprintln!("server shut down");
    }
    if let Some(handle) = spawned {
        handle.join();
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().cloned() else {
        eprintln!(
            "usage: smtselect <list|analyze|train|tune|autotune|place|collect|record|replay|\
             corpus|serve|bench-serve> ...; see --help"
        );
        std::process::exit(2);
    };
    let opts = parse(&args[1..]);
    match cmd.as_str() {
        "list" => cmd_list(),
        "analyze" => cmd_analyze(&opts),
        "train" => cmd_train(&opts),
        "tune" => cmd_tune(&opts),
        "autotune" => cmd_autotune(&opts),
        "place" => cmd_place(&opts),
        "collect" => cmd_collect(&opts, opts.record.as_deref()),
        "record" => cmd_record(&opts),
        "replay" => cmd_replay(&opts),
        "corpus" => cmd_corpus(&opts),
        "serve" => cmd_serve(&opts),
        "bench-serve" => cmd_bench_serve(&opts),
        "-h" | "--help" => {
            println!("smtselect — SMT-level selection via the SMTsm metric (IPDPS'12)");
            println!(
                "commands: list | analyze <bench> [--verify] [--json] | train [--out F] | \
                 tune <bench> [--json] | autotune <bench>... | place <bench>... | \
                 collect <bench> | record <bench> --out F | replay <trace> | \
                 corpus build|verify | serve | bench-serve"
            );
            println!("options : --machine p7|p7x2|nhm  --scale S  --threshold T  --mid T");
            println!(
                "autotune: <bench>... [--record FILE] | --replay FILE | --probe-affinity  \
                 [--window-cycles C] [--json] [--verbose]"
            );
            println!(
                "place   : --windows N  --window-cycles C  --json  \
                 --connect --addr ENDPOINT  --codec ndjson|binary"
            );
            println!(
                "collect : --backend sim|perf  --pid P  --windows N  --window-cycles C  \
                 --events p7|nhm|generic  --record FILE  --probe  --json"
            );
            println!(
                "replay  : --json  --verbose  --connect --addr ENDPOINT  --codec ndjson|binary"
            );
            println!(
                "corpus  : build [--out DIR] [--tier s|m|l] [--base-scale S] [--check MANIFEST] \
                 [--json] | verify [MANIFEST] [--json]"
            );
            println!(
                "serve   : --addr ENDPOINT  --unix PATH  --shards N  --max-sessions N  \
                 --codecs both|ndjson|binary  --debug-verbs  --verbose"
            );
            println!(
                "bench   : --addr ENDPOINT | --spawn  --quick  --connections N  --requests N  \
                 --codec ndjson|binary|both  --op stream|place|both  --tiers MAX  --label L  \
                 --check FILE  --tolerance F  --out FILE  --shutdown"
            );
            println!(
                "env     : SMT_SIM_ENGINE=legacy|soa|soa-scalar|soa-simd  \
                 (issue-engine override for every simulation; default soa with \
                 runtime AVX2 detection)"
            );
            println!("env     : autotune loop knobs (override AutotuneConfig defaults):");
            for (name, desc) in ENV_KNOBS {
                println!("            {name:<28} {desc}");
            }
        }
        other => {
            eprintln!("unknown command {other:?}; try --help");
            std::process::exit(2);
        }
    }
}
