//! The `serve-binary` and `serve-ndjson` workloads: a closed loop against
//! `smtd` on loopback.
//!
//! The benchmark starts the daemon in a child process of its own (the
//! `perfbench-smtd` binary of this package, which calls
//! [`smt_service::spawn`]), so its peak memory is the daemon's alone, then
//! drives it from one thread per connection
//! (at most two connections, never more than the host's CPUs). Each
//! connection opens one session and keeps it for the whole phase, sending
//! its next request only when the previous reply has arrived. The request
//! schedule is fixed by the seed: `ingest` batches, a `recommend` after
//! every fifth, and a placement refresh (`ingest_tagged`, then `place`)
//! every [`crate::inputs::place_every`] ingests, so the session's tagged
//! state grows for the length of the phase.
//!
//! An untraced run has [`timed_phases`] timed phases, each on fresh
//! sessions. After them every session's answers are checked against an
//! offline [`Session`] fed the same requests.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use rayon::prelude::*;
use smt_sched::{AllocatorConfig, PlacementReport, Recommendation, SearchStrategy};
use smt_service::{
    codec_for, Client, CodecKind, ErrorCode, Request, Response, Session, SessionSpec,
};
use smt_sim::{MachineConfig, Simulation, SmtLevel, WindowMeasurement};
use smt_stats::summary::percentile;
use smt_workloads::{SyntheticWorkload, WorkloadSpec};
use smtsm::{MetricSpec, ThreadSignature};

use crate::inputs::{
    serve_inputs, tag_pool, Op, ServeInputs, Verb, POOL_WINDOWS, TAGGED_THREADS,
    WINDOWS_PER_INGEST, WINDOWS_PER_TAG, WINDOW_CYCLES,
};
use crate::report::{describe_percentiles, quantile, Outcome};
use crate::trace::{Span, SpanId, Tracer};

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 3;

/// Cycles each pool simulation runs before its first recorded window.
const POOL_WARMUP: u64 = 10_000;

/// Requests per connection per second of `--seconds`, per codec: the
/// schedule is sized so one run takes about `--seconds` on a 2-CPU host.
/// `place` slows as the tagged state grows, so a run's time grows faster
/// than its request count.
fn requests_per_second(codec: CodecKind) -> f64 {
    match codec {
        CodecKind::Binary => 700.0,
        CodecKind::Ndjson => 400.0,
    }
}

/// Timed phases of an untraced run, per codec. Each phase opens fresh
/// sessions on the same daemon and runs the whole schedule on them; the
/// latency percentiles pool the phases. An NDJSON round trip is mostly
/// CPU work, so it follows the host's speed, which on a shared host swings
/// by half on a scale of seconds; three phases average more of those
/// swings than one.
fn timed_phases(codec: CodecKind) -> usize {
    match codec {
        CodecKind::Binary => 1,
        CodecKind::Ndjson => 3,
    }
}

/// Client read/write timeout; a request that times out counts as failed
/// and as taking this long.
const TIMEOUT: Duration = Duration::from_secs(10);

/// Offline repetitions of the placement-internals timings.
const PLACE_REPS: usize = 5;

/// Frames of the codec-cost sample (per kind).
const CODEC_SAMPLE: usize = 4_000;

/// The session every connection opens.
fn session_spec() -> SessionSpec {
    SessionSpec {
        window_cycles: WINDOW_CYCLES,
        ..SessionSpec::power7()
    }
}

/// Window pools and the pre-encoded request frames built from them.
struct Prepared {
    pools: Vec<Vec<WindowMeasurement>>,
    /// `ingest[pool][batch]`, `tag[thread][batch]`.
    ingest: Vec<Vec<Vec<u8>>>,
    tag: Vec<Vec<Vec<u8>>>,
    recommend: Vec<u8>,
    place: Vec<u8>,
    /// Simulated cycles and host seconds spent building the pools.
    pool_cycles: u64,
    pool_busy_s: f64,
}

/// `n` windows of `pool` starting at `batch`, wrapping around.
fn batch_windows(pool: &[WindowMeasurement], batch: u16, n: usize) -> Vec<WindowMeasurement> {
    (0..n)
        .map(|i| pool[(batch as usize + i) % pool.len()].clone())
        .collect()
}

/// One simulated pool with its simulated cycles and host seconds.
type Pool = (Vec<WindowMeasurement>, u64, f64);

fn simulate_pool(spec: &WorkloadSpec) -> Result<Pool, String> {
    let t = Instant::now();
    let mut sim = Simulation::new(
        MachineConfig::power7(1),
        SmtLevel::Smt4,
        SyntheticWorkload::new(spec.clone()),
    );
    sim.run_cycles(POOL_WARMUP);
    let mut pool = Vec::with_capacity(POOL_WINDOWS);
    while pool.len() < POOL_WINDOWS && !sim.finished() {
        pool.push(sim.measure_window(WINDOW_CYCLES));
    }
    if pool.len() < POOL_WINDOWS {
        return Err(format!(
            "{} finished after {} of {POOL_WINDOWS} pool windows",
            spec.name,
            pool.len()
        ));
    }
    Ok((pool, sim.now(), t.elapsed().as_secs_f64()))
}

/// Simulate every pool, one worker per CPU.
fn build_pools(inputs: &ServeInputs) -> Result<(Vec<Vec<WindowMeasurement>>, u64, f64), String> {
    let built: Vec<Result<Pool, String>> = inputs.workloads.par_iter().map(simulate_pool).collect();
    let mut pools = Vec::new();
    let (mut cycles, mut busy) = (0u64, 0f64);
    for b in built {
        let (pool, c, s) = b?;
        pools.push(pool);
        cycles += c;
        busy += s;
    }
    Ok((pools, cycles, busy))
}

fn encode(codec: CodecKind, request: &Request) -> Result<Vec<u8>, String> {
    let mut buf = Vec::new();
    codec_for(codec)
        .encode_request(request, &mut buf)
        .map_err(|e| format!("encoding {request:?}: {e}"))?;
    Ok(buf)
}

fn prepare(inputs: &ServeInputs, codec: CodecKind) -> Result<Prepared, String> {
    let (pools, pool_cycles, pool_busy_s) = build_pools(inputs)?;
    let batches = |pool: &[WindowMeasurement], n: usize| -> Vec<Vec<WindowMeasurement>> {
        (0..POOL_WINDOWS as u16)
            .map(|b| batch_windows(pool, b, n))
            .collect()
    };
    let ingest = pools
        .iter()
        .map(|pool| {
            batches(pool, WINDOWS_PER_INGEST)
                .into_iter()
                .map(|windows| encode(codec, &Request::Ingest { windows }))
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()?;
    let tag = (0..TAGGED_THREADS)
        .map(|thread| {
            batches(&pools[tag_pool(thread)], WINDOWS_PER_TAG)
                .into_iter()
                .map(|windows| encode(codec, &Request::IngestTagged { thread, windows }))
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Prepared {
        recommend: encode(codec, &Request::Recommend)?,
        place: encode(
            codec,
            &Request::Place {
                threads: Vec::new(),
            },
        )?,
        pools,
        ingest,
        tag,
        pool_cycles,
        pool_busy_s,
    })
}

/// An answer the offline check compares.
#[derive(Debug, Clone, PartialEq)]
enum Answer {
    Recommend(Recommendation),
    Place(PlacementReport),
}

/// What one connection saw.
#[derive(Debug, Default)]
struct ConnResult {
    /// Per verb (indexed by [`Verb::index`]): request latencies, seconds.
    latencies: [Vec<f64>; 5],
    answers: Vec<Answer>,
    completed: u64,
    failed: u64,
    errors: u64,
    busy: u64,
    /// Barrier release to last reply.
    wall_s: f64,
    spans: Vec<Span>,
    problems: Vec<String>,
}

struct Frames<'a> {
    prep: &'a Prepared,
    stream_pool: usize,
}

impl Frames<'_> {
    fn frame(&self, op: Op) -> &[u8] {
        match op {
            Op::Ingest { batch } => &self.prep.ingest[self.stream_pool][batch as usize],
            Op::Recommend => &self.prep.recommend,
            Op::Tag { thread, batch } => &self.prep.tag[thread as usize][batch as usize],
            Op::Place => &self.prep.place,
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn drive(
    addr: &str,
    codec: CodecKind,
    conn: usize,
    frames: Frames<'_>,
    ops: &[Op],
    barrier: &Barrier,
    deadline: Duration,
    tr: &Tracer,
    parent: SpanId,
) -> ConnResult {
    let mut r = ConnResult::default();
    let traced = tr.enabled();
    let conn_span = if traced { tr.alloc_id() } else { SpanId::ROOT };
    let client = Client::connect(addr, TIMEOUT);
    barrier.wait();
    let start = Instant::now();
    let attempted = ops.len() as u64 + 1;
    let mut client = match client {
        Ok(c) => c,
        Err(e) => {
            r.problems
                .push(format!("connection {conn}: connect failed: {e}"));
            r.failed = attempted;
            return r;
        }
    };
    let timeout_s = TIMEOUT.as_secs_f64();
    let group_base = ((conn as u64) + 1) << 40;
    let note = |r: &mut ConnResult, verb: Verb, i: usize, t: Instant, secs: f64| {
        r.latencies[verb.index()].push(secs);
        if traced {
            let s = tr.stamp(t);
            r.spans.push(Span {
                id: tr.alloc_id(),
                parent: conn_span,
                group: group_base | i as u64,
                name: verb.span_name(),
                start_ns: s,
                end_ns: s + (secs * 1e9) as u64,
            });
        }
    };

    let t = Instant::now();
    match client.hello_with(&session_spec(), codec) {
        Ok((_, _, granted)) if granted == codec => {
            r.completed += 1;
            note(&mut r, Verb::Hello, 0, t, t.elapsed().as_secs_f64());
        }
        other => {
            r.problems
                .push(format!("connection {conn}: hello failed: {other:?}"));
            r.failed = attempted;
            return r;
        }
    }

    for (i, &op) in ops.iter().enumerate() {
        let verb = op.verb();
        if start.elapsed() > deadline {
            let left = (ops.len() - i) as u64;
            r.failed += left;
            r.latencies[verb.index()].extend(std::iter::repeat_n(timeout_s, left as usize));
            r.problems.push(format!(
                "connection {conn}: {left} requests not sent before the deadline"
            ));
            break;
        }
        let t = Instant::now();
        let reply = client.call_encoded(frames.frame(op));
        let secs = t.elapsed().as_secs_f64();
        match reply {
            Ok(Response::Error { code, message }) => {
                r.failed += 1;
                r.errors += 1;
                if code == ErrorCode::Busy {
                    r.busy += 1;
                }
                r.latencies[verb.index()].push(timeout_s);
                r.problems.push(format!(
                    "connection {conn} request {i}: {code:?}: {message}"
                ));
            }
            Ok(resp) => {
                r.completed += 1;
                note(&mut r, verb, i + 1, t, secs);
                match (op, resp) {
                    (Op::Recommend, Response::Recommendation(rec)) => {
                        r.answers.push(Answer::Recommend(rec))
                    }
                    (Op::Place, Response::Placement(placed)) => {
                        r.answers.push(Answer::Place(placed))
                    }
                    (Op::Ingest { .. } | Op::Tag { .. }, Response::Ingested(_)) => {}
                    (op, resp) => r
                        .problems
                        .push(format!("connection {conn}: {op:?} answered with {resp:?}")),
                }
            }
            Err(e) => {
                // The stream is unusable after a transport error: the rest
                // of the schedule is lost.
                let left = (ops.len() - i) as u64;
                r.failed += left;
                r.latencies[verb.index()].extend(std::iter::repeat_n(timeout_s, left as usize));
                r.problems
                    .push(format!("connection {conn} request {i}: {e}"));
                break;
            }
        }
    }
    r.wall_s = start.elapsed().as_secs_f64();
    if traced {
        let s = tr.stamp(start);
        r.spans.push(Span {
            id: conn_span,
            parent,
            group: group_base,
            name: "bench.connection",
            start_ns: s,
            end_ns: s + (r.wall_s * 1e9) as u64,
        });
    }
    r
}

/// One timed closed-loop phase against a running server.
struct Phase {
    conns: Vec<ConnResult>,
    wall_s: f64,
}

fn timed_phase(
    addr: &str,
    codec: CodecKind,
    inputs: &ServeInputs,
    prep: &Prepared,
    deadline: Duration,
    tr: &Tracer,
) -> Phase {
    let n = inputs.schedules.len();
    let barrier = Barrier::new(n);
    let conns: Vec<ConnResult> = tr.span("bench.timed", SpanId::ROOT, 0, |phase| {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|c| {
                    let frames = Frames {
                        prep,
                        stream_pool: inputs.stream_pool[c],
                    };
                    let ops = &inputs.schedules[c];
                    let barrier = &barrier;
                    s.spawn(move || {
                        drive(addr, codec, c, frames, ops, barrier, deadline, tr, phase)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| ConnResult {
                        problems: vec!["load thread panicked".to_string()],
                        ..ConnResult::default()
                    })
                })
                .collect()
        })
    });
    let mut conns = conns;
    for c in &mut conns {
        tr.extend(std::mem::take(&mut c.spans));
    }
    let wall_s = conns.iter().map(|c| c.wall_s).fold(0.0, f64::max);
    Phase { conns, wall_s }
}

/// Offline replay of one connection: the answers an in-process
/// [`Session`] gives to the same requests, plus timings of its parts.
struct Replay {
    answers: Vec<Answer>,
    /// The first responses, kept for the codec timings.
    responses: Vec<Response>,
    ingest_ns_per_window: f64,
    place_us: Vec<f64>,
    /// Every tagged thread's windows, in first-tagged order.
    tagged: Vec<(u32, Vec<WindowMeasurement>)>,
}

fn replay(
    prep: &Prepared,
    stream_pool: usize,
    ops: &[Op],
    keep_responses: usize,
) -> Result<Replay, String> {
    let mut session =
        Session::new(1, &session_spec()).map_err(|e| format!("offline session: {e}"))?;
    let mut answers = Vec::new();
    let mut responses = Vec::new();
    let mut tagged: Vec<(u32, Vec<WindowMeasurement>)> = Vec::new();
    let (mut ingest_s, mut ingest_windows) = (0f64, 0u64);
    let mut place_us = Vec::new();
    for &op in ops {
        let resp = match op {
            Op::Ingest { batch } => {
                let windows = batch_windows(&prep.pools[stream_pool], batch, WINDOWS_PER_INGEST);
                let t = Instant::now();
                let s = session.ingest(&windows);
                ingest_s += t.elapsed().as_secs_f64();
                ingest_windows += windows.len() as u64;
                Response::Ingested(s)
            }
            Op::Tag { thread, batch } => {
                let windows = batch_windows(&prep.pools[tag_pool(thread)], batch, WINDOWS_PER_TAG);
                match tagged.iter_mut().find(|(t, _)| *t == thread) {
                    Some((_, w)) => w.extend_from_slice(&windows),
                    None => tagged.push((thread, windows.clone())),
                }
                Response::Ingested(session.ingest_tagged(thread, &windows))
            }
            Op::Recommend => {
                let rec = session.recommend();
                answers.push(Answer::Recommend(rec.clone()));
                Response::Recommendation(rec)
            }
            Op::Place => {
                let t = Instant::now();
                let placed = session.place(&[]);
                place_us.push(t.elapsed().as_secs_f64() * 1e6);
                let placed = placed.map_err(|e| format!("offline place: {}", e.message()))?;
                answers.push(Answer::Place(placed.clone()));
                Response::Placement(placed)
            }
        };
        if responses.len() < keep_responses {
            responses.push(resp);
        }
    }
    Ok(Replay {
        answers,
        responses,
        ingest_ns_per_window: ingest_s * 1e9 / ingest_windows.max(1) as f64,
        place_us,
        tagged,
    })
}

/// Compare a connection's answers from smtd with the offline ones:
/// `(checked, matching)`, or an error when the counts or the final
/// answers differ.
fn compare_answers(conn: usize, offline: &[Answer], got: &[Answer]) -> Result<(u64, u64), String> {
    if got.len() != offline.len() || got.last() != offline.last() {
        return Err(format!(
            "connection {conn}: {} answers from smtd, {} offline, final answers {}",
            got.len(),
            offline.len(),
            if got.last() == offline.last() {
                "agree"
            } else {
                "differ"
            }
        ));
    }
    let same = offline.iter().zip(got).filter(|(a, b)| a == b).count();
    Ok((offline.len() as u64, same as u64))
}

/// Per-frame encode and decode cost of `requests` and `responses`, ns.
fn codec_costs(
    codec: CodecKind,
    requests: &[Request],
    responses: &[Response],
) -> Result<[f64; 4], String> {
    let c = codec_for(codec);
    let mut out = [0f64; 4];
    let mut buf = Vec::new();
    let t = Instant::now();
    for r in requests {
        buf.clear();
        c.encode_request(r, &mut buf).map_err(|e| e.to_string())?;
        std::hint::black_box(&buf);
    }
    out[0] = t.elapsed().as_nanos() as f64 / requests.len().max(1) as f64;
    let framed: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| encode(codec, r))
        .collect::<Result<_, _>>()?;
    let t = Instant::now();
    for f in &framed {
        let frame = c
            .split_frame(f)
            .map_err(|e| e.to_string())?
            .ok_or("incomplete frame")?;
        std::hint::black_box(
            c.decode_request(&f[frame.start..frame.end])
                .map_err(|e| e.to_string())?,
        );
    }
    out[1] = t.elapsed().as_nanos() as f64 / framed.len().max(1) as f64;
    let t = Instant::now();
    for r in responses {
        buf.clear();
        c.encode_response(r, &mut buf).map_err(|e| e.to_string())?;
        std::hint::black_box(&buf);
    }
    out[2] = t.elapsed().as_nanos() as f64 / responses.len().max(1) as f64;
    let framed: Vec<Vec<u8>> = responses
        .iter()
        .map(|r| {
            let mut b = Vec::new();
            c.encode_response(r, &mut b)
                .map(|_| b)
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let t = Instant::now();
    for f in &framed {
        let frame = c
            .split_frame(f)
            .map_err(|e| e.to_string())?
            .ok_or("incomplete frame")?;
        std::hint::black_box(
            c.decode_response(&f[frame.start..frame.end])
                .map_err(|e| e.to_string())?,
        );
    }
    out[3] = t.elapsed().as_nanos() as f64 / framed.len().max(1) as f64;
    Ok(out)
}

/// The request values behind the first `n` ops of a schedule.
fn requests_of(prep: &Prepared, stream_pool: usize, ops: &[Op], n: usize) -> Vec<Request> {
    ops.iter()
        .take(n)
        .map(|&op| match op {
            Op::Ingest { batch } => Request::Ingest {
                windows: batch_windows(&prep.pools[stream_pool], batch, WINDOWS_PER_INGEST),
            },
            Op::Tag { thread, batch } => Request::IngestTagged {
                thread,
                windows: batch_windows(&prep.pools[tag_pool(thread)], batch, WINDOWS_PER_TAG),
            },
            Op::Recommend => Request::Recommend,
            Op::Place => Request::Place {
                threads: Vec::new(),
            },
        })
        .collect()
}

/// Time `ThreadSignature::from_windows` over a session's tagged windows
/// and the allocator solve over those signatures; medians in µs.
fn placement_internals(tagged: &[(u32, Vec<WindowMeasurement>)]) -> Result<(f64, f64), String> {
    let machine = MachineConfig::power7(1);
    let spec = MetricSpec::for_arch(&machine.arch);
    let (mut sig_us, mut solve_us) = (Vec::new(), Vec::new());
    for _ in 0..PLACE_REPS {
        let t = Instant::now();
        let sigs: Vec<ThreadSignature> = tagged
            .iter()
            .map(|(_, w)| ThreadSignature::from_windows(&spec, w))
            .collect();
        sig_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let outcome = AllocatorConfig::for_machine(machine.clone())
            .threads(sigs)
            .search(SearchStrategy::Auto)
            .solve()
            .map_err(|e| format!("allocator: {e}"))?;
        solve_us.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(outcome);
    }
    Ok((percentile(&sig_us, 50.0), percentile(&solve_us, 50.0)))
}

/// `smtd` running in a `perfbench-smtd` child process. Dropping it kills
/// the process and waits for it.
struct Daemon {
    child: Child,
    out: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    fn start(shards: usize) -> Result<Daemon, String> {
        let exe = std::env::current_exe()
            .map_err(|e| format!("locating the benchmark binary: {e}"))?
            .with_file_name("perfbench-smtd");
        let mut child = Command::new(&exe)
            .arg(shards.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", exe.display()))?;
        let out = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Daemon {
            child,
            out,
            addr: String::new(),
        };
        let mut line = String::new();
        daemon
            .out
            .read_line(&mut line)
            .map_err(|e| format!("reading the daemon's address: {e}"))?;
        daemon.addr = line
            .trim()
            .strip_prefix("listening ")
            .ok_or_else(|| format!("smtd did not start: {line:?}"))?
            .to_string();
        Ok(daemon)
    }

    /// Close the daemon's stdin, wait for it to shut down, and return its
    /// peak resident memory in KiB.
    fn stop(mut self) -> Result<u64, String> {
        drop(self.child.stdin.take());
        let mut rest = String::new();
        self.out
            .read_to_string(&mut rest)
            .map_err(|e| format!("reading the daemon's exit report: {e}"))?;
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for smtd: {e}"))?;
        if !status.success() {
            return Err(format!("smtd exited with {status}"));
        }
        rest.lines()
            .find_map(|l| l.strip_prefix("peak_rss_kb "))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("smtd reported no peak memory: {rest:?}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Connections the closed loop drives: two, or fewer on a smaller host.
pub fn connections() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

pub fn run(codec: CodecKind, seed: u64, seconds: f64, tr: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let traced = tr.enabled();
    let conns = connections();
    let requests = (seconds * requests_per_second(codec)).round().max(3.0) as usize;
    let deadline = Duration::from_secs_f64(seconds * 4.0);

    // Set-up: seeded inputs, simulated window pools, encoded frames, a
    // running server. Repeated; the last server stays up.
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, _, daemon)) = ready.take() {
            if let Err(e) = Daemon::stop(daemon) {
                out.problems.push(e);
                return out;
            }
        }
        let t = Instant::now();
        let step = tr.span("bench.setup", SpanId::ROOT, 0, |sid| -> Result<_, String> {
            let inputs = tr.span("workloads.inputs", sid, 0, |_| {
                serve_inputs(seed, conns, requests)
            });
            let prep = tr.span("sim.pools", sid, 0, |_| prepare(&inputs, codec))?;
            let daemon = tr.span("service.spawn", sid, 0, |_| Daemon::start(conns))?;
            Ok((inputs, prep, daemon))
        });
        setups.push(t.elapsed().as_secs_f64());
        match step {
            Ok(s) => ready = Some(s),
            Err(e) => {
                out.problems.push(e);
                return out;
            }
        }
    }
    let (inputs, prep, daemon) = ready.expect("at least one set-up ran");
    let addr = daemon.addr.clone();

    // A traced run first runs the same schedule untraced on fresh
    // sessions, as the reference for the tracer's overhead.
    let reference = traced.then(|| {
        tr.set_enabled(false);
        let p = timed_phase(&addr, codec, &inputs, &prep, deadline, tr);
        tr.set_enabled(true);
        p
    });
    let n_timed = if traced { 1 } else { timed_phases(codec) };
    let timed: Vec<Phase> = (0..n_timed)
        .map(|_| timed_phase(&addr, codec, &inputs, &prep, deadline, tr))
        .collect();
    let stats = Client::connect(&addr, TIMEOUT).and_then(|mut c| c.stats());
    let peak_rss_kb = daemon.stop();

    let phases: Vec<&Phase> = reference.iter().chain(&timed).collect();
    let timed_conns = || timed.iter().flat_map(|p| &p.conns);
    for p in &phases {
        for c in &p.conns {
            out.attempted += c.completed + c.failed;
            out.failed += c.failed;
            out.problems.extend(c.problems.iter().cloned());
        }
    }
    let stats = match stats {
        Ok(s) => s,
        Err(e) => {
            out.problems.push(format!("stats verb failed: {e}"));
            return out;
        }
    };
    let peak_rss_kb = match peak_rss_kb {
        Ok(kb) => kb,
        Err(e) => {
            out.problems.push(e);
            return out;
        }
    };

    // Daemon == offline: every recommend and place answer of every
    // session equals an offline Session's answer to the same requests.
    let mut checked = 0u64;
    let mut matching = 0u64;
    let mut tagged_windows = 0u64;
    let (mut ingest_ns, mut place_us, mut sig_us, mut solve_us) = (vec![], vec![], vec![], vec![]);
    let mut responses = Vec::new();
    let check = tr.span(
        "bench.check",
        SpanId::ROOT,
        0,
        |sid| -> Result<(), String> {
            // One replay per connection, in parallel: each repeats every
            // `place` of its schedule, the bulk of the check's time.
            let conn_ids: Vec<usize> = (0..conns).collect();
            let replays: Vec<Result<Replay, String>> = conn_ids
                .par_iter()
                .map(|&c| {
                    let keep = if c == 0 && traced { CODEC_SAMPLE } else { 0 };
                    tr.span("service.session_replay", sid, 0, |_| {
                        replay(&prep, inputs.stream_pool[c], &inputs.schedules[c], keep)
                    })
                })
                .collect();
            for (c, rep) in replays.into_iter().enumerate() {
                let rep = rep?;
                for p in &phases {
                    let (n, same) = compare_answers(c, &rep.answers, &p.conns[c].answers)?;
                    checked += n;
                    matching += same;
                }
                tagged_windows += rep.tagged.iter().map(|(_, w)| w.len() as u64).sum::<u64>();
                if traced {
                    ingest_ns.push(rep.ingest_ns_per_window);
                    place_us.extend(rep.place_us.iter().copied());
                    let (sig, solve) = tr.span("metric.signature", sid, 0, |_| {
                        placement_internals(&rep.tagged)
                    })?;
                    sig_us.push(sig);
                    solve_us.push(solve);
                }
                if c == 0 {
                    responses = rep.responses;
                }
            }
            Ok(())
        },
    );
    if let Err(e) = check {
        out.problems.push(e);
        return out;
    }
    out.check(checked > 0 && matching == checked, || {
        format!(
            "{} of {checked} answers differ from the offline session",
            checked - matching
        )
    });

    let mut all: Vec<f64> = timed_conns().flat_map(|c| c.latencies.concat()).collect();
    all.sort_by(f64::total_cmp);
    let completed: u64 = timed_conns().map(|c| c.completed).sum();
    let walls: Vec<f64> = timed.iter().map(|p| p.wall_s).collect();
    let busy_s: f64 = walls.iter().sum();
    out.notes.push(format!(
        "serve-{codec:?}: {n_timed} x {conns} connections x {requests} requests in {walls:.3?} s, {:.0} req/s, {tagged_windows} tagged windows per phase at the end",
        completed as f64 / busy_s
    ));
    out.notes.push(describe_percentiles(
        "round trip, all verbs",
        &all,
        1e3,
        "ms",
    ));
    let mut by_verb: Vec<(Verb, Vec<f64>)> = Verb::TIMED
        .iter()
        .map(|&v| {
            let mut l: Vec<f64> = timed_conns()
                .flat_map(|c| c.latencies[v.index()].iter().copied())
                .collect();
            l.sort_by(f64::total_cmp);
            (v, l)
        })
        .collect();
    for (v, l) in &by_verb {
        out.notes.push(describe_percentiles(
            &format!("round trip, {}", v.name()),
            l,
            1e6,
            "us",
        ));
    }
    out.notes.push(format!(
        "server: {} requests, {} errors, {} busy, handle p50 {} us p99 {} us, peak RSS {:.1} MB",
        stats.requests_total,
        stats.errors_total,
        stats.busy_rejections,
        stats.p50_us,
        stats.p99_us,
        peak_rss_kb as f64 / 1024.0
    ));

    let m = &mut out.metrics;
    if !traced {
        m.set("setup_s", percentile(&setups, 50.0), "s");
        m.set("wall_s", percentile(&walls, 50.0), "s");
        m.set(
            "accuracy_pct",
            100.0 * matching as f64 / checked.max(1) as f64,
            "%",
        );
        m.set("throughput_rps", completed as f64 / busy_s, "1/s");
        m.set("p50_ms", quantile(&all, 0.50) * 1e3, "ms");
        m.set("p99_ms", quantile(&all, 0.99) * 1e3, "ms");
        m.set("peak_rss_mb", peak_rss_kb as f64 / 1024.0, "MB");
        return out;
    }

    for (v, l) in by_verb.drain(..) {
        m.set(
            &format!("service.rtt_us.{}.p50", v.name()),
            quantile(&l, 0.50) * 1e6,
            "us",
        );
        m.set(
            &format!("service.rtt_us.{}.p99", v.name()),
            quantile(&l, 0.99) * 1e6,
            "us",
        );
    }
    m.set("service.handle_us.p50", stats.p50_us as f64, "us");
    m.set("service.handle_us.p99", stats.p99_us as f64, "us");
    m.set(
        "service.transport_us",
        quantile(&all, 0.50) * 1e6 - stats.p50_us as f64,
        "us",
    );
    m.set(
        "service.errors",
        timed_conns().map(|c| c.errors).sum::<u64>() as f64,
        "count",
    );
    m.set(
        "service.busy",
        timed_conns().map(|c| c.busy).sum::<u64>() as f64,
        "count",
    );
    m.set("service.tagged_windows", tagged_windows as f64, "count");
    m.set(
        "service.session.ingest_ns",
        percentile(&ingest_ns, 50.0),
        "ns",
    );
    m.set(
        "service.session.place_us",
        percentile(&place_us, 50.0),
        "us",
    );
    m.set("metric.signature_us", percentile(&sig_us, 50.0), "us");
    m.set("sched.solve_us", percentile(&solve_us, 50.0), "us");
    let sample = requests_of(
        &prep,
        inputs.stream_pool[0],
        &inputs.schedules[0],
        CODEC_SAMPLE,
    );
    match tr.span("service.codec", SpanId::ROOT, 0, |_| {
        codec_costs(codec, &sample, &responses)
    }) {
        Ok([enc_req, dec_req, enc_resp, dec_resp]) => {
            let m = &mut out.metrics;
            m.set("service.codec.encode_ns.request", enc_req, "ns");
            m.set("service.codec.decode_ns.request", dec_req, "ns");
            m.set("service.codec.encode_ns.response", enc_resp, "ns");
            m.set("service.codec.decode_ns.response", dec_resp, "ns");
        }
        Err(e) => out.problems.push(format!("codec timing: {e}")),
    }
    let m = &mut out.metrics;
    m.set("sim.cycles", prep.pool_cycles as f64, "count");
    m.set(
        "sim.cycles_per_s",
        prep.pool_cycles as f64 / prep.pool_busy_s,
        "1/s",
    );
    if let Some(reference) = &reference {
        m.set(
            "trace.overhead_pct",
            (timed[0].wall_s / reference.wall_s - 1.0) * 100.0,
            "%",
        );
    }
    m.set(
        "trace.stage_coverage_pct",
        crate::repro::stage_coverage(&tr.spans(), "bench.connection") * 100.0,
        "%",
    );
    out
}
