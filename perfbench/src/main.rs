//! `smt-perfbench`: the repository benchmark.
//!
//! ```text
//! smt-perfbench --workload <repro|serve-binary|serve-ndjson> --seed <n>
//!               --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Runs one workload against the workspace crates' public functions,
//! checks the outputs, prints human-readable lines and, last, one JSON
//! result line. With `--trace 0` the result holds the end-to-end metrics;
//! with `--trace 1` it holds the per-layer metrics of a traced run, and
//! the spans are written to `<out>/spans-<workload>-<seed>.jsonl`. Exits
//! 1 when a correctness check fails, 2 on bad arguments.

mod inputs;
mod report;
mod repro;
mod serve;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use smt_service::CodecKind;

use crate::report::Outcome;
use crate::trace::{self_time_by_layer, Tracer};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from(".bench_build/perfbench-out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("smt-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("smt-perfbench: creating {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let tracer = Tracer::new(args.trace);
    let mut outcome = match args.workload.as_str() {
        "repro" => {
            let tmp = args.out.join(format!("tmp-repro-{}", std::process::id()));
            repro::run(args.seed, args.seconds, &tracer, &tmp)
        }
        "serve-binary" => serve::run(CodecKind::Binary, args.seed, args.seconds, &tracer),
        "serve-ndjson" => serve::run(CodecKind::Ndjson, args.seed, args.seconds, &tracer),
        other => {
            eprintln!("smt-perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        finish_trace(&args, &tracer, &mut outcome);
    }
    println!(
        "workload {} seed {} ({} connections for serve-*)",
        args.workload,
        args.seed,
        serve::connections()
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for problem in &outcome.problems {
        println!("  CHECK FAILED: {problem}");
    }
    let line = outcome.result_line();
    println!("{line}");
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Self time per layer and the span count, then the spans to disk.
fn finish_trace(args: &Args, tracer: &Tracer, outcome: &mut Outcome) {
    let spans = tracer.spans();
    for (layer, secs) in self_time_by_layer(&spans) {
        outcome
            .metrics
            .set(&format!("trace.self_s.{layer}"), secs, "s");
    }
    outcome
        .metrics
        .set("trace.spans", spans.len() as f64, "count");
    let path = args
        .out
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => outcome.notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => outcome
            .problems
            .push(format!("writing {}: {e}", path.display())),
    }
}
