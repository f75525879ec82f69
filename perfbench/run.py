#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The script builds the `smt-perfbench`
package (perfbench/Cargo.toml) from source with cargo into
$CARGO_TARGET_DIR (default `.bench_build`) and runs the workload in a child
process. On `repro` it measures that process's peak resident memory; the
serve workloads report their daemon process's own. It passes the child's
report lines through and prints, as its last line, one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`:

- `--trace 0`: every end-to-end metric of BENCHMARK.json;
- `--trace 1`: every per-layer metric of BENCHMARK.json. The metrics in
  NOT_RUN[workload] belong to layers the workload does not run and read 0;
  any other metric the workload does not report fails the check.

It exits non-zero, without a result line, when the build fails, and
non-zero after the result line when a correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))

# The child must finish well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170

# Workloads whose program runs inside the benchmark process, so that
# process's peak memory is `peak_rss_mb`.
IN_PROCESS = {"repro"}

# Per-layer metrics a workload does not measure because it does not run
# that part of the program.
REPRO_ONLY = [
    "experiments.sweep_s", "experiments.job_busy_s", "experiments.worker_util",
    "experiments.tail_s", "experiments.cache.warm_s", "experiments.jobs",
    "experiments.jobs_failed", "experiments.cache.hits",
    "sim.phase.issue_share", "sim.phase.dispatch_share", "sim.phase.fetch_share",
    "sim.phase.mem_share", "sim.phase.retire_share", "sim.phase.bookkeeping_share",
    "stats.train_s", "corpus.build_s", "corpus.score_s", "corpus.cells",
    "corpus.entries_scored", "collector.trace_read_s", "sched.observe_ns",
    "autotune.observe_ns",
]
SERVE_ONLY = [
    "service.rtt_us.ingest.p50", "service.rtt_us.ingest.p99",
    "service.rtt_us.recommend.p50", "service.rtt_us.recommend.p99",
    "service.rtt_us.tag.p50", "service.rtt_us.tag.p99",
    "service.rtt_us.place.p50", "service.rtt_us.place.p99",
    "service.handle_us.p50", "service.handle_us.p99", "service.transport_us",
    "service.codec.encode_ns.request", "service.codec.decode_ns.request",
    "service.codec.encode_ns.response", "service.codec.decode_ns.response",
    "service.session.ingest_ns", "service.session.place_us",
    "metric.signature_us", "sched.solve_us", "service.tagged_windows",
    "service.errors", "service.busy",
]
NOT_RUN = {"repro": SERVE_ONLY, "serve-binary": REPRO_ONLY, "serve-ndjson": REPRO_ONLY}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return ap.parse_args()


def main():
    args = parse_args()
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"reading BENCHMARK.json in the working directory: {e}")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; expected one of {names}")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"cargo build failed with exit code {build.returncode}")

    exe = os.path.join(target, "release", "smt-perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(target, "perfbench-out")]
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
    watchdog.start()
    try:
        output = child.stdout.read()
        child.stdout.close()
        # wait4 reaps the child and reports its own peak RSS (KiB on Linux).
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()

    lines = output.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(lines[-1])
        fail(f"no result line (exit code {child.returncode})")

    metrics = result["metrics"]
    problems = []
    if args.trace == 0:
        if args.workload in IN_PROCESS:
            metrics["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MB"}
        expected = spec["end_to_end"]
    else:
        expected = spec["per_layer"]
        units = {m["name"]: m["unit"] for m in expected}
        for name in NOT_RUN[args.workload]:
            if name in metrics:
                problems.append(f"metric {name} is listed as not run but was reported")
            else:
                metrics[name] = {"value": 0, "unit": units[name]}
    wanted = {m["name"]: m["unit"] for m in expected}
    for name in sorted(set(metrics) - set(wanted)):
        problems.append(f"metric {name} is not in BENCHMARK.json")
    for name, unit in wanted.items():
        if name not in metrics:
            problems.append(f"metric {name} was not measured")
        elif metrics[name]["unit"] != unit:
            problems.append(f"metric {name} has unit {metrics[name]['unit']}, expected {unit}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")

    result = {
        "correct": bool(result["correct"]) and not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: metrics[name] for name in wanted if name in metrics},
    }
    print(json.dumps(result))
    if child.returncode != 0:
        sys.exit(child.returncode)
    if problems:
        sys.exit(1)


if __name__ == "__main__":
    main()
