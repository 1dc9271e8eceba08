#!/usr/bin/env python3
"""The repository benchmark: one command per (workload, seed) run.

    python3 perfbench/run.py --workload resnet50|gpt2_block|serve_mixed \
        --seed N --seconds S --trace 0|1 [--out results.jsonl]

Run from the root of a checkout. The first run builds the driver and the
library from source into .bench_build/. The last stdout line is one JSON
object {correct, attempted, failed, metrics}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1 (names and units come from
BENCHMARK.json). The line before it gives the host fingerprint and the
tail percentiles. Exits non-zero, printing no result, if the build fails
or any output fails its correctness check.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # run only writes under .bench_build/
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")

# serve_mixed: fixed offered load, never derived from measured capacity.
SERVE_NOMINAL_RPS = 20000.0
SERVE_NOMINAL_SHARE = 0.35          # of --seconds
# Quarter-octave rungs from 80k to 453k req/s: the p99 limit is crossed
# between two close rungs, so the interpolated answer moves little when one
# rung's tail is unlucky.
SERVE_LADDER_RPS = [80000.0 * 2 ** (i / 4) for i in range(11)]
SERVE_LADDER_STEP_SHARE = 0.06      # of --seconds, per rung
SERVE_P99_LIMIT_MS = 10.0
# Traced runs of the closed-loop workloads send their shapes open-loop
# through a fleet at a fixed low rate (the serve probe).
PROBE_RPS = {"resnet50": 40.0, "gpt2_block": 100.0}
PROBE_SECONDS = 1.5


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure once, then (re)build incrementally; serialized by a lock."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(os.cpu_count() or 1, 4))
        steps.append(["cmake", "--build", BUILD, "-j", jobs,
                      "--target", "perfbench_driver"])
        for cmd in steps:
            p = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True)
            if p.returncode != 0:
                sys.stderr.write(p.stdout[-4000:])
                fail("build failed: " + " ".join(cmd))


def schedule_text(workload, seed, seconds):
    """The driver's open-loop schedule: fixed rates, seeded arrivals."""
    phases = []
    if workload == "serve_mixed":
        phases.append(("nominal", SERVE_NOMINAL_RPS,
                       seconds * SERVE_NOMINAL_SHARE))
        for rate in SERVE_LADDER_RPS:
            phases.append(("ladder", rate, seconds * SERVE_LADDER_STEP_SHARE))
    else:
        phases.append(("probe", PROBE_RPS[workload], PROBE_SECONDS))
    out = ["perfbench-schedule v1\n", f"limit_ms {SERVE_P99_LIMIT_MS}\n"]
    for i, (name, rate, secs) in enumerate(phases):
        arrivals = stats.poisson_schedule(rate, secs, seed, f"{name}{i}")
        out.append(f"phase {name} {rate} {secs} {len(arrivals)}\n")
        out.extend(f"{t} {u:.17g}\n" for t, u in arrivals)
    return "".join(out)


def end_to_end(raw):
    """Every end-to-end metric from the driver's raw samples."""
    def pct(key, q):
        return stats.percentile(stats.latencies(raw[key]), q)

    if raw["ladder"]:
        steps = [(s["rate"], s["lat_ms"]) for s in raw["ladder"]]
        sustained = stats.sustained_rps(steps, SERVE_P99_LIMIT_MS)
    else:
        sustained = raw["ops"] / raw["timed_s"]
    return {
        "setup_s": stats.percentile(raw["setup_s"], 50),
        "peak_rss_mb": raw["peak_rss_mb"],
        "gflops": raw["flops"] / raw["timed_s"] / 1e9,
        "pass_p50_ms": pct("pass_ms", 50),
        "pass_p90_ms": pct("pass_ms", 90),
        "ttft_p50_ms": pct("first_ms", 50),
        "itl_p50_ms": pct("later_ms", 50),
        "itl_p90_ms": pct("later_ms", 90),
        "latency_p50_ms": pct("op_ms", 50),
        "latency_p90_ms": pct("op_ms", 90),
        "sustained_rps": sustained,
    }


def tails(raw):
    out = {}
    for key in ("pass_ms", "first_ms", "later_ms", "op_ms"):
        t = stats.tail(stats.latencies(raw[key]))
        if t:
            out[key] = {"percentile": t[0], "value": t[1], "beyond": t[2],
                        "samples": len(raw[key])}
    return out


def finite(v):
    return v if v == v and abs(v) != float("inf") else 1e12


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full result record (JSONL)")
    args = ap.parse_args()

    build()
    run_dir = os.path.join(ROOT, ".bench_build", "runs")
    os.makedirs(run_dir, exist_ok=True)
    stem = os.path.join(run_dir, f"{args.workload}-{args.seed}-{os.getpid()}")
    sched = stem + ".schedule"
    with open(sched, "w") as f:
        f.write(schedule_text(args.workload, args.seed, args.seconds))
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--schedule", sched, "--trace-dir", run_dir]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=170)
    finally:
        os.remove(sched)
    lines = p.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"driver exited with {p.returncode} and no result")
    if p.returncode != 0 and raw["failed"] == 0:
        fail(f"driver exited with {p.returncode}")

    if args.trace:
        names = spec["per_layer"]
        values = raw["layers"]
    else:
        names = spec["end_to_end"]
        values = end_to_end(raw)
    metrics = {}
    for m in names:
        if m["name"] not in values:
            fail(f"driver did not measure {m['name']}")
        metrics[m["name"]] = {"value": finite(values[m["name"]]),
                              "unit": m["unit"]}
    correct = raw["failed"] == 0
    result = {"correct": correct, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    context = {"fingerprint": raw["fingerprint"], "tails": tails(raw),
               "extra": {k: v for k, v in raw["layers"].items()
                         if k not in metrics}}
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, **context,
                                **result}) + "\n")
    print(json.dumps(context))
    print(json.dumps(result))
    if not correct:
        sys.exit(1)


if __name__ == "__main__":
    main()
