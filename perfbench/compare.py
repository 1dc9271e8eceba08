#!/usr/bin/env python3
"""Collect, summarize and compare sets of benchmark runs.

    # ten runs per workload, one seed each, appended to a JSONL file
    python3 perfbench/compare.py collect --out A.jsonl --seeds 1-10
    # medians, quartiles and relative spread against each metric's bound
    python3 perfbench/compare.py summary A.jsonl
    # parent (A) against change (B): one verdict per (workload, metric)
    python3 perfbench/compare.py diff A.jsonl B.jsonl

`diff` refuses run sets from different host fingerprints and exits 1 if
any end-to-end metric regressed.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Fingerprint fields that must match; peak_gflops is a measurement, so the
# two sets' median peaks only have to agree within PEAK_TOLERANCE.
FINGERPRINT_KEYS = ("nproc", "cpu", "simd", "simd_bits", "build_flags",
                    "compiler")
PEAK_TOLERANCE = 0.25


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_runs(path, trace=0):
    with open(path) as f:
        runs = [json.loads(line) for line in f if line.strip()]
    return [r for r in runs if r.get("trace", 0) == trace]


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def fingerprint_mismatch(a_runs, b_runs):
    """A description of how the two sets' hosts differ, or None."""
    fps = [r["fingerprint"] for r in a_runs + b_runs]
    for key in FINGERPRINT_KEYS:
        values = {json.dumps(fp.get(key)) for fp in fps}
        if len(values) > 1:
            return f"{key} differs: {sorted(values)}"
    peaks = sorted(stats.percentile([r["fingerprint"]["peak_gflops"]
                                     for r in runs], 50)
                   for runs in (a_runs, b_runs))
    if peaks[0] < (1 - PEAK_TOLERANCE) * peaks[1]:
        return f"peak_gflops differs: {peaks[0]:.1f} vs {peaks[1]:.1f}"
    return None


def by_metric(runs, metrics):
    """{(workload, metric): [values in seed order]}"""
    out = {}
    for r in sorted(runs, key=lambda r: (r["workload"], r["seed"])):
        for m in metrics:
            v = r["metrics"].get(m["name"])
            if v is not None:
                out.setdefault((r["workload"], m["name"]), []).append(
                    v["value"])
    return out


def cmd_collect(args):
    spec = load_spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    for seed in parse_seeds(args.seeds):
        for w in workloads:
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", str(args.trace),
                                     "--out", os.path.abspath(args.out)]
            p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
            print(f"{w} seed={seed} exit={p.returncode}", flush=True)
            if p.returncode != 0:
                return 1
    return 0


def summarize(runs, metrics):
    """{workload: {metric: median, quartiles, spread, unit, n}}"""
    units = {m["name"]: m["unit"] for m in metrics}
    out = {}
    for (w, name), values in sorted(by_metric(runs, metrics).items()):
        q1, med, q3 = stats.quartiles(values)
        out.setdefault(w, {})[name] = {
            "median": med, "q1": q1, "q3": q3,
            "spread": round(stats.rel_spread(values), 4),
            "unit": units[name], "n": len(values)}
    return out


def cmd_summary(args):
    """Untraced runs: spread of each end-to-end metric against its bound.
    With --json, the baseline record: fingerprint, end-to-end medians and
    (from traced runs in the same file) per-layer medians."""
    spec = load_spec()
    runs = load_runs(args.runs)
    e2e = summarize(runs, spec["end_to_end"])
    if args.json:
        traced = load_runs(args.runs, trace=1)
        print(json.dumps({
            "fingerprint": runs[0]["fingerprint"] if runs else {},
            "peak_gflops_median": stats.percentile(
                [r["fingerprint"]["peak_gflops"] for r in runs], 50),
            "runs": len(runs), "traced_runs": len(traced),
            "seeds": sorted({r["seed"] for r in runs}),
            "traced_seeds": sorted({r["seed"] for r in traced}),
            "end_to_end": e2e,
            "per_layer": summarize(traced, spec["per_layer"])}, indent=1))
        return 0
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for w, metrics in e2e.items():
        for name, s in metrics.items():
            share = s["spread"] / bounds[name]
            if name != "setup_s":
                worst = max(worst, share)
            flag = "" if share < 1 / 3 else ("  WIDE" if share < 1 else
                                              "  OVER BOUND")
            print(f"{w:12s} {name:16s} median={s['median']:12.4f} "
                  f"spread={s['spread']:7.4f} bound={bounds[name]:.2f} "
                  f"n={s['n']}{flag}")
    print(f"worst spread/bound (excluding setup_s): {worst:.3f}")
    return 0


def cmd_diff(args):
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    a_runs, b_runs = load_runs(args.parent), load_runs(args.change)
    why = fingerprint_mismatch(a_runs, b_runs)
    if why:
        print(f"refusing to compare runs from different hosts: {why}")
        return 2
    a = by_metric(a_runs, spec["end_to_end"])
    b = by_metric(b_runs, spec["end_to_end"])
    regressed = 0
    print(f"{'workload':12s} {'metric':16s} {'parent median [q1,q3]':>34s} "
          f"{'change median [q1,q3]':>34s}  verdict")
    for key in sorted(set(a) | set(b)):
        w, name = key
        pa, pb = a.get(key, []), b.get(key, [])
        m = bounds[name]
        v = stats.verdict(pa, pb, m["better"], m["bound"])
        regressed += v == "regressed"

        def cell(values):
            if not values:
                return "-"
            q1, med, q3 = stats.quartiles(values)
            return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"

        print(f"{w:12s} {name:16s} {cell(pa):>34s} {cell(pb):>34s}  {v}")
    return 1 if regressed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--workloads")
    c.add_argument("--trace", type=int, default=0)
    s = sub.add_parser("summary")
    s.add_argument("runs")
    s.add_argument("--json", action="store_true")
    d = sub.add_parser("diff")
    d.add_argument("parent")
    d.add_argument("change")
    args = ap.parse_args()
    return {"collect": cmd_collect, "summary": cmd_summary,
            "diff": cmd_diff}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
