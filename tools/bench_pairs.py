#!/usr/bin/env python3
"""Alternating parent/change runs of bench/run.py, summarised as BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload NAME \\
        --seeds 9101-9110 [--trace-seed 7] --out BENCH_<n>.json

The two directories are checkouts of the parent commit and of the change
(for example unpacked with `git archive`); each runs its own bench/ and
src/, so the two bench/ trees and BENCHMARK.json must agree in content:
otherwise the tool exits non-zero before any run, naming the first
differing file (compiled __pycache__ files are not compared).  Every run
lasts BENCHMARK.json's run_seconds, the length the benchmark itself uses.
Pair i runs seed i on both sides, the parent first on even i and the
change first on odd i.  The workload's entry in --out records, for each
end-to-end metric of BENCHMARK.json: every run, each side's median and
quartiles, how many pairs the change won (ties count for neither side),
the ratio of the medians and the parent's interquartile range, plus the
attempted and failed operations of each side, and the host: its usable
CPU count and the 1-minute load average before and after every run, since
a change that draws on several cores gains only while they are free.
--trace-seed adds one --trace 1 run per side with its per-layer split.
--out is updated in place, one workload per call, so workloads can be
measured separately.
A run that exits non-zero or reports "correct": false stops the tool with
a non-zero exit, naming the side, workload, seed and exit code, followed
by the last lines of that run's stderr; nothing is written to --out.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def bench(side, checkout, workload, seed, seconds, trace, loads):
    """(info line, result line) of one bench/run.py run in checkout; the
    host's 1-minute load average before and after it goes to loads.  A run
    that exits non-zero or reports "correct": false stops the tool with one
    line naming it and the last lines of its stderr."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    before = os.getloadavg()[0]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    loads.append({"side": side, "seed": seed, "trace": bool(trace), "before": before,
                  "after": os.getloadavg()[0]})
    if proc.returncode == 0:
        info, result = map(json.loads, proc.stdout.strip().splitlines()[-2:])
        if result["correct"]:
            return info, result
    why = f"exit code {proc.returncode}" + ("" if proc.returncode else ", result not correct")
    tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
    sys.exit(f"bench_pairs: {side} {workload} seed {seed}: {why}\n{tail}")


def usable_cpus():
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count()


def benchmark_files(checkout):
    """{relative path: bytes} of a checkout's BENCHMARK.json and bench/ tree."""
    paths = [checkout / "BENCHMARK.json", *(checkout / "bench").rglob("*")]
    return {p.relative_to(checkout).as_posix(): p.read_bytes() for p in paths
            if p.is_file() and "__pycache__" not in p.parts}


def first_difference(parent, change):
    """The first path, in sorted order, whose benchmark file differs between
    the two checkouts (or exists in one only); None when they agree."""
    a, b = benchmark_files(parent), benchmark_files(change)
    return next((name for name in sorted(a.keys() | b.keys()) if a.get(name) != b.get(name)),
                None)


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def seed_range(text):
    """first-last, inclusive, at least two seeds: one per pair of runs, and
    the quartiles need two pairs."""
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 seeds, got {len(seeds)} from {text!r}")
    return seeds


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=seed_range, help="first-last, inclusive")
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--out", required=True, type=Path)
    a = ap.parse_args(argv)
    differs = first_difference(a.parent, a.change)
    if differs is not None:
        sys.exit(f"bench_pairs: the checkouts' benchmark code differs: {differs}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sides = {"parent": a.parent, "change": a.change}
    runs = {side: [] for side in sides}
    loads = []
    env = None
    for i, seed in enumerate(a.seeds):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            info, result = bench(side, sides[side], a.workload, seed, seconds, 0, loads)
            env = info["env"]
            runs[side].append(result)
            print(f"{a.workload} seed {seed} {side}: "
                  f"{result['metrics']['path_steps_per_s']['value']:.4g} path-steps/s, "
                  f"{result['failed']}/{result['attempted']} failed", file=sys.stderr)

    metrics = {}
    for m in spec["end_to_end"]:
        name, higher = m["name"], m["better"] == "higher"
        vals = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in sides}
        par, chg = summary(vals["parent"]), summary(vals["change"])
        wins = sum((c > p) if higher else (c < p) for p, c in zip(vals["parent"], vals["change"]))
        metrics[name] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                         "parent": par, "change": chg, "change_wins": wins,
                         "median_ratio": chg["median"] / par["median"],
                         "parent_iqr": par["q3"] - par["q1"]}
    entry = {"pairs": len(a.seeds), "seeds": a.seeds, "seconds": seconds,
             "order": "parent first on even pairs, change first on odd pairs",
             "metrics": metrics,
             "operations": {side: {"attempted": sum(r["attempted"] for r in runs[side]),
                                   "failed": sum(r["failed"] for r in runs[side])}
                            for side in sides},
             "host": {"cpus": usable_cpus(), "load1": loads}}
    if a.trace_seed is not None:
        entry["trace"] = {"seed": a.trace_seed}
        for side in sides:
            _, result = bench(side, sides[side], a.workload, a.trace_seed, seconds, 1, loads)
            entry["trace"][side] = {k: v["value"] for k, v in result["metrics"].items()}

    doc = json.loads(a.out.read_text()) if a.out.exists() else {"schema": 1, "workloads": {}}
    doc["command"] = " ".join(spec["command"]) + f" --seconds {seconds:g}"
    doc["env"] = env
    doc["workloads"][a.workload] = entry
    a.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
