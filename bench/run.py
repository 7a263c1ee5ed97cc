#!/usr/bin/env python3
"""fiberflow path-engine benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the engine is imported from its src/.
Workloads (see README.md): scalar_harmonic, tangent_sphere, spinor_rank3 and
exit_ball.  Each is closed-loop, one estimator call at a time from a single
process with workers=1.

--trace 0 prints the end-to-end metrics:
  path_steps_per_s  n_paths * n_steps / wall time of one estimator call
                    (median over the run's calls after the first)
  time_to_1pct_s    that wall * (relative stderr / 0.01)^2: seconds to a
                    1% relative standard error by the 1/n law; the squared
                    relative stderr is averaged over the run's seeds
  setup_s           wall time of a fresh interpreter that imports fiberflow
                    as the CLI does and builds the workload through RunConfig
                    (median of the probes spread over the run, worker.py)
  peak_rss_mb       peak resident memory of the process running the workload
path_steps_per_s and time_to_1pct_s are in seconds of a host running at
nominal speed: reference.py's fixed kernel is timed right after every
estimator call, each call's wall time is divided by the kernel's, and the
median of these ratios is multiplied by reference.NOMINAL_S.  setup_s is
not scaled: a fresh interpreter's start-up follows the kernel's speed
only in part, and scaling it widened its spread.
--trace 1 prints the per-layer split of traced calls (layers.py), the
set-up split, and the tracing overhead: median traced wall minus median
untraced wall, both measured in the same run and both scaled like
path_steps_per_s.  The other per-layer figures are not scaled.

Child processes run with one BLAS/OpenMP thread.  The line before the
result records the machine, versions, thread setting, every repeat, the
host slowdown and the unscaled path_steps_per_s.
The last line of standard output is the result object.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from reference import NOMINAL_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("scalar_harmonic", "tangent_sphere", "spinor_rank3", "exit_ball")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def _child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def _worker(args):
    """Run worker.py with args; returns its parsed last line of output."""
    cmd = [sys.executable, "-s", str(BENCH / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out after {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    if not (SRC / "fiberflow" / "__init__.py").is_file():
        raise BenchError(f"no fiberflow sources under {SRC}; run from a checkout of the repo")

    res = _worker(["run", a.workload, str(a.seed), str(a.seconds), str(a.trace)])
    if not Path(res["fiberflow"]).resolve().is_relative_to(SRC):
        raise BenchError(f"imported fiberflow from {res['fiberflow']}, not from {SRC}")
    if not (res["walls_s"] and res["setups"]):
        raise BenchError("no estimator call or no set-up probe succeeded:\n"
                         + "\n".join(res["failures"]))

    walls, setups = res["walls_s"], res["setups"]
    # each call's wall time over the reference kernel's next to it, in
    # seconds of a host that runs the kernel in NOMINAL_S (reference.py)
    wall = NOMINAL_S * statistics.median(w / r for w, r in zip(walls, res["ref_walls_s"]))
    if a.trace:
        traced = res["traced_walls_s"]
        if not traced:
            raise BenchError("no traced call succeeded:\n" + "\n".join(res["failures"]))
        metrics = {}
        for name in res["layers"][0]:
            unit = "s" if name.endswith("_s") else ("ratio" if name.endswith("ratio") else "count")
            metrics[name] = _metric(statistics.median(l[name] for l in res["layers"]), unit)
        metrics["cli.import_s"] = _metric(statistics.median(s["import_s"] for s in setups), "s")
        metrics["config.parse_s"] = _metric(statistics.median(s["parse_s"] for s in setups), "s")
        metrics["trace.wall_s"] = _metric(statistics.median(traced), "s")
        traced_wall = NOMINAL_S * statistics.median(
            w / r for w, r in zip(traced, res["traced_ref_walls_s"]))
        metrics["trace.overhead_s"] = _metric(traced_wall - wall, "s")
    else:
        metrics = {
            "path_steps_per_s": _metric(res["path_steps"] / wall, "1/s"),
            "time_to_1pct_s": _metric(wall * res["rel_stderr_sq"] / 0.01**2, "s"),
            "setup_s": _metric(statistics.median(s["wall_s"] for s in setups), "s"),
            "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
        }

    info = {k: res[k] for k in ("workload", "seeds", "walls_s", "ref_walls_s", "traced_walls_s",
                                "rel_stderr_sq", "path_steps", "failures")}
    info["setup_walls_s"] = [s["wall_s"] for s in setups]
    info["host_slowdown"] = statistics.median(res["ref_walls_s"]) / NOMINAL_S
    info["unscaled_path_steps_per_s"] = res["path_steps"] / statistics.median(walls)
    info["env"] = {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
                   **res["versions"], "threads": {var: "1" for var in THREAD_VARS}}
    print(json.dumps(info))
    failed = len(res["failures"])
    print(json.dumps({"correct": failed == 0, "attempted": res["attempted"],
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
