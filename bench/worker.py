"""Child process of run.py: one workload's measured run.

    worker.py run WORKLOAD SEED SECONDS TRACE
        runs the estimator until SECONDS have passed, with set-up probes
        spread over the same window, and prints one JSON object with every
        operation's outcome.
    worker.py setup WORKLOAD
        one set-up probe: imports fiberflow as the CLI does and builds the
        workload through RunConfig; prints {"import_s", "parse_s"}.

run.py starts it with PYTHONPATH pointing at the checkout's src/ and one
BLAS/OpenMP thread, and the probes inherit that environment.
"""

import importlib
import json
import subprocess
import sys
import time

# A run cycles through STREAMS seeds, SEED, SEED + STREAM_STRIDE, ...: the
# output checks see more than one stream, and the relative stderr behind
# time_to_1pct_s is pooled over STREAMS * n paths, which keeps that metric
# from following one seed's variance estimate.
STREAMS = 3
STREAM_STRIDE = 1_000_003
# calls made however long they take, so every seed is repeated at least once
MIN_CALLS = 2 * STREAMS
# set-up probes per run, spread evenly over the measured window so that
# their median, like the estimator's, samples the whole run
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


def setup(name):
    t0 = time.perf_counter()
    import workloads

    importlib.import_module("fiberflow.cli")
    importlib.import_module(workloads.WORKLOADS[name].estimator_module)
    t1 = time.perf_counter()
    workloads.WORKLOADS[name]()
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "parse_s": t2 - t1}


class _Run:
    """Operations of one run.  Every estimator call and set-up probe counts
    as attempted; an exception, a non-finite value, a failed check or a
    result that differs from the first call at the same seed counts as
    failed."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures = []
        self.reference = {}  # seed -> fingerprint of its first result

    def call(self, seed, fn):
        """Run fn(seed) -> (outcome, wall); returns them, or None when the
        operation failed."""
        self.attempted += 1
        try:
            out, wall = fn(seed)
            reason = self.workload.check(out)
            first = self.reference.setdefault(seed, out.fingerprint())
            if reason is None and out.fingerprint() != first:
                reason = "estimate differs from the first call at the same seed"
        except Exception as exc:  # noqa: BLE001 - any failure is a failed operation
            reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            self.failures.append(f"seed {seed}: {reason}")
            return None
        return out, wall

    def probe(self):
        """Wall time of a fresh set-up interpreter with its import/parse
        split, or None when it failed."""
        self.attempted += 1
        cmd = [sys.executable, "-s", __file__, "setup", self.workload.name]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.failures.append(f"set-up probe timed out after {PROBE_TIMEOUT_S} s")
            return None
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            self.failures.append(f"set-up probe exited {proc.returncode}: {proc.stderr[-500:]}")
            return None
        return {"wall_s": wall, **json.loads(proc.stdout.splitlines()[-1])}


def run(name, seed, seconds, trace):
    import resource

    import numpy as np
    import scipy

    import fiberflow
    import reference
    import workloads

    w = workloads.WORKLOADS[name]()
    ops = _Run(w)

    def plain(s):
        t0 = time.perf_counter()
        out = w.run(s)
        return out, time.perf_counter() - t0

    tracers = []

    def traced(s):
        from layers import Tracer

        tr = Tracer()
        with tr.installed():
            out, wall = tr.call("semigroup.self_s", w.run, s)
        tracers.append(tr)
        return out, wall

    seeds = [seed + j * STREAM_STRIDE for j in range(STREAMS)]
    walls, ref_walls, traced_walls, traced_refs, rel_sq, setups = [], [], [], [], {}, []

    def host_wall():
        """Wall time of the fixed reference kernel: the host's speed now."""
        t0 = time.perf_counter()
        reference.reference_kernel()
        return time.perf_counter() - t0

    def probe():
        p = ops.probe()
        if p is not None:
            setups.append(p)

    # warm-up: the first probe writes the bytecode caches, the first call
    # faults in the block allocations; neither is timed
    ops.probe()
    reference.reference_kernel()
    r = ops.call(seeds[0], plain)
    if r is not None:
        rel_sq[seeds[0]] = r[0].rel_stderr ** 2
    calls, probes = 1, 0
    start = time.perf_counter()
    while calls < MIN_CALLS or time.perf_counter() < start + seconds:
        if probes < SETUP_PROBES and time.perf_counter() >= start + probes * seconds / SETUP_PROBES:
            probes += 1
            probe()
        s = seeds[calls % STREAMS]
        calls += 1
        r = ops.call(s, plain)
        ref = None
        if r is not None:
            # the host's speed right after the call: the pair's ratio
            # cancels a slowdown that lasts over both (reference.py)
            ref = host_wall()
            walls.append(r[1])
            ref_walls.append(ref)
            rel_sq[s] = r[0].rel_stderr ** 2
        if trace:
            # the traced call pairs with the same kernel run, right before it
            r = ops.call(s, traced)
            if r is not None and ref is not None:
                traced_walls.append(r[1])
                traced_refs.append(ref)
    for _ in range(probes, SETUP_PROBES):
        probe()
    return {
        "workload": name, "seeds": seeds, "attempted": ops.attempted, "failures": ops.failures,
        "walls_s": walls, "ref_walls_s": ref_walls, "traced_walls_s": traced_walls,
        "traced_ref_walls_s": traced_refs, "setups": setups,
        "layers": [tr.metrics() for tr in tracers],
        "path_steps": w.path_steps,
        "rel_stderr_sq": sum(rel_sq.values()) / len(rel_sq) if rel_sq else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fiberflow": fiberflow.__file__,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        result = setup(sys.argv[2])
    else:
        result = run(sys.argv[2], int(sys.argv[3]), float(sys.argv[4]), sys.argv[5] == "1")
    print(json.dumps(result))
