import numpy as np
import pytest

from fiberflow.paths import run_ensemble, time_grid


def _coarse_trapezoids(model, v, x0, t, h, key, n, coarsenings, chunk=10_000):
    """({s: int v at t by the trapezoid of step s h}, endpoints) on paths
    0..n-1 of key: each integral runs the engine's own recurrence
    prev + (s dt_k) 0.5 (v_k + v_{k+1}) over every s-th grid point of the
    fine path, so the coarse-h estimators share the fine paths.  Paths go
    in chunks keyed at their first path, read at every grid time."""
    times, _ = time_grid(t, h)
    dts = np.diff(times)
    K = len(dts)
    parts, ends = {s: [] for s in coarsenings}, []
    for i0 in range(0, n, chunk):
        res = run_ensemble(model, x0, t, h, key.child(i0), min(chunk, n - i0),
                           checkpoints=times[:-1])
        vals = v(res.points, cap=1.0 / h)
        for s in coarsenings:
            acc = np.zeros(vals.shape[1])
            for k in range(s - 1, K, s):
                acc = acc + (s * dts[k]) * 0.5 * (vals[k + 1 - s] + vals[k + 1])
            parts[s].append(acc)
        ends.append(res.points[-1])
    return {s: np.concatenate(p) for s, p in parts.items()}, np.concatenate(ends)


@pytest.fixture
def coarse_trapezoids():
    return _coarse_trapezoids
