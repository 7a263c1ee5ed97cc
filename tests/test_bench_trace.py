"""Smoke test of the benchmark's per-layer tracer (bench/layers.py).

The tracer wraps engine functions by name, so renaming one of them breaks
`bench/run.py --trace 1` without failing any engine test.  This runs a tiny
rank-3 fk_vector call under the tracer and pins what the fused step
promises: one V(x) evaluation and one exponential per sub-chunk, over all of
its steps' matrices, and no separate floor eigen-solve.  The spinor_rank3
potential, a constant matrix plus a scalar field times I, takes no V(x)
evaluation and one exponential per block.
A short tangent_sphere call pins that tangent transport is still timed, a
short scalar_harmonic call that the rank-1 route does no matrix work, and a
short exit_probability call that the live-step ratio still reads the
engine's death steps.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import layers  # noqa: E402
import workloads  # noqa: E402

import fiberflow.paths as paths  # noqa: E402
from fiberflow.config import parse_potential  # noqa: E402
from fiberflow.geometry import Euclidean  # noqa: E402
from fiberflow.paths import exit_probability, time_grid  # noqa: E402
from fiberflow.rng import RngKey  # noqa: E402
from fiberflow.semigroup import fk_scalar, fk_vector  # noqa: E402


def sub_chunks(steps, n, floats):
    """The engine's sub-chunks over `steps` steps of n live paths with no
    checkpoint before the last step, each point taking `floats` of
    _SUB_FLOATS."""
    return -(-steps // max(1, paths._SUB_FLOATS // (n * floats)))


def test_traced_rank3_call_evaluates_potential_once_per_sub_chunk():
    # an x-dependent spin-1 term keeps the matrix part on the per-point route
    w = workloads.SpinorRank3()
    c = w.cfg
    V = parse_potential(c.model, "matrix(rank=3, const=diag(1,0,-1), harmonic(1.0) @ spin1_x)")
    t, h, n = 0.01, w.h, 16
    tr = layers.Tracer()
    with tr.installed():
        est = fk_vector(c.model, c.bundle, V, c.section, w.x, t, h, n, RngKey(3))
    assert np.all(np.isfinite(est.value))
    m = tr.metrics()
    steps = int(round(t / h))
    assert m["potentials.floor_s"] == 0
    # a rank-3 weight takes 3 floats per point, more than the plane's 2
    assert m["potentials.matrix_calls"] == sub_chunks(steps, n, 3)
    assert m["matexp.matrices"] == steps * n
    assert m["paths.blocks"] == 1


def test_traced_spinor_call_exponentiates_its_constant_part_once_per_block(monkeypatch):
    # V = C + harmonic(1.0) I: the identity part is a scalar field and C is
    # exponentiated once per block, at each distinct step size of the grid
    w = workloads.SpinorRank3()
    c = w.cfg
    t, h, n = 0.01, w.h, 16
    calls = []
    expm = paths.expm_neg_hermitian
    monkeypatch.setattr(paths, "expm_neg_hermitian",
                        lambda W, s: (calls.append(np.shape(W)[:-2]), expm(W, s))[1])
    tr = layers.Tracer()
    with tr.installed():
        est = fk_vector(c.model, c.bundle, w.potential, c.section, w.x, t, h, n, RngKey(3))
    assert np.all(np.isfinite(est.value))
    m = tr.metrics()
    sizes = len(np.unique(np.diff(time_grid(t, h)[0])))
    assert m["potentials.matrix_calls"] == 0 and m["potentials.floor_s"] == 0
    assert m["paths.blocks"] == 1 and calls == [(sizes,)]
    assert m["matexp.matrices"] == sizes
    assert m["potentials.field_s"] > 0


def test_traced_tangent_call_attributes_transport():
    # tangent transport reaches Sphere2.transport_matrix through
    # BundleSpec.step_transport; the tracer must still see it, and the step's
    # endpoint comes out of the transport, so no step calls model.exp
    w = workloads.TangentSphere()
    c = w.cfg
    t, h, n = 0.01, w.h, w.n
    tr = layers.Tracer()
    with tr.installed():
        est = fk_vector(c.model, c.bundle, c.potential, c.section, w.x, t, h, n, RngKey(3))
    assert np.all(np.isfinite(est.value))
    m = tr.metrics()
    steps = int(round(t / h))
    assert m["bundles.transport_s"] > 0
    assert m["geometry.exp_calls"] == 0
    assert m["potentials.matrix_calls"] == sub_chunks(steps, n, 3) > 1
    assert m["matexp.matrices"] == steps * n


def test_traced_scalar_call_does_no_matrix_work():
    # fk_scalar is fk_vector's rank-1 route: no matrix potential and no
    # exponential; on the real line the walk adds the steps itself, with no
    # call of model.exp
    w = workloads.ScalarHarmonic()
    c = w.cfg
    t, h, n = 0.01, w.h, 64
    tr = layers.Tracer()
    with tr.installed():
        est = fk_scalar(c.model, c.potential, c.section, w.x, t, h, n, RngKey(3))
    assert np.isfinite(est.value) and np.isrealobj(est.value)
    m = tr.metrics()
    assert m["potentials.matrix_calls"] == 0
    assert m["matexp.matrices"] == 0
    assert m["geometry.exp_calls"] == 0
    assert m["potentials.field_s"] > 0 and m["paths.blocks"] == 1


def test_traced_exit_call_counts_live_steps():
    # the tracer reads paths.live_step_ratio off EnsembleResult.death_step;
    # from the origin of a ball of radius 0.2, some of 64 paths leave by t
    t, h, n = 0.05, 1e-3, 64
    tr = layers.Tracer()
    with tr.installed():
        per_start, _, _ = exit_probability(Euclidean(1), np.zeros(1), 0.2, t, h, n, RngKey(3))
    assert 0 < per_start[-1, 0] < 1
    m = tr.metrics()
    assert m["paths.blocks"] == 1
    assert m["geometry.contains_s"] > 0
    assert 0 < m["paths.live_step_ratio"] < 1
