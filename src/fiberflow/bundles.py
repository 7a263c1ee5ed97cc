"""Hermitian bundle specifications and their per-step parallel transport.

Three connection kinds cover the catalog:

  trivial(d)    flat connection on a trivialized rank-d bundle; transport
                is the identity on every model.
  tangent       complexified tangent bundle of the 2-sphere with the
                Levi-Civita connection; transport along a geodesic step is
                the closed-form great-circle rotation (rank 2), the real
                [[c, -s], [s, c]] that Sphere2.transport_matrix builds from
                one pair: the step direction in the start frame and the
                geodesic's direction at the endpoint in the endpoint frame.
  magnetic(beta) trivial line bundle with connection d + i*beta; transport
                along a step is the phase exp(-i * int beta) with the
                Stratonovich midpoint rule (rank 1).

BundleSpec.step_transport is the single transport entry point.  One call
walks C steps, xi of shape (C, ..., m), and returns the C points with their
(C, ..., d, d) step matrices, which the path engine (paths.run_ensemble)
multiplies into the accumulated transport, one call per sub-chunk;
`--dump-paths` passes its steps with a leading axis of 1 and writes each
step's matrix.  For the tangent bundle the call also returns the frame at
the last point, which the engine hands back as the next call's start
frame; the magnetic phase is one model.walk and one midpoint line integral
over all C steps.  A trivial bundle is no bundle in the engine: after its
rank check the run drops it and carries no transport.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import Circle, Euclidean, FlatTorus, ManifoldModel, Sphere2
from .potentials import OneForm

__all__ = ["BundleSpec", "trivial_bundle", "tangent_bundle", "magnetic_bundle",
           "stratonovich_increment"]


def stratonovich_increment(model, beta: OneForm, x, xi):
    """int beta over one geodesic step, midpoint rule: beta evaluated at the
    chart midpoint, paired with the (unwrapped) chart increment.  Supported
    on the flat models and the circle, where chart steps equal frame steps."""
    base = model.base
    xi = np.asarray(xi, dtype=float)
    if isinstance(base, Circle):
        d_chart = base.chart_increment(x, xi)
    elif isinstance(base, (Euclidean, FlatTorus)):
        d_chart = xi
    else:
        raise ValueError("Stratonovich line integrals need a flat chart or the circle")
    mid = np.asarray(x, dtype=float) + 0.5 * d_chart
    return beta.pair(mid, d_chart)


@dataclass
class BundleSpec:
    rank: int
    kind: str = "trivial"  # trivial | tangent | magnetic
    beta: Optional[OneForm] = None

    def __post_init__(self):
        if self.kind not in ("trivial", "tangent", "magnetic"):
            raise ValueError(f"unknown bundle kind {self.kind!r}")
        if self.kind == "magnetic" and self.rank != 1:
            raise ValueError("magnetic bundles are rank 1")
        if self.kind == "tangent" and self.rank != 2:
            raise ValueError("the tangent bundle of sphere2 has rank 2")
        if self.rank < 1 or self.rank > 16:
            raise ValueError("bundle rank must be in 1..16")

    def validate_model(self, model: ManifoldModel):
        if self.kind == "tangent" and not isinstance(model.base, Sphere2):
            raise ValueError("tangent-bundle transport is implemented for sphere2 only")
        if self.kind == "magnetic" and not isinstance(model.base, (Euclidean, FlatTorus, Circle)):
            raise ValueError("magnetic 1-forms are supported on flat models and the circle")

    def step_transport(self, model: ManifoldModel, x, xi, frame=None):
        """(points, T, frame_y) of the walk from x by the geodesic steps xi,
        shape (C, ..., m), one step per leading index: the points, point j
        exp of point j-1 by xi[j], shape (C, ..., coord_dim); the unitary
        (C, ..., d, d) matrices T of the steps, real rotations for the
        tangent bundle, carrying fiber coordinates at each step's start to
        fiber coordinates at its end; and for the tangent bundle the
        tangent frame at the last point (None otherwise).  `frame` is the
        frame at x a previous call returned.  One step is a leading axis
        of 1."""
        if self.kind == "tangent":
            return model.base.transport_matrix(x, xi, frame)
        xi = np.asarray(xi, dtype=float)
        pts = model.walk(x, xi.copy())
        if self.kind == "trivial":
            eye = np.eye(self.rank, dtype=complex)
            return pts, np.broadcast_to(eye, xi.shape[:-1] + (self.rank, self.rank)), None
        # magnetic: phase e^{-i int beta} with midpoint evaluation, all steps at once
        starts = np.concatenate([np.broadcast_to(x, pts.shape[1:])[None], pts[:-1]])
        phase = stratonovich_increment(model, self.beta, starts, xi)
        return pts, np.exp(-1j * phase)[..., None, None], None


def trivial_bundle(rank=1):
    return BundleSpec(rank=rank, kind="trivial")


def tangent_bundle():
    return BundleSpec(rank=2, kind="tangent")


def magnetic_bundle(beta: OneForm):
    return BundleSpec(rank=1, kind="magnetic", beta=beta)
