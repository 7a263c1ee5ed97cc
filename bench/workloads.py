"""The benchmark workloads: inputs, estimator call and output check.

Each workload builds its model, potential and section through `RunConfig`
with the README grammar, runs one estimator call with `workers=1`, and
checks the estimate against an independent oracle or a deterministic bound.
Why each one is in the benchmark, and which layer it exercises or bypasses,
is in README.md.

Oracle checks allow Z_CHECK standard errors (a false alarm about once in
two million checks) plus a declared discretization allowance, so they hold
on any seed, not just the one they were written against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fiberflow.config import RunConfig
from fiberflow.rng import RngKey

Z_CHECK = 5.0


@dataclass
class Outcome:
    """One estimator call's result, reduced to what the benchmark needs."""

    value: np.ndarray
    stderr: np.ndarray
    rel_stderr: float
    extras: dict

    def fingerprint(self):
        """Bytes that identical calls must reproduce exactly."""
        return np.ascontiguousarray(self.value).tobytes() + np.ascontiguousarray(self.stderr).tobytes()


def _vector_outcome(est):
    value = np.atleast_1d(np.asarray(est.value))
    stderr = np.atleast_1d(np.asarray(est.stderr, dtype=float))
    rel = float(np.linalg.norm(stderr) / np.linalg.norm(value))
    return Outcome(value, stderr, rel, dict(est.extras))


def _require_finite(out):
    if not (np.all(np.isfinite(out.value)) and np.all(np.isfinite(out.stderr))):
        return "non-finite estimate"
    return None


def _oracle_check(out, oracle, allowance):
    """|value - oracle| <= Z_CHECK * stderr + allowance, componentwise."""
    err = np.abs(out.value - oracle)
    tol = Z_CHECK * out.stderr + allowance
    if np.any(err > tol):
        i = int(np.argmax(err - tol))
        return (f"component {i}: |{complex(out.value[i]):.6g} - {complex(oracle[i]):.6g}| "
                f"= {err[i]:.3g} exceeds {tol[i]:.3g}")
    return None


class Workload:
    name = ""
    mapping: dict = {}
    estimator_module = "fiberflow.semigroup"  # what the CLI imports for this command

    def __init__(self):
        cfg = RunConfig.from_mapping(self.mapping)
        self.cfg = cfg
        self.t = cfg.number("t", required=True)
        self.h = cfg.number("h", required=True)
        self.n = cfg.integer("n", required=True)
        self.x = cfg.points("x", required=True)[0]

    @property
    def path_steps(self):
        return self.n * int(round(self.t / self.h))

    def run(self, seed) -> Outcome:
        raise NotImplementedError

    def check(self, out: Outcome):
        """None when the outcome passes, else a one-line reason."""
        raise NotImplementedError


class ScalarHarmonic(Workload):
    name = "scalar_harmonic"
    mapping = {"manifold": "euclidean(m=1)", "potential": "harmonic(1.0)",
               "section": "gaussian(1.0)", "x": "0", "t": "1", "h": "1e-3", "n": "16384"}

    def run(self, seed):
        from fiberflow.semigroup import fk_scalar

        c = self.cfg
        est = fk_scalar(c.model, c.potential, c.section, self.x, self.t, self.h, self.n,
                        RngKey(seed))
        return _vector_outcome(est)

    def check(self, out):
        from fiberflow.oracle import mehler_kernel

        # int Mehler(t, x, y) f(y) dy on a grid wide enough for both Gaussians
        y = np.linspace(-20.0, 20.0, 40001)
        oracle = np.trapezoid(mehler_kernel(self.t, self.x[0], y) * np.exp(-0.5 * y**2), y)
        # trapezoid weights are unbiased in the mean, O(h) in the exponent
        return _require_finite(out) or _oracle_check(out, np.array([oracle]),
                                                     self.h * abs(oracle))


class TangentSphere(Workload):
    name = "tangent_sphere"
    mapping = {"manifold": "sphere2(r=1.0)", "bundle": "tangent", "bundle_rank": "2",
               "potential": "matrix(rank=2, const=diag(0.2,0.5), harmonic(1.0) @ pauli_x)",
               "section": "constant(1,0)", "x": "0,0,1", "t": "0.4", "h": "1e-3", "n": "1024"}

    def run(self, seed):
        from fiberflow.semigroup import fk_vector

        c = self.cfg
        est = fk_vector(c.model, c.bundle, c.potential, c.section, self.x, self.t, self.h,
                        self.n, RngKey(seed))
        return _vector_outcome(est)

    def check(self, out):
        # no closed form: fk_vector has asserted per-sample domination (1e-9);
        # averaging it gives ||value|| <= E[e^{-int floor}] * sup||f||
        bad = _require_finite(out)
        if bad:
            return bad
        bound = out.extras["floor_weight_mean"] * self.cfg.section.norm_bound
        norm = float(np.linalg.norm(out.value))
        if norm > bound * (1.0 + 1e-9):
            return f"||value|| = {norm:.9g} exceeds the domination bound {bound:.9g}"
        return None


class SpinorRank3(Workload):
    name = "spinor_rank3"
    # V(x) = C + harmonic(1.0)(x) I with C = diag(1,0,-1) + S_x / 2 (spin 1);
    # the grammar only writes diagonal rank-3 matrices, so V is built directly
    mapping = {"manifold": "euclidean(m=2)", "bundle_rank": "3", "section": "constant(1,1,1)",
               "x": "0,0", "t": "0.4", "h": "1e-3", "n": "1024"}
    S_X = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]) / math.sqrt(2.0)
    C = np.diag([1.0, 0.0, -1.0]) + 0.5 * S_X

    def __init__(self):
        from fiberflow.potentials import PotentialSpec, harmonic_field

        super().__init__()
        self.potential = PotentialSpec(rank=3, const=self.C,
                                       terms=[(harmonic_field(self.cfg.model, 1.0), np.eye(3))],
                                       name="spin1")

    def run(self, seed):
        from fiberflow.semigroup import fk_vector

        c = self.cfg
        est = fk_vector(c.model, c.bundle, self.potential, c.section, self.x, self.t, self.h,
                        self.n, RngKey(seed))
        return _vector_outcome(est)

    def check(self, out):
        from scipy.linalg import expm

        # C commutes with the scalar part, and E[exp(-int |B|^2/2)] from the
        # origin of R^2 is 1/cosh(t); the left-point rule is off by O(h)
        f = np.ones(3)
        oracle = expm(-self.t * self.C) @ f / math.cosh(self.t)
        return _require_finite(out) or _oracle_check(out, oracle, self.h * np.abs(oracle))


class ExitBall(Workload):
    name = "exit_ball"
    estimator_module = "fiberflow.paths"
    mapping = {"manifold": "euclidean(m=1)", "x": "0", "r": "1.0", "t": "1", "h": "1e-4",
               "t_grid": "0.25,0.5", "n": "1600"}

    def __init__(self):
        super().__init__()
        self.r = self.cfg.number("r", required=True)
        self.checkpoints = [float(u) for u in self.cfg.values("t_grid")]

    def run(self, seed):
        from fiberflow.paths import exit_probability

        c = self.cfg
        per, se, _ = exit_probability(c.model, self.x[None], self.r, self.t, self.h, self.n,
                                      RngKey(seed), checkpoints=self.checkpoints)
        value, stderr = per[:, 0], se[:, 0]
        return Outcome(value, stderr, float(stderr[-1] / value[-1]), {})

    def check(self, out):
        from fiberflow.oracle import exit_survival_interval

        bad = _require_finite(out)
        if bad:
            return bad
        times = self.checkpoints + [self.t]
        # killing only at grid points over-estimates survival; the bias is
        # the survival of a barrier moved out by 0.5826 sqrt(h) < sqrt(h)
        lo = np.array([exit_survival_interval(self.r, u) for u in times])
        hi = np.array([exit_survival_interval(self.r + math.sqrt(self.h), u) for u in times])
        slack = Z_CHECK * out.stderr
        if np.any(out.value < lo - slack) or np.any(out.value > hi + slack):
            return (f"survival {np.round(out.value, 6).tolist()} outside "
                    f"[{np.round(lo, 6).tolist()}, {np.round(hi, 6).tolist()}] +- {Z_CHECK:g} stderr")
        return None


WORKLOADS = {w.name: w for w in (ScalarHarmonic, TangentSphere, SpinorRank3, ExitBall)}
