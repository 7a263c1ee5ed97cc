"""The Dyson cross-check and the operator-norm inequality suite.

The weight process solves dV_t = -V_t (transport^{-1} V transport) dt along
a sampled path.  The path engine (paths.run_ensemble) integrates it, for a
matrix potential, by the exponential-product (Lie-Euler) scheme with the
left-point rule: each step multiplies by the exact matrix exponential of
the sampled Hermitian generator (a rank-1 potential is e^{-int v}, by the
scalar-field rule).  That choice makes the norm inequalities of the continuous
theory (bounds a-d below, semigroup domination) hold exactly for the
discrete product, not just in the limit, so they are asserted as hard
identities in the tests.

This module holds what checks that scheme from outside: the Dyson /
product-integral expansion, an independent solution of the same ODE from
generator samples on a grid, and the inequality suite, which exercises
the bound set on randomized matrix-valued generators.
"""

from __future__ import annotations

import math

import numpy as np

from .matexp import expm_neg_hermitian
from .rng import RngKey, stream

__all__ = [
    "product_integral_truncation",
    "appendix_c_check",
    "appendix_c_suite",
]


def product_integral_truncation(W, times, order: int):
    """Truncated path-ordered expansion sum_k int_{s_1<=...<=s_k}
    F(s_1)...F(s_k) with F = -W, iterated integrals by nested trapezoid on
    the grid.  W has shape (L, d, d): Hermitian generator samples at the L
    grid vertices `times`.  Cross-checks the engine's exponential product
    when the L1 norm of F is moderate."""
    if order < 0 or order > 6:
        raise ValueError("truncation order must be in 0..6")
    F = -np.asarray(W, dtype=complex)
    times = np.asarray(times, dtype=float)
    L, d, _ = F.shape
    if len(times) != L:
        raise ValueError("times must have one entry per generator sample")
    dts = np.diff(times)
    l1 = float(np.sum(dts * np.linalg.norm(F[:-1], ord=2, axis=(1, 2)))) if L > 1 else 0.0
    if l1 > 5.0:
        raise ValueError(f"L1 norm {l1:.3g} too large for a meaningful truncation (> 5)")
    total = np.eye(d, dtype=complex)
    G = np.broadcast_to(np.eye(d, dtype=complex), (L, d, d)).copy()
    for _ in range(order):
        GF = G @ F
        nxt = np.zeros_like(G)
        for k in range(L - 1):
            nxt[k + 1] = nxt[k] + 0.5 * dts[k] * (GF[k] + GF[k + 1])
        G = nxt
        total = total + G[-1]
    return total


# ----------------------------------------------------------------------
# Appendix-style inequality suite for dY/ds = Y F(s), Y(0) = 1


def _op_norm(A):
    return np.linalg.norm(A, ord=2, axis=(-2, -1))


def appendix_c_check(F, times, c=None, slack=1e-8, pair_F=None):
    """Check the operator-norm bounds for one grid-sampled generator.

    F has shape (K, d, d) (value on each step, left-point); c is an optional
    per-step quadratic-form bound with <Fv, v> <= c ||v||^2 (defaults to the
    largest eigenvalue when F is Hermitian).  Returns a dict of margins
    (bound minus achieved value; negative beyond slack means violation)."""
    F = np.asarray(F, dtype=complex)
    times = np.asarray(times, dtype=float)
    K, d, _ = F.shape
    dts = np.diff(times)
    if len(dts) != K:
        raise ValueError("times must have K+1 entries")
    herm = bool(np.max(np.abs(F - np.conj(np.transpose(F, (0, 2, 1))))) < 1e-12)
    if c is None:
        if not herm:
            raise ValueError("quadratic-form bound c required for non-Hermitian F")
        c = np.linalg.eigvalsh(F)[:, -1].real

    steps = expm_neg_hermitian(-F, dts)[0] if herm else _expm_stack(F, dts)
    Y = np.zeros((K + 1, d, d), dtype=complex)
    Y[0] = np.eye(d)
    for k in range(K):
        Y[k + 1] = Y[k] @ steps[k]

    nF = _op_norm(F)
    int_F = float(np.sum(dts * nF))
    int_c = float(np.sum(dts * c))
    eye = np.eye(d)
    margins = {
        "a_norm": math.exp(int_F) - float(_op_norm(Y[-1])),
        "b_dist_to_one": math.exp(int_F) - float(_op_norm(Y[-1] - eye)),
        "c_form_bound": math.exp(int_c) - float(_op_norm(Y[-1])),
    }
    # d): a few (t1, t2) windows, including the full range
    k1s = [0, K // 3, K // 2]
    k2s = [K, K, 2 * K // 3]
    dmargin = np.inf
    for k1, k2 in zip(k1s, k2s):
        if k1 > k2:
            continue
        sub = np.linalg.solve(Y[k1], Y[k2])
        bound = math.exp(float(np.sum(dts[k1:k2] * c[k1:k2])))
        dmargin = min(dmargin, bound - float(_op_norm(sub)))
    margins["d_window_bound"] = dmargin
    # gs): ||Y - 1|| <= (int ||F||)^{1/p} e^{int ||F||}
    for p in (1, 2, 4):
        bound = int_F ** (1.0 / p) * math.exp(int_F)
        margins[f"gs_p{p}"] = bound - float(_op_norm(Y[-1] - eye))
    if pair_F is not None:
        F2 = np.asarray(pair_F, dtype=complex)
        herm2 = bool(np.max(np.abs(F2 - np.conj(np.transpose(F2, (0, 2, 1))))) < 1e-12)
        steps2 = expm_neg_hermitian(-F2, dts)[0] if herm2 else _expm_stack(F2, dts)
        Y2 = np.eye(d, dtype=complex)
        for k in range(K):
            Y2 = Y2 @ steps2[k]
        int_F2 = float(np.sum(dts * _op_norm(F2)))
        int_diff = float(np.sum(dts * _op_norm(F - F2)))
        bound = math.exp(2.0 * int_F + int_F2) * int_diff
        margins["schlesi_stability"] = bound - float(_op_norm(Y[-1] - Y2))
    violations = {k: v for k, v in margins.items() if v < -slack}
    return {"margins": margins, "violations": violations, "int_F": int_F}


def _expm_stack(F, dts):
    from scipy.linalg import expm

    return np.stack([expm(dts[k] * F[k]) for k in range(F.shape[0])])


def _random_hermitian_path(rng, d, K, scale):
    """Smooth random Hermitian-valued grid function: constant + two
    trigonometric modes with random Hermitian coefficients."""
    def herm():
        A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return scale * (A + A.conj().T) / (2.0 * math.sqrt(d))

    A0, A1, A2 = herm(), herm(), herm()
    s = np.linspace(0.0, 1.0, K)
    w1, w2 = rng.uniform(0.5, 3.0, size=2)
    p1, p2 = rng.uniform(0.0, 2 * np.pi, size=2)
    F = (A0[None] + np.cos(w1 * 2 * np.pi * s + p1)[:, None, None] * A1
         + np.sin(w2 * 2 * np.pi * s + p2)[:, None, None] * A2)
    return F


def appendix_c_suite(trials=200, d=4, t=1.0, grid_n=64, seed=7, slack=1e-8):
    """Randomized trials of the full bound set; returns a report dict with
    per-inequality worst margins and any violating trial seeds."""
    report = {"trials": trials, "d": d, "t": t, "grid_n": grid_n, "seed": seed,
              "violations": [], "worst_margins": {}}
    times = np.linspace(0.0, t, grid_n + 1)
    worst = {}
    for i in range(trials):
        rng = stream(RngKey(seed, i))
        scale = rng.uniform(0.3, 1.5)
        F = _random_hermitian_path(rng, d, grid_n, scale)
        F2 = _random_hermitian_path(rng, d, grid_n, scale)
        out = appendix_c_check(F, times, slack=slack, pair_F=F2)
        for kname, m in out["margins"].items():
            if kname not in worst or m < worst[kname]:
                worst[kname] = m
        if out["violations"]:
            report["violations"].append({"trial": i, **out["violations"]})
    report["worst_margins"] = worst
    report["passed"] = not report["violations"]
    return report
