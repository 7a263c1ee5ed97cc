"""Acceptance suite: one test per exit criterion, each printing a single
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Tolerances are pinned here, not calibrated at runtime.  Monte Carlo
criteria state their error bands as 3 standard errors around oracle
values computed by the independent solvers in fiberflow.oracle."""

import json
import math
import time

import numpy as np

from fiberflow.bundles import trivial_bundle
from fiberflow.cli import main as cli_main
from fiberflow.geometry import Circle, Euclidean, Sphere2, ball
from fiberflow.holonomy import appendix_c_suite
from fiberflow.kato import (_default_x_grid, kato_report, khasminskii_check,
                            khasminskii_constants)
from fiberflow.oracle import (exit_survival_interval, interval_operator,
                              richardson_ground_energy)
from fiberflow.paths import exit_probability, run_ensemble
from fiberflow.potentials import (PotentialSpec, ScalarField, angle_form,
                                  constant_field, constant_section, coulomb_field,
                                  harmonic_field, harmonic_ground_section,
                                  inverse_square_field, SectionSpec)
from fiberflow.rng import RngKey
from fiberflow.semigroup import (continuity_scan, domination_check, fk_scalar,
                                 ground_energy, heat_pq_norm_check,
                                 perturbation_formula_check,
                                 semigroup_identity_check, smoothing_norm_bound)

KEY = RngKey(20260810)
E1 = Euclidean(1)


def report(num, ok, detail):
    line = f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_appendix_c_suite():
    t0 = time.time()
    rep = appendix_c_suite(trials=200, d=4, t=1.0, grid_n=64, seed=7, slack=1e-8)
    wall = time.time() - t0
    ok = rep["passed"] and wall < 10.0
    report(1, ok, f"appendix-C 200 trials, 0 violations required, got "
                  f"{len(rep['violations'])}; runtime {wall:.1f}s < 10s")


def test_criterion_02_harmonic_ground_energy():
    t0 = time.time()
    v = harmonic_field(E1, 1.0)
    phi0 = harmonic_ground_section(1.0)
    out = ground_energy(E1, v, phi0, phi0, np.arange(0.5, 6.01, 0.5), 1e-3,
                        100000, KEY, radius=8.0)
    rel = abs(out["energy"] - 0.5) / 0.5
    build = lambda n: interval_operator(-10.0, 10.0, n, lambda x: 0.5 * x**2)
    e_fd = richardson_ground_energy(build, 1024)
    wall = time.time() - t0
    ok = rel < 0.05 and abs(e_fd - 0.5) < 1e-4 and wall < 300.0
    report(2, ok, f"harmonic ground energy {out['energy']:.4f} (rel err "
                  f"{100 * rel:.2f}% < 5%), FD oracle {e_fd:.6f} within 1e-4, "
                  f"runtime {wall:.0f}s < 300s")


def test_criterion_03_mehler_benchmark():
    v = harmonic_field(E1, 1.0)
    phi0 = harmonic_ground_section(1.0)
    est = fk_scalar(E1, v, phi0, np.zeros(1), 1.0, 1e-3, 100000, KEY)
    ref = 0.45558
    dev = abs(float(np.real(est.value)) - ref)
    ok = dev < 3 * est.stderr + 5e-6 and est.stderr < 0.01 * ref
    report(3, ok, f"Mehler value {float(np.real(est.value)):.5f} vs {ref}, "
                  f"|dev| {dev:.2e} <= 3se {3 * est.stderr:.2e}, "
                  f"se/value {est.stderr / ref:.3%} < 1%")


def test_criterion_04_magnetic_circle():
    c = Circle(1.0)
    one = constant_section(1.0)
    tg = np.arange(0.5, 6.01, 0.5)
    gm = ground_energy(c, constant_field(0.0), one, one, tg, 1e-3, 30000, KEY,
                       beta=angle_form(0.5))
    g0 = ground_energy(c, constant_field(0.0), one, one, tg, 1e-3, 30000, KEY,
                       beta=angle_form(0.0))
    rel = abs(gm["energy"] - 0.125) / 0.125
    ordered = gm["energy"] >= g0["energy"] - 3 * math.hypot(gm["stderr"], g0["stderr"])
    ok = rel < 0.10 and ordered
    report(4, ok, f"magnetic circle a=0.5 energy {gm['energy']:.4f} "
                  f"(rel err {100 * rel:.1f}% < 10%), diamagnetic ordering "
                  f"{gm['energy']:.4f} >= {g0['energy']:.4f} - 3se")


def test_criterion_05_per_sample_domination():
    e2 = Euclidean(2)
    rng = np.random.default_rng(5)

    def herm():
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        return 0.5 * (A + A.conj().T)

    class _S:
        def __init__(self, w, axis):
            self.w, self.axis = w, axis

        def __call__(self, pts):
            return np.sin(self.w * np.asarray(pts)[..., self.axis])

    V = PotentialSpec(rank=2, const=herm(),
                      terms=[(ScalarField(_S(1.7, 0)), herm()),
                             (ScalarField(_S(2.3, 1)), herm())])
    f2 = constant_section([1.0, 1.0], rank=2)
    rep = domination_check(e2, trivial_bundle(2), V, f2, np.zeros(2), 0.5, 1e-3,
                           10000, KEY)
    ok = rep["passed"] and rep["violations"] == 0
    report(5, ok, f"per-sample domination over 10^4 paths, d=2 random Hermitian "
                  f"field: {rep['violations']} violations beyond 1e-9 "
                  f"(worst margin {rep['worst_margin']:.2e})")


def test_criterion_06_kato_checks():
    e3 = Euclidean(3)
    xg = _default_x_grid(e3, np.zeros(3))
    t_grid = np.geomspace(1e-4, 0.25, 8)
    coulomb = coulomb_field(e3, 0.5)
    rep_c = kato_report(e3, coulomb, t_grid, xg)
    rep_n = kato_report(e3, inverse_square_field(e3, 0.5), t_grid, xg)
    kc = khasminskii_constants(e3, coulomb)
    chk = khasminskii_check(e3, coulomb, kc, [0.1, 0.25], xg, 6000, 2.5e-4, KEY)
    ok = (rep_c.verdict == "katoConsistent"
          and abs(rep_c.fitted_decay_exponent - 0.5) <= 0.1
          and rep_n.verdict == "failsDecay"
          and kc.prefactor == 2.0
          and chk["passed"])
    report(6, ok, f"Coulomb katoConsistent with exponent "
                  f"{rep_c.fitted_decay_exponent:.3f} (0.5 +- 0.1); |y|^-2 "
                  f"verdict {rep_n.verdict}; Khas'minskii bound 2e^(t*{kc.cv:.3f}) "
                  f"holds empirically at all grid points: {chk['passed']}")


def test_criterion_07_smoothing_norms():
    s2 = Sphere2(1.0)
    t = 0.5
    from fiberflow.cli import _random_probes

    pq_probes = [p.fn for p in _random_probes(s2, 6, 11)]
    pq_probes.append(lambda pts: np.ones(pts.shape[:-1]))
    pq = heat_pq_norm_check(s2, t, pq_probes, tol=1e-6)

    class _Z:
        def __call__(self, pts):
            return 0.8 * np.asarray(pts)[..., 2]

    v = ScalarField(_Z(), class_tag="bounded", name="z-linear")
    V = PotentialSpec.scalar(v)
    # proof-derived D = C(2|V^(2)|)/2; |V^(2)| <= 0.8 on the unit sphere
    kc = khasminskii_constants(s2, v, strategy="sup_norm", sup_bound=1.6)
    probes = _random_probes(s2, 20, 13)
    pts, _ = s2.quadrature(8)
    grid = pts[:: max(1, len(pts) // 32)][:32]
    rep = smoothing_norm_bound(s2, V, t, probes, grid, 5e-4, 1500, KEY, kc)
    ok = pq["passed"] and rep["passed"]
    report(7, ok, f"heat p,q-norm bounds on sphere2 (4 pairs, 1e-6): "
                  f"{pq['passed']}; L2->Linf bound sqrt(2) C_t^(1/2) e^(tD) with "
                  f"D={rep['D']:.4f} holds for 20 probes: {rep['passed']}")


def test_criterion_08_identity_and_perturbation():
    v = harmonic_field(E1, 1.0)
    phi0 = harmonic_ground_section(1.0)
    r1 = semigroup_identity_check(E1, None, v, phi0, 0.5, 0.5, np.zeros(1), 1e-3,
                                  10000, KEY)
    r2 = perturbation_formula_check(E1, None, v, phi0, 0.3, 0.6, np.zeros(1), 1e-3,
                                    10000, KEY)
    e2 = Euclidean(2)
    pz = np.diag([1.0, -1.0])
    px = np.array([[0.0, 1.0], [1.0, 0.0]])

    class _C:
        def __call__(self, pts):
            return np.cos(1.1 * np.asarray(pts)[..., 0])

    V2 = PotentialSpec(rank=2, const=0.2 * np.eye(2) + 0.1 * px,
                       terms=[(ScalarField(_C()), 0.4 * pz)])
    f2 = constant_section([1.0, 0.5], rank=2)
    r3 = semigroup_identity_check(e2, trivial_bundle(2), V2, f2, 0.3, 0.3,
                                  np.zeros(2), 1e-3, 10000, KEY)
    r4 = perturbation_formula_check(e2, trivial_bundle(2), V2, f2, 0.25, 0.5,
                                    np.zeros(2), 1e-3, 10000, KEY)
    # degenerate cases collapse to shared-stream one-shot runs, exactly
    r5 = semigroup_identity_check(E1, None, v, phi0, 0.0, 0.7, np.zeros(1), 1e-3,
                                  3000, KEY)
    r6 = perturbation_formula_check(E1, None, v, phi0, 0.6, 0.6, np.zeros(1), 1e-3,
                                    3000, KEY)
    ok = all(r["passed"] for r in (r1, r2, r3, r4)) \
        and r5["exact_degenerate"] and r5["difference"] == 0.0 \
        and r6["exact_degenerate"]
    report(8, ok, f"semigroup identity / perturbation formula within 3 combined "
                  f"se (scalar HO and d=2): diffs {r1['difference']:.1e}, "
                  f"{r2['difference']:.1e}, {r3['difference']:.1e}, "
                  f"{r4['difference']:.1e}; degenerate cases exact")


def test_criterion_09_exit_times():
    t, h, n = 1.0, 5e-5, 10000
    per, se, _ = exit_probability(E1, np.zeros((1, 1)), 1.0, t, h, n, KEY,
                                  checkpoints=[0.25, 0.5])
    ref = exit_survival_interval(1.0, 1.0)
    dev = abs(per[-1, 0] - ref)
    three_se = 3 * se[-1, 0]
    mono = per[0, 0] >= per[1, 0] - 3 * np.max(se) and \
        per[1, 0] >= per[2, 0] - 3 * np.max(se)
    per0, _, inf0 = exit_probability(E1, np.zeros((1, 1)), 1.0, 1e-4, 1e-6, 3000,
                                     KEY)
    ok = dev < three_se and mono and inf0[-1] >= 0.999
    report(9, ok, f"exit survival {per[-1, 0]:.4f} vs reflection series "
                  f"{ref:.4f} (|dev| {dev:.4f} < 3se {three_se:.4f}); "
                  f"monotone in t: {mono}; t->0 limit {inf0[-1]:.4f} >= 0.999")


def test_criterion_10_continuity_scan():
    e3 = Euclidean(3)
    dom = ball(e3, 1.0)
    v = coulomb_field(e3, 0.5)
    V = PotentialSpec.scalar(v)
    rng = np.random.default_rng(3)
    dirs = rng.standard_normal((32, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    grid = dirs * np.linspace(0.05, 0.7, 32)[:, None]
    volball = 4.0 / 3.0 * np.pi

    class _Unit:
        def __call__(self, pts):
            return np.full(pts.shape[:-1], volball**-0.5)

    fsec = SectionSpec.scalar(_Unit(), norm_bound=volball**-0.5, l2_norm=1.0,
                              name="unit-const")
    kc2 = khasminskii_constants(e3, coulomb_field(e3, 1.0))  # 2|v^(2)|
    rep = continuity_scan(dom, None, V, fsec, 0.25, grid, 2.5e-4, 1200, KEY,
                          s_grid=(1e-3, 1e-2, 1e-1), constants=kc2)
    dev = rep["holonomy_deviation"]
    ok = rep["passed"]
    report(10, ok, f"sup E||1-V_s||^2 = {dev['sup_E_norm_sq'][0]:.2e} at s=1e-3 "
                   f"(< 0.05), monotone {dev['monotone']}; modulus ratio "
                   f"{rep['modulus']['ratio']:.2f} in [1,4]; global bound "
                   f"{rep['global_bound']['bound']:.3f} holds: "
                   f"{rep['global_bound']['passed']}")


def test_criterion_11_reproducibility_and_h_refinement(tmp_path, capsys):
    argv = ["semigroup", "--manifold", "euclidean(m=1)", "--potential",
            "harmonic(1.0)", "--section", "harmonic_ground(1.0)", "--x", "0",
            "--t", "0.5", "--h", "1e-3", "--n", "5000", "--seed", "77"]
    out1, out4 = tmp_path / "w1.json", tmp_path / "w4.json"
    assert cli_main(argv + ["--workers", "1", "--out", str(out1)]) == 0
    assert cli_main(argv + ["--workers", "4", "--out", str(out4)]) == 0
    d1 = json.loads(out1.read_text())
    d4 = json.loads(out4.read_text())
    for d in (d1, d4):
        d.pop("wallTimeMs")
        d["config"].pop("workers")
    identical = d1 == d4
    # h-refinement on the Mehler benchmark with common paths: strides of one
    # fine path set realize the coarse-h estimators exactly
    v = harmonic_field(E1, 1.0)
    phi0 = harmonic_ground_section(1.0)
    res = run_ensemble(E1, np.zeros(1), 1.0, 1e-3, KEY, 60000,
                       scalar_fields=(v,), strides=(1, 2, 4))
    fe = phi0(res.points[-1])
    ref = math.exp(-0.5) * np.pi**-0.25
    bias, se = {}, {}
    for s in (1, 2, 4):
        w = np.exp(-res.integrals[(0, s)][-1]) * fe
        bias[s] = abs(w.mean() - ref)
        se[s] = w.std(ddof=1) / math.sqrt(len(w))
    decreasing = bias[2] <= bias[4] + 3 * se[4] and bias[1] <= bias[2] + 3 * se[2]
    ok = identical and decreasing
    report(11, ok, f"workers 1 vs 4 JSON identical: {identical}; h-refinement "
                   f"bias h=(4,2,1)e-3: {bias[4]:.2e}, {bias[2]:.2e}, "
                   f"{bias[1]:.2e} decreasing within noise: {decreasing}")
