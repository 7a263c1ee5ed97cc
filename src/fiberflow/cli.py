"""Command-line front end.

Every subcommand reads a plain key=value config file (--config) with CLI
flags taking precedence, runs one estimator or checker, and emits a
versioned JSON document: {"schema": 1, "command", "config", ...result...,
"wallTimeMs"}.  Identical argv (including --seed) produce identical JSON
except for wallTimeMs; --workers changes scheduling only, never values.

Exit codes: 0 success, 1 usage/config error, 2 a checked inequality was
violated (so CI can tell math regressions from plumbing failures), 3 a
numerical failure (a RuntimeError of the estimator such as a non-positive
log functional or weight underflow, a potential that returns NaN or +-inf
away from its declared singular points, or a result that JSON cannot
encode because it holds NaN or +-inf), reported as one `error:` line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .config import ConfigError, RunConfig, read_config_file
from .potentials import NonFiniteFieldError
from .rng import RngKey

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_NUMERICAL = 3

_COMMON_FLAGS = [
    ("--manifold", {}), ("--bundle-rank", {}), ("--bundle", {}), ("--beta", {}),
    ("--potential", {}), ("--section", {}), ("--section2", {}),
    ("--t", {}), ("--h", {}), ("--n", {}), ("--seed", {}), ("--workers", {}),
    ("--x", {}), ("--x-grid", {}), ("--t-grid", {}), ("--s", {}), ("--s-grid", {}),
    ("--q", {}), ("--lambda", {"dest": "lam"}), ("--k", {}), ("--r", {}),
    ("--radius", {}), ("--trials", {}), ("--out", {}), ("--format", {}),
    ("--dump-paths", {}), ("--config", {}),
]


def _build_parser():
    parser = argparse.ArgumentParser(prog="fiberflow",
                                     description="Monte Carlo Schrodinger semigroups "
                                                 "on model manifolds")
    sub = parser.add_subparsers(dest="command", required=True)
    names = ["semigroup", "ground-energy", "resolvent", "domination", "smoothing",
             "identity-check", "continuity-scan", "kato-check", "exit-time"]
    for name in names:
        p = sub.add_parser(name)
        for flag, kw in _COMMON_FLAGS:
            p.add_argument(flag, **kw)
    v = sub.add_parser("validate")
    v.add_argument("target", choices=["appendix-c", "oracle"])
    for flag, kw in _COMMON_FLAGS:
        v.add_argument(flag, **kw)
    return parser


def _gather_config(ns):
    mapping = {}
    if ns.config:
        mapping.update(read_config_file(ns.config))
    for flag, kw in _COMMON_FLAGS:
        key = kw.get("dest", flag.lstrip("-").replace("-", "_"))
        if key == "config":
            continue
        val = getattr(ns, key, None)
        if val is not None:
            mapping[key] = val
    if "seed" not in mapping:
        mapping["seed"] = os.environ.get("FIBERFLOW_SEED", "0")
    if "format" in mapping and mapping["format"] not in ("json",):
        raise ConfigError("format", "only 'json' result documents are supported "
                          "(CSV is for path dumps)")
    mapping.pop("format", None)
    out = mapping.pop("out", None)
    dump = mapping.pop("dump_paths", None)
    return mapping, out, dump


class _JSONEncoder(json.JSONEncoder):
    def default(self, o):
        if isinstance(o, complex):
            return {"re": o.real, "im": o.imag}
        if isinstance(o, np.ndarray):
            if np.iscomplexobj(o):
                return {"re": o.real.tolist(), "im": o.imag.tolist()}
            return o.tolist()
        if isinstance(o, (np.integer,)):
            return int(o)
        if isinstance(o, (np.floating,)):
            return float(o)
        if isinstance(o, (np.bool_,)):
            return bool(o)
        return super().default(o)


def _emit(doc, out_path):
    # allow_nan=False: NaN and +-inf are not JSON; raises ValueError
    # before anything is written
    text = json.dumps(doc, cls=_JSONEncoder, indent=2, sort_keys=True, allow_nan=False)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _estimate_payload(est):
    val = est.value
    if isinstance(val, np.ndarray) or isinstance(val, (complex, np.complexfloating)):
        value = val
    else:
        value = float(val)
    return {
        "value": value,
        "stderr": est.stderr,
        "aliveFraction": est.alive_fraction,
        "seed": est.seed, "h": est.h, "N": est.n_samples,
        **({"extras": est.extras} if est.extras else {}),
    }


def _dump_paths_csv(path, model, bundle, x, t, h, key, count=4):
    """The first `count` paths of the run, one row per grid point up to the
    last point inside the domain; each row but a path's last carries the
    transport of the step leaving it (re;im pairs, row-major)."""
    from .paths import run_ensemble, time_grid
    from .rng import normals

    times, _ = time_grid(t, h)
    K = len(times) - 1
    res = run_ensemble(model, x, t, h, key, count, bundle=bundle, checkpoints=times[:-1])
    points = res.points.swapaxes(0, 1)  # (count, K + 1, coord_dim)
    steps = np.sqrt(np.diff(times))[:, None] * normals(key, count, (K, model.dim))
    transports = bundle.step_transport(model, points[:, :-1], steps)
    rows = ["path,step,time," + ",".join(f"coord{i}" for i in range(model.coord_dim))
            + ",alive,transport"]
    for j in range(count):
        n_rows = res.death_step[j] if res.death_step[j] >= 0 else K + 1
        for k in range(n_rows):
            tcell = ""
            if k < n_rows - 1:
                tcell = ";".join(f"{z.real:.17g};{z.imag:.17g}"
                                 for z in transports[j, k].ravel())
            coords = ",".join(f"{c:.17g}" for c in points[j, k])
            rows.append(f"{j},{k},{times[k]:.17g},{coords},{int(res.alive[k, j])},{tcell}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")


# ----------------------------------------------------------------------
# subcommand runners; each returns (payload dict, check_failed bool)


def _run_semigroup(cfg: RunConfig, dump):
    from .semigroup import fk_magnetic, fk_scalar, fk_vector

    cfg.require_model()
    t = cfg.number("t", required=True)
    h = cfg.number("h", default=max(1e-3 * t, 1e-6))
    n = cfg.integer("n", default=10000)
    workers = cfg.integer("workers", default=1)
    key = RngKey(cfg.integer("seed", default=0))
    x = cfg.points("x", required=True)[0]
    f = cfg.section
    if f is None:
        raise ConfigError("section", "required value missing")
    V = cfg.potential
    if V is None:
        raise ConfigError("potential", "required value missing")
    if dump:
        _dump_paths_csv(dump, cfg.model, cfg.bundle, x, t, h, key)
    if cfg.beta is not None:
        est = fk_magnetic(cfg.model, cfg.beta, V, f, x, t, h, n, key, workers=workers)
        kind = "magnetic"
    elif V.is_scalar and (cfg.bundle is None or cfg.bundle.trivial_transport):
        est = fk_scalar(cfg.model, V, f, x, t, h, n, key, workers=workers)
        kind = "scalar"
    else:
        est = fk_vector(cfg.model, cfg.bundle, V, f, x, t, h, n, key, workers=workers)
        kind = "vector"
    return {"estimator": kind, **_estimate_payload(est)}, False


def _run_ground_energy(cfg: RunConfig):
    from .semigroup import ground_energy

    cfg.require_model()
    t_grid = cfg.values("t_grid", required=True)
    h = cfg.number("h", default=1e-3)
    n = cfg.integer("n", default=100000)
    workers = cfg.integer("workers", default=1)
    key = RngKey(cfg.integer("seed", default=0))
    f1 = cfg.section
    f2 = cfg.section2 or cfg.section
    if f1 is None:
        raise ConfigError("section", "required value missing")
    out = ground_energy(cfg.model, cfg.potential, f1, f2, t_grid, h, n, key,
                        bundle=cfg.bundle if not cfg.bundle.trivial_transport or
                        (cfg.potential is not None and not cfg.potential.is_scalar)
                        else None,
                        beta=cfg.beta, radius=cfg.number("radius"), workers=workers)
    return {"energy": out["energy"], "stderr": out["stderr"],
            "per_time": out["per_time"], "aliveFraction": out["alive_fraction"],
            "seed": out["seed"], "h": out["h"], "N": out["n"]}, False


def _run_resolvent(cfg: RunConfig):
    from .semigroup import resolvent_apply

    cfg.require_model()
    lam = cfg.number("lam", required=True)
    k = cfg.integer("k", default=1)
    h = cfg.number("h", default=1e-3)
    n = cfg.integer("n", default=5000)
    key = RngKey(cfg.integer("seed", default=0))
    x = cfg.points("x", required=True)[0]
    est = resolvent_apply(cfg.model, cfg.bundle, cfg.potential, cfg.section, x, k,
                          lam, h, n, key, workers=cfg.integer("workers", default=1))
    failed = bool(est.extras.get("diverging_tail", False))
    return {**_estimate_payload(est), "lambda": lam, "k": k}, failed


def _run_domination(cfg: RunConfig):
    from .semigroup import domination_check

    cfg.require_model()
    t = cfg.number("t", required=True)
    h = cfg.number("h", default=max(1e-3 * t, 1e-6))
    n = cfg.integer("n", default=10000)
    key = RngKey(cfg.integer("seed", default=0))
    x = cfg.points("x", required=True)[0]
    rep = domination_check(cfg.model, cfg.bundle, cfg.potential, cfg.section, x, t,
                           h, n, key, workers=cfg.integer("workers", default=1))
    return rep, not rep["passed"]


def _run_smoothing(cfg: RunConfig):
    from .geometry import Sphere2
    from .kato import khasminskii_constants
    from .potentials import SectionSpec
    from .semigroup import heat_pq_norm_check, smoothing_norm_bound

    cfg.require_model()
    t = cfg.number("t", required=True)
    qv = cfg.raw.get("q", "inf")
    q = np.inf if qv in ("inf", "oo") else float(qv)
    key = RngKey(cfg.integer("seed", default=0))
    model = cfg.model
    probes_pq = _random_probes(model, 6, key.seed)
    pq = heat_pq_norm_check(model, t, [p.fn for p in probes_pq])
    payload = {"heat_pq": pq}
    failed = not pq["passed"]
    if cfg.potential is not None:
        if not isinstance(model, Sphere2):
            raise ConfigError("manifold", "the interacting smoothing bound is "
                              "implemented on sphere2")
        n = cfg.integer("n", default=1000)
        h = cfg.number("h", default=max(1e-3 * t, 1e-6))
        sup_v2 = _sup_negative_part(model, cfg.potential)
        kc = khasminskii_constants(model, None, strategy="sup_norm",
                                   sup_bound=max(2.0 * sup_v2, 1e-12))
        pts, w = model.quadrature(8)
        grid = pts[:: max(1, len(pts) // 32)][:32]
        probes = _random_probes(model, cfg.integer("trials", default=20), key.seed)
        rep = smoothing_norm_bound(model, cfg.potential, t, q, probes, (grid, None),
                                   h, n, key, kc,
                                   workers=cfg.integer("workers", default=1))
        payload["interacting_bound"] = rep
        failed = failed or not rep["passed"]
    return payload, failed


def _sup_negative_part(model, V):
    pts, _ = model.quadrature(24)
    return float(np.max(V.negative_norm(pts)))


def _random_probes(model, count, seed):
    """L2-normalized random probes: low-degree spherical-harmonic mixes on
    the sphere, Fourier mixes on circle/torus."""
    from .geometry import Circle, FlatTorus, Sphere2
    from .potentials import SectionSpec

    rng = np.random.default_rng(seed)
    probes = []
    for _ in range(count):
        if isinstance(model, Sphere2):
            coefs = {}
            for l in range(0, 6):
                for m in range(-l, l + 1):
                    if rng.uniform() < 0.4 or l == 0:
                        coefs[(l, m)] = rng.standard_normal() + 1j * rng.standard_normal()
            z = np.sqrt(sum(abs(c) ** 2 for c in coefs.values())) * model.radius
            coefs = {k: c / z for k, c in coefs.items()}
            probes.append(SectionSpec.scalar(_SphProbe(coefs), l2_norm=1.0,
                                             name="ylm-probe"))
        elif isinstance(model, (Circle, FlatTorus)):
            L = (2.0 * np.pi * model.radius if isinstance(model, Circle)
                 else float(np.prod(model.periods)))
            ns = rng.integers(-4, 5, size=3)
            cs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            cs /= np.sqrt(np.sum(np.abs(cs) ** 2) * L)
            probes.append(SectionSpec.scalar(_FourierProbe(ns, cs), l2_norm=1.0,
                                             name="fourier-probe"))
        else:
            raise ConfigError("manifold", "probe construction needs a compact model")
    return probes


class _SphProbe:
    def __init__(self, coefs):
        self.coefs = coefs

    def __call__(self, pts):
        from scipy.special import sph_harm_y

        r = np.linalg.norm(pts, axis=-1)
        th = np.arccos(np.clip(pts[..., 2] / r, -1.0, 1.0))
        ph = np.arctan2(pts[..., 1], pts[..., 0])
        out = np.zeros(pts.shape[:-1], dtype=complex)
        for (l, m), c in self.coefs.items():
            out = out + c * sph_harm_y(l, m, th, ph)
        return out


class _FourierProbe:
    def __init__(self, ns, cs):
        self.ns = ns
        self.cs = cs

    def __call__(self, pts):
        th = np.asarray(pts)[..., 0]
        out = np.zeros(th.shape, dtype=complex)
        for nk, ck in zip(self.ns, self.cs):
            out = out + ck * np.exp(1j * nk * th)
        return out


def _run_identity(cfg: RunConfig):
    from .semigroup import perturbation_formula_check, semigroup_identity_check

    cfg.require_model()
    s = cfg.number("s", default=0.0)
    t = cfg.number("t", required=True)
    h = cfg.number("h", default=max(1e-3 * (s + t), 1e-6))
    n = cfg.integer("n", default=10000)
    key = RngKey(cfg.integer("seed", default=0))
    x = cfg.points("x", required=True)[0]
    rep1 = semigroup_identity_check(cfg.model, cfg.bundle, cfg.potential, cfg.section,
                                    s, t, x, h, n, key,
                                    workers=cfg.integer("workers", default=1))
    rep2 = perturbation_formula_check(cfg.model, cfg.bundle, cfg.potential,
                                      cfg.section, min(s, t), max(s, t), x, h, n, key,
                                      workers=cfg.integer("workers", default=1))
    failed = not (rep1["passed"] and rep2["passed"])
    return {"semigroup_identity": rep1, "perturbation_formula": rep2}, failed


def _run_continuity(cfg: RunConfig):
    from .kato import khasminskii_constants
    from .semigroup import continuity_scan

    cfg.require_model()
    t = cfg.number("t", required=True)
    h = cfg.number("h", default=max(1e-3 * t, 1e-6))
    n = cfg.integer("n", default=1500)
    key = RngKey(cfg.integer("seed", default=0))
    grid = cfg.points("x_grid", required=True)
    s_grid = cfg.values("s_grid", default=np.array([1e-3, 1e-2, 1e-1]))
    constants = None
    if cfg.section is not None and cfg.section.l2_norm is not None:
        base = cfg.model.base if hasattr(cfg.model, "base") else cfg.model
        doubled = _doubled_negative_field(base, cfg.potential)
        if doubled is not None:
            constants = khasminskii_constants(base, doubled)
    rep = continuity_scan(cfg.model, cfg.bundle, cfg.potential, cfg.section, t, grid,
                          h, n, key, s_grid=tuple(s_grid), constants=constants,
                          workers=cfg.integer("workers", default=1))
    return rep, not rep["passed"]


def _doubled_negative_field(model, V):
    """2|V^(2)| as a quadrature-ready field for scalar named potentials."""
    from .potentials import ScalarField

    if V is None or not V.is_scalar or len(V.terms) != 1:
        return None
    f, _ = V.terms[0]
    if f.radial_profile is None:
        return None
    prof = f.radial_profile

    class _DoubledNeg:
        def __call__(self, r):
            return 2.0 * np.maximum(0.0, -prof(r))

    class _DoubledNegPts:
        def __init__(self, inner):
            self.inner = inner

        def __call__(self, pts):
            return 2.0 * np.maximum(0.0, -self.inner(pts))

    return ScalarField(_DoubledNegPts(f.fn), class_tag=f.class_tag,
                       singular_points=f.singular_points,
                       name=f"2neg({f.name})", radial_center=f.radial_center,
                       radial_profile=_DoubledNeg())


def _run_kato(cfg: RunConfig):
    from .kato import kato_report, khasminskii_constants, khasminskii_check, _default_x_grid

    cfg.require_model()
    t_grid = cfg.values("t_grid", default=np.geomspace(1e-4, 0.25, 8))
    V = cfg.potential
    if V is None or not V.is_scalar:
        raise ConfigError("potential", "kato-check needs a scalar potential")
    f = V.terms[0][0]
    x_grid = cfg.points("x_grid")
    if x_grid is None:
        center = f.radial_center if f.radial_center is not None else cfg.model.origin()
        x_grid = _default_x_grid(cfg.model, center)
    rep = kato_report(cfg.model, f, t_grid, x_grid)
    payload = {
        "tGrid": rep.t_grid, "supIntegral": rep.sup_integral,
        "fittedDecayExponent": rep.fitted_decay_exponent,
        "verdict": rep.verdict, "notes": rep.notes,
    }
    failed = rep.verdict == "failsDecay" and f.class_tag in ("kato", "bounded")
    if rep.verdict == "katoConsistent" and cfg.raw.get("n"):
        n = cfg.integer("n")
        h = cfg.number("h", default=2.5e-4)
        key = RngKey(cfg.integer("seed", default=0))
        kc = khasminskii_constants(cfg.model, f)
        chk = khasminskii_check(cfg.model, f, kc, cfg.values("t_grid", default=[0.1, 0.25]),
                                x_grid[:3], n, h, key,
                                workers=cfg.integer("workers", default=1))
        payload["khasminskii"] = {"t0": kc.t0, "cv": kc.cv, "prefactor": kc.prefactor,
                                  "empirical_passed": chk["passed"]}
        failed = failed or not chk["passed"]
    return payload, failed


def _run_exit_time(cfg: RunConfig):
    from .paths import exit_probability

    cfg.require_model()
    t = cfg.number("t", required=True)
    r = cfg.number("r", required=True)
    h = cfg.number("h", default=max(1e-3 * t, 1e-6))
    n = cfg.integer("n", default=10000)
    key = RngKey(cfg.integer("seed", default=0))
    starts = cfg.points("x_grid")
    if starts is None:
        starts = cfg.points("x", required=True)
    t_grid = cfg.values("t_grid")
    cps = [] if t_grid is None else [float(u) for u in t_grid if u < t]
    per, se, inf = exit_probability(cfg.model, starts, r, t, h, n, key,
                                    checkpoints=cps,
                                    workers=cfg.integer("workers", default=1))
    return {"perStart": per, "stderr": se, "infOverStarts": inf,
            "times": (cps + [t]), "r": r, "N": n, "h": h,
            "seed": key.seed}, False


def _run_validate(cfg: RunConfig, target):
    if target == "appendix-c":
        from .holonomy import appendix_c_suite

        rep = appendix_c_suite(trials=cfg.integer("trials", default=200),
                               seed=cfg.integer("seed", default=7))
        return rep, not rep["passed"]
    from .oracle import oracle_selfcheck

    rep = oracle_selfcheck()
    return rep, not rep["passed"]


def main(argv=None):
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    started = time.time()
    try:
        mapping, out_path, dump = _gather_config(ns)
        cfg = RunConfig.from_mapping(mapping)
        cmd = ns.command
        if cmd == "semigroup":
            payload, failed = _run_semigroup(cfg, dump)
        elif cmd == "ground-energy":
            payload, failed = _run_ground_energy(cfg)
        elif cmd == "resolvent":
            payload, failed = _run_resolvent(cfg)
        elif cmd == "domination":
            payload, failed = _run_domination(cfg)
        elif cmd == "smoothing":
            payload, failed = _run_smoothing(cfg)
        elif cmd == "identity-check":
            payload, failed = _run_identity(cfg)
        elif cmd == "continuity-scan":
            payload, failed = _run_continuity(cfg)
        elif cmd == "kato-check":
            payload, failed = _run_kato(cfg)
        elif cmd == "exit-time":
            payload, failed = _run_exit_time(cfg)
        elif cmd == "validate":
            payload, failed = _run_validate(cfg, ns.target)
        else:  # pragma: no cover
            raise ConfigError("command", f"unknown command {cmd!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonFiniteFieldError as exc:
        print(f"error: potential: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    doc = {"schema": 1, "command": ns.command, "config": cfg.echo(), **payload,
           "wallTimeMs": int((time.time() - started) * 1000)}
    try:
        _emit(doc, out_path)
    except ValueError as exc:
        print(f"error: the result holds a non-finite number ({exc})", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_CHECK_FAILED if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
