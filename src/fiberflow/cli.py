"""Command-line front end.

Every subcommand reads a plain key=value config file (--config) with CLI
flags taking precedence, runs one estimator or checker, and emits a
versioned JSON document: {"schema": 1, "command", "config", ...result...,
"wallTimeMs"}.  Identical argv (including --seed) produce identical JSON
except for wallTimeMs; --workers changes scheduling only, never values.

Commands are declared in one table, COMMANDS.  A row names the command's
runner, the keys it requires and its defaults for n and h; the parser and
`main` read the same table.  `main` checks the required keys, hands the
runner the shared keys (t, h, n, workers, the seed's RngKey and x, each
parsed once) and builds the document.

Exit codes: 0 success, 1 usage/config error, 2 a checked inequality was
violated (so CI can tell math regressions from plumbing failures), 3 a
numerical failure (a RuntimeError of the estimator such as a non-positive
log functional or weight underflow, a potential that returns NaN or +-inf
away from its declared singular points, or a result that JSON cannot
encode because it holds NaN or +-inf), reported as one `error:` line.  A
reader that closes stdout early (`| head`) ends the run quietly with its
own code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import cached_property
from typing import Callable, NamedTuple

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
    ("--lambda", {"dest": "lam"}), ("--k", {}), ("--r", {}),
    ("--radius", {}), ("--trials", {}), ("--out", {}), ("--dump-paths", {}),
    ("--config", {}),
]


class _Command(NamedTuple):
    run: Callable              # (cfg, run) -> (payload dict, check failed)
    required: tuple = ()       # keys that must be given, checked in this order
    n: int | None = None       # default path count
    h: object = None           # default step: a number or a function of the _Run
    targets: tuple = ()        # choices of a positional `target`, if any


class _Run:
    """The inputs every command shares.  Construction checks the command's
    required keys; t, h, n, workers, the seed's RngKey and the points x are
    parsed once each, on first use, so a key a command never reads is never parsed."""

    def __init__(self, command: _Command, cfg: RunConfig, target=None, dump=None):
        for key in command.required:
            if key not in cfg.raw:
                raise ConfigError(key, "required value missing")
        self.command, self.cfg, self.target, self.dump = command, cfg, target, dump

    t = cached_property(lambda self: self.cfg.number("t", required=True))
    n = cached_property(lambda self: self.cfg.integer("n", default=self.command.n))
    workers = cached_property(lambda self: self.cfg.integer("workers", default=1))
    key = cached_property(lambda self: RngKey(self.cfg.integer("seed")))
    x = cached_property(lambda self: self.cfg.points("x", required=True))

    @cached_property
    def h(self):
        h = self.command.h
        return self.cfg.number("h", default=h(self) if callable(h) else h)


def _build_parser():
    parser = argparse.ArgumentParser(prog="fiberflow",
                                     description="Monte Carlo Schrodinger semigroups "
                                                 "on model manifolds")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name)
        if command.targets:
            p.add_argument("target", choices=command.targets)
        for flag, kw in _COMMON_FLAGS:
            p.add_argument(flag, **kw)
    return parser


def _gather_config(ns):
    mapping = read_config_file(ns.config) if ns.config else {}
    for flag, kw in _COMMON_FLAGS:
        key = kw.get("dest", flag.lstrip("-").replace("-", "_"))
        if key != "config" and getattr(ns, key) is not None:
            mapping[key] = getattr(ns, key)
    mapping.setdefault("seed", os.environ.get("FIBERFLOW_SEED", "0"))
    return mapping, mapping.pop("out", None), mapping.pop("dump_paths", None)


class _JSONEncoder(json.JSONEncoder):
    def default(self, o):
        if isinstance(o, complex):
            return {"re": o.real, "im": o.imag}
        if isinstance(o, np.ndarray) and np.iscomplexobj(o):
            return {"re": o.real.tolist(), "im": o.imag.tolist()}
        if isinstance(o, (np.ndarray, np.generic)):
            return o.tolist()  # a Python scalar for a numpy scalar
        return super().default(o)


def _write_text(path, text, key):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(key, f"cannot write {path!r}: {exc.strerror or exc}") from None


def _emit(doc, out_path):
    try:
        text = json.dumps(doc, cls=_JSONEncoder, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        # NaN and +-inf are not JSON: fail before anything is written
        raise RuntimeError(f"the result holds a non-finite number ({exc})") from None
    if out_path:
        _write_text(out_path, text + "\n", "out")
        return
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader has gone (`| head`): the document is not wanted, and
        # stdout goes to devnull so that the exit flush stays quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _estimate_payload(est):
    value = est.value
    return {
        "value": value if isinstance(value, (np.ndarray, complex, np.complexfloating))
        else float(value),
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
    transports = bundle.step_transport(model, points[:, :-1], steps[None])[1][0]
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
    _write_text(path, "\n".join(rows) + "\n", "dump_paths")


# ----------------------------------------------------------------------
# command runners; each returns (payload dict, check_failed bool)


def _run_semigroup(cfg: RunConfig, run: _Run):
    from .semigroup import fk_vector

    x, n, workers = run.x[0], run.n, run.workers  # any bad key fails before the dump
    if run.dump:
        _dump_paths_csv(run.dump, cfg.model, cfg.bundle, x, run.t, run.h, run.key)
    est = fk_vector(cfg.model, cfg.bundle, cfg.potential, cfg.section, x, run.t, run.h, n,
                    run.key, workers=workers)
    return _estimate_payload(est), False


def _run_ground_energy(cfg: RunConfig, run: _Run):
    from .semigroup import ground_energy

    # the slope fit takes the last half of the (distinct) times: two at least
    t_grid = cfg.values("t_grid")
    if len(t_grid) < 4:
        raise ConfigError("t_grid", f"need at least 4 distinct times, got {len(t_grid)}")
    out = ground_energy(cfg.model, cfg.potential, cfg.section, cfg.section2 or cfg.section,
                        t_grid, run.h, run.n, run.key, bundle=cfg.bundle,
                        radius=cfg.number("radius"), workers=run.workers)
    return {"energy": out["energy"], "stderr": out["stderr"],
            "per_time": out["per_time"], "aliveFraction": out["alive_fraction"],
            "seed": out["seed"], "h": out["h"], "N": out["n"]}, False


def _run_resolvent(cfg: RunConfig, run: _Run):
    from .semigroup import resolvent_apply

    lam, k = cfg.number("lam"), cfg.integer("k", default=1)
    est = resolvent_apply(cfg.model, cfg.bundle, cfg.potential, cfg.section, run.x[0], k,
                          lam, run.h, run.n, run.key, workers=run.workers)
    failed = bool(est.extras.get("diverging_tail", False))
    return {**_estimate_payload(est), "lambda": lam, "k": k}, failed


def _run_domination(cfg: RunConfig, run: _Run):
    from .semigroup import domination_check

    rep = domination_check(cfg.model, cfg.bundle, cfg.potential, cfg.section, run.x[0],
                           run.t, run.h, run.n, run.key, workers=run.workers)
    return rep, not rep["passed"]


def _run_smoothing(cfg: RunConfig, run: _Run):
    from .geometry import Sphere2
    from .kato import negative_part_exponent
    from .semigroup import heat_pq_norm_check, smoothing_norm_bound

    t, model, V = run.t, cfg.model, cfg.potential
    if t <= 0:  # the heat kernel's smoothing bounds hold for t > 0
        raise ConfigError("t", f"need t > 0, got {cfg.raw['t']!r}")
    probes_pq = _random_probes(model, 6, run.key.seed)
    pq = heat_pq_norm_check(model, t, [p.fn for p in probes_pq])
    payload = {"heat_pq": pq}
    failed = not pq["passed"]
    if V is not None:
        if not isinstance(model, Sphere2):
            raise ConfigError("manifold", "the interacting smoothing bound is "
                              "implemented on sphere2")
        n, h = run.n, run.h
        cv = negative_part_exponent(model, V)
        if cv is None:
            raise ConfigError("potential", f"no Khas'minskii bound for the negative part of "
                              f"{V.name!r} on {model.kind}: it is singular")
        pts, _ = model.quadrature(8)
        grid = pts[:: max(1, len(pts) // 32)][:32]
        probes = _random_probes(model, cfg.integer("trials", default=20), run.key.seed)
        rep = smoothing_norm_bound(model, V, t, probes, grid, h, n, run.key, cv,
                                   workers=run.workers)
        payload["interacting_bound"] = rep
        failed = failed or not rep["passed"]
    return payload, failed


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


def _run_identity(cfg: RunConfig, run: _Run):
    from .semigroup import perturbation_formula_check, semigroup_identity_check

    s, t, x = cfg.number("s", default=0.0), run.t, run.x[0]
    rep1 = semigroup_identity_check(cfg.model, cfg.bundle, cfg.potential, cfg.section,
                                    s, t, x, run.h, run.n, run.key, workers=run.workers)
    rep2 = perturbation_formula_check(cfg.model, cfg.bundle, cfg.potential, cfg.section,
                                      min(s, t), max(s, t), x, run.h, run.n, run.key,
                                      workers=run.workers)
    failed = not (rep1["passed"] and rep2["passed"])
    return {"semigroup_identity": rep1, "perturbation_formula": rep2}, failed


def _run_continuity(cfg: RunConfig, run: _Run):
    from .kato import negative_part_exponent
    from .semigroup import continuity_scan

    grid = cfg.points("x_grid")
    s_grid = cfg.values("s_grid", default=np.array([1e-3, 1e-2, 1e-1]))
    # part (iii), the global bound, needs the section's L2 norm and cv
    cv = (negative_part_exponent(cfg.model, cfg.potential)
          if cfg.section.l2_norm is not None else None)
    rep = continuity_scan(cfg.model, cfg.bundle, cfg.potential, cfg.section, run.t, grid,
                          run.h, run.n, run.key, s_grid=tuple(s_grid), cv=cv,
                          workers=run.workers)
    return rep, not rep["passed"]


def _run_kato(cfg: RunConfig, run: _Run):
    from .kato import kato_report, khasminskii_constants, khasminskii_check, _default_x_grid

    t_grid = cfg.values("t_grid", default=np.geomspace(1e-4, 0.25, 8))
    if len(t_grid) < 2:  # the decay exponent is the slope of a fit over the times
        raise ConfigError("t_grid", f"need at least 2 distinct times, got {len(t_grid)}")
    if np.any(t_grid <= 0):  # the fit is of log sup-integrals, 0 at t = 0
        raise ConfigError("t_grid", f"need t_grid > 0, got {cfg.raw['t_grid']!r}")
    if cfg.potential.rank != 1:
        raise ConfigError("potential", "kato-check needs a scalar potential")
    f = cfg.potential.field()
    x_grid = cfg.points("x_grid")
    if x_grid is None:
        x_grid = _default_x_grid(cfg.model, f)
    try:
        rep = kato_report(cfg.model, f, t_grid, x_grid)
    except NotImplementedError as exc:  # no Kato quadrature rule on this model
        raise ConfigError("manifold", str(exc)) from None
    payload = {"tGrid": rep.t_grid, "supIntegral": rep.sup_integral,
               "fittedDecayExponent": rep.fitted_decay_exponent,
               "verdict": rep.verdict, "notes": rep.notes}
    failed = rep.verdict == "failsDecay" and f.class_tag in ("kato", "bounded")
    # the empirical Khasminskii check runs only when n is given
    if rep.verdict == "katoConsistent" and run.n is not None:
        kc = khasminskii_constants(cfg.model, f)
        chk = khasminskii_check(cfg.model, f, kc, cfg.values("t_grid", default=[0.1, 0.25]),
                                x_grid[:3], run.n, run.h, run.key, workers=run.workers)
        payload["khasminskii"] = {"t0": kc.t0, "cv": kc.cv, "prefactor": kc.prefactor,
                                  "empirical_passed": chk["passed"]}
        failed = failed or not chk["passed"]
    return payload, failed


def _run_exit_time(cfg: RunConfig, run: _Run):
    from .paths import exit_probability

    t, r = run.t, cfg.number("r")
    starts = cfg.points("x_grid")
    if starts is None:
        starts = run.x
    base = cfg.model.base
    dmax = float(np.max(base.distance(starts, base.origin())))
    if r <= dmax:  # the ball is centred at the origin and must hold every start
        raise ConfigError("r", f"ball radius r={r:g} must exceed max start distance {dmax:g}")
    t_grid = cfg.values("t_grid")
    cps = [] if t_grid is None else [float(u) for u in t_grid if u < t]
    per, se, inf = exit_probability(cfg.model, starts, r, t, run.h, run.n, run.key,
                                    checkpoints=cps, workers=run.workers)
    return {"perStart": per, "stderr": se, "infOverStarts": inf, "times": (cps + [t]),
            "r": r, "N": run.n, "h": run.h, "seed": run.key.seed}, False


def _run_validate(cfg: RunConfig, run: _Run):
    if run.target == "appendix-c":
        from .holonomy import appendix_c_suite

        rep = appendix_c_suite(trials=cfg.integer("trials", default=200), seed=run.key.seed)
    else:
        from .oracle import oracle_selfcheck

        rep = oracle_selfcheck()
    return rep, not rep["passed"]


def _h_of_t(run):
    return max(1e-3 * run.t, 1e-6)


def _h_of_s_t(run):
    return max(1e-3 * (run.cfg.number("s", default=0.0) + run.t), 1e-6)


# command: (runner, required keys, default n, default h)
COMMANDS = {
    "semigroup": _Command(_run_semigroup, ("manifold", "t", "x", "section", "potential"),
                          10000, _h_of_t),
    "ground-energy": _Command(_run_ground_energy, ("manifold", "t_grid", "section",
                                                   "potential"), 100000, 1e-3),
    "resolvent": _Command(_run_resolvent, ("manifold", "lam", "x", "section", "potential"),
                          5000, 1e-3),
    "domination": _Command(_run_domination, ("manifold", "t", "x", "section", "potential"),
                           10000, _h_of_t),
    "smoothing": _Command(_run_smoothing, ("manifold", "t"), 1000, _h_of_t),
    "identity-check": _Command(_run_identity, ("manifold", "t", "x", "section", "potential"),
                               10000, _h_of_s_t),
    "continuity-scan": _Command(_run_continuity, ("manifold", "t", "x_grid", "section",
                                                  "potential"), 1500, _h_of_t),
    "kato-check": _Command(_run_kato, ("manifold", "potential"), None, 2.5e-4),
    "exit-time": _Command(_run_exit_time, ("manifold", "t", "r"), 10000, _h_of_t),
    "validate": _Command(_run_validate, targets=("appendix-c", "oracle")),
}


def main(argv=None):
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    started = time.time()
    command = COMMANDS[ns.command]
    try:
        mapping, out_path, dump = _gather_config(ns)
        cfg = RunConfig.from_mapping(mapping)
        payload, failed = command.run(cfg, _Run(command, cfg, getattr(ns, "target", None),
                                                dump))
        _emit({"schema": 1, "command": ns.command, "config": cfg.echo(), **payload,
               "wallTimeMs": int((time.time() - started) * 1000)}, out_path)
    except NonFiniteFieldError as exc:
        print(f"error: potential: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, NotImplementedError) as exc:  # ConfigError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_CHECK_FAILED if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
