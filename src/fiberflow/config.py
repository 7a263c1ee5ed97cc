"""Plain-text specification grammars and the run configuration.

The CLI and config files name geometries, potentials, sections and
magnetic forms with a small call-expression grammar, whose EBNF is in the
README.  Each builder declares its parameters in a table, name ->
(builder, ((param, default, kind), ...)), and one binder, `_call`, reads
every call against it: arguments by position, then by keyword, each number
read, checked and converted by its kind.  The terms of a scalar sum join
with "+" only: a negative weight goes in the coefficient (harmonic(1) +
-1), and harmonic(1) - 1 is rejected.  Unknown keys, names or arguments
are rejected with the offending key named.  A parsed RunConfig echoes back
as canonical key=value text that re-parses to an identical configuration.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import geometry, potentials
from .bundles import BundleSpec, magnetic_bundle, tangent_bundle, trivial_bundle
from .potentials import (OneForm, PotentialSpec, ScalarField, SectionSpec, angle_form,
                         constant_form, constant_section, gaussian_section,
                         harmonic_ground_section, landau_form)

__all__ = ["ConfigError", "parse_manifold", "parse_potential", "parse_section",
           "parse_beta", "parse_points", "RunConfig"]

# fixed, so that whether a config is valid does not depend on the host
_MAX_WORKERS = 64
_MAX_DIM = 32      # dimensions of a manifold
_MAX_GRID = 4096   # points of auto:<n>
_MAX_STEPS = 10**7  # steps of a given h


class ConfigError(ValueError):
    """Configuration error naming the offending key."""

    def __init__(self, key, message):
        self.key = key
        super().__init__(f"config key '{key}': {message}")


def _split_call(text, key):
    """'name(arg-string)' -> (name, arg-string); tolerates nested parens."""
    text = text.strip()
    m = re.match(r"^([a-zA-Z_][a-zA-Z0-9_]*)\s*\((.*)\)$", text, re.S)
    if not m:
        raise ConfigError(key, f"expected name(...) call syntax, got {text!r}")
    return m.group(1), m.group(2).strip()


def _split_top_level(s, seps=","):
    """Split on separators not enclosed in parentheses/brackets."""
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch in seps and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def _finite_number(key, text):
    try:
        v = float(text)
    except ValueError:
        raise ConfigError(key, f"expected a number, got {text!r}") from None
    if not math.isfinite(v):
        raise ConfigError(key, f"expected a finite number, got {text!r}")
    return v


def _integer(key, text):
    v = _finite_number(key, text)
    if v != int(v):
        raise ConfigError(key, f"expected an integer, got {text!r}")
    return int(v)


# argument kinds: (reader(key, text), whether the parameter takes a list)
NUM, INT, TEXT = (_finite_number, False), (_integer, False), (lambda key, text: text, False)
NUMS = (_finite_number, True)
MANIFOLD = (lambda key, text: parse_manifold(text, key), False)


def _call(text, key, table, *lead):
    """builder(*lead, *args) for the call `text`, bound to the parameters of
    its table row; a default of ... marks a required one.  Bare arguments
    take the parameters in order until the first keyword; a trailing list
    parameter takes every further one, so torus(l=1,2) keeps both periods.
    Unknown, repeated, surplus and missing arguments and a ValueError of the
    builder are errors naming `key`."""
    name, args = _split_call(text, key)
    if name not in table:
        raise ConfigError(key, f"unknown {name!r}; expected one of {', '.join(table)}")
    builder, params = table[name]
    names = [p for p, _, _ in params]
    bound, keyword = {}, False
    for item in _split_top_level(args):
        kw = re.match(r"([a-zA-Z_]\w*)\s*=(.*)", item, re.S)
        if kw:
            param, item, keyword = kw.group(1), kw.group(2).strip(), True
            if param not in names:
                raise ConfigError(key, f"{name}() has no argument {param!r}")
            if param in bound:
                raise ConfigError(key, f"{name}() got {param!r} twice")
            bound[param] = [item]
        elif not keyword and len(bound) < len(params):
            bound[names[len(bound)]] = [item]
        elif params and params[-1][2][1]:
            bound.setdefault(names[-1], []).append(item)
        else:
            raise ConfigError(key, f"{name}() takes {len(params)} argument(s), not {item!r}")
    values = []
    for param, default, (read, many) in params:
        if param not in bound:
            if default is ...:
                raise ConfigError(key, f"{name}() needs argument {param!r}")
            values.append(default)
        else:
            got = [read(key, v) for v in bound[param]]
            values.append(got if many else got[0])
    try:
        return builder(*lead, *values)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(key, f"{text.strip()}: {exc}") from None


# ----------------------------------------------------------------------
# manifolds


_MANIFOLDS = {
    "euclidean": (geometry.Euclidean, (("m", ..., INT),)),
    "circle": (geometry.Circle, (("r", 1.0, NUM),)),
    "torus": (geometry.FlatTorus, (("l", ..., NUMS),)),
    "sphere2": (geometry.Sphere2, (("r", 1.0, NUM),)),
    "hyperbolic": (geometry.HyperbolicPlane, ()),
    "ball": (geometry.ball, (("base", ..., MANIFOLD), ("r", ..., NUM))),
}


def parse_manifold(text, key="manifold"):
    model = _call(text, key, _MANIFOLDS)
    if model.dim > _MAX_DIM:
        raise ConfigError(key, f"need at most {_MAX_DIM} dimensions, got {model.dim}")
    return model


# ----------------------------------------------------------------------
# scalar fields and matrix potentials


# named generators, each defined at the one rank of its shape: the Pauli
# matrices and the spin-1 matrices S_x, S_y, S_z
_HERM_NAMES = {
    "pauli_x": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "pauli_y": np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    "pauli_z": np.array([[1.0, 0.0], [0.0, -1.0]]),
    "spin1_x": np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]) / math.sqrt(2.0),
    "spin1_y": np.array([[0.0, -1.0j, 0.0], [1.0j, 0.0, -1.0j], [0.0, 1.0j, 0.0]]) / math.sqrt(2.0),
    "spin1_z": np.diag([1.0, 0.0, -1.0]),
}


def _parse_hermitian(text, rank, key):
    text = text.strip()
    if text == "id":
        return np.eye(rank)
    H = _HERM_NAMES.get(text)
    if H is None:
        if not text.startswith("diag"):
            raise ConfigError(key, f"unknown Hermitian matrix {text!r}")
        H = _call(text, key, {"diag": (np.diag, (("d", ..., NUMS),))})
    if len(H) != rank:
        raise ConfigError(key, f"{text} requires rank {len(H)}")
    return H


# constant(c) is a number; a term's coefficient multiplies it into the sum's constant
_FIELDS = {
    "constant": (lambda model, c: c, (("c", ..., NUM),)),
    "harmonic": (potentials.harmonic_field, (("omega", 1.0, NUM),)),
    "coulomb": (potentials.coulomb_field, (("alpha", 1.0, NUM),)),
    "inverse_square": (potentials.inverse_square_field, (("alpha", 1.0, NUM),)),
    "power": (potentials.power_field, (("coeff", ..., NUM), ("p", ..., NUM))),
    "well": (potentials.well_field, (("depth", 1.0, NUM), ("r", 1.0, NUM))),
}


class _ScaledSum:
    """Pointwise c0 + sum_i a_i * field_i(x), used for composite scalars."""

    def __init__(self, const, parts):
        self.const = const
        self.parts = parts

    def __call__(self, pts):
        out = np.full(np.asarray(pts).shape[:-1], self.const)
        for a, f in self.parts:
            out = out + a * f.fn(pts)
        return out


def _parse_scalar_sum(model, text, key) -> ScalarField:
    const, parts = 0.0, []
    for term in _split_top_level(text, seps="+"):
        m = re.fullmatch(r"([-+]?[\d.]+(?:[eE][-+]?\d+)?)\s*\*\s*([a-zA-Z_].*)", term, re.S)
        coeff, term = (_finite_number(key, m.group(1)), m.group(2)) if m else (1.0, term)
        value = (_finite_number(key, term) if re.fullmatch(r"[-+]?[0-9.eE]+", term)
                 else _call(term, key, _FIELDS, model))
        if isinstance(value, ScalarField):
            parts.append((coeff, value))
        else:
            const += coeff * value
    if not parts:
        return potentials.constant_field(const)
    if len(parts) == 1 and const == 0.0 and parts[0][0] == 1.0:
        return parts[0][1]
    tag = max((f.class_tag for _, f in parts), key=potentials.KATO_CLASSES.index)
    sing = tuple(p for _, f in parts for p in f.singular_points)
    return ScalarField(_ScaledSum(const, parts), class_tag=tag, singular_points=sing,
                       name=text.strip())


def _matrix_term(key, text):
    expr, at, herm = text.rpartition("@")
    if not at:
        raise ConfigError(key, f"expected a matrix(...) term scalar-sum @ H, got {text!r}")
    return expr, herm


def _matrix_potential(model, key, text, rank, const, terms):
    if not 1 <= rank <= PotentialSpec.MAX_RANK:
        raise ValueError(f"need rank in 1..{PotentialSpec.MAX_RANK}")
    return PotentialSpec(rank=rank, const=None if const is None
                         else _parse_hermitian(const, rank, key),
                         terms=[(_parse_scalar_sum(model, expr, key),
                                 _parse_hermitian(herm, rank, key)) for expr, herm in terms],
                         name=text)


_MATRIX = {"matrix": (_matrix_potential, (("rank", ..., INT), ("const", None, TEXT),
                                          ("terms", (), (_matrix_term, True))))}


def parse_potential(model, text, key="potential") -> PotentialSpec:
    text = text.strip()
    if text.startswith("matrix"):
        return _call(text, key, _MATRIX, model, key, text)
    return PotentialSpec.scalar(_parse_scalar_sum(model, text, key), name=text)


# ----------------------------------------------------------------------
# sections and 1-forms


class _FourierSection:
    def __init__(self, n):
        self.n = int(n)

    def __call__(self, pts):
        return np.exp(1j * self.n * np.asarray(pts)[..., 0])


def _constant_section(model, rank, c):
    if len(c) not in (1, rank):
        raise ValueError(f"a constant section needs 1 or {rank} components")
    return constant_section(c * (rank // len(c)), rank=rank)  # one component fills every slot


# every section builder takes (model, rank); all but constant are scalar
_SECTIONS = {
    "constant": (_constant_section, (("c", (1.0,), NUMS),)),
    "gaussian": (lambda model, rank, sigma: gaussian_section(model, sigma),
                 (("sigma", 1.0, NUM),)),
    "harmonic_ground": (lambda model, rank, omega: harmonic_ground_section(omega),
                        (("omega", 1.0, NUM),)),
    "fourier": (lambda model, rank, n: SectionSpec.scalar(_FourierSection(n), norm_bound=1.0,
                                                          name=f"fourier({n})"),
                (("n", 1, INT),)),
}


def parse_section(model, text, rank=1, key="section") -> SectionSpec:
    section = _call(text, key, _SECTIONS, model, rank)
    if section.rank != rank:
        raise ConfigError(key, f"section {text.strip()!r} is scalar; bundle rank is {rank}")
    return section


def _on_chart(model, beta):
    """beta, if the model carries its Stratonovich line integrals (flat
    models and the circle) and has its chart dimension."""
    magnetic_bundle(beta).validate_model(model)
    if beta.dim != model.dim:
        raise ValueError(f"{beta.dim} chart components; the model has dimension {model.dim}")
    return beta


def _angle_form(model, a):
    if not isinstance(getattr(model, "base", model), geometry.Circle):  # or a subdomain
        raise ValueError("dtheta is a 1-form on the circle")
    return angle_form(a)


_FORMS = {
    "dtheta": (_angle_form, (("a", 0.0, NUM),)),
    "landau": (lambda model, lam: _on_chart(model, landau_form(lam)), (("lam", 0.0, NUM),)),
    "constant": (lambda model, b: _on_chart(model, constant_form(b)), (("b", ..., NUMS),)),
}


def parse_beta(model, text, key="beta") -> OneForm:
    return _call(text, key, _FORMS, model)


def parse_points(model, text, key="x"):
    """Semicolon-separated points, each a comma-separated coordinate tuple,
    or 'auto:<n>' for a model-default compact grid."""
    text = text.strip()
    if text.startswith("auto:"):
        n = _integer(key, text[len("auto:"):])
        if not 1 <= n <= _MAX_GRID:
            raise ConfigError(key, f"need auto:<n> with n in 1..{_MAX_GRID}, got {n}")
        return _auto_grid(model, n)
    pts = []
    for chunk in _split_top_level(text, seps=";"):
        coords = [_finite_number(key, v) for v in _split_top_level(chunk)]
        if len(coords) != model.coord_dim:
            raise ConfigError(key, f"point {chunk!r} has {len(coords)} coords, "
                              f"model needs {model.coord_dim}")
        pts.append(coords)
    if not pts:
        raise ConfigError(key, "no points given")
    arr = np.asarray(pts, dtype=float)
    if not np.all(model.contains(arr)):
        raise ConfigError(key, "a point lies outside the domain")
    return arr


def _auto_grid(model, n):
    """Deterministic compact grid: uniform on compact models, a spiral in
    the unit ball (or the subdomain) otherwise, avoiding r = 0."""
    base = model.base if isinstance(model, geometry.OpenSubdomain) else model
    if isinstance(base, geometry.Circle):
        th = 2.0 * np.pi * (np.arange(n) + 0.5) / n
        return th[:, None]
    if isinstance(base, geometry.FlatTorus):
        # the first n points, in row-major order, of the k^dim midpoint lattice
        k = int(np.ceil(n ** (1.0 / base.dim)))
        cells = np.stack(np.unravel_index(np.arange(n), (k,) * base.dim), axis=-1)
        return (cells + 0.5) / k * base.periods
    rng = np.random.default_rng(0)
    if isinstance(base, geometry.Sphere2):
        return base.volume_sample(rng, n)
    dirs = rng.standard_normal((n, base.coord_dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = np.linspace(0.05, 0.7, n)
    if model is not base and isinstance(base, geometry.HyperbolicPlane):
        radii = np.tanh(radii / 2.0)
    return dirs * radii[:, None]


# ----------------------------------------------------------------------
# run configuration


_CONFIG_KEYS = ("manifold", "bundle_rank", "bundle", "beta", "potential", "section",
                "section2", "t", "h", "n", "seed", "workers", "x", "x_grid",
                "t_grid", "s", "s_grid", "lam", "k", "r", "radius",
                "trials", "out", "dump_paths")


@dataclass
class RunConfig:
    """Validated run inputs; echoes back as canonical key=value text."""

    raw: dict
    model: object = None
    bundle: Optional[BundleSpec] = None
    beta: Optional[OneForm] = None
    potential: Optional[PotentialSpec] = None
    section: Optional[SectionSpec] = None
    section2: Optional[SectionSpec] = None

    @classmethod
    def from_mapping(cls, mapping):
        unknown = [k for k in mapping if k not in _CONFIG_KEYS]
        if unknown:
            raise ConfigError(unknown[0], "unknown configuration key")
        cfg = cls(raw={k: str(v) for k, v in mapping.items() if v is not None})
        # counts, workers, step, radii, times and every grid entry; t = 0
        # stays valid (paths of one point)
        count = (">= 1", lambda v: v >= 1)
        positive = ("> 0", lambda v: v > 0)
        non_negative = (">= 0", lambda v: v >= 0)
        for key, (need, ok) in (("n", count), ("trials", count), ("k", count),
                                ("workers", (f"in 1..{_MAX_WORKERS}",
                                             lambda v: 1 <= v <= _MAX_WORKERS)),
                                ("bundle_rank", (f"in 1..{PotentialSpec.MAX_RANK}",
                                                 lambda v: 1 <= v <= PotentialSpec.MAX_RANK)),
                                ("h", positive), ("r", positive), ("radius", positive),
                                ("lam", positive), ("t", non_negative), ("s", non_negative),
                                ("t_grid", non_negative), ("s_grid", non_negative)):
            if key not in cfg.raw:
                continue
            v = cfg.values(key) if key.endswith("_grid") else cfg.number(key)
            if not np.all(ok(v)):
                raise ConfigError(key, f"need {key} {need}, got {cfg.raw[key]!r}")
        if "h" in cfg.raw:  # the longest run of any command, in steps of h
            span = max([cfg.number("t", default=0.0) + cfg.number("s", default=0.0),
                        *cfg.values("t_grid", default=()), *cfg.values("s_grid", default=())])
            if span > _MAX_STEPS * cfg.number("h"):
                raise ConfigError("h", f"need at most {_MAX_STEPS} steps of h up to {span:g}")
        rank = cfg.integer("bundle_rank", default=1)
        if "manifold" not in cfg.raw:
            return cfg
        model = cfg.model = parse_manifold(cfg.raw["manifold"])
        if "beta" in cfg.raw:
            cfg.beta = parse_beta(model, cfg.raw["beta"])
        bundle_kind = cfg.raw.get("bundle", "trivial")
        bundles = {"trivial": lambda: trivial_bundle(rank), "tangent": tangent_bundle,
                   "magnetic": lambda: magnetic_bundle(cfg.beta)}
        if bundle_kind not in bundles:
            raise ConfigError("bundle", f"unknown bundle kind {bundle_kind!r}")
        if bundle_kind == "magnetic" and cfg.beta is None:
            raise ConfigError("beta", "required value missing")
        cfg.bundle = bundles[bundle_kind]()
        try:
            cfg.bundle.validate_model(model)
        except ValueError as exc:
            raise ConfigError("bundle", str(exc)) from None
        if "potential" in cfg.raw:
            cfg.potential = parse_potential(model, cfg.raw["potential"])
            if cfg.potential.rank != rank and "bundle_rank" in cfg.raw:
                raise ConfigError("bundle_rank",
                                  f"rank {rank} != potential rank {cfg.potential.rank}")
        r = cfg.potential.rank if cfg.potential is not None else rank
        for key in ("section", "section2"):
            if key in cfg.raw:
                setattr(cfg, key, parse_section(model, cfg.raw[key], rank=r, key=key))
        return cfg

    def _read(self, key, default, required, read):
        """read(key, text) of the key's value; the default if it is missing."""
        if key not in self.raw:
            if required:
                raise ConfigError(key, "required value missing")
            return default
        return read(key, self.raw[key])

    def number(self, key, default=None, required=False):
        return self._read(key, default, required, _finite_number)

    def integer(self, key, default=None, required=False):
        return self._read(key, default, required, _integer)

    def values(self, key, default=None, required=False):
        return self._read(key, default, required, lambda key, text: np.asarray(
            [_finite_number(key, v) for v in _split_top_level(text)]))

    def points(self, key, required=False):
        return self._read(key, None, required,
                          lambda key, text: parse_points(self.model, text, key=key))

    def echo(self):
        return dict(sorted(self.raw.items()))


def read_config_file(path):
    """key = value lines; '#' comments; keys use underscores or dashes."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path!r}: {exc.strerror or exc}") from None
    out = {}
    for ln, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}", "expected key = value")
        k, v = line.split("=", 1)
        out[k.strip().replace("-", "_")] = v.strip()
    return out
