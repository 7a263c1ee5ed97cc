"""Plain-text specification grammars and the run configuration.

The CLI and config files name geometries, potentials, sections and
magnetic forms with a small call-expression grammar (EBNF in the README):

    manifold   = "euclidean(m=3)" | "circle(r=1.0)" | "torus(l=6.28,6.28)"
               | "sphere2(r=1.0)" | "hyperbolic()" | "ball(<manifold>, r=1.0)"
    potential  = scalar-sum | matrix(...)
    scalar-sum = term { ("+"|"-") term }
    term       = [NUM "*"] builder | NUM
    builder    = constant(c) | harmonic(omega) | coulomb(alpha)
               | inverse_square(alpha) | power(coeff,p) | well(depth,r)
    matrix     = matrix(rank=d [, const=H] {, scalar-sum @ H})
    H          = id | pauli_x | pauli_y | pauli_z (rank 2)
               | spin1_x | spin1_y | spin1_z (rank 3) | diag(a,b,...)
    section    = constant(c[,c2,...]) | gaussian(sigma) | harmonic_ground(omega)
               | fourier(n)
    beta       = dtheta(a) | landau(lam) | constant(b1[,b2,...])

Unknown keys or names are rejected with the offending key named.  A parsed
RunConfig echoes back as canonical key=value text that re-parses to an
identical configuration.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import geometry, potentials
from .bundles import BundleSpec, magnetic_bundle, tangent_bundle, trivial_bundle
from .potentials import (OneForm, PotentialSpec, ScalarField, SectionSpec,
                         angle_form, constant_form, constant_section,
                         gaussian_section, harmonic_ground_section, landau_form)

__all__ = ["ConfigError", "parse_manifold", "parse_potential", "parse_section",
           "parse_beta", "parse_points", "RunConfig"]


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
    if cur or parts:
        parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def _call_args(argstr, key):
    """Positional numbers and key=value pairs."""
    pos, kw = [], {}
    for item in _split_top_level(argstr):
        if "=" in item and re.match(r"^[a-zA-Z_][a-zA-Z0-9_]*\s*=", item):
            k, v = item.split("=", 1)
            kw[k.strip()] = v.strip()
        else:
            pos.append(item)
    return pos, kw


def _num(text, key):
    try:
        return float(text)
    except ValueError:
        raise ConfigError(key, f"expected a number, got {text!r}") from None


# ----------------------------------------------------------------------
# manifolds


def parse_manifold(text, key="manifold"):
    name, args = _split_call(text, key)
    pos, kw = _call_args(args, key)
    if name == "euclidean":
        m = kw.get("m", pos[0] if pos else None)
        if m is None:
            raise ConfigError(key, "euclidean needs m")
        return geometry.Euclidean(int(float(m)))
    if name == "circle":
        r = _num(kw.get("r", pos[0] if pos else "1.0"), key)
        return geometry.Circle(r)
    if name == "torus":
        vals = kw.get("l")
        items = _split_top_level(vals) if vals else pos
        if not items:
            raise ConfigError(key, "torus needs periods l=...")
        return geometry.FlatTorus([_num(v, key) for v in items])
    if name == "sphere2":
        r = _num(kw.get("r", pos[0] if pos else "1.0"), key)
        return geometry.Sphere2(r)
    if name == "hyperbolic":
        return geometry.HyperbolicPlane()
    if name == "ball":
        if not pos:
            raise ConfigError(key, "ball needs a base manifold")
        base = parse_manifold(pos[0], key)
        r = _num(kw.get("r", pos[1] if len(pos) > 1 else None), key) \
            if (kw.get("r") or len(pos) > 1) else None
        if r is None:
            raise ConfigError(key, "ball needs a radius r")
        return geometry.ball(base, r)
    raise ConfigError(key, f"unknown manifold kind {name!r}")


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
    if text in _HERM_NAMES:
        H = _HERM_NAMES[text]
        if rank != H.shape[0]:
            raise ConfigError(key, f"{text} requires rank {H.shape[0]}")
        return H
    if text.startswith("diag"):
        _, args = _split_call(text, key)
        vals = [_num(v, key) for v in _split_top_level(args)]
        if len(vals) != rank:
            raise ConfigError(key, f"diag(...) needs {rank} entries")
        return np.diag(vals)
    raise ConfigError(key, f"unknown Hermitian matrix {text!r}")


def _parse_scalar_term(model, text, key):
    text = text.strip()
    m = re.match(r"^([-+]?[\d.]+(?:[eE][-+]?\d+)?)\s*\*\s*(.+)$", text)
    coeff = 1.0
    if m and re.match(r"^[a-zA-Z_]", m.group(2).strip()):
        coeff = float(m.group(1))
        text = m.group(2).strip()
    if re.match(r"^[-+]?[0-9.eE]+$", text):
        return coeff * float(text), None
    name, args = _split_call(text, key)
    pos, kw = _call_args(args, key)

    def arg(i, name_, default=None):
        if name_ in kw:
            return _num(kw[name_], key)
        if len(pos) > i:
            return _num(pos[i], key)
        if default is None:
            raise ConfigError(key, f"{name} needs argument {name_}")
        return default

    if name == "constant":
        return coeff * arg(0, "c"), None
    if name == "harmonic":
        return coeff, potentials.harmonic_field(model, arg(0, "omega", 1.0))
    if name == "coulomb":
        return coeff, potentials.coulomb_field(model, arg(0, "alpha", 1.0))
    if name == "inverse_square":
        return coeff, potentials.inverse_square_field(model, arg(0, "alpha", 1.0))
    if name == "power":
        return coeff, potentials.power_field(model, arg(0, "coeff"), arg(1, "p"))
    if name == "well":
        return coeff, potentials.well_field(model, arg(0, "depth", 1.0), arg(1, "r", 1.0))
    raise ConfigError(key, f"unknown potential builder {name!r}")


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
    # top-level '+' separates terms; negative weights go in the coefficient
    terms = _split_top_level(text, seps="+")
    const = 0.0
    parts = []
    for term in terms:
        c, f = _parse_scalar_term(model, term, key)
        if f is None:
            const += c
        else:
            parts.append((c, f))
    if not parts:
        return potentials.constant_field(const)
    if len(parts) == 1 and const == 0.0 and parts[0][0] == 1.0:
        return parts[0][1]
    tags = [f.class_tag for _, f in parts]
    order = {t: i for i, t in enumerate(potentials.KATO_CLASSES)}
    tag = max(tags, key=lambda t: order[t])
    sing = tuple(p for _, f in parts for p in f.singular_points)
    return ScalarField(_ScaledSum(const, parts), class_tag=tag, singular_points=sing,
                       name=text.strip())


def parse_potential(model, text, key="potential") -> PotentialSpec:
    text = text.strip()
    if text.startswith("matrix"):
        name, args = _split_call(text, key)
        items = _split_top_level(args)
        rank = None
        const = None
        terms = []
        for item in items:
            if item.startswith("rank"):
                rank = int(float(item.split("=", 1)[1]))
            elif item.startswith("const"):
                const = item.split("=", 1)[1].strip()
            elif "@" in item:
                expr, herm = item.rsplit("@", 1)
                terms.append((expr.strip(), herm.strip()))
            else:
                raise ConfigError(key, f"unexpected matrix(...) item {item!r}")
        if rank is None:
            raise ConfigError(key, "matrix(...) needs rank=d")
        cmat = np.zeros((rank, rank)) if const is None else _parse_hermitian(const, rank, key)
        built = []
        for expr, herm in terms:
            f = _parse_scalar_sum(model, expr, key)
            built.append((f, _parse_hermitian(herm, rank, key)))
        return PotentialSpec(rank=rank, const=cmat, terms=built, name=text)
    f = _parse_scalar_sum(model, text, key)
    return PotentialSpec.scalar(f, name=text)


# ----------------------------------------------------------------------
# sections and 1-forms


class _FourierSection:
    def __init__(self, n):
        self.n = int(n)

    def __call__(self, pts):
        return np.exp(1j * self.n * np.asarray(pts)[..., 0])


def parse_section(model, text, rank=1, key="section") -> SectionSpec:
    name, args = _split_call(text, key)
    pos, kw = _call_args(args, key)
    if name == "constant":
        vals = [_num(v, key) for v in pos] or [1.0]
        if len(vals) not in (1, rank):
            raise ConfigError(key, f"constant section needs 1 or {rank} components")
        if rank > 1 and len(vals) == 1:
            vals = vals * rank
        return constant_section(vals if rank > 1 else vals[0], rank=rank)
    if rank != 1:
        raise ConfigError(key, f"section {name!r} is scalar; bundle rank is {rank}")
    if name == "gaussian":
        sigma = _num(kw.get("sigma", pos[0] if pos else "1.0"), key)
        return gaussian_section(model, sigma)
    if name == "harmonic_ground":
        omega = _num(kw.get("omega", pos[0] if pos else "1.0"), key)
        return harmonic_ground_section(omega)
    if name == "fourier":
        n = int(_num(kw.get("n", pos[0] if pos else "1"), key))
        return SectionSpec.scalar(_FourierSection(n), norm_bound=1.0, name=text)
    raise ConfigError(key, f"unknown section {name!r}")


def parse_beta(model, text, key="beta") -> OneForm:
    name, args = _split_call(text, key)
    pos, kw = _call_args(args, key)
    if name == "dtheta":
        return angle_form(_num(kw.get("a", pos[0] if pos else "0.0"), key))
    if name == "landau":
        return landau_form(_num(kw.get("lam", pos[0] if pos else "0.0"), key))
    if name == "constant":
        return constant_form([_num(v, key) for v in pos])
    raise ConfigError(key, f"unknown 1-form {name!r}")


def parse_points(model, text, key="x"):
    """Semicolon-separated points, each a comma-separated coordinate tuple,
    or 'auto:<n>' for a model-default compact grid."""
    text = text.strip()
    if text.startswith("auto:"):
        n = int(text.split(":", 1)[1])
        return _auto_grid(model, n)
    pts = []
    for chunk in _split_top_level(text, seps=";"):
        coords = [_num(v, key) for v in _split_top_level(chunk)]
        if len(coords) != model.coord_dim:
            raise ConfigError(key, f"point {chunk!r} has {len(coords)} coords, "
                              f"model needs {model.coord_dim}")
        pts.append(coords)
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
        k = int(np.ceil(n ** (1.0 / base.dim)))
        pts, _ = base.quadrature(k)
        return pts[:n]
    if isinstance(base, geometry.Sphere2):
        rng = np.random.default_rng(0)
        return base.volume_sample(rng, n)
    rng = np.random.default_rng(0)
    dirs = rng.standard_normal((n, base.coord_dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    rmax = 0.7
    if isinstance(model, geometry.OpenSubdomain):
        radii = np.linspace(0.05, rmax, n)
        pts = dirs * radii[:, None]
        if isinstance(base, geometry.HyperbolicPlane):
            pts = np.tanh(radii / 2.0)[:, None] * dirs
        return pts
    radii = np.linspace(0.05, rmax, n)
    return dirs * radii[:, None]


# ----------------------------------------------------------------------
# run configuration


_CONFIG_KEYS = ("manifold", "bundle_rank", "bundle", "beta", "potential", "section",
                "section2", "t", "h", "n", "seed", "workers", "x", "x_grid",
                "t_grid", "s", "s_grid", "q", "lam", "k", "r", "radius",
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
        # counts, step, radii, times and every grid entry; t = 0 stays valid
        # (paths of one point)
        count = (">= 1", lambda v: v >= 1)
        positive = ("> 0", lambda v: v > 0)
        non_negative = (">= 0", lambda v: v >= 0)
        for key, (need, ok) in (("n", count), ("trials", count), ("k", count), ("h", positive),
                                ("r", positive), ("radius", positive), ("lam", positive),
                                ("t", non_negative), ("s", non_negative),
                                ("t_grid", non_negative), ("s_grid", non_negative)):
            if key not in cfg.raw:
                continue
            v = cfg.values(key) if key.endswith("_grid") else cfg.number(key)
            if not np.all(ok(v)):
                raise ConfigError(key, f"need {key} {need}, got {cfg.raw[key]!r}")
        if "manifold" in cfg.raw:
            cfg.model = parse_manifold(cfg.raw["manifold"])
        rank = cfg.integer("bundle_rank", default=1)
        if "beta" in cfg.raw and cfg.model is not None:
            cfg.beta = parse_beta(cfg.model, cfg.raw["beta"])
        bundle_kind = cfg.raw.get("bundle", "trivial")
        if cfg.model is not None:
            if cfg.beta is not None and bundle_kind == "magnetic":
                cfg.bundle = magnetic_bundle(cfg.beta)
            elif bundle_kind == "tangent":
                cfg.bundle = tangent_bundle()
            elif bundle_kind == "trivial":
                cfg.bundle = trivial_bundle(rank)
            else:
                raise ConfigError("bundle", f"unknown bundle kind {bundle_kind!r}")
        if "potential" in cfg.raw and cfg.model is not None:
            cfg.potential = parse_potential(cfg.model, cfg.raw["potential"])
            if cfg.potential.rank != rank and "bundle_rank" in cfg.raw:
                raise ConfigError("bundle_rank",
                                  f"rank {rank} != potential rank {cfg.potential.rank}")
        r = cfg.potential.rank if cfg.potential is not None else rank
        for key in ("section", "section2"):
            if key in cfg.raw and cfg.model is not None:
                setattr(cfg, key, parse_section(cfg.model, cfg.raw[key], rank=r, key=key))
        return cfg

    def number(self, key, default=None, required=False):
        if key not in self.raw:
            if required:
                raise ConfigError(key, "required value missing")
            return default
        return _finite_number(key, self.raw[key])

    def integer(self, key, default=None, required=False):
        v = self.number(key, default=default, required=required)
        if v is not None and v != int(v):
            raise ConfigError(key, f"expected an integer, got {self.raw[key]!r}")
        return None if v is None else int(v)

    def values(self, key, default=None, required=False):
        if key not in self.raw:
            if required:
                raise ConfigError(key, "required value missing")
            return default
        return np.asarray([_finite_number(key, v) for v in _split_top_level(self.raw[key])])

    def points(self, key, required=False):
        if key not in self.raw:
            if required:
                raise ConfigError(key, "required value missing")
            return None
        return parse_points(self.model, self.raw[key], key=key)

    def echo(self):
        return dict(sorted(self.raw.items()))


def _finite_number(key, text):
    try:
        v = float(text)
    except ValueError:
        raise ConfigError(key, f"expected a number, got {text!r}") from None
    if not math.isfinite(v):
        raise ConfigError(key, f"expected a finite number, got {text!r}")
    return v


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
