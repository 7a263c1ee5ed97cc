"""Potentials, sections and magnetic 1-forms.

Scalar fields carry metadata the samplers need: declared singular points
(which trigger sub-step sampling and the 1/h cap along paths) and a Kato
class tag.  A radial field is stated once, as its profile: one helper
builds harmonic, coulomb, inverse_square, power and well as
profile(d(y, center)) and declares centre, profile and profile breaks for
the Kato quadrature.  ScalarField.mapped(g, name) derives a field g(v),
such as |v| or 2 max(0, -v), through fn and profile alike, keeping every
other declaration.  Matrix potentials are built as C0 + sum_i s_i(x) * P_i
with constant Hermitian P_i, which covers the desk-scale bundle cases.
PotentialSpec.split() writes V = s I + W: s is one scalar field from the
terms whose P_i is a multiple of I (and C0, when it is one), which the path
engine integrates with no matrix work, as the whole of a rank-1 potential
(PotentialSpec.field()); W is the rest, with its constant-field terms
folded into its constant, so that a W with no x-dependent term is
exponentiated once per step size.  Above rank 1, the scalar floor used for
semigroup domination is the pointwise smallest eigenvalue, read off the
eigen-data of matexp's exponential: PotentialSpec.scalar_floor takes it
of V, and the path engine takes s plus W's, from the step exponential it
computes anyway, so a sampled path evaluates V once per step.

All field callables are module-level classes so estimator tasks stay
picklable for process workers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "NonFiniteFieldError",
    "ScalarField",
    "PotentialSpec",
    "SectionSpec",
    "OneForm",
    "constant_field",
    "harmonic_field",
    "coulomb_field",
    "inverse_square_field",
    "power_field",
    "well_field",
    "constant_form",
    "angle_form",
    "landau_form",
]

KATO_CLASSES = ("bounded", "kato", "locallyKato", "locallyIntegrable")


class NonFiniteFieldError(ValueError):
    """A scalar field returned NaN, or +-inf away from its declared
    singular points: a numerical failure of the field, not a bad input."""


@dataclass
class ScalarField:
    """Real scalar field on a model, v = v_+ - v_- with the negative part's
    Kato class declared by tag.  Fields that are radial around a center may
    advertise it (radial_center, radial_profile(r)); the Kato quadrature
    uses that structure for its singularity-adapted radial rule."""

    fn: Callable[[np.ndarray], np.ndarray]
    class_tag: str = "bounded"
    singular_points: tuple = ()
    name: str = "field"
    radial_center: Optional[np.ndarray] = None
    radial_profile: Optional[Callable] = None
    radial_breaks: tuple = ()  # profile discontinuities, quadrature split points

    def __post_init__(self):
        if self.class_tag not in KATO_CLASSES:
            raise ValueError(f"unknown Kato class tag {self.class_tag!r}")

    @property
    def singular(self) -> bool:
        return len(self.singular_points) > 0

    def __call__(self, pts, cap=None):
        # NaN and +-inf are reported below, not as numpy warnings
        try:
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                v = np.asarray(self.fn(np.asarray(pts, dtype=float)), dtype=float)
        except OverflowError:  # Python float arithmetic on the parameters
            raise NonFiniteFieldError(f"scalar field {self.name!r} overflowed") from None
        if not np.isfinite(v).all():
            if np.isnan(v).any():
                idx = int(np.flatnonzero(np.isnan(np.ravel(v)))[0])
                raise NonFiniteFieldError(f"scalar field {self.name!r} returned NaN at sample {idx}")
            # infinities at declared singular points are absorbed by the cap
            if cap is None or not self.singular:
                raise NonFiniteFieldError(f"scalar field {self.name!r} returned non-finite values")
            v = np.nan_to_num(v, posinf=cap, neginf=-cap)
        if cap is not None and self.singular:
            v = np.clip(v, -cap, cap)
        return v

    def mapped(self, g, name):
        """The field g(v), g applied to fn and to the radial profile; every
        other declaration (tag, singular points, centre, breaks) is kept.
        The cap applies to g(v), as to any field."""
        profile = None if self.radial_profile is None else _Mapped(g, self.radial_profile)
        return replace(self, fn=_Mapped(g, self.fn), name=name, radial_profile=profile)


class _Constant:
    def __init__(self, c):
        self.c = float(c)

    def __call__(self, pts):
        return np.full(np.asarray(pts).shape[:-1], self.c)


class _ConstProfile:
    def __init__(self, c):
        self.c = float(c)

    def __call__(self, r):
        return np.full_like(np.asarray(r, dtype=float), self.c)


class _HarmonicProfile:
    def __init__(self, omega):
        self.omega = float(omega)

    def __call__(self, r):
        return 0.5 * self.omega**2 * np.asarray(r, dtype=float) ** 2


class _PowerProfile:
    def __init__(self, coeff, power):
        self.coeff = float(coeff)
        self.power = float(power)

    def __call__(self, r):
        with np.errstate(divide="ignore"):
            return self.coeff * np.asarray(r, dtype=float) ** (-self.power)


class _WellProfile:
    def __init__(self, depth, r):
        self.depth = float(depth)
        self.r = float(r)

    def __call__(self, r):
        return np.where(np.asarray(r, dtype=float) < self.r, -self.depth, 0.0)


class _Radial:
    """profile(d(y, center)) in the model's geodesic distance."""

    def __init__(self, model, profile, center):
        self.model = model
        self.profile = profile
        self.center = center

    def __call__(self, pts):
        return self.profile(self.model.distance(pts, self.center))


class _Mapped:
    """g(inner(arg)); g must be picklable (a ufunc or a module-level function)."""

    def __init__(self, g, inner):
        self.g = g
        self.inner = inner

    def __call__(self, arg):
        return self.g(self.inner(arg))


class _ScaledSum:
    """Pointwise c0 + sum_i a_i * field_i(x)."""

    def __init__(self, const, parts):
        self.const = const
        self.parts = parts

    def __call__(self, pts):
        out = np.full(np.asarray(pts).shape[:-1], self.const)
        for a, f in self.parts:
            out = out + a * f.fn(pts)
        return out


def constant_field(c):
    return ScalarField(_Constant(c), class_tag="bounded", name=f"constant({c:g})",
                       radial_center=None, radial_profile=_ConstProfile(c))


def scaled_sum(const, parts, name):
    """The field const + sum_i a_i f_i of parts [(a_i, f_i)]: constant_field
    without parts, f itself for the one part (1, f) and const 0, else one
    field with the parts' most pessimistic Kato tag and all their singular
    points."""
    if not parts:
        return constant_field(const)
    if len(parts) == 1 and const == 0.0 and parts[0][0] == 1.0:
        return parts[0][1]
    tag = max((f.class_tag for _, f in parts), key=KATO_CLASSES.index)
    sing = tuple(p for _, f in parts for p in f.singular_points)
    return ScalarField(_ScaledSum(const, parts), class_tag=tag, singular_points=sing, name=name)


def _radial_field(model, profile, center, name, class_tag, singular=False, breaks=()):
    """The field profile(d(y, c)) around c (default: the model's origin)."""
    c = model.origin() if center is None else np.asarray(center, dtype=float)
    return ScalarField(_Radial(model, profile, c), class_tag=class_tag,
                       singular_points=(c,) if singular else (), name=name,
                       radial_center=c, radial_profile=profile, radial_breaks=breaks)


def harmonic_field(model, omega=1.0, center=None):
    """omega^2 d(y, center)^2 / 2."""
    return _radial_field(model, _HarmonicProfile(omega), center, f"harmonic({omega:g})",
                         "locallyKato")


def coulomb_field(model, alpha=1.0, center=None):
    """Attractive Coulomb -alpha/d(y, center); the negative part alpha/d is
    Kato on the m<=3 models (p=2 > m/2 inclusion)."""
    return _radial_field(model, _PowerProfile(-alpha, 1.0), center, f"coulomb({alpha:g})",
                         "kato", singular=True)


def inverse_square_field(model, alpha=1.0, center=None):
    """alpha/d^2: locally integrable for m >= 3 but not Kato; used as the
    negative control in the decay checks."""
    return _radial_field(model, _PowerProfile(alpha, 2.0), center,
                         f"inverse_square({alpha:g})", "locallyIntegrable", singular=True)


def power_field(model, coeff, power, center=None, class_tag="locallyIntegrable"):
    return _radial_field(model, _PowerProfile(coeff, power), center,
                         f"power({coeff:g},{power:g})", class_tag, singular=power > 0)


def well_field(model, depth=1.0, r=1.0, center=None):
    return _radial_field(model, _WellProfile(depth, r), center, f"well({depth:g},{r:g})",
                         "bounded", breaks=(r,))


# ----------------------------------------------------------------------
# matrix potentials


def _hermitize(a):
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("potential matrices must be square")
    if not np.all(np.isfinite(a)):
        raise ValueError("potential matrix has a non-finite entry")
    if np.max(np.abs(a - a.conj().T)) > 1e-12 * max(1.0, np.max(np.abs(a))):
        raise ValueError("potential matrix is not Hermitian")
    return 0.5 * a + 0.5 * a.conj().T  # halves first: no overflow near the float maximum


@dataclass
class PotentialSpec:
    """V(x) = const + sum_i terms[i].field(x) * terms[i].matrix, Hermitian,
    rank d <= 16.  Its floor is the smallest eigenvalue of the assembled
    matrix; a rank-1 potential is its own floor.  The matrices are float64
    when every one of them has exactly zero imaginary part (real symmetric
    V, real arithmetic downstream), complex128 otherwise."""

    rank: int
    const: np.ndarray
    terms: Sequence = ()
    name: str = "potential"

    MAX_RANK = 16

    def __post_init__(self):
        if self.rank < 1 or self.rank > self.MAX_RANK:
            raise ValueError(f"bundle rank must be in 1..{self.MAX_RANK}")
        self.const = _hermitize(np.zeros((self.rank, self.rank)) if self.const is None
                                else self.const)
        self.terms = [(f, _hermitize(P)) for (f, P) in self.terms]
        if not any(np.any(P.imag) for P in [self.const, *(P for _, P in self.terms)]):
            self.const = self.const.real.copy()
            self.terms = [(f, P.real.copy()) for (f, P) in self.terms]

    @classmethod
    def scalar(cls, field_: ScalarField, name=None):
        return cls(rank=1, const=np.zeros((1, 1)), terms=[(field_, np.eye(1))],
                   name=name or field_.name)

    @classmethod
    def zero(cls, rank=1):
        return cls(rank=rank, const=np.zeros((rank, rank)), terms=[], name="zero")

    @property
    def class_tag(self) -> str:
        """Most pessimistic tag among the negative-part contributions."""
        order = {t: i for i, t in enumerate(KATO_CLASSES)}
        tags = [f.class_tag for f, _ in self.terms] or ["bounded"]
        return max(tags, key=lambda t: order[t])

    def matrix(self, pts, cap=None):
        pts = np.asarray(pts, dtype=float)
        shape = pts.shape[:-1]
        # entry-major, as matexp.entry_major lays out: each V[..., i, j] one row
        d = self.rank
        V = np.empty((d, d) + shape, dtype=self.const.dtype)
        V = V.transpose(*range(2, V.ndim), 0, 1)
        V[...] = self.const
        for f, P in self.terms:
            fx = f(pts, cap=cap)
            # entry by entry, so that no product of V's size is held beside V
            for (i, j), p in np.ndenumerate(P):
                V[..., i, j] += fx * p
        return V

    def split(self):
        """(s, W) with V(x) = s(x) I + W(x): the scalar field s gathers the
        terms whose matrix is a real multiple c I (as c f) and the const
        when it is one; W, a PotentialSpec, is the rest, with each remaining
        term of constant field folded into its const.  s is None when V has
        no identity part, W None when V has no other part, and V = 0 is the
        scalar 0.  At rank 1 every matrix is c I, so the split is
        (field(), None)."""
        eye = np.eye(self.rank)

        def multiple_of_identity(P):
            c = float(P[0, 0].real)
            return c if np.array_equal(P, c * eye) else None

        c0 = multiple_of_identity(self.const)
        w_const = self.const if c0 is None else np.zeros_like(self.const)
        scalar_parts, rest = [], []
        for f, P in self.terms:
            c = multiple_of_identity(P)
            if c is not None:
                scalar_parts.append((c, f))
            elif isinstance(f.fn, _Constant):
                w_const = w_const + f.fn.c * P
            else:
                rest.append((f, P))
        W = PotentialSpec(self.rank, w_const, rest, self.name) if rest or np.any(w_const) else None
        s = None
        if scalar_parts or c0 or W is None:
            s = scaled_sum(c0 or 0.0, scalar_parts, self.name)
        return s, W

    def field(self) -> ScalarField:
        """The rank-1 potential c0 + sum_i p_i f_i as one scalar field: the
        term's own field for PotentialSpec.scalar(f)."""
        if self.rank != 1:
            raise ValueError("a scalar field needs a rank-1 potential")
        return self.split()[0]

    def scalar_floor(self, pts, cap=None):
        """Floor v(x) = min sigma(V(x)), exact so that domination checks
        saturate in the scalar case: v itself at rank 1, above it read off
        matexp.expm_neg_hermitian's eigen-data, as run_ensemble reads W's."""
        if self.rank == 1:
            return self.field()(pts, cap=cap)
        from .matexp import expm_neg_hermitian  # here, so that importing the CLI loads no matexp
        return expm_neg_hermitian(self.matrix(pts, cap=cap), 0.0)[1]

    def negative_norm(self, pts, cap=None):
        """||V^(2)(x)|| = max(0, -min eigenvalue) for the canonical split."""
        return np.maximum(0.0, -self.scalar_floor(pts, cap=cap))


# ----------------------------------------------------------------------
# sections


@dataclass
class SectionSpec:
    """Section of the (trivialized) rank-d bundle: fn maps points to frame
    coefficients, shape (..., d) complex (or (...,) when d = 1)."""

    rank: int
    fn: Callable
    norm_bound: Optional[float] = None
    l2_norm: Optional[float] = None
    name: str = "section"

    def __call__(self, pts):
        out = np.asarray(self.fn(np.asarray(pts, dtype=float)))
        if self.rank == 1 and out.shape == np.asarray(pts).shape[:-1]:
            return out
        if out.shape[-1] != self.rank:
            raise ValueError(f"section {self.name!r} returned rank {out.shape[-1]}, "
                             f"expected {self.rank}")
        return out

    @classmethod
    def scalar(cls, fn, norm_bound=None, l2_norm=None, name="section"):
        return cls(rank=1, fn=fn, norm_bound=norm_bound, l2_norm=l2_norm, name=name)


class _ConstantSection:
    def __init__(self, vec):
        self.vec = np.asarray(vec, dtype=complex)

    def __call__(self, pts):
        shape = np.asarray(pts).shape[:-1]
        if self.vec.size == 1:
            return np.broadcast_to(self.vec[0], shape).copy()
        return np.broadcast_to(self.vec, shape + self.vec.shape).copy()


class _GaussianSection:
    def __init__(self, model, sigma, center):
        self.model = model
        self.sigma = float(sigma)
        self.center = np.asarray(center, dtype=float)

    def __call__(self, pts):
        d = self.model.distance(pts, self.center)
        return np.exp(-(d**2) / (2.0 * self.sigma**2))


class _SpinorSection:
    """Scalar profile times a constant complex fiber vector."""

    def __init__(self, scalar_fn, vec):
        self.scalar_fn = scalar_fn
        self.vec = np.asarray(vec, dtype=complex)

    def __call__(self, pts):
        return np.asarray(self.scalar_fn(pts))[..., None] * self.vec


def constant_section(value, rank=1):
    vec = np.atleast_1d(np.asarray(value, dtype=complex))
    b = float(np.linalg.norm(vec))
    return SectionSpec(rank=rank, fn=_ConstantSection(vec), norm_bound=b, name="constant")


def gaussian_section(model, sigma=1.0, center=None):
    c = model.origin() if center is None else np.asarray(center, dtype=float)
    return SectionSpec.scalar(_GaussianSection(model, sigma, c), norm_bound=1.0,
                              name=f"gaussian({sigma:g})")


class _HarmonicGround:
    """(omega/pi)^{1/4} exp(-omega y^2/2), the 1-d oscillator ground state."""

    def __init__(self, omega):
        self.omega = float(omega)

    def __call__(self, pts):
        y = np.asarray(pts)[..., 0]
        return (self.omega / np.pi) ** 0.25 * np.exp(-self.omega * y**2 / 2.0)


def harmonic_ground_section(omega=1.0):
    return SectionSpec.scalar(_HarmonicGround(omega), norm_bound=(omega / np.pi) ** 0.25,
                              l2_norm=1.0, name=f"harmonic_ground({omega:g})")


def spinor_section(scalar_section: SectionSpec, vec):
    vec = np.asarray(vec, dtype=complex)
    nb = None
    if scalar_section.norm_bound is not None:
        nb = scalar_section.norm_bound * float(np.linalg.norm(vec))
    return SectionSpec(rank=len(vec), fn=_SpinorSection(scalar_section.fn, vec),
                       norm_bound=nb, name=f"spinor({scalar_section.name})")


# ----------------------------------------------------------------------
# magnetic 1-forms (flat models and the circle)


@dataclass
class OneForm:
    """Real smooth 1-form, given by its chart components; the Stratonovich
    line integral along sampled paths uses the geodesic-midpoint rule."""

    components: Callable  # chart point -> (..., dim) components
    dim: int              # the chart dimension the form is defined on
    name: str = "beta"

    def pair(self, mid_chart, d_chart):
        comp = np.asarray(self.components(mid_chart))
        return np.sum(comp * d_chart, axis=-1)


class _ConstComponents:
    def __init__(self, coeffs):
        self.coeffs = np.asarray(coeffs, dtype=float)

    def __call__(self, pts):
        return np.broadcast_to(self.coeffs, np.asarray(pts).shape[:-1] + self.coeffs.shape)


class _LandauComponents:
    """lambda * (x dy - y dx) / 2 on the Euclidean plane."""

    def __init__(self, lam):
        self.lam = float(lam)

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=float)
        return 0.5 * self.lam * np.stack([-pts[..., 1], pts[..., 0]], axis=-1)


def constant_form(coeffs):
    return OneForm(_ConstComponents(coeffs), len(coeffs), name="constant_form")


def angle_form(a):
    """a * dtheta on the circle (chart coordinate theta)."""
    return OneForm(_ConstComponents([float(a)]), 1, name=f"dtheta({a:g})")


def landau_form(lam):
    return OneForm(_LandauComponents(lam), 2, name=f"landau({lam:g})")
