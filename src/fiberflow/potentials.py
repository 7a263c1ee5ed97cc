"""Potentials, sections and magnetic 1-forms.

Scalar fields carry metadata the samplers need: declared singular points
(which trigger sub-step sampling and the 1/h cap along paths) and a Kato
class tag.  Matrix potentials are built as C0 + sum_i s_i(x) * P_i with
constant Hermitian P_i, which covers the desk-scale bundle cases.  The
scalar floor used for semigroup domination is the pointwise smallest
eigenvalue unless floor_fn overrides it.  PotentialSpec.scalar_floor
computes it by eigen-solve; the path engine instead takes it from the
eigen-data of the step exponential it computes anyway (matexp), so a
sampled path evaluates V once per step.

All field callables are module-level classes so estimator tasks stay
picklable for process workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
        if np.any(np.isnan(v)):
            idx = int(np.flatnonzero(np.isnan(np.ravel(v)))[0])
            raise NonFiniteFieldError(f"scalar field {self.name!r} returned NaN at sample {idx}")
        if not np.all(np.isfinite(v)):
            # infinities at declared singular points are absorbed by the cap
            if cap is None or not self.singular:
                raise NonFiniteFieldError(f"scalar field {self.name!r} returned non-finite values")
            v = np.nan_to_num(v, posinf=cap, neginf=-cap)
        if cap is not None and self.singular:
            v = np.clip(v, -cap, cap)
        return v


class _Constant:
    def __init__(self, c):
        self.c = float(c)

    def __call__(self, pts):
        return np.full(np.asarray(pts).shape[:-1], self.c)


class _Harmonic:
    """omega^2 |y - center|^2 / 2 in the model's geodesic distance."""

    def __init__(self, model, omega, center):
        self.model = model
        self.omega = float(omega)
        self.center = np.asarray(center, dtype=float)

    def __call__(self, pts):
        d = self.model.distance(pts, self.center)
        return 0.5 * self.omega**2 * d**2


class _PowerLaw:
    def __init__(self, model, coeff, power, center):
        self.model = model
        self.coeff = float(coeff)
        self.power = float(power)
        self.center = np.asarray(center, dtype=float)

    def __call__(self, pts):
        d = self.model.distance(pts, self.center)
        with np.errstate(divide="ignore"):
            return self.coeff * d ** (-self.power)


class _Well:
    def __init__(self, model, depth, r, center):
        self.model = model
        self.depth = float(depth)
        self.r = float(r)
        self.center = np.asarray(center, dtype=float)

    def __call__(self, pts):
        return np.where(self.model.distance(pts, self.center) < self.r, -self.depth, 0.0)


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


def constant_field(c):
    return ScalarField(_Constant(c), class_tag="bounded", name=f"constant({c:g})",
                       radial_center=None, radial_profile=_ConstProfile(c))


def harmonic_field(model, omega=1.0, center=None):
    c = model.origin() if center is None else np.asarray(center, dtype=float)
    return ScalarField(_Harmonic(model, omega, c), class_tag="locallyKato",
                       name=f"harmonic({omega:g})",
                       radial_center=c, radial_profile=_HarmonicProfile(omega))


def coulomb_field(model, alpha=1.0, center=None):
    """Attractive Coulomb -alpha/d(y, center); the negative part alpha/d is
    Kato on the m<=3 models (p=2 > m/2 inclusion)."""
    c = model.origin() if center is None else np.asarray(center, dtype=float)
    return ScalarField(_PowerLaw(model, -alpha, 1.0, c), class_tag="kato",
                       singular_points=(c,), name=f"coulomb({alpha:g})",
                       radial_center=c, radial_profile=_PowerProfile(-alpha, 1.0))


def inverse_square_field(model, alpha=1.0, center=None):
    """alpha/d^2: locally integrable for m >= 3 but not Kato; used as the
    negative control in the decay checks."""
    c = model.origin() if center is None else np.asarray(center, dtype=float)
    return ScalarField(_PowerLaw(model, alpha, 2.0, c), class_tag="locallyIntegrable",
                       singular_points=(c,), name=f"inverse_square({alpha:g})",
                       radial_center=c, radial_profile=_PowerProfile(alpha, 2.0))


def power_field(model, coeff, power, center=None, class_tag="locallyIntegrable"):
    c = model.origin() if center is None else np.asarray(center, dtype=float)
    sing = (c,) if power > 0 else ()
    return ScalarField(_PowerLaw(model, coeff, power, c), class_tag=class_tag,
                       singular_points=sing, name=f"power({coeff:g},{power:g})",
                       radial_center=c, radial_profile=_PowerProfile(coeff, power))


def well_field(model, depth=1.0, r=1.0, center=None):
    c = model.origin() if center is None else np.asarray(center, dtype=float)
    return ScalarField(_Well(model, depth, r, c), class_tag="bounded",
                       name=f"well({depth:g},{r:g})",
                       radial_center=c, radial_profile=_WellProfile(depth, r),
                       radial_breaks=(r,))


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
    rank d <= 16.  The floor function (<= min eigenvalue pointwise) defaults
    to an eigen-solve of the assembled matrix."""

    rank: int
    const: np.ndarray
    terms: Sequence = ()
    floor_fn: Optional[Callable] = None
    name: str = "potential"

    MAX_RANK = 16

    def __post_init__(self):
        if self.rank < 1 or self.rank > self.MAX_RANK:
            raise ValueError(f"bundle rank must be in 1..{self.MAX_RANK}")
        self.const = _hermitize(np.zeros((self.rank, self.rank)) if self.const is None
                                else self.const)
        self.terms = [(f, _hermitize(P)) for (f, P) in self.terms]

    @classmethod
    def scalar(cls, field_: ScalarField, name=None):
        return cls(rank=1, const=np.zeros((1, 1)), terms=[(field_, np.eye(1))],
                   name=name or field_.name)

    @classmethod
    def zero(cls, rank=1):
        return cls(rank=rank, const=np.zeros((rank, rank)), terms=[], name="zero")

    @property
    def is_scalar(self) -> bool:
        return self.rank == 1

    @property
    def singular(self) -> bool:
        return any(f.singular for f, _ in self.terms)

    @property
    def class_tag(self) -> str:
        """Most pessimistic tag among the negative-part contributions."""
        order = {t: i for i, t in enumerate(KATO_CLASSES)}
        tags = [f.class_tag for f, _ in self.terms] or ["bounded"]
        return max(tags, key=lambda t: order[t])

    def matrix(self, pts, cap=None):
        pts = np.asarray(pts, dtype=float)
        shape = pts.shape[:-1]
        V = np.broadcast_to(self.const, shape + (self.rank, self.rank)).copy()
        for f, P in self.terms:
            V += f(pts, cap=cap)[..., None, None] * P
        return V

    def scalar_values(self, pts, cap=None):
        """Scalar value v(x), rank-1 potentials only."""
        if not self.is_scalar:
            raise ValueError("scalar_values requires a rank-1 potential")
        v = np.real(self.const[0, 0]) * np.ones(np.asarray(pts).shape[:-1])
        for f, P in self.terms:
            v = v + f(pts, cap=cap) * np.real(P[0, 0])
        return v

    def scalar_floor(self, pts, cap=None):
        """Floor v(x) <= min sigma(V(x)): floor_fn when given, else the
        exact smallest eigenvalue (by eigvalsh), so that domination checks
        saturate in the scalar case.  run_ensemble calls this only for a
        floor_fn; otherwise it reads the same eigenvalue off the step
        exponential's eigen-data."""
        if self.floor_fn is not None:
            return np.asarray(self.floor_fn(np.asarray(pts, dtype=float)))
        if self.is_scalar:
            return self.scalar_values(pts, cap=cap)
        return np.linalg.eigvalsh(self.matrix(pts, cap=cap))[..., 0]

    def eigen_split(self, pts, cap=None):
        """(V_plus, V_minus) canonical PSD parts from fiberwise spectral
        calculus; V = V_plus - V_minus."""
        V = self.matrix(pts, cap=cap)
        lam, U = np.linalg.eigh(V)
        plus = np.einsum("...ij,...j,...kj->...ik", U, np.maximum(lam, 0.0), U.conj())
        minus = np.einsum("...ij,...j,...kj->...ik", U, np.maximum(-lam, 0.0), U.conj())
        return plus, minus

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
