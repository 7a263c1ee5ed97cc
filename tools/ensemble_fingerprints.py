#!/usr/bin/env python3
"""SHA-1 fingerprints of every EnsembleResult array over a fixed matrix of
engine routes, one line per array, then of every estimator output over a
few small cases, one line per entry:

    python3 tools/ensemble_fingerprints.py [--checkout DIR] > fingerprints.txt

An engine line reads `case field dtype shape sha1`, the hash taken over the
array's bytes in C order.  The cases cross the potential routes of
paths.run_ensemble (none, a scalar field, a singular Coulomb field, a
constant matrix part alone and beside a scalar part, an x-dependent matrix
part, a rank-3 spin-1 part) with its bundles (none, magnetic, tangent) and
domains (the complete model and a ball that every path leaves within a few
steps), each at t = 0 and at t = 0.1 with an off-grid checkpoint; the
`two_blocks` cases run more paths than one block holds.  The `threaded`
cases (no bundle, magnetic, tangent) run 256 paths for 4000 steps on a ball
they leave on both sides of the first 2048-step draw, in pieces long
enough for rng.RowStreams to split them over threads where the host has
more than one usable CPU.

An estimator line reads `estimator/case entry sha1`, the hash taken over
the entry's JSON with every float written in full (repr), a complex number
as [re, im].  The entries are an Estimate's fields and extras, a report's
keys, and the items of its lists of rows, each one line.  The cases cover
every estimator of semigroup, kato.khasminskii_check and
paths.exit_probability, each with at most 256 paths per start point and a
few hundred steps.

--checkout DIR imports fiberflow from DIR/src (default: the checkout holding this file),
so two checkouts, say a parent commit unpacked with `git archive` and a
change, can be compared with diff: a change that keeps every value bit for
bit prints the same lines.
"""

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

H, T, CHECKPOINT, N = 1e-2, 0.1, 0.0337, 64

# potentials by name, as config text; None is no potential
POTENTIALS = {
    "none": None,
    "scalar": "harmonic(1.0)",
    "coulomb": "coulomb(0.5)",
    "scalar_rank2": "matrix(rank=2, harmonic(1.0) @ id)",
    "const_W": "matrix(rank=2, const=diag(0.2,0.5), 0.3 @ pauli_y)",
    "const_W_scalar": "matrix(rank=2, const=diag(0.2,0.5), harmonic(1.0) @ id)",
    "x_W": "matrix(rank=2, const=diag(0.2,0.5), harmonic(1.0) @ pauli_x)",
    "spin1": "matrix(rank=3, const=diag(1,0,-1), 0.5 @ spin1_x, harmonic(1.0) @ id)",
}

# (bundle, model, the potentials it carries): a magnetic bundle takes rank 1,
# the tangent bundle rank 2
ROUTES = [
    ("none", "euclidean(m=2)", list(POTENTIALS)),
    ("magnetic", "euclidean(m=2)", ["none", "scalar", "coulomb"]),
    ("tangent", "sphere2(r=1.0)", ["none", "scalar_rank2", "const_W", "const_W_scalar", "x_W"]),
]


def cases():
    """(name, model, x0, t, h, n, run_ensemble keywords) of every case."""
    from fiberflow.bundles import magnetic_bundle, tangent_bundle
    from fiberflow.config import parse_manifold, parse_potential
    from fiberflow.geometry import ball
    from fiberflow.potentials import landau_form

    for bundle_kind, model_text, names in ROUTES:
        base = parse_manifold(model_text)
        for domain in ("complete", "ball"):
            model = base if domain == "complete" else ball(base, 0.3)
            for name in names:
                kw = {}
                if POTENTIALS[name] is not None:
                    kw["potential"] = parse_potential(model, POTENTIALS[name])
                if bundle_kind == "magnetic":
                    kw["bundle"] = magnetic_bundle(landau_form(0.9))
                elif bundle_kind == "tangent":
                    kw["bundle"] = tangent_bundle()
                for t in (0.0, T):
                    yield (f"{bundle_kind}/{domain}/{name}/t={t:g}", model, base.origin(), t,
                           H, N, kw)
    # more paths than one block holds (8192), 100 steps of h / 10
    e2 = parse_manifold("euclidean(m=2)")
    for domain in ("complete", "ball"):
        model = e2 if domain == "complete" else ball(e2, 0.05)
        kw = dict(potential=parse_potential(model, POTENTIALS["spin1"]))
        yield f"two_blocks/{domain}/spin1/t={T:g}", model, e2.origin(), T, H / 10, 9000, kw
    # killed across the engine's 2048-step draws, every piece past the split
    # threshold of RowStreams
    for bundle_kind, model_text, r, name in [("none", "euclidean(m=1)", 0.15, "scalar"),
                                             ("magnetic", "euclidean(m=2)", 0.2, "scalar"),
                                             ("tangent", "sphere2(r=1.0)", 0.2, "x_W")]:
        base = parse_manifold(model_text)
        model = ball(base, r)
        kw = dict(potential=parse_potential(model, POTENTIALS[name]))
        if bundle_kind == "magnetic":
            kw["bundle"] = magnetic_bundle(landau_form(0.9))
        elif bundle_kind == "tangent":
            kw["bundle"] = tangent_bundle()
        yield (f"threaded/{bundle_kind}/ball/{name}/t=0.04", model, base.origin(), 0.04, 1e-5,
               256, kw)


def estimator_cases():
    """(name, thunk) of every estimator case; the thunk runs it."""
    from fiberflow.bundles import tangent_bundle, trivial_bundle
    from fiberflow.config import parse_manifold, parse_potential
    from fiberflow.geometry import ball
    from fiberflow.kato import KhasminskiiConstants, khasminskii_check
    from fiberflow.paths import exit_probability
    from fiberflow.potentials import (ScalarField, constant_section, coulomb_field,
                                      gaussian_section, harmonic_field,
                                      harmonic_ground_section, spinor_section)
    from fiberflow.rng import RngKey
    from fiberflow import semigroup as sg

    key = RngKey(7)
    e1, e2, e3 = (parse_manifold(f"euclidean(m={m})") for m in (1, 2, 3))
    s2 = parse_manifold("sphere2(r=1.0)")
    phi0 = harmonic_ground_section(1.0)
    x1, x2 = e1.origin(), e2.origin()
    ball1 = ball(e1, 1.0)
    harm1 = harmonic_field(e1, 1.0)
    xw = parse_potential(e2, POTENTIALS["x_W"])
    f2 = constant_section([1.0, 0.3], rank=2)
    tb = trivial_bundle(2)
    tangent = (s2, tangent_bundle(), parse_potential(s2, POTENTIALS["x_W"]),
               constant_section([1.0, 0.0], rank=2), s2.origin())
    yield "fk_vector/free_ball", lambda: sg.fk_vector(
        ball1, None, None, phi0, x1, T, H, 128, key, (CHECKPOINT,))
    yield "fk_vector/scalar_ball", lambda: sg.fk_vector(
        ball1, None, harmonic_field(ball1, 1.0), phi0, x1, T, H, 128, key, (CHECKPOINT,))
    yield "fk_vector/tangent_x_W", lambda: sg.fk_vector(*tangent, T, H, 128, key,
                                                        (CHECKPOINT, 0.07))
    g = gaussian_section(e1, 1.0)
    yield "ground_energy/scalar", lambda: sg.ground_energy(
        e1, harm1, g, g, [0.05, 0.1, 0.15, 0.2], H, 256, key, radius=3.0)
    g2 = spinor_section(gaussian_section(e2, 1.0), [0.6, 0.8])
    yield "ground_energy/x_W", lambda: sg.ground_energy(
        e2, xw, g2, g2, [0.05, 0.1, 0.15, 0.2], H, 256, key, bundle=tb, radius=3.0)
    gs = gaussian_section(e2, 1.0)
    for name in ("x_W", "spin1"):  # fields that read PotentialSpec.scalar_floor
        V = parse_potential(e2, POTENTIALS[name])
        floor = ScalarField(lambda pts, V=V: V.scalar_floor(pts), class_tag="bounded",
                            name="floor")
        yield f"ground_energy/floor_{name}", lambda floor=floor: sg.ground_energy(
            e2, floor, gs, gs, [0.05, 0.1, 0.15, 0.2], H, 256, key, radius=3.0)
    yield "resolvent_apply/scalar", lambda: sg.resolvent_apply(
        e1, None, harm1, phi0, x1, 2, 4.0, H, 128, key, n_quad=8)
    yield "resolvent_apply/x_W", lambda: sg.resolvent_apply(
        e2, tb, xw, f2, x2, 1, 4.0, H, 128, key, n_quad=6)
    yield "domination_check/x_W", lambda: sg.domination_check(
        e2, tb, xw, f2, x2, T, H, 256, key)
    yield "domination_check/tangent_x_W", lambda: sg.domination_check(*tangent, T, H, 256, key)
    for check in ("semigroup_identity_check", "perturbation_formula_check"):
        fn = getattr(sg, check)
        yield f"{check}/scalar", lambda fn=fn: fn(e1, None, harm1, phi0, 0.05, T, x1, H, 256, key)
        yield f"{check}/x_W", lambda fn=fn: fn(e2, tb, xw, f2, 0.05, T, x2, H, 256, key)
    yield "smoothing_norm_bound/scalar", lambda: sg.smoothing_norm_bound(
        e1, harm1, T, [phi0], np.linspace(-1.0, 1.0, 5)[:, None], H, 64, key, 1.0)
    yield "continuity_scan/scalar_ball", lambda: sg.continuity_scan(
        ball1, None, harmonic_field(ball1, 1.0), phi0, T, np.linspace(-0.8, 0.8, 32)[:, None],
        2e-2, 8, key, cv=1.0)
    yield "khasminskii_check/coulomb", lambda: khasminskii_check(
        e3, coulomb_field(e3, 0.5), KhasminskiiConstants(t0=0.1, c_at_t0=0.3, cv=3.5),
        [0.05, T], np.array([[0.0, 0.0, 0.0], [0.2, 0.0, 0.0], [0.0, 0.5, 0.0]]), 128, H, key)
    yield "exit_probability/ball", lambda: exit_probability(
        e1, np.array([[0.0], [0.3]]), 0.5, T, H, 128, key, checkpoints=(CHECKPOINT,))


def _leaves(obj, name):
    """(entry, value) of an estimator output: a dataclass's fields, a dict's
    keys, a tuple's items and a list of dicts' items, recursively."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _leaves(obj[k], f"{name}.{k}" if name else str(k))
    elif isinstance(obj, tuple) or (isinstance(obj, list) and obj
                                    and all(isinstance(o, dict) for o in obj)):
        for i, o in enumerate(obj):
            yield from _leaves(o, f"{name}[{i}]")
    else:
        yield name, obj


def _plain(o):
    """JSON for what json does not write: arrays as lists, complex numbers
    as [re, im], numpy scalars as Python ones."""
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, (complex, np.complexfloating)):
        return [float(o.real), float(o.imag)]
    if isinstance(o, np.generic):
        return o.item()
    raise TypeError(f"no JSON for {type(o).__name__}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", type=Path, default=ROOT,
                    help="checkout whose src/ is imported (default: this one)")
    args = ap.parse_args()
    sys.path.insert(0, str(args.checkout.resolve() / "src"))
    from fiberflow.paths import run_ensemble
    from fiberflow.rng import RngKey

    for name, model, x0, t, h, n, kw in cases():
        res = run_ensemble(model, x0, t, h, RngKey(7), n,
                           checkpoints=(CHECKPOINT,) if t > 0 else (), **kw)
        for f in dataclasses.fields(res):
            a = getattr(res, f.name)
            if a is None:
                continue
            a = np.ascontiguousarray(a)
            digest = hashlib.sha1(a.tobytes()).hexdigest()
            print(name, f.name, a.dtype, "x".join(map(str, a.shape)) or "()", digest)
    for name, run in estimator_cases():
        for entry, value in _leaves(run(), ""):
            text = json.dumps(value, default=_plain, sort_keys=True)
            print(name, entry, hashlib.sha1(text.encode()).hexdigest())


if __name__ == "__main__":
    main()
