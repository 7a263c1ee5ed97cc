#!/usr/bin/env python3
"""SHA-1 fingerprints of every EnsembleResult array over a fixed matrix of
engine routes, one line per array:

    python3 tools/ensemble_fingerprints.py [--checkout DIR] > fingerprints.txt

Each line reads `case field dtype shape sha1`, the hash taken over the
array's bytes in C order.  The cases cross the potential routes of
paths.run_ensemble (none, a scalar field, a singular Coulomb field, a
constant matrix part alone and beside a scalar part, an x-dependent matrix
part, a rank-3 spin-1 part) with its bundles (none, magnetic, tangent) and
domains (the complete model and a ball that every path leaves within a few
steps), each at t = 0 and at t = 0.1 with an off-grid checkpoint; the
`two_blocks` cases run more paths than one block holds.  --checkout DIR
imports fiberflow from DIR/src (default: the checkout holding this file),
so two checkouts, say a parent commit unpacked with `git archive` and a
change, can be compared with diff: a change that keeps every value bit for
bit prints the same lines.
"""

import argparse
import dataclasses
import hashlib
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


if __name__ == "__main__":
    main()
