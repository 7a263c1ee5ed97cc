"""A fixed reference kernel that measures the host's speed, not fiberflow's.

The benchmark's host is shared: other tenants change the speed of a
single core by 20-50% for seconds to minutes at a time, alike for every
workload (see README.md, Steadiness).  The worker times this kernel right
after every estimator call and pairs the two; run.py reports the median
ratio of call to kernel, in units of NOMINAL_S.  A slowdown that lasts
over both halves of a pair cancels.  A change to fiberflow cannot move
this kernel: it imports nothing from the package and does the same work
on every run.

The work resembles a path engine's: one Philox stream per path for some
of the paths, then a walk on the unit sphere with a 2x2 complex transport
product, in numpy arrays of 2048 paths, and batched 3x3 Hermitian
eigen-solves.  Without the eigen-solves the kernel slowed less than the
LAPACK-bound spinor_rank3 workload when the host slowed, and the pairs
did not cancel there.
"""

import numpy as np

# median wall time of reference_kernel() on the machine the benchmark was
# tuned on (see README.md); timings are reported in seconds of that host
NOMINAL_S = 0.7

_PATHS = 2048
_STEPS = 200
_STREAMS = 512
_EIGH = 256


def reference_kernel():
    """Run the fixed work once; returns a checksum, so none of it is skipped."""
    total = 0.0
    for j in range(_STREAMS):
        total += np.random.Generator(np.random.Philox(key=j)).standard_normal(_STEPS).sum()
    gen = np.random.Generator(np.random.Philox(key=_STREAMS))
    x = np.tile([0.0, 0.0, 1.0], (_PATHS, 1))
    acc = np.broadcast_to(np.eye(2, dtype=complex), (_PATHS, 2, 2)).copy()
    field = np.zeros(_PATHS)
    T = np.empty((_PATHS, 2, 2))
    for _ in range(_STEPS):
        step = 0.03 * gen.standard_normal((_PATHS, 3))
        step -= np.sum(step * x, axis=-1, keepdims=True) * x
        norm = np.linalg.norm(step, axis=-1, keepdims=True)
        y = x * np.cos(norm) + step / np.maximum(norm, 1e-300) * np.sin(norm)
        y /= np.linalg.norm(y, axis=-1, keepdims=True)
        c = np.sum(x * y, axis=-1)
        s = np.linalg.norm(np.cross(x, y), axis=-1)
        T[:, 0, 0] = c
        T[:, 1, 1] = c
        T[:, 0, 1] = -s
        T[:, 1, 0] = s
        acc = T.astype(complex) @ acc
        W = np.einsum("bji,bjk,bkl->bil", acc.conj(), T, acc)
        acc = np.where((W[:, 0, 0].real > -10.0)[:, None, None], acc, 0.0)
        # small batched Hermitian eigen-solves, as rank > 2 exponentials take
        H = np.einsum("bi,bj->bij", x[:_EIGH], y[:_EIGH]).astype(complex)
        lam, U = np.linalg.eigh(H + H.conj().swapaxes(-1, -2))
        field[:_EIGH] += lam[:, 0] + np.abs(U[:, 0, 0])
        field += 0.5 * (x[:, 2] ** 2 + y[:, 2] ** 2)
        x = y
    return total + float(np.abs(acc).sum() + field.sum())
