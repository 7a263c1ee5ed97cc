"""Counter-based random number streams.

Every Monte Carlo path in the package draws from its own Philox stream,
keyed by (seed, stream_index).  Philox is a counter-based generator, so
distinct 128-bit keys give statistically independent streams and the
numbers produced for path i never depend on how paths are grouped into
blocks or distributed over workers.  Estimator results are therefore a
pure function of (seed, n_paths).

`stream` builds a Generator for one key.  `normals` fills the rows of a
block from consecutive keys by re-keying a single Philox bit generator
(key (seed, stream_index + j), counter 0, empty output buffer), which is
the state `stream` starts from, so each row is bit-identical to a fresh
stream's draws at a fraction of the construction cost (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RngKey", "stream", "normals", "MAX_STEPS"]

_MASK64 = (1 << 64) - 1
MAX_STEPS = 10**7  # increments one path may draw: the longest time grid


@dataclass(frozen=True)
class RngKey:
    """Identifies one random stream: a run seed plus a stream index.

    Estimators use one stream per path; nested estimators reserve disjoint
    index ranges for their inner stages so outer and inner draws never
    collide.
    """

    seed: int
    stream_index: int = 0

    def child(self, offset: int) -> "RngKey":
        return RngKey(self.seed, self.stream_index + offset)


def _philox_key(seed, stream_index):
    return np.array([seed & _MASK64, stream_index & _MASK64], dtype=np.uint64)


def stream(key: RngKey) -> np.random.Generator:
    """Generator for the given key.  Bit-reproducible across platforms."""
    return np.random.Generator(np.random.Philox(key=_philox_key(key.seed, key.stream_index)))


def normals(key: RngKey, count: int, shape) -> np.ndarray:
    """Standard normals of shape (count, *shape), shape a tuple, whose row
    j equals stream(key.child(j)).standard_normal(shape) bit for bit."""
    out = np.empty((count, *shape))
    bits = np.random.Philox(key=_philox_key(key.seed, key.stream_index))
    gen = np.random.Generator(bits)
    # the state a freshly keyed Philox starts from; assigning it back
    # resets the counter and drops any buffered output
    state = bits.state
    philox_key = state["state"]["key"]
    for j in range(count):
        philox_key[1] = (key.stream_index + j) & _MASK64
        bits.state = state
        gen.standard_normal(out=out[j])
    return out
