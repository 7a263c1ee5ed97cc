"""Counter-based random number streams.

Every Monte Carlo path in the package draws from its own Philox stream,
keyed by (seed, stream_index).  Philox is a counter-based generator, so
distinct 128-bit keys give statistically independent streams and the
numbers produced for path i never depend on how paths are grouped into
blocks or distributed over workers.  Estimator results are therefore a
pure function of (seed, n_paths).

`stream` builds a Generator for one key.  `RowStreams` draws the streams
of a block of consecutive keys in pieces: `draw(rows, shape, more)` gives
each row asked for its next prod(shape) standard normals, so the pieces of
row j, concatenated, are stream(key.child(j))'s draws in order.  It re-keys
a single Philox bit generator (key (seed, stream_index + j), counter 0,
empty output buffer, which is the state `stream` starts from) for a row's
first piece, and keeps a row's state after a piece only when a later piece
still needs it, at a fraction of the construction cost of one generator per
row (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11).
A row that is not asked for again is never drawn again.  Rows are drawn
into a small contiguous tile and copied to the output, which may be any
view of the right shape: the path engine passes a step-major array, so
that each step reads its increments from one contiguous slice.  `normals`
is one piece of every row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RngKey", "stream", "RowStreams", "normals", "MAX_STEPS"]

_MASK64 = (1 << 64) - 1
MAX_STEPS = 10**7  # increments one path may draw: the longest time grid
_TILE_ROWS = 128  # rows RowStreams.draw draws before copying them to its output


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


class RowStreams:
    """The streams stream(key.child(j)), j < count, of a block of paths,
    drawn piece by piece."""

    def __init__(self, key: RngKey, count: int):
        self._index = key.stream_index
        self._bits = np.random.Philox(key=_philox_key(key.seed, key.stream_index))
        self._gen = np.random.Generator(self._bits)
        # the state a freshly keyed Philox starts from; assigning it back
        # resets the counter and drops any buffered output
        self._fresh = self._bits.state
        self._started = np.zeros(count, dtype=bool)
        self._saved = {}  # row -> Philox state after its piece of the last call

    def draw(self, rows, shape, more=False, out=None) -> np.ndarray:
        """Standard normals of shape (len(rows), *shape): row i holds the
        next draws of stream rows[i], written into out when given (any
        array of that shape, a transposed view among them).  With more,
        each row's state is kept for the next call, which continues the
        rows it asks for; a row drawn before and not kept by the previous
        call cannot continue."""
        rows = np.asarray(rows, dtype=np.int64)
        if out is None:
            out = np.empty((len(rows), *shape))
        ids = rows.tolist()
        stale = [j for j in ids if self._started[j] and j not in self._saved]
        if stale:
            raise ValueError(f"row {stale[0]} was not kept by the last draw and cannot continue")
        bits, gen, fresh = self._bits, self._gen, self._fresh
        philox_key = fresh["state"]["key"]
        saved, self._saved = self._saved, {}
        # rows are drawn into a small contiguous tile, then copied to out
        tile = np.empty((min(len(ids), _TILE_ROWS), *shape))
        for t0 in range(0, len(ids), _TILE_ROWS):
            part = ids[t0:t0 + _TILE_ROWS]
            for i, j in enumerate(part):
                if j in saved:
                    bits.state = saved[j]
                else:
                    philox_key[1] = (self._index + j) & _MASK64
                    bits.state = fresh
                gen.standard_normal(out=tile[i])
                if more:
                    self._saved[j] = bits.state
            out[t0:t0 + len(part)] = tile[:len(part)]
        self._started[rows] = True
        return out


def normals(key: RngKey, count: int, shape) -> np.ndarray:
    """Standard normals of shape (count, *shape), shape a tuple, whose row
    j equals stream(key.child(j)).standard_normal(shape) bit for bit."""
    return RowStreams(key, count).draw(np.arange(count), shape)
