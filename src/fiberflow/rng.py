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

A draw runs on up to `threads` threads (by default one per usable CPU,
`_usable_cpus`), the calling thread among them, each with its own Philox
and tile: they take whole tiles from one shared counter, so a slower core
takes fewer, and each tile is drawn and copied by exactly one thread,
while numpy fills a row without the GIL.  A draw of one tile stays on the
caller, and so does a piece shorter than _THREAD_FLOATS per row, whose
rows are too short to pay back the handoffs of the GIL.  A row's draws
are a function of its key and its kept state alone, so values do not
depend on the number of threads, nor on which thread draws a row.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

__all__ = ["RngKey", "stream", "RowStreams", "normals", "MAX_STEPS"]

_MASK64 = (1 << 64) - 1
MAX_STEPS = 10**7  # increments one path may draw: the longest time grid
_TILE_ROWS = 128  # rows RowStreams.draw draws before copying them to its output
# floats per row of a piece below which RowStreams.draw stays on one thread:
# a shorter row does not pay back the GIL handoffs around its fill
_THREAD_FLOATS = 768


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


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def stream(key: RngKey) -> np.random.Generator:
    """Generator for the given key.  Bit-reproducible across platforms."""
    return np.random.Generator(np.random.Philox(key=_philox_key(key.seed, key.stream_index)))


class RowStreams:
    """The streams stream(key.child(j)), j < count, of a block of paths,
    drawn piece by piece, on `threads` threads (default: one per usable
    CPU)."""

    def __init__(self, key: RngKey, count: int, threads: int | None = None):
        self._key = _philox_key(key.seed, key.stream_index)
        self._index = key.stream_index
        self._threads = threads or _usable_cpus()
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
        saved = self._saved
        starts = range(0, len(ids), _TILE_ROWS)
        tiles = iter(starts)  # shared: each tile goes to the one thread that takes it
        threads = 1 if math.prod(shape) < _THREAD_FLOATS else min(self._threads, len(starts))
        kept = [{} for _ in range(threads)]  # per thread: row -> state after its piece
        halt = []  # the helpers' exceptions, then None once the caller is done

        def loop(w):
            """Take tiles until none is left: draw their rows into this
            thread's own tile with its own Philox, then copy them to out."""
            bits = np.random.Philox(key=self._key)
            gen = np.random.Generator(bits)
            # the state a freshly keyed Philox starts from; assigning it back
            # resets the counter and drops any buffered output
            fresh = bits.state
            philox_key = fresh["state"]["key"]
            tile = np.empty((min(len(ids), _TILE_ROWS), *shape))
            for t0 in tiles:
                if halt:
                    return
                part = ids[t0:t0 + _TILE_ROWS]
                for i, j in enumerate(part):
                    if j in saved:
                        bits.state = saved[j]
                    else:
                        philox_key[1] = (self._index + j) & _MASK64
                        bits.state = fresh
                    gen.standard_normal(out=tile[i])
                    if more:
                        kept[w][j] = bits.state
                out[t0:t0 + len(part)] = tile[:len(part)]

        def helper(w):
            try:
                loop(w)
            except BaseException as exc:  # re-raised by the caller
                halt.append(exc)

        started = []
        try:
            for w in range(1, threads):
                th = threading.Thread(target=helper, args=(w,), daemon=True)
                th.start()
                started.append(th)
            loop(0)
        finally:
            # no helper is left writing into out, whatever ends the draw
            halt.append(None)
            for th in started:
                th.join()
        failed = [exc for exc in halt if exc is not None]
        if failed:
            raise failed[0]
        self._saved = {j: state for part in kept for j, state in part.items()}
        self._started[rows] = True
        return out


def normals(key: RngKey, count: int, shape) -> np.ndarray:
    """Standard normals of shape (count, *shape), shape a tuple, whose row
    j equals stream(key.child(j)).standard_normal(shape) bit for bit."""
    return RowStreams(key, count).draw(np.arange(count), shape)
