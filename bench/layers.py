"""Per-layer split of one estimator call, timed from outside the engine.

`Tracer.installed()` replaces public functions of the fiberflow modules,
for the duration of a `with` block, by wrappers that open a span around
each call.  A layer's self time is its spans' duration minus the time of
the spans nested inside them (`PotentialSpec.scalar_floor` calls
`PotentialSpec.matrix`, `OpenSubdomain.exp` calls the base model's `exp`),
so the self times of one call add up to its traced wall time.

Where the engine calls a function is what decides where it is wrapped:
`fiberflow.paths` imports `stream`, `expm_neg_hermitian` and
`stratonovich_increment` by name, so those names are replaced on
`fiberflow.paths` itself, and tangent transport is `Sphere2.transport_matrix`,
which `_run_block` calls directly rather than through `BundleSpec`.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import time
from collections import defaultdict

import numpy as np

import fiberflow.geometry as geometry
import fiberflow.paths as paths
import fiberflow.potentials as potentials
import fiberflow.semigroup as semigroup

# per-layer metrics of one traced call, besides paths.live_step_ratio
TIME_METRICS = (
    "rng.stream_s", "rng.draw_s", "geometry.exp_s", "geometry.contains_s",
    "potentials.field_s", "potentials.matrix_s", "potentials.floor_s", "matexp.expm_s",
    "bundles.transport_s", "bundles.line_s", "paths.self_s", "semigroup.self_s",
)
COUNT_METRICS = (
    "rng.streams", "geometry.exp_calls", "potentials.matrix_calls", "matexp.matrices",
    "paths.blocks",
)

_RUN_ENSEMBLE_SIG = inspect.signature(paths.run_ensemble)


class _TimedGenerator:
    """The Generator `stream` returns, with its draws timed as rng.draw_s."""

    def __init__(self, gen, tracer):
        self._gen = gen
        self.standard_normal = tracer.wrap("rng.draw_s", gen.standard_normal)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # [layer, time covered by child spans] per open span
        self._ensembles = []  # (bound run_ensemble arguments, result)

    def wrap(self, layer, fn, count=None):
        """fn with each call timed as a span of `layer`; `count(args, kw)`
        adds to a counter, once per outermost call of the layer."""
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kw):
            if count is not None and not (stack and stack[-1][0] == layer):
                count(args, kw)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kw)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                self.self_s[layer] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt

        return traced

    def counter(self, name, amount=lambda args, kw: 1):
        def add(args, kw):
            self.counts[name] += amount(args, kw)
        return add

    def call(self, layer, fn, *args):
        """Run fn(*args) as the root span of one traced call; returns
        (result, wall seconds)."""
        t0 = time.perf_counter()
        out = self.wrap(layer, fn)(*args)
        return out, time.perf_counter() - t0

    def _replacements(self):
        """(owner, attribute, wrapper) for every traced entry point."""
        reps = []

        def timed_stream(key, _orig=paths.stream):
            return _TimedGenerator(_orig(key), self)

        reps.append((paths, "stream",
                     self.wrap("rng.stream_s", timed_stream, self.counter("rng.streams"))))
        model_classes = [c for c in vars(geometry).values()
                         if isinstance(c, type) and issubclass(c, geometry.ManifoldModel)]
        for cls in model_classes:
            if "exp" in vars(cls):
                reps.append((cls, "exp", self.wrap("geometry.exp_s", cls.exp,
                                                   self.counter("geometry.exp_calls"))))
            if "contains" in vars(cls):
                reps.append((cls, "contains", self.wrap("geometry.contains_s", cls.contains)))
        reps += [
            (potentials.ScalarField, "__call__",
             self.wrap("potentials.field_s", potentials.ScalarField.__call__)),
            (potentials.PotentialSpec, "matrix",
             self.wrap("potentials.matrix_s", potentials.PotentialSpec.matrix,
                       self.counter("potentials.matrix_calls"))),
            (potentials.PotentialSpec, "scalar_floor",
             self.wrap("potentials.floor_s", potentials.PotentialSpec.scalar_floor)),
            (paths, "expm_neg_hermitian",
             self.wrap("matexp.expm_s", paths.expm_neg_hermitian,
                       self.counter("matexp.matrices",
                                    lambda args, kw: math.prod(np.shape(args[0])[:-2])))),
            (geometry.Sphere2, "transport_matrix",
             self.wrap("bundles.transport_s", geometry.Sphere2.transport_matrix)),
            (paths, "stratonovich_increment",
             self.wrap("bundles.line_s", paths.stratonovich_increment)),
            (paths, "_run_block", self._counting(paths._run_block, "paths.blocks")),
        ]
        ensemble = self.wrap("paths.self_s", self._recording(paths.run_ensemble))
        reps += [(paths, "run_ensemble", ensemble), (semigroup, "run_ensemble", ensemble)]
        return reps

    def _counting(self, fn, name):
        @functools.wraps(fn)
        def counted(*args, **kw):
            self.counts[name] += 1
            return fn(*args, **kw)
        return counted

    def _recording(self, fn):
        @functools.wraps(fn)
        def recorded(*args, **kw):
            res = fn(*args, **kw)
            self._ensembles.append((_RUN_ENSEMBLE_SIG.bind(*args, **kw), res))
            return res
        return recorded

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, wrapper in self._replacements():
                saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def live_step_ratio(self):
        """Steps taken by paths alive at the step start, over all steps
        stepped, from EnsembleResult.death_step of every recorded ensemble."""
        live = total = 0
        for bound, res in self._ensembles:
            a = bound.arguments
            times, _ = paths.time_grid(a["t"], a["h"], a.get("checkpoints", ()))
            K = len(times) - 1
            death = res.death_step
            live += int(np.where(death > 0, death, K).sum())
            total += K * len(death)
        return live / total if total else 1.0

    def metrics(self):
        out = {name: self.self_s.get(name, 0.0) for name in TIME_METRICS}
        out.update({name: self.counts.get(name, 0) for name in COUNT_METRICS})
        out["paths.live_step_ratio"] = self.live_step_ratio()
        return out
