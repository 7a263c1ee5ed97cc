"""Property tests of the specification grammar: every input either parses
or raises a ConfigError naming the key it was read under."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberflow.config import (ConfigError, RunConfig, parse_beta, parse_manifold,
                              parse_points, parse_potential, parse_section)
from fiberflow.geometry import Circle, Euclidean, FlatTorus, HyperbolicPlane, Sphere2, ball
from fiberflow.paths import time_grid

KEY = "under_test"
MODELS = [Euclidean(1), Euclidean(2), Euclidean(3), Circle(1.0), FlatTorus([1.0, 2.0]),
          Sphere2(1.0), HyperbolicPlane(), ball(Euclidean(2), 1.0)]
NAMES = ["euclidean", "circle", "torus", "sphere2", "hyperbolic", "ball", "constant",
         "harmonic", "coulomb", "inverse_square", "power", "well", "matrix", "diag",
         "gaussian", "harmonic_ground", "fourier", "dtheta", "landau", "vortex"]
PARAMS = ["m", "r", "l", "base", "c", "omega", "alpha", "coeff", "p", "depth", "rank",
          "const", "d", "sigma", "n", "a", "lam", "b", "x"]
NUMBERS = ["0", "1", "2", "3", "-1", "0.5", "2.5", "16", "40", "1e12", "1e400", "nan", "inf",
           "-inf", "abc", "1.2.3", ""]
HERMS = ["id", "pauli_x", "pauli_y", "spin1_z", "diag(1,2)", "diag(1,0,-1)", "zeta"]

numbers = st.one_of(st.sampled_from(NUMBERS), st.floats(-1e3, 1e3).map(repr))
calls = st.recursive(numbers, lambda inner: st.one_of(
    st.builds(lambda name, args: f"{name}({','.join(args)})", st.sampled_from(NAMES),
              st.lists(st.one_of(inner, st.builds(lambda p, v: f"{p}={v}",
                                                  st.sampled_from(PARAMS), inner)),
                       max_size=4)),
    st.builds(lambda c, term: f"{c}*{term}", numbers, inner),
    st.builds(lambda a, b: f"{a} + {b}", inner, inner),
    st.builds(lambda a, b: f"{a} - {b}", inner, inner),
    st.builds(lambda s, h: f"{s} @ {h}", inner, st.sampled_from(HERMS))), max_leaves=10)
texts = st.one_of(calls, st.text(alphabet="()=,;*+-@:. 12e0abcdgilmnoprstuw_", max_size=24))
models = st.sampled_from(MODELS)
PROPERTY = settings(derandomize=True, deadline=None, max_examples=300, database=None)


def _parses_or_names_key(parse, *args):
    try:
        parse(*args, key=KEY)
    except ConfigError as exc:
        assert exc.key == KEY, exc


@PROPERTY
@given(texts)
def test_manifold_parses_or_names_key(text):
    _parses_or_names_key(parse_manifold, text)


@PROPERTY
@given(models, texts)
def test_potential_parses_or_names_key(model, text):
    _parses_or_names_key(parse_potential, model, text)


@PROPERTY
@given(models, texts, st.integers(1, 3))
def test_section_parses_or_names_key(model, text, rank):
    _parses_or_names_key(parse_section, model, text, rank)


@PROPERTY
@given(models, texts)
def test_beta_parses_or_names_key(model, text):
    _parses_or_names_key(parse_beta, model, text)


points = st.one_of(
    st.builds("auto:{}".format, numbers),
    st.lists(st.lists(numbers, max_size=4).map(",".join), max_size=4).map(";".join),
    texts)


@PROPERTY
@given(models, points)
def test_points_parse_or_name_key(model, text):
    _parses_or_names_key(parse_points, model, text)


# besides the atoms (1e12 among them, which the step cap rejects), t <= 10
# and h >= 1e-3: an accepted grid has at most 4 * 10^4 steps
times = st.one_of(st.sampled_from(NUMBERS), st.floats(0.0, 10.0).map(repr))
steps = st.one_of(st.sampled_from(NUMBERS), st.floats(1e-3, 1.0).map(repr))


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(times, steps, st.lists(times, min_size=1, max_size=4).map(",".join))
def test_time_grid_of_a_valid_config(t, h, t_grid):
    # RunConfig rejects the input naming one of its keys, or time_grid lays
    # out the steps and the checkpoints below t, as exit-time reads them
    try:
        cfg = RunConfig.from_mapping({"t": t, "h": h, "t_grid": t_grid})
    except ConfigError as exc:
        assert exc.key in ("t", "h", "t_grid"), exc
        return
    t, h = cfg.number("t"), cfg.number("h")
    checkpoints = sorted(c for c in cfg.values("t_grid") if c < t)
    times, snaps = time_grid(t, h, checkpoints)
    tol = 1e-9 * max(1.0, t)  # time_grid merges times closer than this
    assert times[0] <= tol and times[-1] == t and np.all(np.diff(times) > 0)
    assert np.all(np.diff(times) <= h * (1 + 1e-9))
    assert snaps[-1] == len(times) - 1
    assert np.allclose(times[snaps[:-1]], checkpoints, rtol=0, atol=tol)
