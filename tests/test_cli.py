import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fiberflow import cli, paths
from fiberflow.cli import EXIT_CHECK_FAILED, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main
from fiberflow.config import (_MAX_WORKERS, ConfigError, RunConfig, parse_beta,
                              parse_manifold, parse_points, parse_potential, parse_section,
                              read_config_file)
from fiberflow.geometry import Circle, Euclidean, OpenSubdomain, Sphere2, ball
from fiberflow.potentials import PotentialSpec, harmonic_field


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


# -- grammar -------------------------------------------------------------


def test_parse_manifolds():
    assert isinstance(parse_manifold("euclidean(m=3)"), Euclidean)
    assert isinstance(parse_manifold("sphere2(r=1.0)"), Sphere2)
    assert isinstance(parse_manifold("circle(r=2.0)"), Circle)
    dom = parse_manifold("ball(euclidean(m=2), r=1.0)")
    assert isinstance(dom, OpenSubdomain) and dom.base.dim == 2
    with pytest.raises(ConfigError, match="manifold"):
        parse_manifold("donut(r=1)")


def test_parse_potential_scalar_sum():
    e1 = Euclidean(1)
    V = parse_potential(e1, "harmonic(1.0) + 0.5*constant(2.0)")
    assert V.rank == 1
    assert V.field()(np.array([[2.0]]))[0] == pytest.approx(2.0 + 1.0)


def test_parse_potential_matrix():
    e2 = Euclidean(2)
    V = parse_potential(e2, "matrix(rank=2, const=diag(0.2,0.5), harmonic(1.0) @ pauli_x)")
    assert V.rank == 2
    M = V.matrix(np.array([[1.0, 0.0]]))[0]
    assert M[0, 0] == pytest.approx(0.2)
    assert M[0, 1] == pytest.approx(0.5)  # harmonic(1) at |x| = 1 -> 1/2
    with pytest.raises(ConfigError, match="rank"):
        parse_potential(e2, "matrix(const=diag(1,1))")


def test_parse_spin1_matrix_is_the_spinor_potential():
    # C = diag(1,0,-1) + S_x / 2 plus |x|^2/2 I, as the rank-3 benchmark builds it
    e2 = Euclidean(2)
    V = parse_potential(e2, "matrix(rank=3, const=diag(1,0,-1), 0.5 @ spin1_x, "
                            "harmonic(1.0) @ id)")
    s_x = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]) / np.sqrt(2.0)
    ref = PotentialSpec(rank=3, const=np.diag([1.0, 0.0, -1.0]) + 0.5 * s_x,
                        terms=[(harmonic_field(e2, 1.0), np.eye(3))])
    pts = np.array([[0.0, 0.0], [0.3, -1.2], [2.0, 5.0]])
    assert np.max(np.abs(V.matrix(pts) - ref.matrix(pts))) <= 1e-15
    S = [parse_potential(e2, f"matrix(rank=3, const=spin1_{a})").const for a in "xyz"]
    # the spin-1 algebra [S_x, S_y] = i S_z
    assert np.allclose(S[0] @ S[1] - S[1] @ S[0], 1j * S[2], rtol=0, atol=1e-15)


@pytest.mark.parametrize("text", ["matrix(rank=2, const=spin1_z)",
                                  "matrix(rank=3, harmonic(1.0) @ pauli_x)",
                                  "matrix(rank=4, harmonic(1.0) @ spin1_y)"])
def test_named_generator_at_wrong_rank_names_key(text):
    with pytest.raises(ConfigError, match="'potential'.*requires rank"):
        parse_potential(Euclidean(2), text)


def test_parse_section_and_beta():
    e1 = Euclidean(1)
    s = parse_section(e1, "harmonic_ground(1.0)")
    assert s.l2_norm == 1.0
    c = Circle(1.0)
    b = parse_beta(c, "dtheta(0.5)")
    assert b.pair(np.array([[0.0]]), np.array([[2.0]]))[0] == pytest.approx(1.0)
    with pytest.raises(ConfigError, match="beta"):
        parse_beta(c, "vortex(1)")


def test_parse_points_and_auto_grid():
    e2 = Euclidean(2)
    pts = parse_points(e2, "0,0; 1,2")
    assert pts.shape == (2, 2)
    grid = parse_points(e2, "auto:32")
    assert grid.shape == (32, 2)
    with pytest.raises(ConfigError, match="coords"):
        parse_points(e2, "1,2,3")
    # on a ball the spiral shrinks with the radius, up to radius 1
    for r in (0.3, 0.05):
        small = parse_points(ball(e2, r), "auto:32")
        assert np.max(np.linalg.norm(small, axis=-1)) < r
    assert np.array_equal(parse_points(ball(e2, 1.5), "auto:32"), grid)


@pytest.mark.parametrize("manifold", ["ball(sphere2(r=1.0), r=0.5)", "ball(circle(r=1.0), r=0.5)",
                                      "ball(torus(l=6.28,6.28), r=0.5)"])
def test_auto_grid_lies_inside_a_ball_of_a_compact_model(manifold):
    # an arc on the circle, a disc on the torus, a cap spiral on the sphere
    model = parse_manifold(manifold)
    grid = parse_points(model, "auto:32", key="x_grid")
    assert grid.shape == (32, model.coord_dim) and np.all(model.contains(grid))
    assert len(np.unique(grid, axis=0)) == 32
    if isinstance(model.base, Sphere2):
        assert np.allclose(np.linalg.norm(grid, axis=-1), 1.0, rtol=0, atol=1e-15)


def test_continuity_scan_auto_grid_on_a_small_ball(capsys):
    code, doc = run_cli(["continuity-scan", "--manifold", "ball(euclidean(m=2), r=0.3)",
                         "--potential", "harmonic(1.0)", "--section", "constant(1)",
                         "--x-grid", "auto:32", "--t", "0.1", "--h", "2e-2", "--n", "40",
                         "--seed", "6"], capsys)
    assert code in (EXIT_OK, EXIT_CHECK_FAILED) and doc["command"] == "continuity-scan"


# each builder, in positional and in keyword form (torus's list keyword is
# pinned by BAD_INPUTS)
SAME_CALLS = [
    ("manifold", "euclidean(3)", "euclidean(m=3)"),
    ("manifold", "circle(2.0)", "circle(r=2.0)"),
    ("manifold", "sphere2(1.5)", "sphere2(r=1.5)"),
    ("manifold", "ball(euclidean(m=2), 0.5)", "ball(euclidean(m=2), r=0.5)"),
    ("potential", "constant(2.0)", "constant(c=2.0)"),
    ("potential", "harmonic(2.0)", "harmonic(omega=2.0)"),
    ("potential", "coulomb(0.5)", "coulomb(alpha=0.5)"),
    ("potential", "inverse_square(0.5)", "inverse_square(alpha=0.5)"),
    ("potential", "power(0.5,1.5)", "power(coeff=0.5, p=1.5)"),
    ("potential", "well(0.5,0.3)", "well(depth=0.5, r=0.3)"),
    ("potential", "2*well(0.5,0.3) + -1", "2*well(depth=0.5, r=0.3) + -1"),
    ("section", "gaussian(0.7)", "gaussian(sigma=0.7)"),
    ("section", "harmonic_ground(2.0)", "harmonic_ground(omega=2.0)"),
    ("section", "fourier(3)", "fourier(n=3)"),
    ("beta", "dtheta(0.5)", "dtheta(a=0.5)"),
    ("beta", "landau(0.9)", "landau(lam=0.9)"),
]


@pytest.mark.parametrize("kind, positional, keyword", SAME_CALLS)
def test_positional_and_keyword_forms_agree(kind, positional, keyword):
    model = Circle(1.0) if "dtheta" in positional else Euclidean(2)
    pts = np.array([[0.3, 0.1], [-1.2, 0.4]])[:, :model.coord_dim]
    if kind == "manifold":
        a, b = parse_manifold(positional), parse_manifold(keyword)
        assert type(a) is type(b) and a.spec_string() == b.spec_string()
        return
    parse = {"potential": parse_potential, "section": parse_section, "beta": parse_beta}[kind]
    a, b = parse(model, positional), parse(model, keyword)
    if kind == "potential":
        assert np.array_equal(a.matrix(pts), b.matrix(pts))
    elif kind == "section":
        assert np.array_equal(a(pts), b(pts)) and a.l2_norm == b.l2_norm
        assert a.norm_bound == b.norm_bound
    else:
        assert np.array_equal(a.pair(pts, pts[::-1]), b.pair(pts, pts[::-1]))


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="frobnicate"):
        RunConfig.from_mapping({"frobnicate": "1"})


def test_config_round_trip(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("manifold = euclidean(m=1)\npotential = harmonic(1.0)\n"
                       "t = 0.5  # comment\nseed = 9\n")
    mapping = read_config_file(str(cfgfile))
    cfg = RunConfig.from_mapping(mapping)
    echo = cfg.echo()
    cfg2 = RunConfig.from_mapping(echo)
    assert cfg2.echo() == echo
    assert cfg2.number("t") == 0.5


# -- CLI dispatch --------------------------------------------------------


BASE = ["--manifold", "euclidean(m=1)", "--potential", "harmonic(1.0)",
        "--section", "harmonic_ground(1.0)", "--x", "0"]


def test_semigroup_command(capsys):
    code, doc = run_cli(["semigroup", *BASE, "--t", "0.5", "--h", "1e-3",
                         "--n", "2000", "--seed", "5"], capsys)
    assert code == 0
    assert doc["schema"] == 1 and "estimator" not in doc
    assert 0.5 < doc["value"] < 0.8


@pytest.mark.parametrize("command, n, h", [
    ("semigroup", 10000, 2e-4), ("ground-energy", 100000, 1e-3), ("resolvent", 5000, 1e-3),
    ("domination", 10000, 2e-4), ("smoothing", 1000, 2e-4), ("identity-check", 10000, 3e-4),
    ("continuity-scan", 1500, 2e-4), ("kato-check", None, 2.5e-4), ("exit-time", 10000, 2e-4),
])
def test_command_defaults(command, n, h):
    # h = max(1e-3 t, 1e-6), or 1e-3 (s + t) on identity-check, unless fixed
    cfg = RunConfig.from_mapping({
        "manifold": "euclidean(m=1)", "potential": "harmonic(1.0)", "section": "gaussian(1.0)",
        "t": "0.2", "s": "0.1", "x": "0", "x_grid": "0", "t_grid": "0.1,0.2,0.3,0.4",
        "lam": "1", "r": "1", "seed": "0"})
    run = cli._Run(cli.COMMANDS[command], cfg)
    assert run.n == n and run.h == pytest.approx(h, rel=1e-12)


def _without(argv, key):
    flag = "--lambda" if key == "lam" else "--" + key.replace("_", "-")
    i = argv.index(flag)
    return argv[:i] + argv[i + 2:]


@pytest.mark.parametrize("command, key", [
    ("semigroup", "t"), ("resolvent", "section"), ("resolvent", "potential"),
    ("domination", "section"), ("domination", "potential"), ("identity-check", "section"),
    ("identity-check", "potential"), ("continuity-scan", "section"),
    ("continuity-scan", "potential"), ("ground-energy", "potential"), ("exit-time", "x"),
    ("kato-check", "potential"),
])
def test_missing_required_flag_names_key(command, key, capsys):
    # each command's golden argv less one key the command requires
    argv = next(argv for argv in CLI_CASES.values() if argv[0] == command)
    code = main(_without(argv, key))
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == f"error: config key '{key}': required value missing\n"


@pytest.mark.parametrize("flag, key", [("--config", "config"), ("--out", "out"),
                                       ("--dump-paths", "dump_paths")])
def test_unreachable_file_names_key(flag, key, tmp_path, capsys):
    missing = tmp_path / "no-such-dir"
    code = main(["semigroup", *BASE, "--t", "0.01", "--n", "10", flag, str(missing / "f")])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith(f"error: config key '{key}': ")
    assert captured.err.count("\n") == 1
    assert not missing.exists()


@pytest.mark.parametrize("flags, key", [
    (["--t", "0.1", "--h", "nan", "--n", "10"], "h"),
    (["--t", "inf", "--h", "0.01", "--n", "10"], "t"),
    (["--t", "0.1", "--h", "0.01", "--n", "nan"], "n"),
])
def test_non_finite_number_names_key(flags, key, capsys):
    code = main(["semigroup", *BASE, *flags])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert f"'{key}'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flags, key", [
    (["--n", "10.7"], "n"),
    (["--n", "10", "--bundle-rank", "1.5"], "bundle_rank"),
])
def test_non_integral_count_names_key(flags, key, capsys):
    code = main(["semigroup", *BASE, "--t", "0.1", "--h", "0.01", *flags])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert f"'{key}'" in err and "integer" in err
    assert "Traceback" not in err
    assert RunConfig.from_mapping({"n": "1e3"}).integer("n") == 1000


@pytest.mark.parametrize("flags, key", [
    (["--n", "0"], "n"), (["--n", "-5"], "n"), (["--h", "-0.1"], "h"), (["--h", "0"], "h"),
    (["--t", "-1"], "t"), (["--trials", "0"], "trials"), (["--k", "0"], "k"),
    (["--r", "0"], "r"), (["--radius", "-8"], "radius"), (["--t-grid", "0.05,-0.2"], "t_grid"),
    (["--s-grid", "0.01,-0.1"], "s_grid"), (["--s", "-0.05"], "s"), (["--lambda", "0"], "lam"),
    # one 10-path block: a missing workers check would still start no process
    (["--workers", "0"], "workers"), (["--workers", "-2"], "workers"),
    (["--workers", str(_MAX_WORKERS + 1)], "workers"),
])
def test_out_of_range_value_names_key(flags, key, capsys):
    code = main(["semigroup", *BASE, "--t", "0.1", "--h", "0.01", "--n", "10", *flags])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith(f"error: config key '{key}': need {key} ")
    assert "Traceback" not in err
    # t = 0 is a valid zero-step run
    assert RunConfig.from_mapping({"t": "0", "h": "1e-3", "n": "1"}).number("t") == 0.0


def _semigroup_argv(command="semigroup", **flags):
    """A 10-path run of `command` (semigroup by default) on the real line,
    with some flags replaced."""
    flags = {"manifold": "euclidean(m=1)", "potential": "harmonic(1.0)",
             "section": "gaussian(1.0)", "x": "0", **flags}
    return [command, "--t", "0.1", "--h", "0.01", "--n", "10",
            *(a for k, v in flags.items() for a in ("--" + k.replace("_", "-"), v))]


E2_RANK2 = {"manifold": "euclidean(m=2)", "section": "constant(1)", "x": "0,0"}
CIRCLE_MAGNETIC = {"manifold": "circle(r=1.0)", "bundle": "magnetic"}
BAD_INPUTS = [
    # read wrongly: a 1-d torus, omega = 1, surplus or misspelt arguments dropped
    (dict(manifold="torus(l=6.28,6.28)"), "x"),
    (dict(potential="harmonic(omeg=2)"), "potential"),
    (dict(potential="harmonic(1.0,2.0)"), "potential"),
    (dict(potential="power(1,2,3)"), "potential"),
    (dict(CIRCLE_MAGNETIC, beta="dtheta(a=0.5,b=3)"), "beta"),
    (dict(manifold="ball(euclidean(m=2), r=1.0, 7)", x="0,0"), "manifold"),
    # non-integral dimensions and ranks, truncated
    (dict(manifold="euclidean(m=2.7)", x="0,0"), "manifold"),
    (dict(section="fourier(n=2.5)"), "section"),
    (dict(E2_RANK2, potential="matrix(rank=2.5)"), "potential"),
    (dict(section="gaussian(inf)"), "section"),
    # 1-form components broadcast against a chart of another dimension
    (dict(CIRCLE_MAGNETIC, beta="constant(1,2)"), "beta"),
    (dict(manifold="euclidean(m=2)", x="0,0", bundle="magnetic", beta="dtheta(1)"), "beta"),
    (dict(manifold="euclidean(m=1)", bundle="magnetic", beta="landau(1)"), "beta"),
    (dict(CIRCLE_MAGNETIC, beta="landau(1)"), "beta"),
    (dict(manifold="euclidean(m=3)", x="0,0,0", bundle="magnetic", beta="landau(1)"), "beta"),
    # malformed or out-of-range numbers
    (dict(manifold="euclidean(m=abc)"), "manifold"),
    (dict(E2_RANK2, potential="matrix(rank=abc)"), "potential"),
    (dict(potential="1.2.3"), "potential"),
    (dict(x="auto:abc"), "x"),
    (dict(x="auto:-3"), "x"),
    (dict(manifold="euclidean(m=0)"), "manifold"),
    (dict(manifold="euclidean(m=1e12)"), "manifold"),
    (dict(manifold="circle(r=-1)"), "manifold"),
    (dict(manifold="torus(l=0,1)", x="0,0"), "manifold"),
    (dict(manifold="ball(euclidean(m=1), r=-1)"), "manifold"),
    (dict(E2_RANK2, potential="matrix(rank=40)"), "potential"),
    (dict(bundle_rank="0"), "bundle_rank"),
    (dict(potential="harmonic(nan)"), "potential"),
    (dict(potential="1e400*harmonic(1)"), "potential"),
    (dict(CIRCLE_MAGNETIC, beta="constant(inf)"), "beta"),
    # bundles the model or the config cannot carry
    (dict(bundle="magnetic"), "beta"),
    (dict(bundle="tangent", bundle_rank="2", section="constant(1,0)",
          potential="matrix(rank=2, const=id)"), "bundle"),
    # beta is the magnetic bundle's: another bundle kind cannot carry it
    (dict(manifold="euclidean(m=2)", x="0,0", bundle="trivial", beta="landau(1)"), "bundle"),
    (dict(manifold="euclidean(m=2)", x="0,0", bundle="tangent", beta="landau(1)"), "bundle"),
    # a potential of another rank than the tangent bundle's
    (dict(manifold="sphere2(r=1.0)", x="0,0,1", bundle="tangent"), "potential"),
    # a singular negative part on a base with no Kato quadrature rule has no
    # Khas'minskii bound: a sup over nodes would not bound it
    (dict(command="smoothing", manifold="sphere2(r=1.0)", potential="coulomb(1.0)"), "potential"),
    # a model the Kato quadrature has no rule for
    (dict(command="kato-check", manifold="sphere2(r=1.0)"), "manifold"),
    (dict(command="kato-check", manifold="euclidean(m=4)", potential="coulomb(1.0)"), "manifold"),
    # the slope fit of ground-energy: a repeated time made its matrix
    # singular, and fewer than 4 times failed without naming the key
    (dict(command="ground-energy", t_grid="0.5,1,1,1", radius="4"), "t_grid"),
    (dict(command="ground-energy", t_grid="0.5,1.0,1.5", radius="4"), "t_grid"),
    # kato-check's decay fit on a repeated time read a Kato potential as failing
    (dict(command="kato-check", manifold="euclidean(m=3)", potential="coulomb(0.5)",
          t_grid="0.1,0.1"), "t_grid"),
    # and on a single time fitted its slope to one point, with a RankWarning
    (dict(command="kato-check", manifold="euclidean(m=3)", potential="coulomb(0.5)",
          t_grid="0.1"), "t_grid"),
    # points off the model ran: a tiny value off the disk, a first step in a
    # non-orthonormal frame off the sphere
    (dict(manifold="hyperbolic()", x="2,0"), "x"),
    (dict(manifold="sphere2(r=1.0)", x="0,0,5"), "x"),
    # an exit ball that does not hold the start named no key
    (dict(command="exit-time", x="0.5", r="0.3"), "r"),
    # a ball's boundary function alone passed a start off its base
    (dict(manifold="ball(sphere2(r=1.0), r=0.5)", x="0,0,5"), "x"),
    # counts past the caps ran out of memory, named no key or ran without end
    (dict(n="1e12"), "n"),
    (dict(command="exit-time", r="1", n="1e19"), "n"),
    (dict(trials="1e12"), "trials"),
    # grids of no numbers: an IndexError traceback, and a report of t alone
    (dict(command="continuity-scan", x_grid="auto:32", s_grid=","), "s_grid"),
    (dict(command="exit-time", r="1", t_grid=","), "t_grid"),
    # Gamma(k) of the resolvent overflowed in a math.gamma traceback
    ({"command": "resolvent", "lambda": "1", "k": "172"}, "k"),
    ({"command": "resolvent", "lambda": "1", "k": "400"}, "k"),
    # a zero time ran for minutes after a divide-by-zero warning, ended in
    # LAPACK lines and an SVD error, or named no key
    (dict(command="kato-check", manifold="euclidean(m=3)", potential="coulomb(1.0)",
          t_grid="0,0.1"), "t_grid"),
    (dict(command="kato-check", manifold="circle(r=1.0)", potential="well(1,0.5)",
          t_grid="0,0.1"), "t_grid"),
    (dict(command="smoothing", manifold="sphere2(r=1.0)", t="0"), "t"),
]


@pytest.mark.parametrize("flags, key", BAD_INPUTS)
@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
def test_bad_input_exits_at_config_time_naming_key(flags, key, capsys):
    code = main(_semigroup_argv(**flags))
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith(f"error: config key '{key}': ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_validate_with_too_many_trials_exits_naming_trials(capsys):
    code = main(["validate", "appendix-c", "--trials", "1e12"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == "error: config key 'trials': need trials in 1..10^5, got '1e12'\n"


def test_numerical_failure_exit_code(capsys):
    # at t = 400 the log functional of 200 paths is no longer positive
    code = main(["ground-energy", "--manifold", "euclidean(m=1)", "--potential",
                 "harmonic(1.0)", "--section", "harmonic_ground(1.0)",
                 "--t-grid", "1,2,3,400", "--h", "0.5", "--n", "200", "--radius", "8"])
    captured = capsys.readouterr()
    assert code == EXIT_NUMERICAL
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


GAUSS_E1 = ["--manifold", "euclidean(m=1)", "--potential", "harmonic(1.0)",
            "--section", "gaussian(1.0)"]


@pytest.mark.parametrize("argv", [
    # Gauss-Laguerre nodes at u/lam reach t ~ 3e10
    ["resolvent", *GAUSS_E1, "--x", "0", "--lambda", "1e-9", "--n", "2"],
    # the default h, which the config check does not see
    ["ground-energy", *GAUSS_E1, "--t-grid", "1e7,2e7,3e7,4e7", "--n", "2", "--radius", "3"],
])
def test_step_count_beyond_cap_exits_naming_h(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("error: need at most 10000000 steps of h = 0.001 up to t = ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_resolvent_node_beyond_step_cap_names_lambda(capsys):
    # the last Gauss-Laguerre node u/lambda sets the run's length: at
    # lambda = 1e-3 it takes 3e7 steps of the default h
    code = main(["resolvent", *GAUSS_E1, "--x", "0", "--lambda", "1e-3", "--n", "2"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("error: need at most 10000000 steps of h = 0.001 up to t = ")
    assert "lambda = 0.001" in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_ground_energy_on_hyperbolic_exits_naming_manifold(capsys):
    # box starts are uniform in chart coordinates, not in the disk's dvol
    code = main(["ground-energy", "--manifold", "hyperbolic()", "--potential", "harmonic(1.0)",
                 "--section", "gaussian(1.0)", "--x", "0,0", "--t-grid", "0.1,0.2,0.3,0.4",
                 "--n", "10", "--h", "1e-2", "--radius", "0.5"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("error: manifold hyperbolic(): ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("manifold, radius", [("ball(euclidean(m=1), r=1.0)", ["--radius", "3"]),
                                              ("ball(sphere2(r=1.0), r=0.5)", [])])
def test_ground_energy_on_a_ball(manifold, radius, capsys):
    # start points are drawn inside the domain, on the sphere for a spherical cap
    code, doc = run_cli(["ground-energy", "--manifold", manifold, "--potential", "harmonic(1.0)",
                         "--section", "gaussian(1.0)", "--t-grid", "0.1,0.2,0.3,0.4",
                         "--n", "200", "--h", "1e-2", *radius], capsys)
    assert code == EXIT_OK
    assert 0.0 < doc["aliveFraction"] < 1.0 and math.isfinite(doc["energy"])


@pytest.mark.parametrize("potential", ["harmonic(1e200)", "1e308*harmonic(100.0)"])
def test_non_finite_potential_exit_code(potential, capsys):
    # omega^2 overflows a float; 1e308 * |x|^2 / 2 * 1e4 is +inf off the origin
    code = main(["semigroup", "--manifold", "euclidean(m=1)", "--potential", potential,
                 "--section", "constant(1)", "--x", "0", "--t", "0.1", "--h", "0.01",
                 "--n", "10"])
    captured = capsys.readouterr()
    assert code == EXIT_NUMERICAL
    assert captured.out == ""
    assert captured.err.startswith("error: potential: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("workers, n", [("1", "10"), ("2", "8200")])  # 1 block, 2 blocks
@pytest.mark.parametrize("potential, x", [
    ("matrix(rank=2, const=diag(1e300,1), 1e300*harmonic(1.0) @ id)", "0.5,0"),
    ("matrix(rank=2, const=diag(-1e308,0))", "0,0"),  # holonomy e^{+1e306}
])
@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
def test_overflowing_matrix_potential_exit_code(potential, x, workers, n, capfd):
    # capfd also holds what worker processes write
    code = main(["semigroup", "--manifold", "euclidean(m=2)", "--bundle-rank", "2",
                 "--potential", potential, "--section", "constant(1)", "--x", x,
                 "--t", "0.1", "--h", "0.01", "--n", n, "--workers", workers])
    captured = capfd.readouterr()
    assert code == EXIT_NUMERICAL
    assert captured.out == ""
    assert captured.err.startswith("error: potential: ") and captured.err.count("\n") == 1


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
def test_huge_diagonal_potential_is_finite(capsys):
    # its Hermitian part no longer overflows, and e^{-t 1e308} = 0 is exact
    code = main(["semigroup", "--manifold", "euclidean(m=2)", "--bundle-rank", "3",
                 "--potential", "matrix(rank=3, const=diag(1e308,0,-1))",
                 "--section", "constant(1)", "--x", "0,0", "--t", "0.1", "--h", "0.01",
                 "--n", "10"])
    captured = capsys.readouterr()
    assert code == EXIT_OK and captured.err == ""
    assert json.loads(captured.out)["value"]["re"] == pytest.approx([0.0, 1.0, np.exp(0.1)])


def test_nan_in_document_exit_code(monkeypatch, tmp_path, capsys):
    # NaN is not JSON: no document, no file, one error line
    monkeypatch.setitem(cli.COMMANDS, "semigroup", cli.COMMANDS["semigroup"]._replace(
        run=lambda cfg, run: ({"value": float("nan"), "stderr": np.zeros(2)}, False)))
    out = tmp_path / "res.json"
    for extra in ([], ["--out", str(out)]):
        code = main(["semigroup", *BASE, "--t", "0.1", *extra])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERICAL
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
    assert not out.exists()


def test_rank3_semigroup_command(capsys):
    # the spin-1 grammar reaches the rank-3 exponential; the vector
    # estimator asserts per-sample domination (exit 3 if it failed)
    code, doc = run_cli(["semigroup", "--manifold", "euclidean(m=2)", "--bundle-rank", "3",
                         "--potential", "matrix(rank=3, const=diag(1,0,-1), 0.5 @ spin1_x, "
                                        "harmonic(1.0) @ id)",
                         "--section", "constant(1,1,1)", "--x", "0,0", "--t", "0.1",
                         "--h", "1e-3", "--n", "400", "--seed", "3"], capsys)
    assert code == 0
    assert len(doc["value"]["re"]) == 3


def _document(argv, capsys):
    """(exit code, document without config and wallTimeMs) of one run."""
    code, doc = run_cli(argv, capsys)
    doc.pop("config")
    doc.pop("wallTimeMs")
    return code, doc


def test_trivial_bundle_takes_the_potential_rank(capsys):
    argv = ["semigroup", "--manifold", "euclidean(m=2)", "--potential",
            "matrix(rank=2, const=diag(0.2,0.5))", "--section", "constant(1,1)", "--x", "0,0",
            "--t", "0.1", "--h", "1e-2", "--n", "50", "--seed", "4"]
    code, doc = _document(argv, capsys)
    assert code == EXIT_OK and doc == _document(argv + ["--bundle-rank", "2"], capsys)[1]


def test_beta_alone_is_the_magnetic_bundle(capsys):
    argv = ["resolvent", "--manifold", "euclidean(m=2)", "--potential", "harmonic(1.0)",
            "--section", "gaussian(1.0)", "--x", "0.1,0.2", "--lambda", "1.0", "--h", "1e-2",
            "--n", "200", "--seed", "4", "--beta", "landau(0.9)"]
    code, alone = _document(argv, capsys)
    assert code == EXIT_OK and alone == _document(argv + ["--bundle", "magnetic"], capsys)[1]
    # and the phase is there: the value is complex, unlike the run without beta
    assert isinstance(alone["value"], dict)
    assert not isinstance(_document(argv[:-2], capsys)[1]["value"], dict)


@pytest.mark.parametrize("command, extra", [
    ("semigroup", ["--x", "0", "--t", "0.2", "--h", "1e-3", "--n", "300"]),
    ("ground-energy", ["--t-grid", "0.2,0.4,0.6,0.8", "--h", "1e-2", "--n", "300",
                       "--radius", "6"]),
])
@pytest.mark.parametrize("matrix, scalar", [
    ("matrix(rank=1, harmonic(1) @ diag(2))", "2 * harmonic(1)"),
    ("matrix(rank=1, const=diag(1), harmonic(1) @ id)", "harmonic(1) + 1"),
])
def test_rank1_matrix_potential_is_its_scalar_field(command, extra, matrix, scalar, capsys):
    # a rank-1 matrix potential runs as the one field c0 + sum p_i f_i: bit
    # for bit the scalar sum that writes the same field
    argv = [command, "--manifold", "euclidean(m=1)", "--section", "harmonic_ground(1.0)",
            "--seed", "7", *extra]
    code, got = _document(argv + ["--potential", matrix], capsys)
    assert code == EXIT_OK
    assert got == _document(argv + ["--potential", scalar], capsys)[1]


def test_closed_stdout_exits_quietly():
    # a document larger than a pipe buffer, read by a reader that stops early
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "fiberflow.cli", "exit-time", "--manifold", "euclidean(m=2)",
         "--x-grid", "auto:4096", "--r", "1.0", "--t", "0.01", "--h", "1e-3", "--n", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == EXIT_OK
    assert head.startswith(b"{") and err == b""


def test_kato_check_single_time_prints_only_the_error():
    # a fresh interpreter, so a warning from the slope fit would reach stderr
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "fiberflow.cli", "kato-check", "--manifold", "euclidean(m=3)",
         "--potential", "coulomb(0.5)", "--t-grid", "0.1"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_USAGE and proc.stdout == ""
    assert proc.stderr.startswith("error: config key 't_grid': ")
    assert proc.stderr.count("\n") == 1


def test_bad_grammar_exit_code(capsys):
    code = main(["semigroup", "--manifold", "moebius()", "--potential", "harmonic(1.0)",
                 "--section", "constant(1)", "--x", "0", "--t", "0.1"])
    assert code == 1
    assert "manifold" in capsys.readouterr().err


def test_determinism_identical_json(capsys):
    args = ["semigroup", *BASE, "--t", "0.3", "--h", "1e-3", "--n", "1500",
            "--seed", "21"]
    _, doc1 = run_cli(args, capsys)
    _, doc2 = run_cli(args, capsys)
    doc1.pop("wallTimeMs")
    doc2.pop("wallTimeMs")
    assert doc1 == doc2


def test_workers_do_not_change_values(capsys):
    args = ["semigroup", *BASE, "--t", "0.3", "--h", "1e-3", "--n", "3000",
            "--seed", "33"]
    _, d1 = run_cli(args + ["--workers", "1"], capsys)
    _, d4 = run_cli(args + ["--workers", "4"], capsys)
    assert d1["value"] == d4["value"] and d1["stderr"] == d4["stderr"]


def test_env_seed_default(capsys, monkeypatch):
    monkeypatch.setenv("FIBERFLOW_SEED", "777")
    _, doc = run_cli(["semigroup", *BASE, "--t", "0.2", "--n", "500"], capsys)
    assert doc["seed"] == 777


def test_validate_appendix_c(capsys):
    code, doc = run_cli(["validate", "appendix-c", "--trials", "25", "--seed", "7"],
                        capsys)
    assert code == 0
    assert doc["passed"] and not doc["violations"]


def test_exit_time_command(capsys):
    code, doc = run_cli(["exit-time", "--manifold", "euclidean(m=1)", "--x", "0",
                         "--r", "1.0", "--t", "0.2", "--h", "5e-4", "--n", "1000",
                         "--seed", "2"], capsys)
    assert code == 0
    assert 0.9 < doc["infOverStarts"][-1] <= 1.0


def test_kato_check_command(capsys):
    code, doc = run_cli(["kato-check", "--manifold", "euclidean(m=3)",
                         "--potential", "coulomb(0.5)", "--seed", "3"], capsys)
    assert code == 0
    assert doc["verdict"] == "katoConsistent"
    assert abs(doc["fittedDecayExponent"] - 0.5) < 0.1


def test_kato_check_negative_control_exit_code(capsys):
    code, doc = run_cli(["kato-check", "--manifold", "euclidean(m=3)",
                         "--potential", "inverse_square(0.5)", "--seed", "3"], capsys)
    # failsDecay on a declared non-Kato field is the expected verdict, not a
    # failure of the artifact
    assert code == 0
    assert doc["verdict"] == "failsDecay"


def test_identity_check_command(capsys):
    code, doc = run_cli(["identity-check", *BASE, "--s", "0.25", "--t", "0.25",
                         "--h", "1e-3", "--n", "2500", "--seed", "12"], capsys)
    assert code == 0
    assert doc["semigroup_identity"]["passed"]
    assert doc["perturbation_formula"]["passed"]


def test_ground_energy_command(capsys):
    code, doc = run_cli(["ground-energy", "--manifold", "euclidean(m=1)",
                         "--potential", "harmonic(1.0)", "--section",
                         "harmonic_ground(1.0)", "--t-grid", "0.5,1,1.5,2,2.5,3",
                         "--h", "2e-3", "--n", "20000", "--radius", "8",
                         "--seed", "4"], capsys)
    assert code == 0
    assert abs(doc["energy"] - 0.5) < 0.08


def test_dump_paths_csv(tmp_path, capsys):
    out = tmp_path / "paths.csv"
    code, _ = run_cli(["semigroup", *BASE, "--t", "0.05", "--h", "1e-3", "--n", "50",
                       "--seed", "5", "--dump-paths", str(out)], capsys)
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("path,step,time,coord0,alive,transport")
    assert len(lines) > 100


GOLDEN = Path(__file__).parent / "data" / "dump_paths"
DUMP_CASES = {
    "euclidean": ["--manifold", "euclidean(m=1)", "--potential", "harmonic(1.0)",
                  "--section", "gaussian(1.0)", "--x", "0"],
    "sphere2_tangent": ["--manifold", "sphere2(r=1.0)", "--bundle", "tangent",
                        "--bundle-rank", "2", "--potential",
                        "matrix(rank=2, const=diag(0.2,0.5), harmonic(1.0) @ pauli_x)",
                        "--section", "constant(1,0)", "--x", "0,0,1"],
    "magnetic_landau": ["--manifold", "euclidean(m=2)", "--bundle", "magnetic",
                        "--beta", "landau(0.9)", "--potential", "harmonic(1.0)",
                        "--section", "gaussian(1.0)", "--x", "0.1,0.2"],
    # every path leaves the ball, after 3, 28, 12 and 7 rows
    "ball_killed": ["--manifold", "ball(euclidean(m=1), r=0.08)", "--potential",
                    "harmonic(1.0)", "--section", "gaussian(1.0)", "--x", "0",
                    "--t", "0.05"],
}


@pytest.mark.parametrize("case", sorted(DUMP_CASES))
def test_dump_paths_golden(case, tmp_path, capsys):
    # points, alive flags and per-step transports, byte for byte
    out = tmp_path / "paths.csv"
    code = main(["semigroup", "--t", "0.01", "--h", "1e-3", "--n", "8", "--seed", "5",
                 *DUMP_CASES[case], "--dump-paths", str(out)])
    capsys.readouterr()
    assert code == 0
    assert out.read_bytes() == (GOLDEN / f"{case}.csv").read_bytes()


def test_out_flag_writes_file(tmp_path, capsys):
    out = tmp_path / "res.json"
    code = main(["semigroup", *BASE, "--t", "0.1", "--n", "200", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["command"] == "semigroup"


def test_cli_import_loads_no_estimator():
    # the benchmark's set-up probe imports fiberflow.cli; estimator modules
    # and scipy load inside the runners
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = ("import sys, fiberflow.cli; print(' '.join(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('fiberflow', 'scipy'))))")
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True).stdout.split()
    assert loaded == ["fiberflow", "fiberflow.bundles", "fiberflow.cli", "fiberflow.config",
                      "fiberflow.geometry", "fiberflow.potentials", "fiberflow.rng"]


def test_semigroup_import_loads_no_scipy():
    # the estimators take the Khas'minskii exponent as a number, so neither
    # the CLI nor the semigroup module imports kato (and with it scipy)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = ("import sys, fiberflow.cli, fiberflow.semigroup; print(' '.join(sorted(m for m "
             "in sys.modules if m == 'scipy' or m.startswith('scipy.'))))")
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True).stdout.split()
    assert loaded == []


def test_continuity_scan_on_sphere2_bounds_by_the_sup_norm(capsys):
    # sphere2 has no Kato quadrature rule; the bounded harmonic potential
    # takes the sup-norm exponent, and part (iii) runs
    code, doc = run_cli(["continuity-scan", "--manifold", "sphere2(r=1.0)", "--potential",
                         "harmonic(1.0)", "--section", "harmonic_ground(1.0)", "--x-grid",
                         "auto:32", "--t", "0.1", "--h", "2e-2", "--n", "40", "--seed", "6"],
                        capsys)
    assert code == EXIT_OK
    assert isinstance(doc["global_bound"]["bound"], float) and doc["global_bound"]["passed"]


CLI_GOLDEN = Path(__file__).parent / "data" / "cli"
R2 = "matrix(rank=2, const=diag(0.2,0.5), harmonic(1.0) @ pauli_x)"
E1 = ["--manifold", "euclidean(m=1)", "--potential", "harmonic(1.0)"]
CLI_CASES = {
    "semigroup_scalar": ["semigroup", *E1, "--section", "gaussian(1.0)", "--x", "0",
                         "--t", "0.2", "--h", "1e-3", "--n", "2000", "--seed", "3"],
    "semigroup_tangent": ["semigroup", "--manifold", "sphere2(r=1.0)", "--bundle", "tangent",
                          "--bundle-rank", "2", "--potential", R2, "--section", "constant(1,0)",
                          "--x", "0,0,1", "--t", "0.1", "--n", "500", "--seed", "5"],
    "semigroup_magnetic": ["semigroup", "--manifold", "euclidean(m=2)", "--bundle", "magnetic",
                           "--beta", "landau(0.9)", "--potential", "harmonic(1.0)",
                           "--section", "gaussian(1.0)", "--x", "0.1,0.2", "--t", "0.1",
                           "--n", "1000"],
    "semigroup_ball": ["semigroup", "--manifold", "ball(euclidean(m=1), r=0.3)",
                       "--potential", "harmonic(1.0)", "--section", "gaussian(1.0)",
                       "--x", "0", "--t", "0.1", "--n", "1000"],
    "ground_energy_scalar": ["ground-energy", *E1, "--section", "harmonic_ground(1.0)",
                             "--t-grid", "0.2,0.4,0.6,0.8,1.0", "--h", "1e-2", "--n", "2000",
                             "--radius", "8"],
    "ground_energy_magnetic": ["ground-energy", "--manifold", "euclidean(m=2)", "--bundle",
                               "magnetic", "--beta", "landau(0.9)", "--potential",
                               "harmonic(1.0)", "--section", "gaussian(1.0)",
                               "--t-grid", "0.2,0.4,0.6,0.8,1.0", "--h", "1e-2",
                               "--n", "2000", "--radius", "4"],
    "ground_energy_vector": ["ground-energy", "--manifold", "euclidean(m=2)", "--bundle-rank",
                             "2", "--potential", R2, "--section", "constant(1,1)",
                             "--t-grid", "0.2,0.4,0.6,0.8,1.0", "--h", "1e-2", "--n", "2000",
                             "--radius", "3"],
    "domination_rank2": ["domination", "--manifold", "euclidean(m=2)", "--bundle-rank", "2",
                         "--potential", R2, "--section", "constant(1,1)", "--x", "0,0",
                         "--t", "0.2", "--n", "1000"],
    "domination_tangent": ["domination", "--manifold", "sphere2(r=1.0)", "--bundle", "tangent",
                           "--bundle-rank", "2", "--potential", R2, "--section",
                           "constant(1,0)", "--x", "0,0,1", "--t", "0.2", "--n", "1000"],
    "identity_rank2": ["identity-check", "--manifold", "euclidean(m=2)", "--bundle-rank", "2",
                       "--potential", R2, "--section", "constant(1,1)", "--x", "0,0",
                       "--s", "0.05", "--t", "0.1", "--h", "1e-2", "--n", "400"],
    "identity_default_h": ["identity-check", *E1, "--section", "gaussian(1.0)", "--x", "0",
                           "--s", "0.02", "--t", "0.03", "--n", "100", "--seed", "8"],
    "exit_time": ["exit-time", "--manifold", "euclidean(m=1)", "--x", "0", "--r", "0.5",
                  "--t", "0.2", "--h", "1e-3", "--n", "2000", "--t-grid", "0.05,0.1"],
    # 3 x 600 paths of 10^4 steps: one run of one block, whose increments
    # are drawn in five chunks while its paths leave the ball
    "exit_time_three_starts": ["exit-time", "--manifold", "euclidean(m=1)", "--x-grid",
                               "0; 0.1; -0.2", "--r", "0.5", "--t", "0.1", "--h", "1e-5",
                               "--n", "600", "--t-grid", "0.02,0.05", "--seed", "2"],
    "exit_time_x_grid": ["exit-time", "--manifold", "euclidean(m=2)", "--x-grid",
                         "0,0; 0.2,0.1", "--r", "0.5", "--t", "0.1", "--n", "500",
                         "--seed", "9"],
    "resolvent": ["resolvent", *E1, "--section", "gaussian(1.0)", "--x", "0", "--lambda", "1.0",
                  "--k", "2", "--h", "1e-2", "--n", "500", "--seed", "4"],
    "smoothing_heat": ["smoothing", "--manifold", "sphere2(r=1.0)", "--t", "0.5", "--seed", "2"],
    "smoothing_potential": ["smoothing", "--manifold", "sphere2(r=1.0)", "--potential",
                            "harmonic(1.0)", "--t", "0.2", "--h", "1e-2", "--n", "100",
                            "--trials", "3", "--seed", "2"],
    "continuity_scan": ["continuity-scan", "--manifold", "ball(euclidean(m=2), r=1.0)",
                        "--potential", "harmonic(1.0)", "--section", "constant(1)",
                        "--x-grid", "auto:32", "--t", "0.1", "--h", "2e-2", "--n", "40",
                        "--seed", "6"],
    # harmonic_ground has an L2 norm, so part (iii), the global bound, runs
    "continuity_scan_well": ["continuity-scan", "--manifold", "ball(euclidean(m=1), r=1.0)",
                             "--potential", "well(0.5,0.3)", "--section",
                             "harmonic_ground(1.0)", "--x-grid", "auto:32", "--t", "0.1",
                             "--h", "2e-2", "--n", "40", "--seed", "6"],
    "kato_check": ["kato-check", "--manifold", "euclidean(m=3)", "--potential", "coulomb(0.5)",
                   "--seed", "3"],
    "kato_check_khasminskii": ["kato-check", "--manifold", "euclidean(m=3)", "--potential",
                               "coulomb(0.5)", "--n", "200", "--h", "1e-3", "--seed", "3"],
    # no --seed: the run takes FIBERFLOW_SEED or 0
    "validate_appendix_c": ["validate", "appendix-c", "--trials", "10"],
}


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_document_golden(case, monkeypatch, capsys):
    # the whole document but wallTimeMs, byte for byte
    monkeypatch.delenv("FIBERFLOW_SEED", raising=False)
    code = main(CLI_CASES[case])
    text = re.sub(r',\n  "wallTimeMs": \d+', "", capsys.readouterr().out)
    assert code == 0
    assert text == (CLI_GOLDEN / f"{case}.json").read_text(encoding="utf-8")


GRID_CASES = ("continuity_scan", "continuity_scan_well", "exit_time_three_starts",
              "kato_check_khasminskii", "smoothing_potential")


@pytest.mark.parametrize("points", [1, 3])
@pytest.mark.parametrize("case", GRID_CASES)
def test_grid_groups_keep_goldens(case, points, monkeypatch, capsys):
    # a start grid run in groups of 1 or 3 whole points draws the streams of
    # one run: the document does not change
    argv = CLI_CASES[case]
    monkeypatch.setattr(paths, "_GRID_PATHS", points * int(argv[argv.index("--n") + 1]))
    monkeypatch.delenv("FIBERFLOW_SEED", raising=False)
    assert main(argv) == 0
    text = re.sub(r',\n  "wallTimeMs": \d+', "", capsys.readouterr().out)
    assert text == (CLI_GOLDEN / f"{case}.json").read_text(encoding="utf-8")
