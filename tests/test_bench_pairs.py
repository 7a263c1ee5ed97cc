"""tools/bench_pairs.py records a pair of runs with the host's load,
stops on a failed benchmark run instead of recording it, naming the side,
workload, seed and exit code, and refuses two checkouts whose benchmark
code differs."""

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

FAILING = 'import sys\nsys.stderr.write("setup ok\\nbench: workload crashed\\n")\nsys.exit(1)\n'
WRONG = ('import json\nprint(json.dumps({"env": {}}))\n'
         'print(json.dumps({"correct": False, "attempted": 3, "failed": 1, "metrics": {}}))\n')


def test_summary_records_the_host_load_of_every_run(tmp_path):
    spec = json.loads((_TOOL.parents[1] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": 1.0} for m in spec["end_to_end"]}
    script = ('import json\nprint(json.dumps({"env": {}}))\n'
              f'print(json.dumps({{"correct": True, "attempted": 2, "failed": 0, '
              f'"metrics": {metrics!r}}}))\n')
    for side in ("parent", "change"):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text(script)
    out = tmp_path / "BENCH.json"
    bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                      "--workload", "scalar_harmonic", "--seeds", "5-6", "--trace-seed", "7",
                      "--out", str(out)])
    host = json.loads(out.read_text())["workloads"]["scalar_harmonic"]["host"]
    assert isinstance(host["cpus"], int) and host["cpus"] >= 1
    runs = [(r["side"], r["seed"], r["trace"]) for r in host["load1"]]
    assert runs == [("parent", 5, False), ("change", 5, False), ("change", 6, False),
                    ("parent", 6, False), ("parent", 7, True), ("change", 7, True)]
    for r in host["load1"]:
        assert r["before"] >= 0.0 and r["after"] >= 0.0


@pytest.mark.parametrize("script, why", [(FAILING, "exit code 1"),
                                         (WRONG, "exit code 0, result not correct")],
                         ids=["exits_1", "not_correct"])
def test_failed_run_stops_the_tool_naming_it(script, why, tmp_path, capsys):
    for side in ("parent", "change"):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text(script)
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                          str(tmp_path / "change"), "--workload", "scalar_harmonic",
                          "--seeds", "5-6", "--out", str(out)])
    msg = str(exc.value.code)
    assert msg.splitlines()[0] == f"bench_pairs: parent scalar_harmonic seed 5: {why}"
    if script is FAILING:
        assert msg.splitlines()[1:] == ["setup ok", "bench: workload crashed"]
    assert not out.exists()


@pytest.mark.parametrize("edit, named", [
    (lambda root: (root / "bench" / "workloads.py").write_text("N = 2\n"), "bench/workloads.py"),
    (lambda root: (root / "BENCHMARK.json").write_text("{}\n"), "BENCHMARK.json"),
    (lambda root: (root / "bench" / "extra.py").write_text(""), "bench/extra.py"),
], ids=["bench_file", "benchmark_json", "file_on_one_side"])
def test_differing_benchmark_code_stops_before_any_run(edit, named, tmp_path):
    # run.py would leave a marker: the tool must stop before running it
    marker = tmp_path / "ran"
    script = f"open({str(marker)!r}, 'w').close()\n"
    for side in ("parent", "change"):
        (tmp_path / side / "bench" / "__pycache__").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text(script)
        (tmp_path / side / "bench" / "workloads.py").write_text("N = 1\n")
        (tmp_path / side / "BENCHMARK.json").write_text('{"run_seconds": 1}\n')
        # compiled files are not benchmark code
        (tmp_path / side / "bench" / "__pycache__" / "run.pyc").write_bytes(side.encode())
    assert bench_pairs.first_difference(tmp_path / "parent", tmp_path / "change") is None
    edit(tmp_path / "change")
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                          str(tmp_path / "change"), "--workload", "scalar_harmonic",
                          "--seeds", "5-6", "--out", str(out)])
    assert str(exc.value.code) == f"bench_pairs: the checkouts' benchmark code differs: {named}"
    assert not marker.exists() and not out.exists()
