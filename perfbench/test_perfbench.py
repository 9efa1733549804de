"""Self-tests of the benchmark: seeded inputs, tracing, failure counting, guards.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def tmp_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("perfbench")


def _inputs(name, seed, tmp_dir, ops=range(4)):
    workload = workloads.make(name, tmp_dir)
    values = []
    for i in ops:
        inp = workload.make_input(seed, i)
        if name == "cli-cold" and "--data" in inp:
            # hom-fit reads a generated file: compare its content, not its path.
            values.append((inp[: inp.index("--data")], Path(inp[inp.index("--data") + 1]).read_text()))
        else:
            values.append(inp)
    return values


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_gives_identical_inputs(name, tmp_dir):
    assert _inputs(name, 7, tmp_dir) == _inputs(name, 7, tmp_dir)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_other_seed_gives_different_inputs(name, tmp_dir):
    first, second = _inputs(name, 7, tmp_dir), _inputs(name, 8, tmp_dir)
    assert all(a != b for a, b in zip(first, second))


def test_traced_and_untraced_ops_give_identical_outputs(tmp_dir):
    workload = workloads.make("purity-eval", tmp_dir)
    workload.warm_up()
    inputs = workload.make_input(3, 0)
    plain = workloads.digest(workload.run(inputs))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        traced = workloads.digest(workload.run(inputs))
    finally:
        tracer.uninstall()
    names = {row[0] for row in tracer.rows()}
    assert traced == plain
    assert {"jsa.build_jsa", "jsa.pump_function", "jsa.schmidt", "hom.overlap_p"} <= names


def test_traced_cli_command_prints_identical_bytes(tmp_dir):
    argv = ["hom-sim", "--config", "paper40cm.json", "--p", "0.86", "--seed", "4"]
    shim = [sys.executable, str(HERE / "cli_shim.py")]
    spans = tmp_dir / "spans-test.csv"
    plain = subprocess.run(shim + ["--", *argv], capture_output=True, check=True, timeout=120)
    traced = subprocess.run(shim + ["--spans", str(spans), "--", *argv], capture_output=True, check=True, timeout=120)
    assert plain.stdout and traced.stdout == plain.stdout
    assert json.loads(spans.with_suffix(".json").read_text())["fresh_import"]
    assert [r[0] for r in tracing.read_spans(spans, 0, 0)] == ["hom.simulate_counts"]


class _Corrupted:
    """A workload whose op returns a stored good output, altered by ``corrupt``."""

    def __init__(self, workload, good, corrupt):
        self.workload, self.good, self.corrupt = workload, good, corrupt
        self.name, self.cycle = workload.name, workload.cycle

    def make_input(self, seed, i):
        return self.workload.make_input(seed, i)

    def run(self, inputs):
        out = json.loads(json.dumps(self.good))
        self.corrupt(out)
        return out

    def check(self, inputs, output):
        return self.workload.check(inputs, output)


def test_corrupted_result_counts_as_failed_op(tmp_dir):
    workload = workloads.make("purity-eval", tmp_dir)
    workload.warm_up()
    good = workload.run(workload.make_input(3, 0))
    assert run.run_ops(_Corrupted(workload, good, lambda out: None), 3, 1e9, max_ops=1)[0]["problems"] == []

    def shift_overlap(out):
        out["overlap_p"] += 1e-3

    records = run.run_ops(_Corrupted(workload, good, shift_overlap), 3, 1e9, max_ops=2)
    assert [bool(r["problems"]) for r in records] == [True, True]
    assert "overlap" in records[0]["problems"][0]

    records = run.run_ops(_Corrupted(workload, good, lambda out: out.pop("purity")), 3, 1e9, max_ops=1)
    assert records[0]["problems"] == ["output check raised KeyError: 'purity'"]


def test_op_that_raises_counts_as_failed_op(tmp_dir):
    workload = workloads.make("purity-eval", tmp_dir)

    def boom(out):
        raise RuntimeError("solver blew up")

    records = run.run_ops(_Corrupted(workload, {}, boom), 3, 1e9, max_ops=1)
    assert records[0]["problems"] == ["RuntimeError: solver blew up"]


def test_guards_catch_a_workload_that_left_its_layer():
    def build(op, points):
        return ("dispersion.profile_build", op, 0.0, 1.0, -1, points, False)

    ops = [{"op": 0}, {"op": 1}]
    assert run.guards("design-sweep", [build(0, 2048), build(1, 2048)], ops, []) == []
    assert run.guards("design-sweep", [build(0, 2048)], ops, [])  # op 1 hit the cache
    assert run.guards("purity-eval", [build(1, 2048)], ops, [])
    assert run.guards("fit-analysis", [build(0, 192), build(1, 192), build(1, 2048)], ops, [])
    assert run.guards("cli-cold", [], ops, [workloads.Child("gvm", 1.0, 0.6, 0.9, True, None)])


def test_tail_percentile_keeps_ten_ops_beyond_it():
    assert run.tail([3.0, 1.0, 2.0]) == (50.0, 2.0)
    percentile, value = run.tail([float(i) for i in range(30)])
    assert (percentile, value) == (pytest.approx(100 * 20 / 30), 19.0)
    assert sum(1 for i in range(30) if i > value) == 10


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # cli-cold runs by hand only: see README.md, "Steadiness and bounds".
    assert [w["name"] for w in spec["workloads"]] == [n for n in workloads.NAMES if n != "cli-cold"]
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in tracing.PER_LAYER
    ]


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_traced_run_passes_guards_fingerprint_and_replay():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "purity-eval", "--seed", "5", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=170,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert done.returncode == 0 and result["correct"], done.stdout
    assert set(result["metrics"]) == {name for name, _, _, _ in tracing.PER_LAYER}
    assert "guards: pass" in done.stdout and "MISMATCH" not in done.stdout
