"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import itertools
import json
import os
import shutil
import subprocess
import sys
import types

import pytest

import inputs
import run
import tracing
import workloads

CONFIG = run.benchmark_config()


def _files(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name)) as fh:
            out[name] = fh.read()
    return out


def _first(workload, seed, root, n_rounds=3):
    """The requests of the opening and the first rounds, files written."""
    rounds = workloads.rounds(workload, seed, str(root))
    return [req for r in itertools.islice(rounds, n_rounds) for req in r]


def _args(stream, root):
    return [[a.replace(str(root), "<root>") for a in req.args] for req in stream]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    a = _first(workload, 7, tmp_path / "a")
    b = _first(workload, 7, tmp_path / "b")
    c = _first(workload, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _args(a, tmp_path / "a") == _args(b, tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_criterion_5_family_has_197_graphs():
    assert len(inputs.acyclic_family(4, 5)) == 197


def test_divisibility_arithmetic():
    assert workloads.contained(0, 12, 4) and not workloads.contained(0, 4, 12)
    assert workloads.contained(0, 0, 7) and not workloads.contained(0, 7, 0)
    # in Z/12 the zero ideal is written (0) and lies in every ideal
    assert workloads.contained(12, 0, 6) and not workloads.contained(12, 6, 0)
    assert workloads.contained(12, 6, 3) and not workloads.contained(12, 3, 6)
    bad = workloads.table_violations(0, {"{v}": "(2)"}, {"{v}": "(4)"}, "A<=B")
    assert bad and "not inside" in bad[0]


def test_checks_reject_wrong_outputs():
    state = workloads.ChainState("Z")
    state.docs["A"] = {"ring": "Z", "f": {"{v}": "(4)"}, "g": {}}
    check = workloads.check_pair(state, "M", star=1, below=("A",))
    good = json.dumps({"ring": "Z", "f": {"{v}": "(8)"}, "g": {}})
    wrong = json.dumps({"ring": "Z", "f": {"{v}": "(2)"}, "g": {}})
    assert check(workloads.Outcome(0, good, "")) is None
    assert check(workloads.Outcome(0, wrong, ""))
    assert check(workloads.Outcome(2, "", "error:parse: x\n"))
    domain = workloads.Outcome(1, "", "error:domain: not row-finite\n")
    assert workloads.check_domain_error(domain) is None
    assert workloads.check_domain_error(workloads.Outcome(0, "ok\n", ""))


def _smoke(workload, n):
    cli = run.import_program()
    root = os.path.join(run.WORK, f"test-{workload}")
    try:
        stream = _first(workload, 11, root)[:n]
        result = run.run_stream(cli, [stream], 0.0)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return stream, result


@pytest.mark.parametrize("workload,n", [("lattice", 40), ("oracle", 60), ("laurent", 60)])
def test_smoke_run_has_no_failures(workload, n):
    stream, result = _smoke(workload, n)
    assert len(result["latencies"]) == n
    assert result["failures"] == []
    assert run.counts(result) == (True, n, 0)


@pytest.mark.parametrize("exc", [TypeError("boom"), run.RequestTimeout()])
def test_a_failing_request_makes_the_run_incorrect(tmp_path, exc):
    chain = [workloads.Request("c", "from-generators", ["x"], check=workloads.check_generators)
             for _ in range(3)]
    other = workloads.Request("d", "prime", ["y"], check=lambda o: None)
    calls = []

    def main(args, standalone_mode):
        calls.append(args)
        if len(calls) == 1:
            raise exc

    result = run.run_stream(types.SimpleNamespace(main=types.SimpleNamespace(main=main)),
                            [chain + [other]], 0.0)
    assert calls == [["x"], ["y"]]  # the rest of chain c was skipped, chain d ran
    assert run.counts(result) == (False, 4, 3)
    assert [f[0] for f in result["failures"]] == [0, 1, 2]
    assert len(result["digests"]) == 4


def test_times_are_scaled_by_the_samples_around_them():
    speed = run.Speed()
    speed.times = [float(k) for k in range(10)]
    speed.samples = [run.REFERENCE_S * k for k in (1, 1, 1, 1, 1, 3, 3, 3, 3, 3)]
    assert speed.scale(-1.0) == 1.0  # only the four samples after it
    assert speed.scale(4.5) == pytest.approx(1 / 2)  # four 1s before it, four 3s after
    assert speed.scale(20.0) == pytest.approx(1 / 3)  # only the four samples before it
    result = run.run_stream(types.SimpleNamespace(main=types.SimpleNamespace(
        main=lambda args, standalone_mode: None)),
        [[workloads.Request("c", "prime", ["x"], check=lambda o: None)]], 0.0)
    assert len(result["speed"]) >= 2  # sampled before the first request and after the last
    assert result["latencies"][0] > 0 and result["measured"][0] > 0


def _snapshot():
    names = [m for m in sys.modules if m == "lpalattice" or m.startswith("lpalattice.")]
    snap = {}
    for m in names:
        for attr, value in vars(sys.modules[m]).items():
            snap[(m, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("lpalattice"):
                for cattr, cvalue in vars(value).items():
                    snap[(m, attr, cattr)] = cvalue
    return snap


def test_every_wrapper_is_removed():
    run.import_program()
    before = _snapshot()
    tracer = tracing.Tracer().install()
    try:
        during = _snapshot()
        changed = [k for k in before if during[k] is not before[k]]
        assert ("lpalattice.ideals", "pair_lattice") in changed
        assert ("lpalattice.cli", "context") in changed
        assert ("lpalattice.rings", "IntegerRing", "gen_sum") in changed
        stream, result = _smoke("laurent", 20)
    finally:
        tracer.remove()
    after = _snapshot()
    assert all(after[k] is before[k] for k in before)


def test_targets_the_library_lacks_are_skipped(monkeypatch):
    run.import_program()
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [
        ("graph", "no_such_function", True), ("ideals", "NoSuchClass.method", True)])
    tracer = tracing.Tracer().install()
    tracer.remove()
    assert tracer.missing == ["graph.no_such_function", "ideals.NoSuchClass.method"]


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def _check_schema(result, section):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in CONFIG[section]}
    assert set(result["metrics"]) == set(want)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == want[name]
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_follow_the_schema(trace, section):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "laurent",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    _check_schema(_last_json(proc.stdout), section)
    if trace:
        assert "match the untraced run" in proc.stdout


def test_benchmark_json_contract():
    assert set(CONFIG) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in CONFIG["workloads"]] == list(workloads.WORKLOADS)
    setup = [m for m in CONFIG["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": max(
        m["bound"] for m in CONFIG["end_to_end"])}]
    assert all(0 < m["bound"] <= 0.25 for m in CONFIG["end_to_end"])


def test_exits_without_result_when_the_program_is_missing(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lattice", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
