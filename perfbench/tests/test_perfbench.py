"""Tests of the benchmark itself: oracles, checks, generator, tracer, contract.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
import oracles
import tracer as tracing
import workloads
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def scenario_keys(name: str) -> dict:
    keys = {}
    for line in (ROOT / "scenarios" / name).read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            keys[key.strip()] = value.strip()
    return keys


def cli(argv) -> tuple[int, str]:
    from oltsim.cli import main

    out = io.StringIO()
    return main(list(argv), out), out.getvalue()


COMMITTED = [
    # file, run value at the file's settings, optimum of the optimizer's mode
    ("chsh_max.txt", 2 * math.sqrt(2), 2 * math.sqrt(2)),
    ("mermin_ghz.txt", 4.0, 4.0),
    ("werner.txt", -1.4142135623730951, 1.4142135623730951),
]


@pytest.mark.parametrize("name, run_value, optimum", COMMITTED)
def test_oracles_reproduce_committed_scenarios(name, run_value, optimum):
    k = scenario_keys(name)
    coeffs = oracles.functional(k["functional"])
    table = oracles.correlator_table(k["system"], k["ancilla"], k["settings"])
    assert float(np.sum(coeffs * table)) == pytest.approx(run_value, abs=1e-12)
    if k["mode"] == "su2":
        assert oracles.mermin_max(k["system"]) == pytest.approx(optimum, abs=1e-12)
    else:
        assert oracles.horodecki_chsh(k["system"], k["ancilla"]) == pytest.approx(optimum, abs=1e-12)
    assert oracles.classical_bound(coeffs) == 2.0


@pytest.mark.parametrize("name", [c[0] for c in COMMITTED])
def test_checks_accept_the_program_on_committed_scenarios(name):
    k = scenario_keys(name)
    path = str(ROOT / "scenarios" / name)
    run = workloads.Command(("run", path), 0, 0, {key: k[key] for key in ("system", "ancilla", "functional", "settings")})
    rc, out = cli(run.argv)
    assert workloads.check(WORKLOADS["run-custom3"], run, rc, out) is None
    spec = {key: k[key] for key in ("system", "ancilla", "functional", "mode")}
    spec["seed"] = int(k["seed"])
    opt = workloads.Command(("optimize", path, "--restarts", "1"), 1, 0, spec)
    rc, out = cli(opt.argv)
    assert workloads.check(WORKLOADS["optimize-mix"], opt, rc, out) is None


def _corrupt(exp: dict) -> list[dict]:
    """Copies of `exp` with one expected value changed each."""
    out = []
    for key, value in exp.items():
        bad = dict(exp)
        if isinstance(value, str):
            bad[key] = value.replace("=", "= ", 1) if "=" in value else value + "x"
        elif key == "deviation_below":
            bad[key] = 0.0
        elif isinstance(value, np.ndarray):
            bad[key] = value.copy()
            bad[key].flat[len(value.flat) // 2] += 1e-6
        else:
            bad[key] = value + 1e-5
        out.append(bad)
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_each_check_fires_on_a_corrupted_expected_value(name, tmp_path):
    workload = WORKLOADS[name]
    cmd = workloads.pool(workload, 5, tmp_path)[1]
    workloads.write_files([cmd])
    rc, out = cli(cmd.argv)
    exp = workload.expected(cmd)
    assert workload.compare(cmd, exp, rc, out) is None
    for bad in _corrupt(exp):
        assert workload.compare(cmd, bad, rc, out) is not None, bad
    assert workload.compare(cmd, exp, 1, out) is not None


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name, tmp_path):
    def render(seed, sub):
        commands = workloads.pool(WORKLOADS[name], seed, tmp_path / sub)
        (tmp_path / sub).mkdir()
        workloads.write_files(commands)
        files = {p.name: p.read_bytes() for p in sorted((tmp_path / sub).iterdir())}
        argvs = [tuple(a.replace(str(tmp_path / sub), "") for a in c.argv) for c in commands]
        return argvs, files

    first, again, other = render(7, "a"), render(7, "b"), render(8, "c")
    assert first == again
    assert first != other


def test_brute_force_bound_matches_the_program_on_random_functionals():
    from oltsim.functionals import BellFunctional, classical_bound

    rng = np.random.default_rng(0)
    for shape in [(2, 2), (3, 2, 2), (1, 4, 3), (2, 3, 2, 2)]:
        c = rng.integers(-3, 4, size=shape).astype(float)
        c.flat[0] = 1.0
        assert oracles.classical_bound(c) == classical_bound(BellFunctional(c, "t"))


def test_tracer_catches_calls_through_from_imports_and_restores():
    import oltsim.analysis
    import oltsim.protocol

    original = oltsim.protocol.table_from_observables
    tracer = tracing.Tracer()
    with tracer.installed():
        with tracer.command(0):
            rc, _ = cli(["optimize", str(ROOT / "scenarios" / "chsh_max.txt"), "--restarts", "1"])
    assert rc == 0
    assert tracing.originals_restored()
    assert oltsim.analysis.table_from_observables is original
    names = [s[0] for s in tracer.spans]
    parents = {tuple(s[:1]) + (tracer.spans[s[3]][0],) for s in tracer.spans if s[3] >= 0}
    assert ("protocol.table_from_observables", "analysis.optimize_angles") in parents
    metrics = tracing.layer_metrics(tracer.spans, {0: 2}, restarts=1)
    assert metrics["protocol.table_from_observables.calls"][0] == names.count("protocol.table_from_observables")
    assert metrics["analysis.evals_per_restart"][0] == names.count("protocol.table_from_observables")
    shares = sum(metrics[f"{m}.self_share"][0] for m in tracing.MODULES)
    assert shares == pytest.approx(1.0, abs=1e-9)


def test_traced_strategies_match_the_functional_shape(tmp_path):
    commands = workloads.pool(WORKLOADS["run-custom3"], 3, tmp_path)[:2]
    workloads.write_files(commands)
    tracer = tracing.Tracer()
    with tracer.installed():
        for cid, cmd in enumerate(commands):
            with tracer.command(cid):
                assert cli(cmd.argv)[0] == 0
    per_command = tracing.sizes_by_command(tracer.spans, "functionals.classical_bound")
    for cid, cmd in enumerate(commands):
        ms = oracles.functional(cmd.spec["functional"]).shape
        assert per_command[cid] == 2 ** (sum(ms) - ms[0])
    metrics = tracing.layer_metrics(tracer.spans, {0: 3, 1: 3}, restarts=0)
    assert metrics["functionals.classical_bound.strategies"][0] == sum(per_command.values())


def test_tail_keeps_ten_samples_above_it():
    times = [float(x) for x in range(1, 41)]
    value, pct = harness.tail(times)
    assert value == 30.0 and pct == 75.0
    assert sum(t > value for t in times) == 10
    assert harness.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)


def test_oversubscription_is_refused():
    record = {"nproc": 2, "blas_threads": 3, "blas_threads_env": "3"}
    with pytest.raises(harness.BenchError):
        harness.refuse_oversubscription(record)
    harness.refuse_oversubscription(dict(record, blas_threads=2))


def test_benchmark_json_names_the_workloads_and_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {w.name: w.why for w in WORKLOADS.values()}
    layer = tracing.layer_metrics([], {}, 0)
    assert [m["name"] for m in spec["per_layer"]] == list(layer) + ["trace_overhead"]
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_every_metric_of_its_kind(trace, kind):
    proc = _run(ROOT, "--workload", "sweep-chsh", "--seed", "4", "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec[kind]}


def test_run_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "--workload", "verify-n4", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
