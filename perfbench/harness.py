"""Closed-loop benchmark of the four oltsim commands.

One single-threaded process per workload run calls `oltsim.cli.main(argv,
out)` in-process and sends the next command only after the previous one has
returned. Each command's output is checked outside the timed interval.

With `--trace 0` the run cycles through the workload's command pool for
`--seconds` and reports the end-to-end metrics. With `--trace 1` it replays
the pool's first commands once untraced and once with every listed public
function wrapped (see `tracer`), and reports the per-layer metrics.

The program is always the checkout's own `src/oltsim`; the benchmark exits
with status 2, printing no result, when that is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracer as tracing
import workloads
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CLIENTS = 1
SETUP_PROBES = 7
TAIL_BEYOND = 10  # the tail percentile keeps at least this many commands above it
PROBE_TIMEOUT_S = 60


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def load_program():
    """Import `oltsim.cli.main` from the checkout's src/, and from nowhere else."""
    if not (SRC / "oltsim" / "__init__.py").is_file():
        raise BenchError(f"no oltsim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import oltsim.cli

    if Path(oltsim.cli.__file__).resolve().parent != SRC / "oltsim":
        raise BenchError(f"imported oltsim from {oltsim.cli.__file__}, not from {SRC}")
    return oltsim.cli.main


def _blas_threads() -> int | None:
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def run_record() -> dict:
    """Machine and library facts stored with every result."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = _blas_threads()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "clients": CLIENTS,
    }


def refuse_oversubscription(record: dict) -> None:
    threads = record["blas_threads"] or int(record["blas_threads_env"] or record["nproc"])
    if CLIENTS * threads > record["nproc"]:
        raise BenchError(
            f"{CLIENTS} client(s) x {threads} BLAS thread(s) exceed nproc = {record['nproc']}"
        )


def workdir(name: str, seed: int, suffix: str = "") -> Path:
    path = WORK / f"{name}-seed{seed}{suffix}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def prepare(workload, seed: int, suffix: str = "") -> list:
    commands = workloads.pool(workload, seed, workdir(workload.name, seed, suffix))
    workloads.write_files(commands)
    return commands


def execute(cli_main, workload, cmd, tracer=None, command_id=0) -> tuple[float, str | None]:
    """Run one command; return its wall time and the reason it failed, if it did."""
    for path in cmd.outputs:
        Path(path).unlink(missing_ok=True)
    out = io.StringIO()
    try:
        start = time.perf_counter()
        if tracer is None:
            rc = cli_main(list(cmd.argv), out)
        else:
            with tracer.command(command_id):
                rc = cli_main(list(cmd.argv), out)
        elapsed = time.perf_counter() - start
    except SystemExit as exc:
        elapsed = time.perf_counter() - start
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crashing command is a failed command; keep measuring
        elapsed = time.perf_counter() - start
        traceback.print_exc()
        return elapsed, "raised an exception"
    try:
        return elapsed, workloads.check(workload, cmd, rc, out.getvalue())
    except (ValueError, IndexError, OSError) as exc:  # unparseable output
        return elapsed, f"output check could not read the output: {exc!r}"


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples above it, and that percentile.

    With too few samples for that, the median stands in (percentile 50).
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def setup_seconds(workload, seed: int) -> list[float]:
    """Wall time of fresh processes from launch until ready for the first command.

    Each probe imports numpy and oltsim and writes the workload's scenario
    files, exactly as a measured run does before its first command.
    """
    samples = []
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload.name,
            "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            try:
                line = proc.stdout.readline()
                ready = time.perf_counter() - start
                proc.wait(timeout=PROBE_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"setup probe failed (exit {proc.returncode}, said {line!r})")
        samples.append(ready)
    return samples


def end_to_end(cli_main, workload, seed: int, seconds: float) -> tuple[dict, dict, list[str]]:
    commands = prepare(workload, seed)
    probes = setup_seconds(workload, seed)
    times, items, failures = [], 0, []
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        cmd = commands[len(times) % len(commands)]
        elapsed, error = execute(cli_main, workload, cmd)
        times.append(elapsed)
        if error is None:
            items += cmd.items
        else:
            failures.append(f"{' '.join(cmd.argv)}: {error}")
    tail_s, tail_pct = tail(times)
    n = len(times)
    metrics = {
        "setup_s": (statistics.median(probes), "s"),
        "cmd_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "cmd_tail_ms": (tail_s * 1e3, "ms"),
        "items_per_s": (items / sum(times), "1/s"),
        "pass_frac": ((n - len(failures)) / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {"commands": n, "cmd_tail_pct": tail_pct, "setup_probes_s": probes}
    return metrics, extra, failures


def traced(cli_main, workload, seed: int, seconds: float) -> tuple[dict, dict, list[str]]:
    """Replay the pool's first commands untraced, then traced; per-layer metrics."""
    commands = prepare(workload, seed)[: workloads.TRACE_PREFIX]
    budget = seconds / 2  # for each pass, so a slow program still ends in time
    failures = []

    def one_pass(tracer=None) -> list[float]:
        times, deadline = [], time.perf_counter() + budget
        for cid, cmd in enumerate(commands):
            if times and time.perf_counter() >= deadline:
                break
            elapsed, error = execute(cli_main, workload, cmd, tracer, cid)
            times.append(elapsed)
            if error is not None:
                failures.append(f"{' '.join(cmd.argv)}: {error}")
        return times

    plain = one_pass()
    tracer = tracing.Tracer()
    with tracer.installed():
        with_spans = one_pass(tracer)
    if not tracing.originals_restored():
        raise BenchError("tracing wrappers were left installed")
    done = commands[: len(with_spans)]
    restarts = sum(cmd.items for cmd in done if cmd.argv[0] == "optimize")
    metrics = tracing.layer_metrics(tracer.spans, {i: c.parties for i, c in enumerate(done)}, restarts)
    metrics["trace_overhead"] = (statistics.median(with_spans) / statistics.median(plain), "ratio")
    spans_path = WORK / f"{workload.name}-seed{seed}-spans.json"
    tracer.write(spans_path)
    strategies = tracing.sizes_by_command(tracer.spans, "functionals.classical_bound")
    extra = {
        "commands": len(plain) + len(with_spans),
        "traced_commands": len(with_spans),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "classical_bound_strategies_per_command": [strategies.get(i, 0) for i in range(len(done))],
    }
    return metrics, extra, failures


def print_metrics(name: str, metrics: dict) -> None:
    for key, (value, unit) in metrics.items():
        label = " (computed)" if key in tracing.COMPUTED else ""
        print(f"{name:<13} {key:<48} {value:>16.6g} {unit}{label}")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=sorted(WORKLOADS))
    target.add_argument("--all", action="store_true", help="run every workload, one process each")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_all(args) -> int:
    """Every workload in turn, each in its own process; print metrics and check outcomes."""
    outcomes = []
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            outcomes.append((name, f"no result (exit {proc.returncode})"))
            continue
        verdict = "PASS" if result["correct"] else "FAIL"
        outcomes.append((name, f"{verdict}: {result['failed']} of {result['attempted']} commands failed"))
    print()
    for name, outcome in outcomes:
        print(f"check {name:<13} {outcome}")
    return 0 if all(o.startswith("PASS") for _, o in outcomes) else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.all:
            return run_all(args)
        workload = WORKLOADS[args.workload]
        cli_main = load_program()
        if args.setup_probe:
            prepare(workload, args.seed, "-probe")
            print("ready", flush=True)
            return 0
        record = run_record()
        refuse_oversubscription(record)
        measure = traced if args.trace else end_to_end
        metrics, extra, failures = measure(cli_main, workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for failure in failures[:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    record.update(workload=workload.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  **extra)
    attempted = extra["commands"]
    print_metrics(workload.name, metrics)
    print(f"{workload.name:<13} check {'PASS' if not failures else 'FAIL'}: "
          f"{len(failures)} of {attempted} commands failed")
    print("record " + json.dumps(record))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0
