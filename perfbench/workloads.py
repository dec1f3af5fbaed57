"""The four benchmark workloads: seeded command generators and output checks.

Each workload turns a seed into a fixed, ordered pool of CLI commands and the
scenario files they read. The program sees only those files and the argv.
Every check compares the command's output against `oracles`, which uses numpy
alone, and runs outside the timed interval.

A check is split in two so that tests can corrupt the reference: `expected`
computes the reference values of a command and `compare` returns the first
disagreement between them and the output (None when the output is correct).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

POOL_SIZE = 256  # commands generated per run; a run cycles through them in order
TRACE_PREFIX = 10  # commands replayed once untraced and once traced

VERIFY_TRIALS = 9  # ~0.4 s per command at 4 parties, so a run holds ~60 commands
OPTIMIZE_RESTARTS = 1  # one restart already reaches the oracle on every generated scenario
SWEEP_GRID = 18  # 324 points of ~0.55 ms each, ~0.18 s per command
# 2^15 strategies per classical bound: with the 56 correlators simulated twice
# each, a command takes ~0.5 s, about half of it in classical_bound, and a run
# still holds ~45 commands. 2^16 would halve that count.
RUN_SHAPES = ((1, 7, 8), (1, 8, 7))

CORRELATOR_TOL = 1e-9
OPTIMUM_TOL = 1e-6
DEVIATION_LIMIT = 1e-10
REDUCED_OK = ("PPT (inconclusive)", "separable")  # a diagonal system keeps the reduced state diagonal

BELL_KINDS = ("phi+", "phi-", "psi+", "psi-")


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its check needs to know."""

    argv: tuple[str, ...]
    items: int  # work items it completes: trials, restarts, grid points or correlators
    parties: int
    spec: dict  # the generator's parameters, from which the oracle derives the reference
    files: dict = field(default_factory=dict)  # path -> text of the scenario files it reads
    outputs: tuple[str, ...] = ()  # files it writes, removed before it runs


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: Callable[[np.random.Generator, int, Path], Command]
    expected: Callable[[Command], dict]
    compare: Callable[[Command, dict, int, str], str | None]


def pool(workload: Workload, seed: int, workdir: Path) -> list[Command]:
    """The workload's commands for `seed`; the same seed gives byte-identical files."""
    rng = np.random.default_rng(seed)
    return [workload.make(rng, i, workdir) for i in range(POOL_SIZE)]


def write_files(commands: list[Command]) -> None:
    for cmd in commands:
        for path, text in cmd.files.items():
            Path(path).write_text(text, encoding="utf-8")


def check(workload: Workload, cmd: Command, rc: int, out: str) -> str | None:
    return workload.compare(cmd, workload.expected(cmd), rc, out)


# ---------------------------------------------------------------------------
# generation helpers


def _scenario(label, system, ancilla, functional, mode, seed, settings=None) -> str:
    lines = [
        f"label = {label}",
        f"system = {system}",
        f"ancilla = {ancilla}",
        f"functional = {functional}",
        f"mode = {mode}",
        f"seed = {seed}",
    ]
    if settings is not None:
        lines.append(f"settings = {settings}")
    return "\n".join(lines) + "\n"


def _bits(rng, n: int) -> str:
    return "".join(str(int(b)) for b in rng.integers(0, 2, size=n))


def _ghz3(rng) -> str:
    phi = rng.uniform(0.0, 2 * math.pi)
    return f"ghz:3,{math.cos(phi):.17g}{math.sin(phi):+.17g}i"


def _diagonal_pair(rng) -> str:
    if rng.random() < 0.25:
        return "classical_correlated:2"
    return "basis:" + _bits(rng, 2)


def _chsh_ancilla(rng) -> str:
    if rng.random() < 0.5:
        return "bell:" + BELL_KINDS[int(rng.integers(len(BELL_KINDS)))]
    return f"werner:{rng.uniform(0.3, 1.0):.17g}"


def _value(out: str, key: str) -> float | None:
    """The number after `key :` in a report line, or None when the line is absent."""
    m = re.search(rf"^{re.escape(key)}\s*: (\S+)", out, re.MULTILINE)
    return None if m is None else float(m.group(1))


def _off(name: str, got, want, tol: float) -> str | None:
    if got is None:
        return f"{name}: line missing"
    if not abs(got - want) <= tol:
        return f"{name}: got {got!r}, expected {want!r} (tolerance {tol:g})"
    return None


def _exit(rc: int) -> str | None:
    return None if rc == 0 else f"exit status {rc}"


# ---------------------------------------------------------------------------
# verify-n4


def _make_verify(rng, i, workdir) -> Command:
    seed = int(rng.integers(2**31))
    argv = ("verify", "--parties", "4", "--trials", str(VERIFY_TRIALS), "--seed", str(seed))
    return Command(argv, VERIFY_TRIALS, 4, {"seed": seed})


def _expected_verify(cmd: Command) -> dict:
    return {
        "header": f"factorization check: parties=4 trials={VERIFY_TRIALS} seed={cmd.spec['seed']}",
        "deviation_below": DEVIATION_LIMIT,
    }


def _compare_verify(cmd, exp, rc, out) -> str | None:
    lines = out.splitlines()
    if (err := _exit(rc)) is not None:
        return err
    if lines[:1] != [exp["header"]]:
        return f"header {lines[:1]!r}, expected {exp['header']!r}"
    m = re.search(r"^max \|direct - factorized\| = (\S+)$", out, re.MULTILINE)
    dev = None if m is None else float(m.group(1))
    if dev is None or not dev < exp["deviation_below"]:
        return f"deviation {dev!r} not below {exp['deviation_below']:g}"
    if "PASS" not in lines:
        return "no PASS line"
    return None


# ---------------------------------------------------------------------------
# optimize-mix

_OPTIMIZE_PATTERN = ("su2", "so2", "su2", "so2", "su2")  # 3 of 5 keep the median in the su2 mode


def _make_optimize(rng, i, workdir) -> Command:
    seed = int(rng.integers(10_000))
    if _OPTIMIZE_PATTERN[i % len(_OPTIMIZE_PATTERN)] == "su2":
        spec = {"system": "basis:" + _bits(rng, 3), "ancilla": _ghz3(rng), "functional": "mermin3", "mode": "su2"}
    else:
        spec = {"system": _diagonal_pair(rng), "ancilla": _chsh_ancilla(rng), "functional": "chsh", "mode": "so2"}
    spec["seed"] = seed
    path = str(workdir / f"optimize-{i:03d}.txt")
    text = _scenario(f"bench-optimize-{i}", spec["system"], spec["ancilla"], spec["functional"], spec["mode"], seed)
    argv = ("optimize", path, "--restarts", str(OPTIMIZE_RESTARTS))
    return Command(argv, OPTIMIZE_RESTARTS, 3 if spec["mode"] == "su2" else 2, spec, {path: text})


def _expected_optimize(cmd: Command) -> dict:
    s = cmd.spec
    if s["mode"] == "su2":
        best = oracles.mermin_max(s["system"])
    else:
        best = oracles.horodecki_chsh(s["system"], s["ancilla"])
    return {
        "header": f"optimization (mode {s['mode']}, restarts {OPTIMIZE_RESTARTS}, seed {s['seed']})",
        "best": best,
        "bound": oracles.classical_bound(oracles.functional(s["functional"])),
    }


def _compare_optimize(cmd, exp, rc, out) -> str | None:
    if (err := _exit(rc)) is not None:
        return err
    if exp["header"] not in out.splitlines():
        return f"no line {exp['header']!r}"
    return _off("best |value|", _value(out, "best |value|"), exp["best"], OPTIMUM_TOL) or _off(
        "classical bound", _value(out, "classical bound"), exp["bound"], CORRELATOR_TOL
    )


# ---------------------------------------------------------------------------
# sweep-chsh


def _make_sweep(rng, i, workdir) -> Command:
    spec = {"system": _diagonal_pair(rng), "ancilla": _chsh_ancilla(rng), "csv": str(workdir / "sweep.csv")}
    path = str(workdir / f"sweep-{i:03d}.txt")
    text = _scenario(f"bench-sweep-{i}", spec["system"], spec["ancilla"], "chsh", "so2", int(rng.integers(10_000)))
    argv = ("sweep", path, "--grid", str(SWEEP_GRID), "--out", spec["csv"])
    return Command(argv, SWEEP_GRID**2, 2, spec, {path: text}, (spec["csv"],))


def _expected_sweep(cmd: Command) -> dict:
    thetas = np.linspace(0.0, math.pi, SWEEP_GRID)
    return {
        "stdout": f"wrote {cmd.spec['csv']} ({SWEEP_GRID**2} rows)\n",
        "theta_a": np.repeat(thetas, SWEEP_GRID),
        "theta_b": np.tile(thetas, SWEEP_GRID),
        "correlator": oracles.sweep_table(cmd.spec["system"], cmd.spec["ancilla"], thetas).reshape(-1),
    }


def _compare_sweep(cmd, exp, rc, out) -> str | None:
    if (err := _exit(rc)) is not None:
        return err
    if out != exp["stdout"]:
        return f"stdout {out!r}, expected {exp['stdout']!r}"
    lines = Path(cmd.spec["csv"]).read_text(encoding="utf-8").splitlines()
    if lines[:1] != ["theta_a,theta_b,correlator,separable"]:
        return f"CSV header {lines[:1]!r}"
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(exp["correlator"]) or any(len(r) != 4 for r in rows):
        return f"CSV has {len(rows)} rows, expected {len(exp['correlator'])} of 4 fields"
    for col, key, tol in ((0, "theta_a", 1e-12), (1, "theta_b", 1e-12), (2, "correlator", CORRELATOR_TOL)):
        got = np.array([float(r[col]) for r in rows])
        worst = int(np.argmax(np.abs(got - exp[key])))
        if not abs(got[worst] - exp[key][worst]) <= tol:
            return f"row {worst + 1} {key}: got {got[worst]!r}, expected {exp[key][worst]!r}"
    if any(r[3] != "true" for r in rows):
        return "a reduced state of a diagonal system is not reported separable"
    return None


# ---------------------------------------------------------------------------
# run-custom3


def _make_run(rng, i, workdir) -> Command:
    shape = RUN_SHAPES[int(rng.integers(len(RUN_SHAPES)))]
    coeffs = rng.integers(-3, 4, size=int(np.prod(shape)))
    coeffs[0] = coeffs[0] or 1  # a functional needs a nonzero coefficient
    spec = {
        "system": "basis:" + _bits(rng, 3),
        "ancilla": _ghz3(rng),
        "functional": "custom:" + "x".join(map(str, shape)) + ":" + ",".join(map(str, coeffs)),
        "settings": " | ".join(
            ", ".join(f"so2:{rng.uniform(-math.pi, math.pi):.17g}" for _ in range(m)) for m in shape
        ),
    }
    path = str(workdir / f"run-{i:03d}.txt")
    text = _scenario(
        f"bench-run-{i}", spec["system"], spec["ancilla"], spec["functional"], "so2",
        int(rng.integers(10_000)), spec["settings"],
    )
    return Command(("run", path), int(np.prod(shape)), 3, spec, {path: text})


def _expected_run(cmd: Command) -> dict:
    s = cmd.spec
    coeffs = oracles.functional(s["functional"])
    table = oracles.correlator_table(s["system"], s["ancilla"], s["settings"])
    return {
        "table": table,
        "value": float(np.sum(coeffs * table)),
        "bound": oracles.classical_bound(coeffs),
    }


_SETTING_LINE = re.compile(r"^  setting \(([\d,]+)\): (\S+)   reduced state: (.+)$", re.MULTILINE)


def _compare_run(cmd, exp, rc, out) -> str | None:
    if (err := _exit(rc)) is not None:
        return err
    rows = _SETTING_LINE.findall(out)
    table = exp["table"]
    if len(rows) != table.size:
        return f"{len(rows)} correlator lines, expected {table.size}"
    for label, value, verdict in rows:
        idx = tuple(int(k) - 1 for k in label.split(","))
        if (err := _off(f"setting ({label})", float(value), table[idx], CORRELATOR_TOL)) is not None:
            return err
        if verdict not in REDUCED_OK:
            return f"setting ({label}): reduced state {verdict!r} for a diagonal system"
    return _off("value", _value(out, "value"), exp["value"], CORRELATOR_TOL) or _off(
        "classical bound", _value(out, "classical bound"), exp["bound"], CORRELATOR_TOL
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-n4",
            "direct route at 8 qubits: few, large dense 256x256 calls; state validation dominates",
            _make_verify, _expected_verify, _compare_verify,
        ),
        Workload(
            "optimize-mix",
            "optimizer line search plus many tiny factorized einsums (3/5 su2 Mermin-3, 2/5 so2 CHSH); no direct route",
            _make_optimize, _expected_optimize, _compare_optimize,
        ),
        Workload(
            "sweep-chsh",
            "direct route as thousands of 16x16 calls, where per-call overhead dominates",
            _make_sweep, _expected_sweep, _compare_sweep,
        ),
        Workload(
            "run-custom3",
            "run with a 2^15-strategy custom functional: the only workload where classical_bound matters",
            _make_run, _expected_run, _compare_run,
        ),
    )
}
