"""Per-layer tracing from outside the program.

The oltsim modules import each other's functions by name (`from .x import y`),
so a call goes through whichever module namespace the caller looked the name
up in. `Tracer.installed` therefore rebinds every listed public function in
every loaded oltsim module that holds it, and restores the originals on exit.

Each call becomes a span (function, start, end, parent span, command id,
size). Spans stay in memory until `write`. A span's self time is its duration
minus the durations of its direct children; `cli` is the command's own span,
whose self time is whatever the wrapped functions do not cover.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import contextmanager

import numpy as np

MODULES = ("cli", "scenario", "analysis", "functionals", "protocol", "gates", "states", "linalg")

TRACED = {
    "scenario": ("load_scenario",),
    "analysis": ("optimize_angles", "verify_factorization", "ppt_separable"),
    "functionals": ("classical_bound", "violation_report"),
    "protocol": (
        "assemble",
        "apply_olts",
        "reduced_system",
        "correlation_direct",
        "correlation_factorized",
        "correlator_table",
        "table_from_observables",
    ),
    "gates": ("olt_unitary", "embed"),
    "states": ("validate_density",),
    "linalg": ("partial_trace",),
}
FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)
COMMAND = "cli.main"


def _validate_density_dim(args, kwargs) -> int:
    return int(np.shape(args[0] if args else kwargs["m"])[0])


def _embed_dim(args, kwargs) -> int:
    return 2 ** int(args[2] if len(args) > 2 else kwargs["n"])


def _strategies(args, kwargs) -> int:
    ms = (args[0] if args else kwargs["functional"]).settings_per_party
    return 2 ** (sum(ms) - ms[0])


# Sizes recorded with the span, for the computed counts.
_SIZE = {
    "states.validate_density": _validate_density_dim,
    "gates.embed": _embed_dim,
    "functionals.classical_bound": _strategies,
}


class Tracer:
    """Span recorder for one benchmark process."""

    def __init__(self):
        self.spans: list = []  # [name, start_ns, end_ns, parent, command, size]
        self._stack: list[int] = []
        self._command = -1

    def _wrap(self, name: str, fn):
        size_of = _SIZE.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            size = size_of(args, kwargs) if size_of else None
            spans.append([name, 0, 0, stack[-1] if stack else -1, self._command, size])
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[sid][1:3] = start, time.perf_counter_ns()
                stack.pop()

        traced.traced_name = name
        return traced

    @contextmanager
    def installed(self):
        """Rebind the listed functions in every loaded oltsim module, then restore them."""
        rebound = []
        try:
            for name in FUNCTIONS:
                mod, fn_name = name.split(".")
                original = getattr(importlib.import_module(f"oltsim.{mod}"), fn_name)
                wrapper = self._wrap(name, original)
                for module in _oltsim_modules():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            rebound.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(rebound):
                setattr(module, attr, original)

    @contextmanager
    def command(self, command_id: int):
        """The root span of one CLI command; wrapped calls inside become its children."""
        if self._stack:
            raise RuntimeError("commands do not nest")
        self._command = command_id
        sid = len(self.spans)
        self.spans.append([COMMAND, 0, 0, -1, command_id, None])
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.spans[sid][1:3] = start, time.perf_counter_ns()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"columns": ["name", "start_ns", "end_ns", "parent", "command", "size"],
                       "spans": self.spans}, handle, separators=(",", ":"))


def _oltsim_modules():
    return [m for key, m in list(sys.modules.items()) if key == "oltsim" or key.startswith("oltsim.")]


def originals_restored() -> bool:
    """True when no loaded oltsim module holds a tracing wrapper."""
    return not any(
        hasattr(value, "traced_name")
        for module in _oltsim_modules()
        for value in vars(module).values()
    )


def layer_metrics(spans, parties: dict[int, int], restarts: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of one traced pass.

    `parties` maps a command id to its party count (for `calls_2n`), and
    `restarts` is the optimizer restarts the pass asked for.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls = dict.fromkeys(FUNCTIONS, 0)
    self_ns = dict.fromkeys(FUNCTIONS + (COMMAND,), 0)
    total_ns = 0
    calls_2n = vd_elems = embed_elems = strategies = 0
    for sid, (name, start, end, _, command, size) in enumerate(spans):
        self_ns[name] += end - start - child_ns[sid]
        if name == COMMAND:
            total_ns += end - start
            continue
        calls[name] += 1
        if name == "states.validate_density":
            vd_elems += size * size
            calls_2n += size == 4 ** parties[command]
        elif name == "gates.embed":
            embed_elems += size * size
        elif name == "functionals.classical_bound":
            strategies += size

    out: dict[str, tuple[float, str]] = {}
    for name in FUNCTIONS:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_ns[name] / 1e9, "s")
    for mod in MODULES:
        mod_ns = sum(ns for name, ns in self_ns.items() if name.split(".")[0] == mod)
        out[f"{mod}.self_share"] = (mod_ns / total_ns if total_ns else 0.0, "ratio")
    out["states.validate_density.calls_2n"] = (calls_2n, "count")
    out["states.validate_density.elems"] = (vd_elems, "count")
    out["gates.embed.elems"] = (embed_elems, "count")
    out["functionals.classical_bound.strategies"] = (strategies, "count")
    evals = calls["protocol.table_from_observables"]
    out["analysis.evals_per_restart"] = (evals / restarts if restarts else 0.0, "evals/restart")
    return out


def sizes_by_command(spans, name: str) -> dict[int, int]:
    """Sum of the recorded sizes of `name`'s spans, per command id."""
    out: dict[int, int] = {}
    for span_name, _, _, _, command, size in spans:
        if span_name == name:
            out[command] = out.get(command, 0) + size
    return out


# Counts derived from argument shapes rather than measured work.
COMPUTED = (
    "states.validate_density.calls_2n",
    "states.validate_density.elems",
    "gates.embed.elems",
    "functionals.classical_bound.strategies",
    "analysis.evals_per_restart",
)
