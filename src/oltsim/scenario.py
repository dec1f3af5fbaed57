"""Scenario files: flat key = value text bundling a protocol run.

Keys: system, ancilla, functional (required); mode, seed, label, settings
(optional). `#` starts a comment. The state, setting, and functional values
use the micro-grammars of their owning modules; per-party setting lists are
separated by `|`, settings within a party by `,`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functionals import BellFunctional, check_enumeration_cap, parse_functional_spec
from .gates import SO2, SU2, AngleSetting, format_setting, parse_setting
from .states import DensityMatrix, parse_state_spec


class ScenarioError(ValueError):
    """Parse or invariant failure, carrying a source location."""

    def __init__(self, source: str, line: int | None, message: str):
        self.source = source
        self.line = line
        where = f"{source}:{line}" if line is not None else source
        super().__init__(f"{where}: {message}")


@dataclass(frozen=True, eq=False)
class Scenario:
    """A parsed scenario: resolved states plus the raw specs for echoing."""

    system: DensityMatrix
    ancilla: DensityMatrix
    functional: BellFunctional
    settings: tuple[tuple[AngleSetting, ...], ...] | None
    mode: str
    seed: int
    label: str
    system_spec: str
    ancilla_spec: str
    functional_spec: str

    @property
    def n_parties(self) -> int:
        return self.system.n_qubits

    def equivalent(self, other: "Scenario") -> bool:
        """Structural equality, used by the report round-trip contract."""
        return (
            self.mode == other.mode
            and self.seed == other.seed
            and self.label == other.label
            and self.settings == other.settings
            and np.allclose(self.system.matrix, other.system.matrix, atol=1e-12)
            and np.allclose(self.ancilla.matrix, other.ancilla.matrix, atol=1e-12)
            and np.array_equal(self.functional.coefficients, other.functional.coefficients)
        )


_KEYS = {"system", "ancilla", "functional", "settings", "mode", "seed", "label"}


def parse_scenario(text: str, source: str = "<string>") -> Scenario:
    """Parse scenario text, reporting the offending line on failure."""
    raw: dict[str, tuple[int, str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ScenarioError(source, lineno, f"expected 'key = value', got {stripped!r}")
        key = key.strip().lower()
        value = value.strip()
        if key not in _KEYS:
            raise ScenarioError(source, lineno, f"unknown key {key!r}")
        if key in raw:
            raise ScenarioError(source, lineno, f"duplicate key {key!r}")
        raw[key] = (lineno, value)

    for required in ("system", "ancilla", "functional"):
        if required not in raw:
            raise ScenarioError(source, None, f"missing required key {required!r}")

    lineno, system_spec = raw["system"]
    system = _parse(source, lineno, "system", parse_state_spec, system_spec)
    lineno, ancilla_spec = raw["ancilla"]
    ancilla = _parse(source, lineno, "ancilla", parse_state_spec, ancilla_spec)
    lineno, functional_spec = raw["functional"]
    functional = _parse(source, lineno, "functional", parse_functional_spec, functional_spec)
    _parse(source, lineno, "functional", check_enumeration_cap, functional.settings_per_party)

    mode = SO2
    if "mode" in raw:
        lineno, value = raw["mode"]
        mode = value.strip().lower()
        if mode not in (SO2, SU2):
            raise ScenarioError(source, lineno, f"mode must be '{SO2}' or '{SU2}', got {value!r}")

    seed = 0
    if "seed" in raw:
        lineno, value = raw["seed"]
        if not value.isdecimal():
            raise ScenarioError(source, lineno, f"seed must be a non-negative integer, got {value!r}")
        seed = int(value)

    label = raw["label"][1] if "label" in raw else ""

    settings = None
    if "settings" in raw:
        lineno, value = raw["settings"]
        settings = _parse(source, lineno, "settings", _parse_settings_value, value)

    if system.n_qubits != ancilla.n_qubits:
        raise ScenarioError(
            source,
            None,
            f"party count mismatch: system has {system.n_qubits} parties, "
            f"ancilla has {ancilla.n_qubits}",
        )
    if functional.n_parties != system.n_qubits:
        raise ScenarioError(
            source,
            None,
            f"party count mismatch: functional has {functional.n_parties} parties, "
            f"states have {system.n_qubits}",
        )
    if system.n_qubits < 2:
        raise ScenarioError(
            source, None, f"a Bell scenario needs at least 2 parties, got {system.n_qubits}"
        )
    if settings is not None:
        if len(settings) != system.n_qubits:
            raise ScenarioError(
                source,
                None,
                f"settings list has {len(settings)} parties, states have {system.n_qubits}",
            )
        for i, (party, expected) in enumerate(zip(settings, functional.settings_per_party)):
            if len(party) != expected:
                raise ScenarioError(
                    source,
                    None,
                    f"party {i + 1} has {len(party)} settings, functional needs {expected}",
                )

    return Scenario(
        system=system,
        ancilla=ancilla,
        functional=functional,
        settings=settings,
        mode=mode,
        seed=seed,
        label=label,
        system_spec=system_spec,
        ancilla_spec=ancilla_spec,
        functional_spec=functional_spec,
    )


def _parse(source, lineno, name, parser, value):
    try:
        return parser(value)
    except ValueError as exc:
        raise ScenarioError(source, lineno, f"{name}: {exc}") from exc


def _parse_settings_value(value: str) -> tuple[tuple[AngleSetting, ...], ...]:
    parties = [part.strip() for part in value.split("|")]
    if any(not part for part in parties):
        raise ValueError("empty per-party settings group")
    out = []
    for part in parties:
        items = [item.strip() for item in part.split(",")]
        # su2 settings contain commas themselves, so regroup by tag boundaries
        regrouped: list[str] = []
        for item in items:
            if ":" in item:
                regrouped.append(item)
            elif regrouped:
                regrouped[-1] += "," + item
            else:
                raise ValueError(f"setting fragment {item!r} without a mode tag")
        out.append(tuple(parse_setting(item) for item in regrouped))
    return tuple(out)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario(handle.read(), source=path)


def format_scenario(scenario: Scenario) -> str:
    """Render a scenario as lines that parse back to an equivalent Scenario."""
    lines = []
    if scenario.label:
        lines.append(f"label = {scenario.label}")
    lines.append(f"system = {scenario.system_spec}")
    lines.append(f"ancilla = {scenario.ancilla_spec}")
    lines.append(f"functional = {scenario.functional_spec}")
    lines.append(f"mode = {scenario.mode}")
    lines.append(f"seed = {scenario.seed}")
    if scenario.settings is not None:
        parties = " | ".join(
            ", ".join(format_setting(s) for s in party) for party in scenario.settings
        )
        lines.append(f"settings = {parties}")
    return "\n".join(lines) + "\n"
