"""Dichotomic full-correlation Bell functionals.

A functional is a real coefficient tensor with one axis per party and one
index per measurement setting, evaluated against a table of correlators of
the same shape. Classical bounds enumerate every deterministic strategy of
all but the widest party, which plays its best response: exact, never heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ATOL

ENUMERATION_CAP = 24  # total settings across parties; 2^24 deterministic strategies

VIOLATION_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class BellFunctional:
    """Coefficient tensor over full correlators plus a label."""

    coefficients: np.ndarray
    label: str

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        if c.ndim < 1:
            raise ValueError("coefficient tensor must have at least one axis")
        if any(m < 1 for m in c.shape):
            raise ValueError(f"every party needs at least one setting, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        with np.errstate(over="ignore"):
            if not np.isfinite(np.abs(c).sum()):
                raise ValueError("sum of |coefficients| must be finite")
        if not np.any(c != 0.0):
            raise ValueError("coefficient tensor must have at least one nonzero entry")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)

    @property
    def n_parties(self) -> int:
        return self.coefficients.ndim

    @property
    def settings_per_party(self) -> tuple[int, ...]:
        return self.coefficients.shape


def make_chsh() -> BellFunctional:
    """Two parties, two settings each: <11> + <12> + <21> - <22>."""
    return BellFunctional(np.array([[1.0, 1.0], [1.0, -1.0]]), "CHSH")


def make_mermin3() -> BellFunctional:
    """Three parties, two settings each: <112> + <121> + <211> - <222>."""
    c = np.zeros((2, 2, 2))
    c[0, 0, 1] = c[0, 1, 0] = c[1, 0, 0] = 1.0
    c[1, 1, 1] = -1.0
    return BellFunctional(c, "Mermin-3")


def check_enumeration_cap(settings_per_party: tuple[int, ...]) -> None:
    """Raise ValueError when a shape has too many settings to enumerate."""
    if sum(settings_per_party) > ENUMERATION_CAP:
        raise ValueError(
            f"enumeration cap exceeded: {sum(settings_per_party)} total settings > "
            f"{ENUMERATION_CAP} (2^{ENUMERATION_CAP} deterministic strategies)"
        )


def classical_bound(functional: BellFunctional) -> float:
    """Maximum over all deterministic +-1 assignments, by exhaustion.

    The widest party is resolved analytically (sum of absolute contracted
    weights). The others are contracted one at a time, last first, against
    tables of all their sign assignments, each new strategy axis folded into
    one trailing axis. Flipping a whole party leaves the bound unchanged, so
    the first contracted party keeps its first setting at +1.
    """
    ms = functional.settings_per_party
    check_enumeration_cap(ms)
    widest = max(range(len(ms)), key=ms.__getitem__)
    others = [k for k in range(len(ms)) if k != widest]
    w = functional.coefficients.transpose([widest, *others]).reshape(-1, 1)
    for k in reversed(others):
        signs = 1.0 - 2.0 * ((np.arange(2 ** ms[k])[:, None] >> np.arange(ms[k])[::-1]) & 1)
        if k == others[-1]:
            signs = signs[: len(signs) // 2]
        w = (signs @ w.reshape(-1, ms[k], w.shape[1])).reshape(len(w) // ms[k], -1)
    return float(np.abs(w).sum(axis=0).max())


def evaluate(functional: BellFunctional, table: np.ndarray) -> float:
    """Signed value of the functional on a correlator table.

    Callers compare |value| or the signed value against the classical bound
    depending on how the inequality is stated.
    """
    t = np.asarray(table, dtype=float)
    if t.shape != functional.settings_per_party:
        raise ValueError(
            f"correlator table shape {t.shape} does not match "
            f"functional shape {functional.settings_per_party}"
        )
    worst = float(np.max(np.abs(t)))
    if not worst <= 1.0 + ATOL:  # NaN fails it too
        raise ValueError(f"correlator magnitude {worst:.12g} exceeds 1: correlators lie in [-1, 1]")
    return float(np.sum(functional.coefficients * t))


@dataclass(frozen=True)
class ViolationReport:
    """Outcome of one Bell test: signed value against the classical bound."""

    value: float
    bound: float
    violated: bool
    margin: float


def violation_report(functional: BellFunctional, table: np.ndarray) -> ViolationReport:
    """Evaluate and compare |value| against the exhaustive classical bound."""
    value = evaluate(functional, table)
    bound = classical_bound(functional)
    margin = abs(value) - bound
    return ViolationReport(
        value=value, bound=bound, violated=margin > VIOLATION_TOL, margin=margin
    )


def parse_functional_spec(text: str) -> BellFunctional:
    """Parse a functional spec: chsh, mermin3, or custom:<M1>x...x<MN>:<coeffs>.

    Custom coefficients are decimal reals, comma separated, row-major over the
    setting indices.
    """
    s = text.strip()
    low = s.lower()
    if low == "chsh":
        return make_chsh()
    if low == "mermin3":
        return make_mermin3()
    if low.startswith("custom:"):
        body = s[len("custom:") :]
        shape_text, sep, coeff_text = body.partition(":")
        if not sep:
            raise ValueError(f"custom functional {text!r} needs custom:<shape>:<coefficients>")
        try:
            shape = tuple(int(m) for m in shape_text.lower().split("x"))
            coeffs = np.array([float(v) for v in coeff_text.split(",")])
        except ValueError as exc:
            raise ValueError(f"cannot parse custom functional {text!r}: {exc}") from exc
        if any(m < 1 for m in shape):
            raise ValueError(f"every party needs at least one setting, got shape {shape_text}")
        expected = int(np.prod(shape)) if shape else 0
        if len(coeffs) != expected:
            raise ValueError(
                f"custom functional {text!r} has {len(coeffs)} coefficients, "
                f"shape {shape_text} needs {expected}"
            )
        return BellFunctional(coeffs.reshape(shape), "custom")
    raise ValueError(f"unknown functional spec {text!r}; expected chsh, mermin3, or custom:...")
