"""Gate construction: Pauli operators, planar and full single-qubit rotations,
and the per-party two-qubit transformation built from them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .linalg import ATOL, n_qubits_of

SO2 = "so2"
SU2 = "su2"

_TWO_PI = 2 * math.pi


def _reduce_angle(x: float) -> float:
    # rotations have period 4*pi in the half-angle convention
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"angle must be finite, got {x}")
    r = math.remainder(x, 2 * _TWO_PI)
    if r <= -_TWO_PI:
        r += 2 * _TWO_PI
    return r


@dataclass(frozen=True)
class AngleSetting:
    """Per-party rotation parameters: one planar angle, or a ZYZ Euler triple.

    Angles are reduced to (-2*pi, 2*pi] at construction.
    """

    mode: str
    angles: tuple[float, ...]

    def __post_init__(self):
        if self.mode not in (SO2, SU2):
            raise ValueError(f"mode must be '{SO2}' or '{SU2}', got {self.mode!r}")
        arity = 1 if self.mode == SO2 else 3
        if len(self.angles) != arity:
            raise ValueError(f"{self.mode} setting needs {arity} angle(s), got {len(self.angles)}")
        object.__setattr__(self, "angles", tuple(_reduce_angle(a) for a in self.angles))

    @classmethod
    def so2(cls, theta: float) -> "AngleSetting":
        return cls(SO2, (theta,))

    @classmethod
    def su2(cls, phi: float, theta: float, lam: float) -> "AngleSetting":
        return cls(SU2, (phi, theta, lam))


def pauli(k: int) -> np.ndarray:
    """Pauli matrix: 1 = x, 2 = y, 3 = z."""
    if k == 1:
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if k == 2:
        return np.array([[0, -1j], [1j, 0]], dtype=complex)
    if k == 3:
        return np.array([[1, 0], [0, -1]], dtype=complex)
    raise ValueError(f"Pauli index must be 1, 2, or 3, got {k}")


PAULIS = np.stack([pauli(k) for k in (1, 2, 3)])


def rotation_so2(theta: float) -> np.ndarray:
    """Planar rotation [[cos(t/2), -sin(t/2)], [sin(t/2), cos(t/2)]]."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rz(angle: float) -> np.ndarray:
    half = angle / 2
    return np.array([[np.exp(-1j * half), 0], [0, np.exp(1j * half)]], dtype=complex)


def rotation(setting: AngleSetting) -> np.ndarray:
    """The 2x2 rotation a setting describes: rotation_so2(theta), or Rz(phi) Ry(theta) Rz(lam).

    The su2 form reduces to rotation_so2(theta) when phi = lam = 0.
    """
    if setting.mode == SO2:
        return rotation_so2(setting.angles[0])
    phi, theta, lam = setting.angles
    return _rz(phi) @ rotation_so2(theta) @ _rz(lam)


def bloch_vectors(settings) -> np.ndarray:
    """Unit Bloch vectors (x, y, z) of the measured observables R^dag Z R, one row per setting: (M, 3).

    so2: (-sin t, 0, cos t). su2: (-sin t cos l, sin t sin l, cos t); phi
    drops out because Rz(phi) commutes with Z. An so2 setting is evaluated as l = 0.
    """
    pairs = [st.angles[1:] if st.mode == SU2 else st.angles + (0.0,) for st in settings]
    theta_lam = np.array(pairs, dtype=float).reshape(-1, 2).T
    s, c = np.sin(theta_lam), np.cos(theta_lam)  # rows: theta, lam
    return np.array([-s[0] * c[1], s[0] * s[1], c[0]]).T


def setting_from_bloch(mode: str, vector) -> AngleSetting:
    """A setting whose Bloch vector is the given unit vector; su2 settings get phi = 0.

    An so2 setting reaches only the xz plane, so a y component is an error.
    """
    x, y, z = (float(c) for c in vector)
    if mode == SO2:
        if abs(y) > ATOL:
            raise ValueError(f"so2 settings have no y component, got y = {y:.3e}")
        return AngleSetting.so2(math.atan2(-x, z))
    if mode != SU2:
        raise ValueError(f"mode must be '{SO2}' or '{SU2}', got {mode!r}")
    return AngleSetting.su2(0.0, math.atan2(math.hypot(x, y), z), math.atan2(y, -x))


def observables_from_bloch(vectors: np.ndarray) -> np.ndarray:
    """v . (X, Y, Z) for every row v of an (M, 3) array; shape (M, 2, 2)."""
    return np.einsum("mk,kij->mij", vectors, PAULIS)


def olt_unitary(setting: AngleSetting) -> np.ndarray:
    """Two-qubit transformation on (system, ancilla): a CNOT, ancilla controls, after I (x) rotation.

    Equals CNOT @ kron(I, rotation(setting)) in either mode, which tests assert.
    """
    r = rotation(setting)
    u = np.zeros((4, 4), dtype=complex)
    # I (x) R is block-diagonal in R; the CNOT sends its rows 0, 1, 2, 3 to rows 0, 3, 2, 1
    u[[0, 3], :2] = r
    u[[2, 1], 2:] = r
    return u


def embed(op: np.ndarray, targets, n: int) -> np.ndarray:
    """Extend a gate to an n-qubit register, acting on `targets` in listed order.

    The gate's qubit slots map onto the listed register qubits one-to-one;
    everything else is identity.
    """
    targets = [int(q) for q in targets]
    k = n_qubits_of(op)
    if len(targets) != k:
        raise ValueError(f"gate acts on {k} qubit(s) but {len(targets)} target(s) given")
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target indices in {targets}")
    for q in targets:
        if not 0 <= q < n:
            raise ValueError(f"target index {q} out of range for {n} qubits")
    rest = [q for q in range(n) if q not in targets]
    full = np.kron(op, np.eye(2 ** (n - k), dtype=complex))
    order = targets + rest
    perm = [order.index(q) for q in range(n)]
    tensor = full.reshape((2,) * (2 * n)).transpose(perm + [p + n for p in perm])
    return np.ascontiguousarray(tensor.reshape(2**n, 2**n))


_PI_FORM = re.compile(r"([+-]?(?:\d+(?:\.\d*)?|\.\d+)?)\*?pi(?:/((?:\d+(?:\.\d*)?|\.\d+)))?")


def parse_angle(text: str) -> float:
    """Parse an angle in radians; pi literals such as pi/4, -pi/4, 3*pi/2 are allowed."""
    s = text.strip().lower().replace(" ", "")
    if not s:
        raise ValueError("empty angle")
    if "pi" not in s:
        try:
            return float(s)
        except ValueError as exc:
            raise ValueError(f"cannot parse angle {text!r}") from exc
    m = _PI_FORM.fullmatch(s)
    if m is None:
        raise ValueError(f"cannot parse angle {text!r}")
    num_text = m.group(1)
    if num_text in ("", "+"):
        num = 1.0
    elif num_text == "-":
        num = -1.0
    else:
        num = float(num_text)
    den = float(m.group(2)) if m.group(2) else 1.0
    if den == 0:
        raise ValueError(f"zero denominator in angle {text!r}")
    return num * math.pi / den


def parse_setting(text: str) -> AngleSetting:
    """Parse a setting spec: so2:<theta> or su2:<phi>,<theta>,<lam>."""
    s = text.strip()
    tag, sep, arg = s.partition(":")
    tag = tag.strip().lower()
    if not sep or tag not in (SO2, SU2):
        raise ValueError(f"setting spec {text!r} must look like so2:<angle> or su2:<a>,<b>,<c>")
    parts = [p for p in arg.split(",")]
    arity = 1 if tag == SO2 else 3
    if len(parts) != arity:
        raise ValueError(f"{tag} setting needs {arity} angle(s), got {len(parts)} in {text!r}")
    return AngleSetting(tag, tuple(parse_angle(p) for p in parts))


def format_setting(setting: AngleSetting) -> str:
    """Render a setting in the grammar parse_setting accepts, at full precision."""
    return setting.mode + ":" + ",".join(f"{a:.17g}" for a in setting.angles)
