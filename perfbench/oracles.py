"""Reference values for the benchmark's output checks, computed with numpy alone.

Nothing here imports oltsim: every expected value is derived independently of
the program under test, from the same spec strings the scenario files hold.

The closed forms rest on the factorization identity of the protocol: with the
system parity expectation s0 = tr[Z^N rho_sys] and the ancilla's Pauli
correlation tensor T[i1..iN] = tr[(s_i1 x ... x s_iN) chi], a correlator at
settings with Bloch vectors v_1..v_N is s0 * T contracted with every v_k.
"""

from __future__ import annotations

import math
import re

import numpy as np

PAULI = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

_BELL = {"phi+": (0, 3, 1.0), "phi-": (0, 3, -1.0), "psi+": (1, 2, 1.0), "psi-": (1, 2, -1.0)}


def _projector(ket: np.ndarray) -> np.ndarray:
    return np.outer(ket, ket.conj())


def density(spec: str) -> np.ndarray:
    """Density matrix of a state spec: basis, classical_correlated, bell, werner, ghz."""
    tag, _, arg = spec.strip().partition(":")
    tag, arg = tag.strip().lower(), arg.strip()
    if tag == "basis":
        ket = np.zeros(2 ** len(arg), dtype=complex)
        ket[int(arg, 2)] = 1.0
        return _projector(ket)
    if tag == "classical_correlated":
        d = 2 ** int(arg)
        m = np.zeros((d, d), dtype=complex)
        m[0, 0] = m[-1, -1] = 0.5
        return m
    if tag == "bell":
        i, j, sign = _BELL[arg.lower()]
        ket = np.zeros(4, dtype=complex)
        ket[i], ket[j] = 1 / math.sqrt(2), sign / math.sqrt(2)
        return _projector(ket)
    if tag == "werner":
        p = float(arg)
        return (1 - p) * np.eye(4, dtype=complex) / 4 + p * density("bell:psi-")
    if tag == "ghz":
        n_text, _, phase_text = arg.partition(",")
        phase = complex(phase_text.strip().lower().replace("i", "j"))
        ket = np.zeros(2 ** int(n_text), dtype=complex)
        ket[0], ket[-1] = 1 / math.sqrt(2), phase / math.sqrt(2)
        return _projector(ket)
    raise ValueError(f"unknown state spec {spec!r}")


def parity(rho: np.ndarray) -> float:
    """s0 = tr[Z^N rho]: the diagonal weighted by (-1)^(bit count)."""
    signs = np.array([(-1) ** bin(x).count("1") for x in range(rho.shape[0])])
    return float(np.real(np.sum(signs * np.diag(rho))))


def correlation_tensor(chi: np.ndarray) -> np.ndarray:
    """T[i1..iN] = tr[(s_i1 x ... x s_iN) chi] over i in (x, y, z)."""
    n = chi.shape[0].bit_length() - 1
    letters = "abcdefghijklmnopqrstuvwxyz"
    rows, cols, idx = letters[:n], letters[n : 2 * n], letters[2 * n : 3 * n]
    paulis = ",".join(idx[k] + cols[k] + rows[k] for k in range(n))
    sub = f"{paulis},{rows}{cols}->{idx}"
    return np.real(np.einsum(sub, *([PAULI] * n), chi.reshape((2,) * (2 * n))))


def functional(spec: str) -> np.ndarray:
    """Coefficient tensor of a functional spec: chsh, mermin3 or custom:<shape>:<coeffs>."""
    s = spec.strip().lower()
    if s == "chsh":
        return np.array([[1.0, 1.0], [1.0, -1.0]])
    if s == "mermin3":
        c = np.zeros((2, 2, 2))
        c[0, 0, 1] = c[0, 1, 0] = c[1, 0, 0] = 1.0
        c[1, 1, 1] = -1.0
        return c
    _, shape_text, coeff_text = s.split(":")
    shape = tuple(int(m) for m in shape_text.split("x"))
    return np.array([float(v) for v in coeff_text.split(",")]).reshape(shape)


_PI_ANGLE = re.compile(r"([+-]?[\d.]*)\*?pi(?:/([\d.]+))?")


def angle(text: str) -> float:
    """Radians from a float literal or a pi form such as pi/4, -pi/4, 3*pi/2."""
    s = text.strip().lower().replace(" ", "")
    m = _PI_ANGLE.fullmatch(s)
    if m is None:
        return float(s)
    num = {"": 1.0, "+": 1.0, "-": -1.0}.get(m.group(1))
    num = float(m.group(1)) if num is None else num
    return num * math.pi / float(m.group(2) or 1.0)


def _rotation(mode: str, angles) -> np.ndarray:
    def ry(t):
        c, s = math.cos(t / 2), math.sin(t / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)

    def rz(a):
        return np.diag([np.exp(-0.5j * a), np.exp(0.5j * a)])

    if mode == "so2":
        return ry(angles[0])
    phi, theta, lam = angles
    return rz(phi) @ ry(theta) @ rz(lam)


def bloch(mode: str, angles) -> np.ndarray:
    """Bloch vector of the measured observable R^dag Z R of one setting."""
    r = _rotation(mode, angles)
    obs = r.conj().T @ PAULI[2] @ r
    return np.real(np.einsum("kij,ji->k", PAULI, obs)) / 2


def settings(spec: str) -> list[list[np.ndarray]]:
    """Bloch vectors per party from a settings line (parties split by |)."""
    out = []
    for party in spec.split("|"):
        vectors, tokens = [], [t.strip() for t in party.split(",")]
        i = 0
        while i < len(tokens):
            mode, _, first = tokens[i].partition(":")
            arity = 1 if mode.strip() == "so2" else 3
            values = [first] + tokens[i + 1 : i + arity]
            vectors.append(bloch(mode.strip(), [angle(v) for v in values]))
            i += arity
        out.append(vectors)
    return out


def correlator_table(system: str, ancilla: str, settings_spec: str) -> np.ndarray:
    """Every correlator of a `run` scenario: s0 times T contracted with the Bloch vectors."""
    table = correlation_tensor(density(ancilla))
    for party in settings(settings_spec):
        table = np.tensordot(table, np.array(party), axes=([0], [1]))
    return parity(density(system)) * table


def classical_bound(coefficients: np.ndarray) -> float:
    """Exact classical bound by brute force over +-1 strategies, vectorized.

    The first party's best response is the sum of absolute contracted weights;
    every other party's strategies are enumerated as the rows of a sign table.
    """
    w = np.asarray(coefficients, dtype=float)
    for m in w.shape[1:]:
        signs = 1.0 - 2.0 * ((np.arange(2**m)[:, None] >> np.arange(m)) & 1)
        w = np.tensordot(w, signs, axes=([1], [1]))
    return float(np.max(np.sum(np.abs(w), axis=0)))


def xz_block(ancilla: str) -> np.ndarray:
    """The 2x2 block of T on the x and z axes, the ones so2 settings reach."""
    return correlation_tensor(density(ancilla))[np.ix_([0, 2], [0, 2])]


def horodecki_chsh(system: str, ancilla: str) -> float:
    """Maximal so2 CHSH value: 2 |s0| sqrt(t1^2 + t2^2) over the xz block's singular values."""
    t = np.linalg.svd(xz_block(ancilla), compute_uv=False)
    return 2.0 * abs(parity(density(system))) * math.sqrt(float(np.sum(t**2)))


def mermin_max(system: str) -> float:
    """Maximal su2 Mermin-3 value with a unit-phase GHZ ancilla: 4 |s0|."""
    return 4.0 * abs(parity(density(system)))


def sweep_table(system: str, ancilla: str, thetas: np.ndarray) -> np.ndarray:
    """Closed form of a sweep: s0 * a^T T_xz b with a = (-sin t_a, cos t_a), likewise b."""
    a = np.stack([-np.sin(thetas), np.cos(thetas)], axis=1)
    return parity(density(system)) * a @ xz_block(ancilla) @ a.T
