"""Dense complex linear algebra on small qubit registers.

Operators are plain complex numpy matrices of dimension 2**k. Qubit 0 is the
leftmost tensor factor, i.e. the most significant bit of the basis-state
label. Registers stay small (at most ~12 qubits), so everything is dense.
"""

from __future__ import annotations

import string

import numpy as np

# Structural validation tolerance; floating comparisons in tests use 1e-9.
ATOL = 1e-10

_LETTERS = string.ascii_letters


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the trailing two axes."""
    return m.conj().swapaxes(-1, -2)


def is_hermitian(m: np.ndarray, atol: float = ATOL) -> bool:
    """True when every matrix of an (..., d, d) stack is Hermitian within `atol`."""
    return bool(np.abs(m - dag(m)).max() <= atol)


def n_qubits_of(m: np.ndarray) -> int:
    """Qubits an operator, or each of an (..., d, d) stack, acts on; rejects malformed shapes."""
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"operator must be a square matrix, got shape {m.shape}")
    d = m.shape[-1]
    if d < 2 or d & (d - 1) != 0:
        raise ValueError(f"operator dimension must be a power of two >= 2, got {d}")
    return d.bit_length() - 1


def partial_trace(rho: np.ndarray, keep, n: int) -> np.ndarray:
    """Trace out all qubits of an n-qubit operator, or of each of an (..., d, d) stack, except `keep`.

    The result acts on the kept qubits in increasing index order. Linear and
    trace preserving; for keep = all qubits it returns the input unchanged.
    """
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")
    if rho.shape[-2:] != (2**n, 2**n):
        raise ValueError(f"expected {2**n}x{2**n} matrices for n={n}, got shape {rho.shape}")
    kept = sorted(set(int(q) for q in keep))
    for q in kept:
        if not 0 <= q < n:
            raise ValueError(f"keep index {q} out of range for {n} qubits")
    kept_set = set(kept)
    row = [_LETTERS[q] for q in range(n)]
    col = [_LETTERS[n + q] if q in kept_set else row[q] for q in range(n)]
    out = "".join(row[q] for q in kept) + "".join(_LETTERS[n + q] for q in kept)
    sub = "..." + "".join(row) + "".join(col) + "->..." + out
    d = 2 ** len(kept)
    return np.einsum(sub, rho.reshape(rho.shape[:-2] + (2,) * (2 * n))).reshape(rho.shape[:-2] + (d, d))

