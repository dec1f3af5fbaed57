"""Constructors and validation for the density matrices used by the protocol."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ATOL, is_hermitian, n_qubits_of

MAX_QUBITS = 12  # largest state the constructors build: 2^12 x 2^12 complex is 268 MB
BLOCK_ENTRIES = 2**15  # complex entries validated in one chunk: 512 KiB


def check_qubits(n: int):
    """Reject a state on more than MAX_QUBITS qubits before it is allocated."""
    if n > MAX_QUBITS:
        raise ValueError(f"{n} qubits exceeds the cap of {MAX_QUBITS} qubits per state")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated quantum state: Hermitian, unit trace, positive semidefinite.

    One (d, d) matrix or an (..., d, d) stack of them, immutable (the buffer is
    read-only); built by validate_density, a named factory below, or, unchecked, _frozen.
    """

    matrix: np.ndarray
    n_qubits: int

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]


def validate_density(m: np.ndarray) -> DensityMatrix:
    """Wrap a matrix, or an (..., d, d) stack, as a DensityMatrix, naming the violated invariant.

    Positivity (no eigenvalue below -1e-10) is certified by a Cholesky factorization
    of m + 0.5e-10 I; only if that fails does the spectrum decide, by the same rule.
    A stack is checked once per invariant, Hermiticity and positivity over row-major
    chunks of at most BLOCK_ENTRIES entries; its first bad matrix (row-major) fails as alone.
    """
    m = np.asarray(m, dtype=complex)
    n = n_qubits_of(m)
    d = m.shape[-1]
    step = max(1, BLOCK_ENTRIES // (d * d))  # whole matrices per chunk
    flat = m.reshape(-1, d, d)
    chunks = [flat[i : i + step] for i in range(0, len(flat), step)]
    if not all(is_hermitian(c) for c in chunks):
        raise ValueError("density matrix is not Hermitian within 1e-10")
    for c in chunks:
        shifted = c.copy()
        shifted.reshape(c.shape[:-2] + (-1,))[..., :: d + 1] += ATOL / 2
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            min_eigs = np.linalg.eigvalsh(c)[..., 0].reshape(-1)
            negative = min_eigs[min_eigs < -ATOL]
            if negative.size:
                raise ValueError(f"density matrix has negative eigenvalue {negative[0]:.3e}") from None
    tr = m.trace(axis1=-2, axis2=-1)
    if (abs(tr - 1.0) > ATOL).any():
        tr = tr.reshape(-1)
        tr = tr[abs(tr - 1.0) > ATOL][0]
        raise ValueError(f"density matrix trace is {tr.real:.12g}, expected 1")
    return _frozen(m.copy(), n)


def _frozen(m: np.ndarray, n: int) -> DensityMatrix:
    """Wrap a fresh array that is a state (or stack) by construction: read-only, not copied."""
    m.setflags(write=False)
    return DensityMatrix(matrix=m, n_qubits=n)


def projector(ket: np.ndarray) -> np.ndarray:
    """|psi><psi| for a unit-norm amplitude vector."""
    ket = np.asarray(ket, dtype=complex).reshape(-1)
    norm2 = float(np.real(np.vdot(ket, ket)))
    if abs(norm2 - 1.0) > ATOL:
        raise ValueError(f"state vector norm^2 is {norm2:.12g}, expected 1")
    return np.outer(ket, ket.conj())


def make_basis_state(bits: str) -> DensityMatrix:
    """Pure projector onto the computational basis ket labeled by a bit string."""
    if not bits or any(b not in "01" for b in bits):
        raise ValueError(f"bit string must be a nonempty sequence of 0/1, got {bits!r}")
    n = len(bits)
    check_qubits(n)
    ket = np.zeros(2**n, dtype=complex)
    ket[int(bits, 2)] = 1.0
    return validate_density(projector(ket))


def make_classical_correlated(n: int) -> DensityMatrix:
    """Equal mixture of |0...0><0...0| and |1...1><1...1| on n parties."""
    if n < 2:
        raise ValueError(f"classical correlated state needs n >= 2 parties, got {n}")
    check_qubits(n)
    d = 2**n
    m = np.zeros((d, d), dtype=complex)
    m[0, 0] = 0.5
    m[d - 1, d - 1] = 0.5
    return validate_density(m)


_BELL_KETS = {
    "phi+": (0, 3, 1.0),
    "phi-": (0, 3, -1.0),
    "psi+": (1, 2, 1.0),
    "psi-": (1, 2, -1.0),
}


def make_bell_state(kind: str) -> DensityMatrix:
    """One of the four maximally entangled two-qubit states: phi+, phi-, psi+, psi-."""
    key = kind.strip().lower()
    if key not in _BELL_KETS:
        raise ValueError(f"unknown Bell state {kind!r}; expected one of {sorted(_BELL_KETS)}")
    i, j, sign = _BELL_KETS[key]
    ket = np.zeros(4, dtype=complex)
    ket[i] = 1 / np.sqrt(2)
    ket[j] = sign / np.sqrt(2)
    return validate_density(projector(ket))


def make_werner(p: float) -> DensityMatrix:
    """Singlet mixed with white noise: (1-p) I/4 + p |psi-><psi-|."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"noise parameter must lie in [0, 1], got {p}")
    singlet = make_bell_state("psi-").matrix
    return validate_density((1 - p) * np.eye(4, dtype=complex) / 4 + p * singlet)


def make_ghz(n: int, phase: complex = 1.0) -> DensityMatrix:
    """Projector onto (|0...0> + phase |1...1>)/sqrt(2) for a unit-modulus phase."""
    if n < 2:
        raise ValueError(f"GHZ state needs n >= 2 parties, got {n}")
    check_qubits(n)
    phase = complex(phase)
    if not abs(abs(phase) - 1.0) <= ATOL:  # NaN fails it too
        raise ValueError(f"GHZ phase must have unit modulus, got |{phase}| = {abs(phase):.12g}")
    ket = np.zeros(2**n, dtype=complex)
    ket[0] = 1 / np.sqrt(2)
    ket[-1] = phase / np.sqrt(2)
    return validate_density(projector(ket))


def parse_state_spec(text: str) -> DensityMatrix:
    """Parse a tagged state specification.

    Forms: basis:<bits>, classical_correlated:<n>, bell:<kind>, werner:<p>,
    ghz:<n>,<phase> (phase is a complex literal such as i, -i, 1, 0.6+0.8i).
    """
    s = text.strip()
    tag, sep, arg = s.partition(":")
    tag = tag.strip().lower()
    arg = arg.strip()
    if not sep:
        raise ValueError(f"state spec {text!r} is missing ':<args>'")
    try:
        if tag == "basis":
            return make_basis_state(arg)
        if tag == "classical_correlated":
            return make_classical_correlated(int(arg))
        if tag == "bell":
            return make_bell_state(arg)
        if tag == "werner":
            return make_werner(float(arg))
        if tag == "ghz":
            n_text, sep2, phase_text = arg.partition(",")
            if not sep2:
                raise ValueError("ghz spec needs the form ghz:<n>,<phase>")
            return make_ghz(int(n_text), _parse_complex(phase_text))
    except ValueError as exc:
        raise ValueError(f"invalid state spec {text!r}: {exc}") from exc
    raise ValueError(f"unknown state tag {tag!r} in {text!r}")


def _parse_complex(text: str) -> complex:
    s = text.strip().lower().replace(" ", "").replace("i", "j")
    try:
        return complex(s)
    except ValueError as exc:
        raise ValueError(f"cannot parse complex literal {text!r}") from exc
