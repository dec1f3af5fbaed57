"""N-party protocol execution.

Each party i holds one system qubit and one ancilla qubit, qubits i and N+i of
the 2N-qubit register, and applies a two-qubit unitary parameterized only by its
own angle setting. Correlators of the fixed z-basis measurement on the reduced
system state are computed two ways. The direct route (`reduced_states`) applies
each party's gate and ancilla trace to the system and ancilla factors in turn,
never writing out the register system (x) ancilla; the correlators are the
`parity` of its stack of reduced states. The factorized route multiplies the
system's `parity` by `table_from_observables`, the one contraction of the
ancilla. The analysis module checks by randomized campaign that the two agree,
and that each reduced state is the bit-flip mixture of `flip_mixtures`. The
register chain `assemble` -> `apply_olts` -> `reduced_system` is not exported:
it is the tests' reference route.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .gates import (
    PAULIS,
    AngleSetting,
    bloch_vectors,
    observables_from_bloch,
    olt_unitary,
)
from .linalg import ATOL, dag, partial_trace
from .states import DensityMatrix, _frozen, check_qubits, validate_density


def _parity_signs(n: int) -> np.ndarray:
    """(-1)^popcount(i) for i < 2^n: the diagonal of Z^N, one doubling per qubit."""
    signs = np.ones(1)
    for _ in range(n):
        signs = np.concatenate([signs, -signs])
    return signs


def _check_parties(system: DensityMatrix, ancilla: DensityMatrix):
    if system.n_qubits != ancilla.n_qubits:
        raise ValueError(
            f"party count mismatch: system has {system.n_qubits} qubits, "
            f"ancilla has {ancilla.n_qubits}"
        )


def _register_parties(register: DensityMatrix) -> int:
    """N for a register of 2N qubits, one system and one ancilla qubit per party."""
    if register.n_qubits % 2:
        raise ValueError(f"register has {register.n_qubits} qubits, expected 2N: two per party")
    return register.n_qubits // 2


def assemble(system: DensityMatrix, ancilla: DensityMatrix) -> DensityMatrix:
    """2N-qubit register system (x) ancilla: a state by construction, so not validated again."""
    _check_parties(system, ancilla)
    check_qubits(2 * system.n_qubits)
    return _frozen(np.kron(system.matrix, ancilla.matrix), 2 * system.n_qubits)


def _check_settings(settings: Sequence[AngleSetting], n: int):
    if len(settings) != n:
        raise ValueError(f"expected {n} settings, one per party, got {len(settings)}")


def _setting_shape(per_party: Sequence[Sequence[AngleSetting]], n: int) -> tuple[int, ...]:
    if len(per_party) != n:
        raise ValueError(f"expected {n} setting lists, got {len(per_party)}")
    if any(len(lst) == 0 for lst in per_party):
        raise ValueError("every party needs at least one setting")
    return tuple(len(lst) for lst in per_party)


def _observable_stacks(per_party: Sequence[Sequence[AngleSetting]], n: int) -> list[np.ndarray]:
    """Each party's measured observables v . sigma, as one (M_k, 2, 2) stack with M_k >= 1."""
    _setting_shape(per_party, n)
    return [observables_from_bloch(bloch_vectors(lst)) for lst in per_party]


def _party_pairs(matrix: np.ndarray, n: int) -> np.ndarray:
    """A 2^n x 2^n matrix as a (4,) * n tensor: axis q is qubit q's (row, column) pair of bits."""
    order = [a for q in range(n) for a in (q, n + q)]
    return matrix.reshape((2,) * (2 * n)).transpose(order).reshape((4,) * n)


def apply_olts(register: DensityMatrix, settings: Sequence[AngleSetting]) -> DensityMatrix:
    """Apply each party's gate to its own two qubits i and N+i: rho -> U rho U^dag.

    Per party, one `tensordot` of its channel U x U* on its two qubits' (row, column) pairs. Each
    gate is checked unitary within 1e-10; the image is a state by construction, not revalidated.
    """
    n = _register_parties(register)
    _check_settings(settings, n)
    rho = _party_pairs(register.matrix, 2 * n)
    for i, s in enumerate(settings):
        u = olt_unitary(s)
        defect = float(np.max(np.abs(u @ dag(u) - np.eye(4))))
        if not defect <= ATOL:  # NaN fails it too
            raise ValueError(f"gate is not unitary: |U U^dag - I| = {defect:.3e}")
        u = u.reshape(2, 2, 2, 2)
        channel = np.einsum("stbc,uvde->sutvbdce", u, u.conj()).reshape(4, 4, 4, 4)
        # the unrotated parties' qubits lead, system before ancilla; rotated pairs trail
        rho = np.tensordot(rho, channel, axes=([0, n - i], [2, 3]))
    rho = rho.reshape((2,) * (4 * n)).transpose([4 * i + k for k in (0, 2, 1, 3) for i in range(n)])
    return _frozen(rho.reshape(4**n, 4**n), register.n_qubits)


def reduced_system(register: DensityMatrix) -> DensityMatrix:
    """Trace out the ancilla qubits N..2N-1 of a register or stack, leaving each party's system qubit."""
    n = _register_parties(register)
    return validate_density(partial_trace(register.matrix, range(n), 2 * n))


def reduced_states(
    system: DensityMatrix, ancilla: DensityMatrix, per_party_settings: Sequence[Sequence[AngleSetting]]
) -> DensityMatrix:
    """Every combination's reduced state, as a row-major (M_1, ..., M_N, d, d) stack.

    Party k's gate and ancilla trace are one channel K[m, s, s', (b, b'), (c, c')] = sum_t
    U_m[(s,t), (b,c)] U_m*[(s',t), (b',c')] on its system pair (b, b') and ancilla pair (c, c').
    The first party's K meets the ancilla, then the system, so no register is built. Parties
    with at most 4 settings go first. The stack is validated once.
    """
    _check_parties(system, ancilla)
    n = system.n_qubits
    check_qubits(2 * n)
    shape = _setting_shape(per_party_settings, n)
    order = sorted(range(n), key=lambda k: shape[k] > 4)
    for j, k in enumerate(order):
        u = np.array([olt_unitary(s) for s in per_party_settings[k]]).reshape(-1, 2, 2, 2, 2)
        traced = np.einsum("mstbc,mutde->msubdce", u, u.conj()).reshape(-1, 2, 2, 4, 4)
        if j == 0:
            pairs = np.tensordot(_party_pairs(ancilla.matrix, n), traced, axes=([k], [4]))
            pairs = np.tensordot(_party_pairs(system.matrix, n), pairs, axes=([k], [-1]))
            continue
        # uncontracted parties' system pairs lead, then their ancilla pairs; (m, s, s') trail
        at = sum(i < k for i in order[j:])
        pairs = np.tensordot(pairs, traced, axes=([at, n - j + at], [3, 4]))
    pairs = pairs.transpose([3 * order.index(k) + c for c in range(3) for k in range(n)])
    return validate_density(pairs.reshape(shape + (2**n, 2**n)))


def flip_distribution(
    ancilla: DensityMatrix, per_party_settings: Sequence[Sequence[AngleSetting]]
) -> np.ndarray:
    """p(a | combination) = tr[(P_1 x ... x P_N) chi], shape (M_1, ..., M_N, 2^N).

    P_k = (I + (-1)^(a_k) v_k . sigma)/2 is party k's outcome projector, v_k the
    Bloch vector of its setting, and a the row-major index of the N ancilla
    bits: the z-diagonal of the rotated ancilla, as one `table_from_observables`
    over the 2 M_k projectors of every party.
    """
    n = ancilla.n_qubits
    eye = np.eye(2)
    projectors = [
        np.stack([eye + obs, eye - obs], axis=1).reshape(-1, 2, 2) / 2
        for obs in _observable_stacks(per_party_settings, n)
    ]
    shape = tuple(len(lst) for lst in per_party_settings)
    p = table_from_observables(ancilla, projectors).reshape([d for m in shape for d in (m, 2)])
    return p.transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)]).reshape(shape + (2**n,))


def flip_mixtures(
    system: DensityMatrix, ancilla: DensityMatrix, per_party_settings: Sequence[Sequence[AngleSetting]]
) -> DensityMatrix:
    """Every reduced state of `reduced_states` as one validated (M_1, ..., M_N, d, d) stack.

    State [idx] is sum_a p(a) X^a rho_sys X^a, p from `flip_distribution` and X^a
    the XOR of both indices of rho_sys with a: one matmul of p with the 2^N flipped
    copies (8^N complex entries, 268 MB at N = 8), one `validate_density` of the stack.
    """
    _check_parties(system, ancilla)
    p = flip_distribution(ancilla, per_party_settings)
    d = system.dim
    perm = np.arange(d)[None, :] ^ np.arange(d)[:, None]
    flipped = system.matrix[perm[:, :, None], perm[:, None, :]].reshape(d, d * d)
    return validate_density((p @ flipped).reshape(p.shape[:-1] + (d, d)))


def parity(state: DensityMatrix) -> float | np.ndarray:
    """Z-basis parity expectation of a state, or of each of a stack: its diagonal against Z^N's signs."""
    return state.matrix.diagonal(axis1=-2, axis2=-1).real @ _parity_signs(state.n_qubits)


def correlation_direct(
    system: DensityMatrix, ancilla: DensityMatrix, settings: Sequence[AngleSetting]
) -> float:
    """Full-register simulation of one correlator: the parity of the reduced state."""
    return parity(reduced_system(apply_olts(assemble(system, ancilla), settings)))


def correlation_factorized(
    system: DensityMatrix, ancilla: DensityMatrix, settings: Sequence[AngleSetting]
) -> float:
    """Factorized route for one correlator: `correlator_table` with one setting per party."""
    _check_settings(settings, system.n_qubits)
    return float(correlator_table(system, ancilla, [[s] for s in settings]).reshape(()))


class StabilizerResult(NamedTuple):
    """Parity eigenvalue of a state, when it has one."""

    eigenvalue: int | None
    expectation: float


def stabilizer_eigenvalue(system: DensityMatrix) -> StabilizerResult:
    """+1 or -1 when the state is a parity eigenstate, else None.

    The raw parity expectation is always reported; when the state is not an
    eigenstate it is the scaling constant the factorized route applies to
    every correlator. The state commutes with Z^N when (Z rho - rho Z)[i, j] = (s_i - s_j) rho[i, j]
    stays within 1e-10, s the signs of Z^N: 2 |rho[i, j]| wherever s_i and s_j differ.
    """
    signs = _parity_signs(system.n_qubits)
    value = parity(system)
    commutes = 2 * np.max(np.abs(system.matrix[signs[:, None] != signs])) <= ATOL
    if commutes and abs(abs(value) - 1.0) <= ATOL:
        return StabilizerResult(1 if value > 0 else -1, value)
    return StabilizerResult(None, value)


def correlator_table(
    system: DensityMatrix,
    ancilla: DensityMatrix,
    per_party_settings: Sequence[Sequence[AngleSetting]],
) -> np.ndarray:
    """Correlator for every combination of one setting per party, by the factorized route.

    The result has one axis per party, of length equal to that party's number
    of settings: the system's `parity` times `table_from_observables` on the
    parties' measured observables. The direct route's table is the `parity` of
    each of `reduced_states`.
    """
    _check_parties(system, ancilla)
    stacks = _observable_stacks(per_party_settings, system.n_qubits)
    return parity(system) * table_from_observables(ancilla, stacks)


def correlation_tensor(ancilla: DensityMatrix) -> np.ndarray:
    """Pauli correlation tensor T[i1..iN] = tr[(s_i1 x ... x s_iN) chi] over (x, y, z).

    A correlator at settings with Bloch vectors v_1..v_N is the system parity
    expectation times T contracted with every v_k.
    """
    return table_from_observables(ancilla, [PAULIS] * ancilla.n_qubits)


def table_from_observables(ancilla: DensityMatrix, stacks: Sequence[np.ndarray]) -> np.ndarray:
    """Expectations tr[(O_1 x ... x O_N) chi] for every combination of observables.

    stacks[k] has shape (M_k, 2, 2); the result has shape (M_1, ..., M_N). This
    is the one contraction of the ancilla on the factorized side, one party at
    a time: each step sums that party's row and column index of chi against
    O_k's column and row index and appends its M_k axis.
    """
    n = ancilla.n_qubits
    if len(stacks) != n:
        raise ValueError(f"expected {n} observable stacks, one per party, got {len(stacks)}")
    table = ancilla.matrix.reshape((2,) * (2 * n))
    for k, obs in enumerate(stacks):
        table = np.tensordot(table, obs, axes=([0, n - k], [2, 1]))
    residue = float(np.max(np.abs(table.imag)))
    if residue >= ATOL:
        raise ValueError(f"correlator table has imaginary residue {residue:.3e} >= 1e-10")
    return table.real
