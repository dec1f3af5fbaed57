"""Separability testing, angle optimization, and verification campaigns.

The positive-partial-transpose test is conclusive for two-qubit states and is
reported as PPT/NPT only beyond that. The optimizer is a seeded multi-restart
see-saw on the ancilla's Pauli correlation tensor: the functional is linear in
each party's Bloch vectors, so every party's best response has a closed form.
It is deterministic for a fixed seed. The factorization campaign confronts
`run`'s direct route, `reduced_states` and its `parity`, with `flip_mixtures`
and `correlator_table` on randomized inputs; their agreement is an algebraic
identity, so the campaign must pass for every seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .functionals import BellFunctional, evaluate
from .gates import SO2, SU2, AngleSetting, olt_unitary, setting_from_bloch
from .linalg import _LETTERS, ATOL, dag
from .protocol import (
    _check_parties,
    correlation_tensor,
    correlator_table,
    flip_mixtures,
    parity,
    reduced_states,
    table_from_observables,  # noqa: F401  (the tracer tests patch and restore it here)
)
from .states import (
    DensityMatrix,
    make_bell_state,
    make_classical_correlated,
    validate_density,
)

PPT_TOL = 1e-10
GRID_CAP = 1024  # grid points per axis; G^2 reduced states are one stack (268 MB at the cap)


# ---------------------------------------------------------------------------
# separability


def partial_transpose(m: np.ndarray, subset, n: int) -> np.ndarray:
    """Transpose the listed qubits of an n-qubit operator, or of each in an (..., d, d) stack."""
    subset = sorted(set(int(q) for q in subset))
    for q in subset:
        if not 0 <= q < n:
            raise ValueError(f"transpose index {q} out of range for {n} qubits")
    if m.shape[-2:] != (2**n, 2**n):
        raise ValueError(f"expected a {2**n}x{2**n} matrix for n={n}, got shape {m.shape}")
    t = m.reshape(m.shape[:-2] + (2,) * (2 * n))
    for q in subset:
        t = t.swapaxes(q - 2 * n, q - n)
    return np.ascontiguousarray(t).reshape(m.shape)


@dataclass(frozen=True)
class PptVerdict:
    """Partial-transpose test result.

    `separable` is a real verdict only for two-qubit states, where positivity
    of the partial transpose is necessary and sufficient; for larger states it
    stays None and only the PPT/NPT flag is meaningful. For a stack of states,
    `ppt` and `min_eigenvalue` are arrays over its leading axes.
    """

    ppt: bool | np.ndarray
    min_eigenvalue: float | np.ndarray
    conclusive: bool

    @property
    def separable(self) -> bool | np.ndarray | None:
        return self.ppt if self.conclusive else None


def ppt_separable(rho: DensityMatrix, partition) -> PptVerdict:
    """Partial transpose over `partition` and check positivity of the spectrum, per state."""
    n = rho.n_qubits
    subset = sorted(set(int(q) for q in partition))
    if not subset or len(subset) >= n:
        raise ValueError(
            f"partition must be a nonempty proper subset of 0..{n - 1}, got {sorted(partition)}"
        )
    pt = partial_transpose(rho.matrix, subset, n)
    eigs = np.linalg.eigvalsh(pt)
    min_eig = float(eigs[0]) if eigs.ndim == 1 else eigs[..., 0]
    return PptVerdict(ppt=min_eig >= -PPT_TOL, min_eigenvalue=min_eig, conclusive=n == 2)


# ---------------------------------------------------------------------------
# angle optimization


def _rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class OptimizationResult:
    """Best |functional value| found, with the settings that achieve it."""

    best_value: float
    best_settings: tuple[tuple[AngleSetting, ...], ...]
    restarts_used: int
    converged: bool


def optimize_angles(
    system: DensityMatrix,
    ancilla: DensityMatrix,
    functional: BellFunctional,
    mode: str = SO2,
    budget: int = 32,
    seed: int = 0,
    max_sweeps: int = 200,
    sweep_tol: float = 1e-12,
) -> OptimizationResult:
    """Maximize |functional value| over all parties' measurement settings.

    A setting enters a correlator only through the unit Bloch vector of its
    measured observable, so the functional is sum_s c[s] T(v_1[s_1], ...,
    v_N[s_N]) times the system parity expectation, with T the ancilla's Pauli
    correlation tensor, scaled here to a largest |c| of 1 so that no scale
    overflows. Each restart draws uniform random vectors and runs see-saw
    sweeps: party k's vectors become v <- G/|G|, where G contracts the scaled
    coefficients and T with the other parties' vectors (projected onto the xz
    plane in so2 mode; a zero row keeps its vector). The value is linear in
    the last party's vectors, so a sweep scores as that party's G . v with no
    new contraction of the ancilla; sweeps stop when one gains less than
    `sweep_tol`, or after `max_sweeps`. Maximizing the signed value suffices:
    flipping one party's vectors flips its sign. The best vectors come back
    as settings (phi = 0 in su2 mode), and the returned best value is
    recomputed from them through `correlator_table` and `evaluate`.
    """
    if budget < 1:
        raise ValueError(f"budget of restarts must be >= 1, got {budget}")
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be >= 1, got {max_sweeps}")
    if mode not in (SO2, SU2):
        raise ValueError(f"mode must be '{SO2}' or '{SU2}', got {mode!r}")
    rng = _rng(seed)
    n = system.n_qubits
    _check_parties(system, ancilla)
    ms = functional.settings_per_party
    if len(ms) != n:
        raise ValueError(f"functional has {len(ms)} parties but the states have {n}")
    coeff = functional.coefficients / np.abs(functional.coefficients).max()
    tensor = correlation_tensor(ancilla)
    plane = np.array([1.0, 0.0, 1.0]) if mode == SO2 else np.ones(3)
    # G for party k: coefficients over settings s_j, T over axes x_j, and every
    # other party's (settings, axes) vectors, leaving (s_k, x_k)
    s_idx, x_idx = _LETTERS[:n], _LETTERS[n : 2 * n]
    gradient_subs = [
        ",".join([s_idx, x_idx] + [s_idx[j] + x_idx[j] for j in range(n) if j != k])
        + "->" + s_idx[k] + x_idx[k]
        for k in range(n)
    ]

    best_vectors = None
    best_val = -math.inf
    best_converged = False
    for _ in range(budget):
        vectors = [rng.normal(size=(m, 3)) * plane for m in ms]
        vectors = [v / np.linalg.norm(v, axis=1, keepdims=True) for v in vectors]
        val = -math.inf
        converged = False
        for _ in range(max_sweeps):
            before = val
            for k in range(n):
                others = [v for j, v in enumerate(vectors) if j != k]
                g = np.einsum(gradient_subs[k], coeff, tensor, *others) * plane
                norms = np.linalg.norm(g, axis=1)
                moved = norms > ATOL
                vectors[k][moved] = g[moved] / norms[moved, None]
            # linear in the last party's vectors, with g taken after every other party moved
            val = float(np.sum(g * vectors[-1]))
            if val - before < sweep_tol:
                converged = True
                break
        if val > best_val:
            best_val = val
            best_vectors = [v.copy() for v in vectors]
            best_converged = converged

    settings = tuple(
        tuple(setting_from_bloch(mode, v) for v in party) for party in best_vectors
    )
    table = correlator_table(system, ancilla, settings)
    best_value = abs(evaluate(functional, table))
    return OptimizationResult(
        best_value=best_value,
        best_settings=settings,
        restarts_used=budget,
        converged=best_converged,
    )


# ---------------------------------------------------------------------------
# factorization campaign


@dataclass(frozen=True)
class FactorizationReport:
    """Worst direct-vs-factorized disagreement of correlators and of reduced-state entries."""

    parties: int
    trials: int
    max_deviation: float
    max_state_deviation: float
    passed: bool


def random_diagonal_state(rng: np.random.Generator, n: int) -> DensityMatrix:
    """Random mixture of computational basis projectors (commutes with the parity)."""
    probs = rng.random(2**n)
    probs /= probs.sum()
    return validate_density(np.diag(probs.astype(complex)))


def random_density(rng: np.random.Generator, n: int) -> DensityMatrix:
    """Random full-rank state from a complex Ginibre matrix."""
    d = 2**n
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ dag(g)
    return validate_density(m / np.trace(m))


def random_setting(rng: np.random.Generator) -> AngleSetting:
    if rng.random() < 0.5:
        return AngleSetting.so2(rng.uniform(-2 * math.pi, 2 * math.pi))
    return AngleSetting.su2(*rng.uniform(-2 * math.pi, 2 * math.pi, size=3))


def verify_factorization(trials: int, parties: int, seed: int = 0) -> FactorizationReport:
    """Randomized comparison of `run`'s direct route with the factorized ones.

    Half the trials draw parity-commuting diagonal-mixture system states, half
    draw fully random ones (exercising the no-eigenvalue branch). On every trial,
    with one setting per party, the stack of `reduced_states` must match
    `flip_mixtures` and its `parity` must match `correlator_table`, both to 1e-10.
    """
    if parties not in range(2, 6):
        raise ValueError(f"parties must be between 2 and 5, got {parties}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = _rng(seed)
    worst = worst_state = 0.0
    for t in range(trials):
        system = (random_diagonal_state if t % 2 == 0 else random_density)(rng, parties)
        ancilla = random_density(rng, parties)
        per_party = [[random_setting(rng)] for _ in range(parties)]
        direct = reduced_states(system, ancilla, per_party)
        mixture = flip_mixtures(system, ancilla, per_party)
        worst_state = max(worst_state, float(np.max(np.abs(direct.matrix - mixture.matrix))))
        factorized = correlator_table(system, ancilla, per_party)
        worst = max(worst, float(np.max(np.abs(parity(direct) - factorized))))
    return FactorizationReport(parties, trials, worst, worst_state, max(worst, worst_state) < 1e-10)


# ---------------------------------------------------------------------------
# final-state form and entanglement persistency


def closed_form_final_ket(theta_a: float, theta_b: float) -> np.ndarray:
    """Closed form of the pure output state for a |00> system and a phi+ ancilla.

    Qubit order (a, b, a', b'); the weight between the correlated and the
    anticorrelated branch depends only on the angle difference.
    """
    delta = theta_a - theta_b
    c = math.cos(delta / 2) / math.sqrt(2)
    s = math.sin(delta / 2) / math.sqrt(2)
    ket = np.zeros(16, dtype=complex)
    ket[0b0000] = c
    ket[0b1111] = c
    ket[0b1010] = s
    ket[0b0101] = -s
    return ket


def check_final_state_form(theta_a: float, theta_b: float) -> float:
    """Fidelity |<ket|psi>|^2 of the simulated pure state psi against the closed-form ket.

    psi starts as |00> (x) phi+, a (2, 2, 2, 2) ket over (a, b, a', b'); each party's
    gate acts by one `tensordot` on its own (system, ancilla) axes.
    """
    psi = np.zeros((2, 2, 2, 2), dtype=complex)
    psi[0, 0, 0, 0] = psi[0, 0, 1, 1] = 1 / math.sqrt(2)
    for k, theta in enumerate((theta_a, theta_b)):
        u = olt_unitary(AngleSetting.so2(theta)).reshape(2, 2, 2, 2)
        psi = np.moveaxis(np.tensordot(u, psi, axes=([2, 3], [k, k + 2])), (0, 1), (k, k + 2))
    return float(abs(np.vdot(closed_form_final_ket(theta_a, theta_b), psi)) ** 2)


@dataclass(frozen=True)
class PersistencyReport:
    """Separability of the reduced two-party state over an angle grid."""

    thetas: np.ndarray
    separable: np.ndarray
    min_eigenvalues: np.ndarray

    @property
    def all_separable(self) -> bool:
        return bool(np.all(self.separable))


def persistency_scan(grid: int) -> PersistencyReport:
    """Scan the classically-correlated-pair scenario over a grid of angle pairs.

    For every (theta_a, theta_b) on a `grid`-point mesh over a full period,
    the reduced system state is tested with the (conclusive, two-qubit)
    partial-transpose criterion, all at once on the stack of reduced states.
    """
    if not 2 <= grid <= GRID_CAP:
        raise ValueError(f"grid must be between 2 and {GRID_CAP}, got {grid}")
    system = make_classical_correlated(2)
    ancilla = make_bell_state("phi+")
    thetas = np.linspace(0.0, 2 * math.pi, grid)
    settings = [AngleSetting.so2(t) for t in thetas]
    verdict = ppt_separable(flip_mixtures(system, ancilla, [settings, settings]), {0})
    return PersistencyReport(thetas, verdict.separable, verdict.min_eigenvalue)
