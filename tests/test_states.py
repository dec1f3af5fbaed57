"""State constructors, validation, and the tagged spec grammar."""

import tracemalloc

import numpy as np
import pytest

import oltsim.states
from oltsim.gates import pauli
from oltsim.linalg import partial_trace
from oltsim.states import (
    MAX_QUBITS,
    check_qubits,
    make_basis_state,
    make_bell_state,
    make_classical_correlated,
    make_ghz,
    make_werner,
    parse_state_spec,
    validate_density,
)

from reference import z_string


class TestBasisState:
    def test_two_qubit_projector(self):
        rho = make_basis_state("00")
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        assert np.array_equal(rho.matrix, expected)

    def test_three_qubit_projector(self):
        rho = make_basis_state("000")
        assert rho.n_qubits == 3
        assert rho.matrix[0, 0] == 1.0 and np.trace(rho.matrix) == 1.0

    def test_single_qubit(self):
        assert np.array_equal(make_basis_state("0").matrix, np.diag([1.0, 0.0]).astype(complex))

    @pytest.mark.parametrize("bad", ["", "0x1", "2"])
    def test_rejects_bad_bits(self, bad):
        with pytest.raises(ValueError):
            make_basis_state(bad)


class TestClassicalCorrelated:
    def test_two_parties(self):
        rho = make_classical_correlated(2)
        expected = np.diag([0.5, 0, 0, 0.5]).astype(complex)
        assert np.array_equal(rho.matrix, expected)

    def test_three_parties(self):
        rho = make_classical_correlated(3)
        assert rho.matrix[0, 0] == 0.5 and rho.matrix[7, 7] == 0.5
        assert np.trace(rho.matrix) == 1.0

    def test_parity_eigenvalue_plus_one(self):
        rho = make_classical_correlated(2)
        assert np.trace(z_string(2) @ rho.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_rejects_single_party(self):
        with pytest.raises(ValueError):
            make_classical_correlated(1)


class TestBellStates:
    def test_phi_plus_entries(self):
        rho = make_bell_state("phi+")
        for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
            assert rho.matrix[i, j] == pytest.approx(0.5, abs=1e-12)

    def test_psi_minus(self):
        ket = np.zeros(4, dtype=complex)
        ket[1], ket[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        assert np.allclose(make_bell_state("psi-").matrix, np.outer(ket, ket.conj()), atol=1e-12)

    def test_marginal_maximally_mixed(self):
        rho = make_bell_state("phi+")
        assert np.allclose(partial_trace(rho.matrix, {0}, 2), np.eye(2) / 2, atol=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown Bell state"):
            make_bell_state("phi*")


class TestWerner:
    def test_zero_noise_parameter_is_maximally_mixed(self):
        assert np.allclose(make_werner(0.0).matrix, np.eye(4) / 4, atol=1e-12)

    def test_pure_singlet_at_one(self):
        assert np.allclose(make_werner(1.0).matrix, make_bell_state("psi-").matrix, atol=1e-12)

    def test_entangled_above_third(self):
        # partial transpose spectrum is {(1-3p)/4, (1+p)/4 x3}
        rho = make_werner(0.8).matrix
        pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
        assert np.linalg.eigvalsh(pt)[0] == pytest.approx((1 - 3 * 0.8) / 4, abs=1e-12)

    @pytest.mark.parametrize("p", [-0.1, 1.1])
    def test_rejects_out_of_range(self, p):
        with pytest.raises(ValueError):
            make_werner(p)

    @pytest.mark.parametrize("p", np.linspace(0, 1, 11))
    def test_parity_is_minus_p(self, p):
        assert np.trace(z_string(2) @ make_werner(p).matrix).real == pytest.approx(-p, abs=1e-12)


class TestGhz:
    def test_three_party_phase_i(self):
        rho = make_ghz(3, 1j)
        ket = np.zeros(8, dtype=complex)
        ket[0], ket[7] = 1 / np.sqrt(2), 1j / np.sqrt(2)
        assert np.allclose(rho.matrix, np.outer(ket, ket.conj()), atol=1e-12)

    def test_two_party_unit_phase_is_bell(self):
        assert np.allclose(make_ghz(2, 1.0).matrix, make_bell_state("phi+").matrix, atol=1e-12)

    def test_marginal_is_classical_correlated(self):
        red = partial_trace(make_ghz(3, 1j).matrix, {0, 1}, 3)
        assert np.allclose(red, make_classical_correlated(2).matrix, atol=1e-12)

    def test_rejects_non_unit_phase(self):
        with pytest.raises(ValueError, match="unit modulus"):
            make_ghz(3, 0.5)

    @pytest.mark.parametrize("phase", ["nan", "nan+nanj"])
    def test_rejects_nan_phase(self, phase):
        with pytest.raises(ValueError, match="unit modulus"):
            make_ghz(3, complex(phase))
        with pytest.raises(ValueError, match="unit modulus"):
            parse_state_spec(f"ghz:3,{phase}")


def boundary_state(d, min_eig):
    """Unit-trace diagonal state whose smallest eigenvalue is `min_eig`."""
    diag = np.full(d, (1 - min_eig) / (d - 1))
    diag[0] = min_eig
    return np.diag(diag)


def spectrum_calls(monkeypatch):
    """Record every eigvalsh call validate_density makes from now on."""
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(1) or eigvalsh(m))
    return calls


class TestValidateDensity:
    def test_accepts_maximally_mixed(self):
        dm = validate_density(np.eye(4) / 4)
        assert dm.n_qubits == 2

    def test_trace_violation(self):
        with pytest.raises(ValueError, match="trace"):
            validate_density(np.diag([1.0, 0.1]))

    def test_negativity_violation(self):
        # sigma_x is traceless too; negativity must be the reported failure
        with pytest.raises(ValueError, match="negative eigenvalue"):
            validate_density(pauli(1))

    @pytest.mark.parametrize("d", [4, 256])
    @pytest.mark.parametrize(
        "min_eig, spectrum_checked", [(-0.3e-10, False), (-0.7e-10, True)]
    )
    def test_negative_eigenvalue_within_tolerance(self, monkeypatch, d, min_eig, spectrum_checked):
        # the Cholesky certificate of m + 0.5e-10 I settles -0.3e-10; -0.7e-10
        # falls through to the spectrum, which still accepts it
        calls = spectrum_calls(monkeypatch)
        validate_density(boundary_state(d, min_eig))
        assert bool(calls) == spectrum_checked

    @pytest.mark.parametrize("d", [4, 256])
    def test_negative_eigenvalue_beyond_tolerance(self, d):
        with pytest.raises(ValueError, match="negative eigenvalue -2.000e-10"):
            validate_density(boundary_state(d, -2e-10))

    def test_stack_shifts_every_diagonal(self, monkeypatch):
        # each matrix of the stack gets its own 0.5e-10 shift: -0.3e-10 is
        # certified without the spectrum, -0.7e-10 in one slice falls through
        calls = spectrum_calls(monkeypatch)
        stack = np.array([boundary_state(4, -0.3e-10)] * 6).reshape(3, 2, 4, 4)
        assert validate_density(stack).matrix.shape == (3, 2, 4, 4)
        assert not calls
        stack[2, 1] = boundary_state(4, -0.7e-10)
        validate_density(stack)
        assert calls
        stack[1, 0] = boundary_state(4, -2e-10)
        with pytest.raises(ValueError, match="negative eigenvalue -2.000e-10"):
            validate_density(stack)

    def test_rank_one_projector_certified(self, monkeypatch):
        ket = np.array([1, 1j]) @ np.random.default_rng(3).normal(size=(2, 256))
        ket /= np.linalg.norm(ket)
        calls = spectrum_calls(monkeypatch)
        dm = validate_density(np.outer(ket, ket.conj()))
        assert dm.n_qubits == 8
        assert not calls

    def test_hermiticity_violation(self):
        with pytest.raises(ValueError, match="Hermitian"):
            validate_density(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))

    def test_constructors_all_validate(self):
        for dm in [
            make_basis_state("01"),
            make_classical_correlated(3),
            make_bell_state("psi+"),
            make_werner(0.4),
            make_ghz(3, -1j),
        ]:
            again = validate_density(dm.matrix)
            assert again.n_qubits == dm.n_qubits

    def test_matrix_is_read_only(self):
        dm = make_werner(0.5)
        with pytest.raises(ValueError):
            dm.matrix[0, 0] = 2.0


class TestChunkedValidation:
    """A stack larger than BLOCK_ENTRIES is checked in row-major chunks of whole matrices."""

    @pytest.fixture
    def two_per_chunk(self, monkeypatch):
        # 4x4 matrices, two per chunk; returns the recorded Cholesky batch sizes
        monkeypatch.setattr(oltsim.states, "BLOCK_ENTRIES", 32)
        sizes = []
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda m: sizes.append(m.shape[0]) or cholesky(m))
        return sizes

    def test_stack_spans_chunks(self, two_per_chunk):
        stack = np.array([np.eye(4) / 4] * 6).reshape(3, 2, 4, 4)
        assert validate_density(stack).matrix.shape == (3, 2, 4, 4)
        assert two_per_chunk == [2, 2, 2]

    def test_hermiticity_checked_before_positivity(self, two_per_chunk):
        stack = np.array([np.eye(4) / 4] * 6)
        stack[0] = np.diag([1.5, -0.5, 0.0, 0.0])  # chunk 1: not positive
        stack[4, 0, 1] = 0.1  # chunk 3: not Hermitian
        with pytest.raises(ValueError, match="not Hermitian"):
            validate_density(stack)
        assert not two_per_chunk

    @pytest.mark.parametrize("first, second", [(-2e-10, -3e-10), (-3e-10, -2e-10)])
    def test_first_negative_across_chunk_boundary(self, two_per_chunk, monkeypatch, first, second):
        calls = spectrum_calls(monkeypatch)
        stack = np.array([boundary_state(4, 0.1)] * 6)
        stack[0] = boundary_state(4, -0.7e-10)  # chunk 1 falls through to the spectrum and passes
        stack[3] = boundary_state(4, first)  # last matrix of chunk 2
        stack[4] = boundary_state(4, second)  # first matrix of chunk 3
        with pytest.raises(ValueError, match=f"negative eigenvalue {first:.3e}"):
            validate_density(stack.reshape(3, 2, 4, 4))
        assert len(calls) == 2

    def test_peak_memory_bounded_by_one_copy(self):
        stack = np.tile(np.eye(4, dtype=complex) / 4, (256, 128, 1, 1))
        assert stack.nbytes >= 8 << 20
        tracemalloc.start()
        try:
            dm = validate_density(stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dm.matrix.shape == stack.shape
        assert peak < 1.25 * stack.nbytes


class TestParseStateSpec:
    @pytest.mark.parametrize(
        "spec, reference",
        [
            ("basis:00", lambda: make_basis_state("00")),
            ("classical_correlated:2", lambda: make_classical_correlated(2)),
            ("bell:phi+", lambda: make_bell_state("phi+")),
            ("werner:0.7", lambda: make_werner(0.7)),
            ("ghz:3,i", lambda: make_ghz(3, 1j)),
            ("ghz:2,-i", lambda: make_ghz(2, -1j)),
            ("ghz:2,1", lambda: make_ghz(2, 1.0)),
        ],
    )
    def test_round_trips_to_factories(self, spec, reference):
        assert np.allclose(parse_state_spec(spec).matrix, reference().matrix, atol=1e-12)

    @pytest.mark.parametrize(
        "bad",
        ["basis", "nope:1", "werner:2.0", "ghz:3", "ghz:3,2", "bell:xx", "werner:abc"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_state_spec(bad)


class TestSizeCap:
    def test_cap_is_twelve_qubits(self):
        assert MAX_QUBITS == 12
        check_qubits(12)
        with pytest.raises(ValueError, match="13 qubits exceeds the cap of 12 qubits"):
            check_qubits(13)

    @pytest.mark.parametrize("n", [13, 20])
    @pytest.mark.parametrize(
        "build",
        [
            lambda n: make_basis_state("0" * n),
            make_classical_correlated,
            lambda n: make_ghz(n, 1.0),
            lambda n: parse_state_spec(f"basis:{'1' * n}"),
            lambda n: parse_state_spec(f"classical_correlated:{n}"),
            lambda n: parse_state_spec(f"ghz:{n},1"),
        ],
        ids=["basis", "classical", "ghz", "spec-basis", "spec-classical", "spec-ghz"],
    )
    def test_rejected_before_allocation(self, build, n):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"{n} qubits exceeds the cap of 12 qubits"):
                build(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
