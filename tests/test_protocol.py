"""Protocol execution: assembly, per-party unitaries, reduction, and the two
correlator routes."""

import math
import tracemalloc

import numpy as np
import pytest

import oltsim
from oltsim import (
    AngleSetting,
    DensityMatrix,
    correlator_table,
    make_basis_state,
    make_bell_state,
    make_classical_correlated,
    make_ghz,
    make_werner,
    stabilizer_eigenvalue,
    validate_density,
)
from oltsim.analysis import random_density, random_diagonal_state, random_setting
from oltsim.gates import bloch_vectors, embed, olt_unitary, pauli, rotation
from oltsim.linalg import partial_trace
from oltsim.protocol import (
    apply_olts,
    assemble,
    correlation_direct,
    correlation_factorized,
    correlation_tensor,
    flip_distribution,
    flip_mixtures,
    parity,
    reduced_states,
    reduced_system,
    table_from_observables,
)

from reference import Z_TO_X, Z_TO_Y, kron_all, purity, z_string

RHO_CC = make_classical_correlated(2).matrix
RHO_ANTI = 0.5 * (make_basis_state("01").matrix + make_basis_state("10").matrix)


def so2(*thetas):
    return [AngleSetting.so2(t) for t in thetas]


class TestAssemble:
    def test_product_layout_and_purity(self):
        state = assemble(make_basis_state("00"), make_bell_state("phi+"))
        assert state.n_qubits == 4
        assert purity(state.matrix) == pytest.approx(1.0, abs=1e-12)

    def test_system_marginal_returns_input(self):
        system = make_classical_correlated(2)
        state = assemble(system, make_bell_state("phi+"))
        red = partial_trace(state.matrix, {0, 1}, 4)
        assert np.allclose(red, system.matrix, atol=1e-12)

    def test_mixed_factor_purity(self):
        state = assemble(make_classical_correlated(2), make_bell_state("phi+"))
        assert purity(state.matrix) == pytest.approx(0.5, abs=1e-12)

    def test_party_count_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            assemble(make_basis_state("00"), make_ghz(3, 1j))

    def test_frozen_product_without_validation(self, monkeypatch):
        # the product of two validated states is a state by construction
        rng = np.random.default_rng(5)
        system, ancilla = random_density(rng, 3), random_density(rng, 3)
        validated = []
        for module in (oltsim.states, oltsim.protocol):
            monkeypatch.setattr(module, "validate_density", validated.append)
        state = assemble(system, ancilla)
        assert validated == []
        assert state.n_qubits == 6
        assert np.array_equal(state.matrix, np.kron(system.matrix, ancilla.matrix))
        assert not state.matrix.flags.writeable


class TestApplyOlts:
    def test_zero_angles_give_correlated_pure_state(self):
        state = apply_olts(assemble(make_basis_state("00"), make_bell_state("phi+")), so2(0, 0))
        ket = np.zeros(16, dtype=complex)
        ket[0b0000] = 1 / math.sqrt(2)
        ket[0b1111] = 1 / math.sqrt(2)
        assert np.allclose(state.matrix, np.outer(ket, ket.conj()), atol=1e-12)

    def test_diagonal_states_stay_diagonal_at_zero_angle(self):
        system = make_classical_correlated(2)
        ancilla = validate_density(np.diag([0.4, 0.1, 0.2, 0.3]))
        state = apply_olts(assemble(system, ancilla), so2(0, 0))
        full = state.matrix
        # the controlled NOTs only permute populations: no coherences appear
        assert np.allclose(full, np.diag(np.diag(full)), atol=1e-12)
        # each basis label (a b a' b') moves to (a^a' b^b' a' b')
        before = np.diag(assemble(system, ancilla).matrix).real
        after = np.diag(full).real
        for label in range(16):
            a, b, ap, bp = (label >> 3) & 1, (label >> 2) & 1, (label >> 1) & 1, label & 1
            target = ((a ^ ap) << 3) | ((b ^ bp) << 2) | (ap << 1) | bp
            assert after[target] == pytest.approx(before[label], abs=1e-12)
        # parity therefore factorizes into system parity times ancilla parity
        red = reduced_system(state)
        anc_parity = np.trace(ancilla.matrix @ z_string(2)).real
        assert np.trace(red.matrix @ z_string(2)).real == pytest.approx(anc_parity, abs=1e-12)

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(17)
        system = random_density(rng, 2)
        ancilla = random_density(rng, 2)
        before = assemble(system, ancilla)
        after = apply_olts(before, so2(0.9, -0.4))
        assert np.allclose(
            np.linalg.eigvalsh(before.matrix),
            np.linalg.eigvalsh(after.matrix),
            atol=1e-9,
        )

    def test_settings_length_checked(self):
        state = assemble(make_basis_state("00"), make_bell_state("phi+"))
        with pytest.raises(ValueError, match="settings"):
            apply_olts(state, so2(0.0))

    def test_non_unitary_gate_rejected(self, monkeypatch):
        settings = so2(0.3, -1.1)
        unitary = oltsim.protocol.olt_unitary
        monkeypatch.setattr(
            oltsim.protocol,
            "olt_unitary",
            lambda s: (math.sqrt(2) if s is settings[1] else 1.0) * unitary(s),
        )
        state = assemble(make_basis_state("00"), make_bell_state("phi+"))
        with pytest.raises(ValueError, match=r"^gate is not unitary: \|U U\^dag - I\| = 1\.000e\+00$"):
            apply_olts(state, settings)

    def test_frozen_register_without_validation(self, monkeypatch):
        # a unitary image of a state is a state by construction: only the gates are checked
        rng = np.random.default_rng(8)
        state = assemble(random_density(rng, 3), random_density(rng, 3))
        validated = []
        for module in (oltsim.states, oltsim.protocol):
            monkeypatch.setattr(module, "validate_density", validated.append)
        rotated = apply_olts(state, [random_setting(rng) for _ in range(3)])
        assert validated == []
        assert rotated.n_qubits == 6
        assert not rotated.matrix.flags.writeable
        assert np.trace(rotated.matrix).real == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_per_party_conjugations(self, n):
        # reference: one embedded two-qubit gate per party, conjugated in turn
        rng = np.random.default_rng(100 + n)
        state = assemble(random_density(rng, n), random_density(rng, n))
        settings = [AngleSetting.so2(rng.uniform(-6, 6)), AngleSetting.su2(*rng.uniform(-6, 6, 3))]
        settings += [random_setting(rng) for _ in range(n - 2)]
        expected = state.matrix
        for i, setting in enumerate(settings):
            u = embed(olt_unitary(setting), [i, n + i], 2 * n)
            expected = u @ expected @ u.conj().T
        got = apply_olts(state, settings).matrix
        assert np.max(np.abs(got - expected)) < 1e-12


class TestRegisterInvariant:
    @pytest.mark.parametrize("bits", ["000", "00000"])
    def test_odd_qubit_count_rejected(self, bits):
        register = make_basis_state(bits)
        with pytest.raises(ValueError, match="qubits, expected 2N: two per party"):
            apply_olts(register, so2(0.0, 0.0))
        with pytest.raises(ValueError, match="qubits, expected 2N: two per party"):
            reduced_system(register)

    def test_register_cap_rejected_before_allocation(self):
        with pytest.raises(ValueError, match="14 qubits exceeds the cap of 12 qubits"):
            assemble(make_ghz(7, 1.0), make_ghz(7, 1.0))


class TestReducedSystem:
    def test_no_transformation_returns_system(self):
        system = make_werner(0.6)
        state = assemble(system, make_bell_state("phi+"))
        assert np.allclose(reduced_system(state).matrix, system.matrix, atol=1e-12)

    @pytest.mark.parametrize("delta", np.linspace(-math.pi, math.pi, 9))
    def test_correlated_pair_mixture_form(self, delta):
        # reduced state is the cos^2/sin^2 mixture of the correlated and
        # anticorrelated pair
        state = apply_olts(
            assemble(make_classical_correlated(2), make_bell_state("phi+")), so2(delta, 0.0)
        )
        red = reduced_system(state)
        expected = 0.5 * (1 + math.cos(delta)) * RHO_CC + 0.5 * (1 - math.cos(delta)) * RHO_ANTI
        assert np.allclose(red.matrix, expected, atol=1e-10)

    @pytest.mark.parametrize("p", [0.3, 0.8, 1.0])
    @pytest.mark.parametrize("delta", [0.0, 0.7, math.pi / 2])
    def test_werner_mixture_form(self, p, delta):
        # populations of the rotated singlet against a |00> system give the
        # (1 -+ p cos) mixture of the correlated and anticorrelated pair, and
        # the parity correlator -p cos(delta)
        state = apply_olts(
            assemble(make_basis_state("00"), make_werner(p)), so2(delta, 0.0)
        )
        red = reduced_system(state)
        expected = (
            0.5 * (1 - p * math.cos(delta)) * RHO_CC + 0.5 * (1 + p * math.cos(delta)) * RHO_ANTI
        )
        assert np.allclose(red.matrix, expected, atol=1e-10)
        corr = np.trace(red.matrix @ z_string(2)).real
        assert corr == pytest.approx(-p * math.cos(delta), abs=1e-10)


class TestReducedStates:
    @pytest.mark.parametrize("shape", [(8, 1, 3, 1), (8, 8, 1, 1, 1)])
    def test_uneven_shapes_match_per_combination(self, shape):
        # parties with more than 4 settings are contracted last, out of their natural order
        rng = np.random.default_rng(sum(shape))
        n = len(shape)
        system, ancilla = random_density(rng, n), random_density(rng, n)
        lists = [[random_setting(rng) for _ in range(m)] for m in shape]
        states = reduced_states(system, ancilla, lists)
        assert states.matrix.shape == shape + (2**n, 2**n)
        register = assemble(system, ancilla)
        for idx in np.ndindex(shape):
            chosen = [lst[i] for lst, i in zip(lists, idx)]
            expected = reduced_system(apply_olts(register, chosen)).matrix
            assert np.max(np.abs(states.matrix[idx] - expected)) < 1e-12

    def test_five_party_peak_stays_below_four_registers(self):
        # the 10-qubit register is 16 MiB; no intermediate outgrows it or the output stack
        rng = np.random.default_rng(41)
        system, ancilla = random_density(rng, 5), random_density(rng, 5)
        lists = [[random_setting(rng) for _ in range(m)] for m in (8, 8, 1, 1, 1)]
        tracemalloc.start()
        try:
            reduced_states(system, ancilla, lists)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 16 * 4**10

    def test_five_party_peak_stays_below_one_register(self):
        # the 10-qubit register system (x) ancilla, 16 MiB, is never written out
        rng = np.random.default_rng(43)
        system, ancilla = random_density(rng, 5), random_density(rng, 5)
        lists = [[random_setting(rng)] for _ in range(5)]
        tracemalloc.start()
        try:
            reduced_states(system, ancilla, lists)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 4**10


class TestFlipMixtures:
    def test_distribution_is_rotated_ancilla_diagonal(self):
        rng = np.random.default_rng(31)
        ancilla = random_density(rng, 3)
        lists = [[random_setting(rng) for _ in range(m)] for m in (2, 1, 3)]
        p = flip_distribution(ancilla, lists)
        assert p.shape == (2, 1, 3, 8)
        for idx in np.ndindex(2, 1, 3):
            r = kron_all([rotation(lst[i]) for lst, i in zip(lists, idx)])
            assert np.allclose(p[idx], np.diag(r @ ancilla.matrix @ r.conj().T).real, atol=1e-14)

    def test_matches_reduced_states_at_five_parties(self):
        rng = np.random.default_rng(37)
        system, ancilla = random_density(rng, 5), random_density(rng, 5)
        lists = [[random_setting(rng)] for _ in range(5)]
        direct = reduced_states(system, ancilla, lists)
        mixtures = flip_mixtures(system, ancilla, lists)
        assert direct.matrix.shape == mixtures.matrix.shape == (1,) * 5 + (32, 32)
        assert np.max(np.abs(direct.matrix - mixtures.matrix)) < 1e-12

    def test_correlated_pair_mixture_form(self):
        thetas = np.linspace(-math.pi, math.pi, 5)
        system, ancilla = make_classical_correlated(2), make_bell_state("phi+")
        states = flip_mixtures(system, ancilla, [so2(*thetas), so2(0.0)])
        assert states.matrix.shape == (5, 1, 4, 4)
        for i, delta in enumerate(thetas):
            expected = 0.5 * (1 + math.cos(delta)) * RHO_CC + 0.5 * (1 - math.cos(delta)) * RHO_ANTI
            assert np.allclose(states.matrix[i, 0], expected, atol=1e-12)

    def test_every_state_validated(self, monkeypatch):
        validated = []
        validate = oltsim.protocol.validate_density
        monkeypatch.setattr(
            oltsim.protocol, "validate_density", lambda m: validated.append(m.shape) or validate(m)
        )
        system, ancilla = make_werner(0.3), make_bell_state("psi-")
        lists = [so2(0, 1, 2), so2(3, 4)]
        states = flip_mixtures(system, ancilla, lists)
        assert validated == [(3, 2, 4, 4)]
        # row-major: stack entry idx is reduced_states' state at idx
        direct = reduced_states(system, ancilla, lists)
        assert direct.matrix.shape == states.matrix.shape
        assert np.max(np.abs(states.matrix - direct.matrix)) < 1e-12

    def test_inputs_checked(self):
        system, ancilla = make_basis_state("00"), make_bell_state("phi+")
        with pytest.raises(ValueError, match="party count mismatch"):
            flip_mixtures(make_basis_state("000"), ancilla, [so2(0)] * 3)
        with pytest.raises(ValueError, match="expected 2 setting lists"):
            flip_mixtures(system, ancilla, [so2(0)])
        with pytest.raises(ValueError, match="at least one setting"):
            flip_distribution(ancilla, [so2(0), []])


class TestCorrelationRoutes:
    def test_correlated_pair_closed_form(self):
        system = make_classical_correlated(2)
        ancilla = make_bell_state("phi+")
        value = correlation_direct(system, ancilla, so2(0.0, math.pi / 4))
        assert value == pytest.approx(math.cos(math.pi / 4), abs=1e-12)

    def test_pure_singlet_anticorrelates(self):
        value = correlation_direct(make_basis_state("00"), make_werner(1.0), so2(0.0, 0.0))
        assert value == pytest.approx(-1.0, abs=1e-12)

    def test_mermin_terms_direct(self):
        system = make_basis_state("000")
        ancilla = make_ghz(3, 1j)
        x, y = Z_TO_X, Z_TO_Y
        vals = [
            correlation_direct(system, ancilla, [x, x, y]),
            correlation_direct(system, ancilla, [x, y, x]),
            correlation_direct(system, ancilla, [y, x, x]),
            correlation_direct(system, ancilla, [y, y, y]),
        ]
        assert np.allclose(vals, [1, 1, 1, -1], atol=1e-10)
        assert vals[0] + vals[1] + vals[2] - vals[3] == pytest.approx(4.0, abs=1e-10)

    def test_closed_form_over_grid(self):
        system = make_classical_correlated(2)
        ancilla = make_bell_state("phi+")
        for ta in np.linspace(0, 2 * math.pi, 5):
            for tb in np.linspace(0, 2 * math.pi, 4):
                value = correlation_direct(system, ancilla, so2(ta, tb))
                assert abs(value - math.cos(ta - tb)) < 1e-10

    def test_routes_agree_on_random_inputs(self):
        rng = np.random.default_rng(19)
        for n in (2, 3):
            for _ in range(25):
                system = random_diagonal_state(rng, n) if rng.random() < 0.5 else random_density(rng, n)
                ancilla = random_density(rng, n)
                settings = [random_setting(rng) for _ in range(n)]
                d = correlation_direct(system, ancilla, settings)
                f = correlation_factorized(system, ancilla, settings)
                assert abs(d - f) < 1e-10
                assert abs(d) <= 1 + 1e-10

    def test_classical_correlated_system_passes_ancilla_value_through(self):
        # +1 parity eigenstate: the protocol correlator equals the rotated
        # ancilla correlator exactly
        system = make_classical_correlated(2)
        ancilla = make_werner(0.77)
        rng = np.random.default_rng(23)
        for _ in range(5):
            settings = so2(rng.uniform(-3, 3), rng.uniform(-3, 3))
            via_protocol = correlation_factorized(system, ancilla, settings)
            trivial_system = make_basis_state("00")  # also a +1 eigenstate
            assert correlation_factorized(trivial_system, ancilla, settings) == pytest.approx(
                via_protocol, abs=1e-12
            )

    def test_zero_system_factor_annihilates(self):
        ket = np.zeros(4, dtype=complex)
        ket[0b00], ket[0b01] = 1 / math.sqrt(2), 1 / math.sqrt(2)  # |0+>
        system = validate_density(np.outer(ket, ket.conj()))
        ancilla = make_bell_state("phi+")
        for ta, tb in [(0.0, 0.0), (0.3, -1.2), (2.0, 0.5)]:
            assert correlation_factorized(system, ancilla, so2(ta, tb)) == pytest.approx(
                0.0, abs=1e-12
            )
            assert correlation_direct(system, ancilla, so2(ta, tb)) == pytest.approx(
                0.0, abs=1e-12
            )


class TestParity:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stack_matches_each_state(self, n):
        rng = np.random.default_rng(60 + n)
        matrices = np.array([[random_density(rng, n).matrix for _ in range(3)] for _ in range(2)])
        values = parity(validate_density(matrices))
        assert values.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            single = parity(validate_density(matrices[idx]))
            assert isinstance(single, float)
            expected = np.trace(z_string(n) @ matrices[idx]).real
            assert abs(values[idx] - expected) < 1e-14
            assert abs(single - expected) < 1e-14

    @pytest.mark.parametrize("n", range(1, 9))
    def test_signs_match_z_string(self, n):
        # parity reads only the diagonal; matrix k of this stack has basis vector k on it
        d = 2**n
        diagonals = DensityMatrix(np.broadcast_to(np.eye(d)[:, :, None], (d, d, d)), n)
        signs = parity(diagonals)
        assert np.array_equal(signs, np.diag(z_string(n)).real)
        assert np.array_equal(signs, kron_all([[1.0, -1.0]] * n))

    def test_computational_eigenstate(self):
        assert parity(make_basis_state("00")) == pytest.approx(1.0, abs=1e-12)

    def test_classically_correlated_eigenvalue_one(self):
        assert parity(make_classical_correlated(2)) == pytest.approx(1.0, abs=1e-12)

    def test_werner_parity(self):
        # identity part traceless against z x z, singlet contributes -p
        assert parity(make_werner(0.7)) == pytest.approx(-0.7, abs=1e-12)


class TestStabilizerEigenvalue:
    def test_classical_correlated_plus_one(self):
        result = stabilizer_eigenvalue(make_classical_correlated(2))
        assert result.eigenvalue == 1
        assert result.expectation == pytest.approx(1.0, abs=1e-12)

    def test_anticorrelated_minus_one(self):
        result = stabilizer_eigenvalue(validate_density(RHO_ANTI))
        assert result.eigenvalue == -1

    def test_maximally_mixed_none(self):
        result = stabilizer_eigenvalue(validate_density(np.eye(4) / 4))
        assert result.eigenvalue is None
        assert result.expectation == pytest.approx(0.0, abs=1e-12)

    def test_partial_expectation_reports_scaling_constant(self):
        mixed = validate_density(0.75 * make_basis_state("00").matrix + 0.25 * RHO_ANTI)
        result = stabilizer_eigenvalue(mixed)
        assert result.eigenvalue is None
        assert result.expectation == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("coupling, eigenvalue", [(0.4e-10, 1), (0.6e-10, None)])
    def test_commutation_boundary(self, coupling, eigenvalue):
        # |Z rho - rho Z| at entry (00, 01) is 2 * coupling: 0.8e-10 commutes, 1.2e-10 does not
        m = RHO_CC.astype(complex)
        m[0, 1] = m[1, 0] = coupling
        result = stabilizer_eigenvalue(validate_density(m))
        assert result.eigenvalue == eigenvalue
        assert result.expectation == pytest.approx(1.0, abs=1e-12)


class TestCorrelatorTable:
    def test_factorized_matches_direct(self):
        system = make_classical_correlated(2)
        ancilla = make_werner(0.9)
        settings = [so2(0.0, math.pi / 2), so2(math.pi / 4, -math.pi / 4)]
        fact = correlator_table(system, ancilla, settings)
        direct = parity(reduced_states(system, ancilla, settings))
        assert direct.shape == fact.shape == (2, 2)
        assert np.max(np.abs(fact - direct)) < 1e-10

    def test_su2_table(self):
        system = make_basis_state("000")
        ancilla = make_ghz(3, 1j)
        settings = [[Z_TO_X, Z_TO_Y]] * 3
        table = correlator_table(system, ancilla, settings)
        assert table.shape == (2, 2, 2)
        assert table[0, 0, 1] == pytest.approx(1.0, abs=1e-10)
        assert table[1, 1, 1] == pytest.approx(-1.0, abs=1e-10)

    def test_leading_z_rotation_invariance(self):
        # the protocol outcome cannot depend on the residual freedom of the
        # conjugating triples
        system = make_basis_state("000")
        ancilla = make_ghz(3, 1j)
        base = correlator_table(system, ancilla, [[Z_TO_X, Z_TO_Y]] * 3)
        rng = np.random.default_rng(29)
        for gamma in rng.uniform(-3, 3, size=3):
            shifted = [
                [
                    AngleSetting.su2(s.angles[0] + gamma, *s.angles[1:])
                    for s in [Z_TO_X, Z_TO_Y]
                ]
            ] * 3
            table = correlator_table(system, ancilla, shifted)
            assert np.max(np.abs(table - base)) < 1e-10

    def test_correlation_tensor_entries(self):
        ancilla = random_density(np.random.default_rng(37), 3)
        tensor = correlation_tensor(ancilla)
        assert tensor.shape == (3, 3, 3)
        for idx in np.ndindex(tensor.shape):
            expected = np.trace(kron_all([pauli(k + 1) for k in idx]) @ ancilla.matrix).real
            assert tensor[idx] == pytest.approx(expected, abs=1e-12)

    def test_table_is_parity_times_tensor_contraction(self):
        rng = np.random.default_rng(41)
        system, ancilla = random_density(rng, 3), random_density(rng, 3)
        settings = [[random_setting(rng) for _ in range(2)] for _ in range(3)]
        s0 = stabilizer_eigenvalue(system).expectation
        expected = correlation_tensor(ancilla)
        for party in settings:
            expected = np.tensordot(expected, bloch_vectors(party), axes=([0], [1]))
        direct = parity(reduced_states(system, ancilla, settings))
        assert direct.shape == expected.shape == (2, 2, 2)
        assert np.max(np.abs(direct - s0 * expected)) < 1e-10


class TestTableFromObservables:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_dense_trace(self, n):
        rng = np.random.default_rng(53 + n)
        ancilla = random_density(rng, n)
        stacks = []
        for m in [1 + k % 3 for k in range(n)]:  # ragged: 1, 2, 3, 1, ...
            g = rng.normal(size=(m, 2, 2)) + 1j * rng.normal(size=(m, 2, 2))
            stacks.append(g + g.conj().swapaxes(-1, -2))
        table = table_from_observables(ancilla, stacks)
        assert table.shape == tuple(len(obs) for obs in stacks)
        for idx in np.ndindex(table.shape):
            dense = np.trace(kron_all([obs[i] for obs, i in zip(stacks, idx)]) @ ancilla.matrix)
            assert table[idx] == pytest.approx(dense.real, rel=1e-12, abs=1e-12)

    def test_one_stack_per_party(self):
        with pytest.raises(ValueError, match="expected 3 observable stacks, one per party, got 1"):
            table_from_observables(make_ghz(3, 1.0), [np.stack([pauli(3)])])

    def test_imaginary_residue_rejected(self):
        ancilla = make_bell_state("phi+")
        eye = np.eye(2, dtype=complex)
        table_from_observables(ancilla, [eye[None] * (1 + 1e-11j), eye[None]])
        with pytest.raises(ValueError, match=r"imaginary residue 2\.000e-10 >= 1e-10"):
            table_from_observables(ancilla, [eye[None] * (1 + 2e-10j), eye[None]])


class TestSettingLocality:
    def test_marginals_ignore_other_parties_settings(self):
        rng = np.random.default_rng(31)
        system = random_density(rng, 2)
        ancilla = random_density(rng, 2)
        base = so2(0.4, -0.9)
        changed = so2(0.4, 2.2)  # only party 1 changes
        red_a = partial_trace(
            reduced_system(apply_olts(assemble(system, ancilla), base)).matrix, {0}, 2
        )
        red_a2 = partial_trace(
            reduced_system(apply_olts(assemble(system, ancilla), changed)).matrix, {0}, 2
        )
        assert np.max(np.abs(red_a - red_a2)) < 1e-10


class TestNegativeEigenvalueSign:
    def test_minus_one_eigenstate_flips_the_value(self):
        # the anticorrelated pair scales every correlator by -1; violation
        # magnitudes coincide
        plus_system = make_classical_correlated(2)
        minus_system = validate_density(RHO_ANTI)
        ancilla = make_bell_state("phi+")
        settings = [so2(0.0, math.pi / 2), so2(math.pi / 4, -math.pi / 4)]
        plus_table = correlator_table(plus_system, ancilla, settings)
        minus_table = correlator_table(minus_system, ancilla, settings)
        assert np.allclose(minus_table, -plus_table, atol=1e-12)
