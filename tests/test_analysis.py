"""Separability tests, the angle optimizer, verification campaigns, and the
closed-form final state."""

import itertools
import math

import numpy as np
import pytest

import oltsim
from oltsim import (
    AngleSetting,
    BellFunctional,
    check_final_state_form,
    closed_form_final_ket,
    correlator_table,
    evaluate,
    make_basis_state,
    make_bell_state,
    make_chsh,
    make_classical_correlated,
    make_ghz,
    make_mermin3,
    make_werner,
    optimize_angles,
    partial_transpose,
    persistency_scan,
    ppt_separable,
    validate_density,
    verify_factorization,
)
from oltsim.analysis import random_density, random_setting
from oltsim.gates import pauli
from oltsim.linalg import partial_trace
from oltsim.protocol import (
    apply_olts,
    assemble,
    correlation_direct,
    correlation_factorized,
    reduced_system,
)

SQRT2 = math.sqrt(2)


def so2(*thetas):
    return [AngleSetting.so2(t) for t in thetas]


class TestPartialTranspose:
    def test_involution(self):
        rng = np.random.default_rng(41)
        rho = random_density(rng, 3).matrix
        pt = partial_transpose(rho, {1}, 3)
        assert np.allclose(partial_transpose(pt, {1}, 3), rho, atol=1e-14)

    def test_complement_has_same_spectrum(self):
        rng = np.random.default_rng(43)
        rho = random_density(rng, 2).matrix
        s1 = np.linalg.eigvalsh(partial_transpose(rho, {0}, 2))
        s2 = np.linalg.eigvalsh(partial_transpose(rho, {1}, 2))
        assert np.allclose(s1, s2, atol=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            partial_transpose(np.eye(4, dtype=complex), {5}, 2)


class TestPptSeparable:
    def test_bell_state_is_npt(self):
        verdict = ppt_separable(make_bell_state("phi+"), {0})
        assert not verdict.ppt
        assert verdict.conclusive
        assert verdict.separable is False
        assert verdict.min_eigenvalue == pytest.approx(-0.5, abs=1e-12)

    def test_weakly_noisy_singlet_is_separable(self):
        verdict = ppt_separable(make_werner(0.3), {0})
        assert verdict.ppt and verdict.separable is True
        assert verdict.min_eigenvalue == pytest.approx((1 - 3 * 0.3) / 4, abs=1e-12)

    def test_reduced_protocol_state_always_separable(self):
        rng = np.random.default_rng(47)
        system = make_classical_correlated(2)
        ancilla = make_bell_state("phi+")
        for _ in range(10):
            settings = so2(rng.uniform(-7, 7), rng.uniform(-7, 7))
            red = reduced_system(apply_olts(assemble(system, ancilla), settings))
            assert ppt_separable(red, {0}).separable is True

    def test_larger_states_are_inconclusive(self):
        verdict = ppt_separable(make_ghz(3, 1j), {0})
        assert not verdict.conclusive
        assert verdict.separable is None
        assert not verdict.ppt  # still flagged NPT

    def test_pure_product_state_is_ppt(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            a = random_density(rng, 1).matrix
            b = random_density(rng, 1).matrix
            dm = validate_density(np.kron(a, b))
            verdict = ppt_separable(dm, {0})
            assert verdict.min_eigenvalue >= -1e-10
            assert verdict.separable is True

    def test_single_state_gives_python_scalars(self):
        verdict = ppt_separable(make_werner(0.5), {1})
        assert type(verdict.ppt) is bool and type(verdict.min_eigenvalue) is float

    def test_stack_gives_arrays(self):
        stack = np.stack([make_bell_state("phi+").matrix, make_werner(0.3).matrix])
        verdict = ppt_separable(validate_density(stack.reshape(2, 1, 4, 4)), {0})
        assert verdict.separable.tolist() == [[False], [True]]
        assert np.allclose(verdict.min_eigenvalue, [[-0.5], [(1 - 3 * 0.3) / 4]], atol=1e-12)

    def test_partition_validation(self):
        with pytest.raises(ValueError, match="partition"):
            ppt_separable(make_bell_state("phi+"), set())
        with pytest.raises(ValueError, match="partition"):
            ppt_separable(make_bell_state("phi+"), {0, 1})


def horodecki_chsh_max(system, ancilla, mode):
    """Independent optimum: max CHSH over the settings a mode reaches.

    Effective observables sweep the unit sphere in su2 mode and the unit
    circle in the (z, x) plane in so2 mode, so the maximum is 2 sqrt(t1^2 +
    t2^2) over the two largest singular values of the correlation matrix on
    those axes (Horodecki et al., Phys. Lett. A 200, 340 (1995)), scaled by
    the system parity factor.
    """
    zz = np.kron(pauli(3), pauli(3))
    sys_factor = float(np.trace(zz @ system.matrix).real)
    axes = [pauli(k) for k in ((3, 1) if mode == "so2" else (3, 1, 2))]
    m = np.empty((len(axes), len(axes)))
    for i, oa in enumerate(axes):
        for j, ob in enumerate(axes):
            m[i, j] = float(np.trace(np.kron(oa, ob) @ ancilla.matrix).real)
    s = np.linalg.svd(m, compute_uv=False)
    return 2 * abs(sys_factor) * math.sqrt(s[0] ** 2 + s[1] ** 2)


class TestOptimizer:
    def test_correlated_pair_reaches_tsirelson(self):
        result = optimize_angles(
            make_classical_correlated(2), make_bell_state("phi+"), make_chsh(), budget=8, seed=7
        )
        assert result.best_value == pytest.approx(2 * SQRT2, abs=1e-6)
        assert result.converged

    @pytest.mark.parametrize("p", [0.6, 1 / SQRT2, 0.9])
    def test_werner_scaling(self, p):
        result = optimize_angles(
            make_basis_state("00"), make_werner(p), make_chsh(), budget=8, seed=11
        )
        assert result.best_value == pytest.approx(2 * SQRT2 * p, abs=1e-6)

    def test_mermin_reaches_four(self):
        # |s0| = 1 for every basis state; 001 and 111 have parity -1
        rng = np.random.default_rng(3)
        for bits in ("000", "001", "111"):
            for seed in range(3):
                phase = complex(np.exp(1j * rng.uniform(0, 2 * math.pi)))
                result = optimize_angles(
                    make_basis_state(bits), make_ghz(3, phase), make_mermin3(), mode="su2", budget=1,
                    seed=seed,
                )
                assert result.best_value == pytest.approx(4.0, abs=1e-9)

    def test_zero_system_factor(self):
        result = optimize_angles(
            validate_density(np.eye(4) / 4), make_bell_state("phi+"), make_chsh(), budget=2, seed=1
        )
        assert result.best_value == pytest.approx(0.0, abs=1e-12)

    def test_best_settings_reproduce_best_value(self):
        system = make_basis_state("00")
        ancilla = make_werner(0.85)
        result = optimize_angles(system, ancilla, make_chsh(), budget=4, seed=5)
        table = correlator_table(system, ancilla, result.best_settings)
        assert abs(evaluate(make_chsh(), table)) == pytest.approx(result.best_value, abs=1e-9)

    def test_sound_against_independent_optimum(self):
        # randomized scenarios, confronted with the singular-value optimum
        rng = np.random.default_rng(59)
        for trial, mode in itertools.product(range(4), ("so2", "su2")):
            probs = rng.random(4)
            system = validate_density(np.diag(probs / probs.sum()).astype(complex))
            ancilla = random_density(rng, 2)
            reference = horodecki_chsh_max(system, ancilla, mode)
            result = optimize_angles(system, ancilla, make_chsh(), mode=mode, budget=8, seed=trial)
            assert result.best_value <= reference + 1e-9
            assert result.best_value == pytest.approx(reference, abs=1e-6)

    def test_large_coefficient_scale(self):
        # the see-saw runs on unit-scale weights, so 1e200 coefficients stay finite
        states = (make_classical_correlated(2), make_bell_state("phi+"))
        big_chsh = BellFunctional(1e200 * make_chsh().coefficients, "big")
        big = optimize_angles(*states, big_chsh, budget=4, seed=7)
        unit = optimize_angles(*states, make_chsh(), budget=4, seed=7)
        assert big.best_value == pytest.approx(2 * SQRT2 * 1e200, rel=1e-9)
        assert big.best_settings == unit.best_settings

    def test_deterministic_for_fixed_seed(self):
        args = (make_basis_state("00"), make_werner(0.8), make_chsh())
        r1 = optimize_angles(*args, budget=3, seed=13)
        r2 = optimize_angles(*args, budget=3, seed=13)
        assert r1.best_value == r2.best_value
        assert r1.best_settings == r2.best_settings

    def test_budget_validation(self):
        with pytest.raises(ValueError, match="budget"):
            optimize_angles(
                make_basis_state("00"), make_werner(0.5), make_chsh(), budget=0, seed=1
            )

    def test_negative_seed_named(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            optimize_angles(make_basis_state("00"), make_werner(0.5), make_chsh(), seed=-1)


class TestAngleShiftInvariance:
    def test_common_offset_leaves_correlators(self):
        system = make_classical_correlated(2)
        ancilla = make_bell_state("phi+")
        rng = np.random.default_rng(61)
        for _ in range(5):
            ta, tb, off = rng.uniform(-3, 3, size=3)
            base = correlation_factorized(system, ancilla, so2(ta, tb))
            shifted = correlation_factorized(system, ancilla, so2(ta + off, tb + off))
            assert abs(base - shifted) < 1e-10


class TestVerifyFactorization:
    def test_two_parties(self):
        report = verify_factorization(200, 2, seed=42)
        assert report.passed
        assert report.max_deviation < 1e-10

    def test_three_parties(self):
        report = verify_factorization(100, 3, seed=1)
        assert report.passed

    def test_negative_seed_named(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            verify_factorization(1, 2, seed=-1)

    def test_seed_independent(self):
        # the agreement is algebraic, not statistical
        for seed in (0, 99):
            assert verify_factorization(50, 2, seed=seed).passed

    def test_maximally_mixed_single_trial(self):
        system = validate_density(np.eye(4) / 4)
        ancilla = make_bell_state("phi+")
        d = correlation_direct(system, ancilla, so2(0.4, -0.2))
        f = correlation_factorized(system, ancilla, so2(0.4, -0.2))
        assert abs(d) < 1e-12 and abs(f) < 1e-12

    def test_five_parties(self):
        report = verify_factorization(2, 5)
        assert report.passed

    def test_reduced_states_compared(self):
        report = verify_factorization(20, 3, seed=4)
        assert report.passed
        assert report.max_state_deviation < 1e-10

    def test_corrupted_flip_weight_fails(self, monkeypatch):
        # reversed weights still give a valid state, but not the protocol's
        # reduced state; the correlator routes never read them
        original = oltsim.protocol.flip_distribution
        monkeypatch.setattr(
            oltsim.protocol, "flip_distribution", lambda *args: original(*args)[..., ::-1]
        )
        report = verify_factorization(4, 2, seed=0)
        assert not report.passed
        assert report.max_state_deviation > 1e-3
        assert report.max_deviation < 1e-10

    def test_checks_the_direct_route_of_run(self, monkeypatch):
        # reduced_states is run's direct route; no 4^N x 4^N register is rotated or validated
        calls = {"reduced_states": [], "apply_olts": []}
        for name, seen in calls.items():
            original = getattr(oltsim.protocol, name)
            counted = lambda *a, _f=original, _seen=seen: _seen.append(1) or _f(*a)
            for module in (oltsim.protocol, oltsim.analysis):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        dims = []
        validate = oltsim.states.validate_density
        for module in (oltsim.states, oltsim.protocol, oltsim.analysis):
            monkeypatch.setattr(
                module, "validate_density", lambda m: dims.append(np.shape(m)[-1]) or validate(m)
            )
        assert verify_factorization(3, 4).passed
        assert len(calls["reduced_states"]) == 3
        assert calls["apply_olts"] == []
        assert 16 in dims and 256 not in dims

    def test_parties_validated(self):
        for parties in (1, 6):
            with pytest.raises(ValueError, match="between 2 and 5"):
                verify_factorization(10, parties, seed=0)


class TestFinalStateForm:
    def test_equal_angles_give_correlated_branch(self):
        ket = np.zeros(16, dtype=complex)
        ket[0b0000] = ket[0b1111] = 1 / SQRT2
        assert np.allclose(closed_form_final_ket(0.7, 0.7), ket, atol=1e-12)
        assert check_final_state_form(0.7, 0.7) == pytest.approx(1.0, abs=1e-12)

    def test_opposite_angles_give_anticorrelated_branch(self):
        ket = np.zeros(16, dtype=complex)
        ket[0b1010], ket[0b0101] = 1 / SQRT2, -1 / SQRT2
        assert np.allclose(closed_form_final_ket(math.pi, 0.0), ket, atol=1e-12)
        assert check_final_state_form(math.pi, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_fidelity_one_on_random_grid(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            ta, tb = rng.uniform(-2 * math.pi, 2 * math.pi, size=2)
            assert check_final_state_form(ta, tb) >= 1 - 1e-10

    def test_matches_the_register_chain(self):
        # the pure-state simulation against rho = apply_olts(assemble(|00>, phi+)), <k|rho|k>
        grid = np.linspace(-3 * math.pi, 3 * math.pi, 9)
        for ta, tb in itertools.product(grid, grid):
            register = apply_olts(assemble(make_basis_state("00"), make_bell_state("phi+")), so2(ta, tb))
            ket = closed_form_final_ket(ta, tb)
            chain = (ket.conj() @ register.matrix @ ket).real
            assert check_final_state_form(ta, tb) == pytest.approx(chain, abs=1e-12)

    def test_builds_no_register(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the final-state check must not build the 4-qubit register")

        for module in (oltsim.protocol, oltsim.analysis):
            for name in ("assemble", "apply_olts"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        assert check_final_state_form(1.3, -0.4) == pytest.approx(1.0, abs=1e-12)

    def test_reduced_final_state_at_quarter_period(self):
        # tracing the ancilla pair out of the closed-form state at
        # delta = pi/2 leaves the equal mixture of the correlated and
        # anticorrelated pairs, i.e. the maximally mixed diagonal
        ket = closed_form_final_ket(math.pi / 2, 0.0)
        red = partial_trace(np.outer(ket, ket.conj()), {0, 1}, 4)
        anti = 0.5 * (make_basis_state("01").matrix + make_basis_state("10").matrix)
        expected = 0.5 * make_classical_correlated(2).matrix + 0.5 * anti
        assert np.allclose(red, expected, atol=1e-12)
        assert np.allclose(expected, np.eye(4) / 4, atol=1e-12)


class TestQuantumCeilings:
    def test_chsh_never_exceeds_tsirelson(self):
        rng = np.random.default_rng(71)
        f = make_chsh()
        for _ in range(20):
            system = random_density(rng, 2)
            ancilla = random_density(rng, 2)
            settings = [[random_setting(rng) for _ in range(2)] for _ in range(2)]
            value = evaluate(f, correlator_table(system, ancilla, settings))
            assert abs(value) <= 2 * SQRT2 + 1e-9

    def test_mermin_never_exceeds_four(self):
        rng = np.random.default_rng(73)
        f = make_mermin3()
        for _ in range(10):
            system = random_density(rng, 3)
            ancilla = random_density(rng, 3)
            settings = [[random_setting(rng) for _ in range(2)] for _ in range(3)]
            value = evaluate(f, correlator_table(system, ancilla, settings))
            assert abs(value) <= 4 + 1e-9


class TestPersistency:
    def test_scan_all_separable(self):
        report = persistency_scan(8)
        assert report.all_separable
        assert report.separable.shape == (8, 8)
        assert np.all(report.min_eigenvalues >= -1e-10)

    def test_full_state_entangled_across_ancilla_cut(self):
        # at angle difference pi/2 the 4-qubit pure state is NPT across the
        # system/ancilla bipartition
        state = apply_olts(
            assemble(make_basis_state("00"), make_bell_state("phi+")), so2(math.pi / 2, 0.0)
        )
        verdict = ppt_separable(state, {2, 3})
        assert not verdict.ppt
        assert verdict.min_eigenvalue == pytest.approx(-0.25, abs=1e-10)

    def test_equal_angle_full_state_entangled_across_single_qubit_cut(self):
        state = apply_olts(
            assemble(make_basis_state("00"), make_bell_state("phi+")), so2(0.0, 0.0)
        )
        verdict = ppt_separable(state, {0})
        assert not verdict.ppt

    def test_grid_validated(self):
        with pytest.raises(ValueError, match="grid"):
            persistency_scan(1)

    def test_grid_capped(self):
        with pytest.raises(ValueError, match="grid must be between 2 and 1024, got 1025"):
            persistency_scan(1025)
