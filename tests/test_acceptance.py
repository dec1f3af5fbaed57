"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import time

import numpy as np
import pytest

from oltsim import (
    AngleSetting,
    check_final_state_form,
    classical_bound,
    correlator_table,
    evaluate,
    make_basis_state,
    make_bell_state,
    make_chsh,
    make_classical_correlated,
    make_ghz,
    make_mermin3,
    make_werner,
    olt_unitary,
    optimize_angles,
    persistency_scan,
    ppt_separable,
    rotation_so2,
    verify_factorization,
    violation_report,
)
from oltsim.gates import pauli
from oltsim.protocol import apply_olts, assemble, parity, reduced_states

from reference import CNOT, Z_TO_X, Z_TO_Y

SQRT2 = math.sqrt(2)

CHSH_ANGLES = (
    (AngleSetting.so2(0.0), AngleSetting.so2(math.pi / 2)),
    (AngleSetting.so2(math.pi / 4), AngleSetting.so2(-math.pi / 4)),
)


def direct_table(system, ancilla, settings):
    """Correlator table by the direct route: the parity of every reduced state."""
    return parity(reduced_states(system, ancilla, settings))


def report(number, description, started):
    elapsed = time.perf_counter() - started
    print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s)")


def test_criterion_1_maximal_chsh_violation():
    started = time.perf_counter()
    system = make_classical_correlated(2)
    ancilla = make_bell_state("phi+")
    table = direct_table(system, ancilla, CHSH_ANGLES)
    value = evaluate(make_chsh(), table)
    assert abs(value - 2 * SQRT2) < 1e-9
    report(1, f"CHSH value {value:.12f} = 2*sqrt(2) within 1e-9", started)


def test_criterion_2_werner_threshold():
    started = time.perf_counter()
    threshold = 1 / SQRT2
    for p in (0.5, 0.6, 1 / SQRT2, 0.75, 0.9, 1.0):
        system = make_basis_state("00")
        ancilla = make_werner(p)
        result = optimize_angles(system, ancilla, make_chsh(), budget=8, seed=11)
        assert abs(result.best_value - 2 * SQRT2 * p) < 1e-6, f"p={p}"
        table = correlator_table(system, ancilla, result.best_settings)
        verdict = violation_report(make_chsh(), table)
        assert verdict.violated == (p > threshold + 1e-9), f"p={p}"
    report(2, "optimized CHSH = 2*sqrt(2)*p, violation iff p > 1/sqrt(2)", started)


def test_criterion_3_mermin_value():
    started = time.perf_counter()
    system = make_basis_state("000")
    ancilla = make_ghz(3, 1j)
    settings = ((Z_TO_X, Z_TO_Y),) * 3
    table = direct_table(system, ancilla, settings)
    value = evaluate(make_mermin3(), table)
    bound = classical_bound(make_mermin3())
    assert abs(value - 4.0) < 1e-9
    assert bound == 2.0
    report(3, f"Mermin value {value:.12f} = 4 within 1e-9 against bound 2", started)


def test_criterion_4_factorization_campaign():
    started = time.perf_counter()
    worst = 0.0
    for parties, trials in ((2, 1000), (3, 1000), (4, 200)):
        out = verify_factorization(trials, parties, seed=42)
        assert out.passed, f"N={parties}: max deviation {out.max_deviation:.3e}"
        worst = max(worst, out.max_deviation)
    assert worst < 1e-10
    report(4, f"direct vs factorized max deviation {worst:.3e} < 1e-10", started)


def test_criterion_5_decomposition_identity():
    started = time.perf_counter()
    identity2 = np.eye(2, dtype=complex)
    rng = np.random.default_rng(5)
    angles = list(rng.uniform(-2 * math.pi, 2 * math.pi, size=100)) + [0.0, math.pi / 2, math.pi]
    for theta in angles:
        lhs = olt_unitary(AngleSetting.so2(theta))
        rhs = CNOT @ np.kron(identity2, rotation_so2(theta))
        assert np.max(np.abs(lhs - rhs)) < 1e-12
    conj = CNOT @ np.kron(pauli(3), identity2) @ CNOT
    assert np.array_equal(conj, np.kron(pauli(3), pauli(3)))
    report(5, "olt = cnot (I x R) within 1e-12; cnot z-conjugation exact", started)


def test_criterion_6_classical_bounds_exact():
    started = time.perf_counter()
    assert classical_bound(make_chsh()) == 2.0
    assert classical_bound(make_mermin3()) == 2.0
    report(6, "CHSH and Mermin-3 bounds are exactly 2 by exhaustion", started)


def test_criterion_7_separability_persistency():
    started = time.perf_counter()
    scan = persistency_scan(20)
    assert scan.all_separable
    state = apply_olts(
        assemble(make_basis_state("00"), make_bell_state("phi+")),
        [AngleSetting.so2(math.pi / 2), AngleSetting.so2(0.0)],
    )
    verdict = ppt_separable(state, {2, 3})
    assert not verdict.ppt
    assert verdict.min_eigenvalue < -1e-10
    report(
        7,
        f"20x20 reduced states all separable; full state NPT "
        f"(min PT eigenvalue {verdict.min_eigenvalue:.4f})",
        started,
    )


def test_criterion_8_final_state_form():
    started = time.perf_counter()
    worst = 1.0
    for delta in np.linspace(0.0, 2 * math.pi, 20):
        fidelity = check_final_state_form(delta, 0.0)
        worst = min(worst, fidelity)
        assert fidelity >= 1 - 1e-10
    report(8, f"closed-form final-state fidelity >= 1 - 1e-10 (worst {worst:.15f})", started)


def test_criterion_9_closed_form_correlators():
    started = time.perf_counter()
    grid = np.linspace(0.0, math.pi, 5)
    pair = make_classical_correlated(2)
    product = make_basis_state("00")
    phi_plus = make_bell_state("phi+")
    for ta in grid:
        for tb in grid:
            settings = ((AngleSetting.so2(ta),), (AngleSetting.so2(tb),))
            corr = direct_table(pair, phi_plus, settings)[0, 0]
            assert abs(corr - math.cos(ta - tb)) < 1e-10
            for p in (0.5, 1.0):
                corr_w = direct_table(product, make_werner(p), settings)[0, 0]
                assert abs(corr_w - (-p * math.cos(ta - tb))) < 1e-10
    report(9, "correlators match cos(ta-tb) and -p cos(ta-tb) within 1e-10", started)
