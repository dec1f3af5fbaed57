"""Bell functionals: construction, evaluation, exact classical bounds."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from oltsim.functionals import (
    BellFunctional,
    classical_bound,
    evaluate,
    make_chsh,
    make_mermin3,
    parse_functional_spec,
    violation_report,
)

SQRT2 = math.sqrt(2)


def brute_force_bound(coefficients):
    """Largest value over every party's +-1 assignments, the widest party's included."""
    n = coefficients.ndim
    operands = [coefficients, list(range(n))]
    for k, m in enumerate(coefficients.shape):
        signs = 1.0 - 2.0 * ((np.arange(2**m)[:, None] >> np.arange(m)) & 1)
        operands += [signs, [n + k, k]]
    return float(np.einsum(*operands, list(range(n, 2 * n))).max())


def mermin_coefficients(n):
    """Re(i^|s|) over s in {0,1}^n: the n-party Mermin functional."""
    return np.array([1.0, 0.0, -1.0, 0.0])[np.indices((2,) * n).sum(axis=0) % 4]


ORACLE_SHAPES = [(2, 2), (1, 7, 8), (8, 1, 7), (3, 5, 2), (3, 3, 3), (2, 2, 2, 2)]


def all_deterministic_tables(functional):
    """Every correlator table a deterministic strategy can produce."""
    ms = functional.settings_per_party
    sign_lists = [list(itertools.product((1.0, -1.0), repeat=m)) for m in ms]
    for assignment in itertools.product(*sign_lists):
        table = np.ones(ms)
        for idx in np.ndindex(ms):
            table[idx] = math.prod(assignment[i][idx[i]] for i in range(len(ms)))
        yield table


class TestBuiltins:
    def test_chsh_shape_and_coefficients(self):
        f = make_chsh()
        assert f.n_parties == 2
        assert f.settings_per_party == (2, 2)
        assert np.array_equal(f.coefficients, [[1, 1], [1, -1]])
        assert f.label == "CHSH"

    def test_mermin_coefficients(self):
        f = make_mermin3()
        assert f.settings_per_party == (2, 2, 2)
        assert f.coefficients[0, 0, 1] == 1
        assert f.coefficients[0, 1, 0] == 1
        assert f.coefficients[1, 0, 0] == 1
        assert f.coefficients[1, 1, 1] == -1
        assert np.count_nonzero(f.coefficients) == 4

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        c = np.ones((2, 2))
        c[1, 1] = bad
        with pytest.raises(ValueError, match="coefficients must be finite"):
            BellFunctional(c, "bad")

    def test_rejects_overflowing_sum(self):
        c = np.array([[1e308, 1e308], [1e308, -1e308]])
        with pytest.raises(ValueError, match=r"sum of \|coefficients\| must be finite"):
            BellFunctional(c, "huge")

    def test_large_finite_coefficients_keep_a_finite_margin(self):
        f = BellFunctional(4e307 * make_chsh().coefficients, "large")
        report = violation_report(f, np.array([[1.0, 1.0], [1.0, -1.0]]))
        assert report.value == pytest.approx(1.6e308, rel=1e-15)
        assert report.bound == pytest.approx(8e307, rel=1e-15)
        assert report.margin == pytest.approx(8e307, rel=1e-15)
        assert report.violated

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError, match="nonzero"):
            BellFunctional(np.zeros((2, 2)), "null")


class TestClassicalBound:
    def test_chsh_bound_is_two_exactly(self):
        assert classical_bound(make_chsh()) == 2.0

    def test_mermin_bound_is_two_exactly(self):
        assert classical_bound(make_mermin3()) == 2.0

    def test_single_term(self):
        f = BellFunctional(np.array([[1.0, 0.0], [0.0, 0.0]]), "single")
        assert classical_bound(f) == 1.0

    def test_enumeration_cap(self):
        f = BellFunctional(np.ones(25), "wide")
        with pytest.raises(ValueError, match="cap"):
            classical_bound(f)

    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    def test_matches_brute_force_on_integer_functionals(self, shape):
        rng = np.random.default_rng(sum(shape) * 31 + len(shape))
        for _ in range(3):
            c = rng.integers(-3, 4, size=shape).astype(float)
            c.flat[0] = 1.0  # never all zero
            assert classical_bound(BellFunctional(c, "int")) == brute_force_bound(c)

    @pytest.mark.parametrize("shape", ORACLE_SHAPES)
    def test_matches_brute_force_on_gaussian_functionals(self, shape):
        rng = np.random.default_rng(sum(shape) * 17 + len(shape))
        for _ in range(3):
            c = rng.normal(size=shape)
            expected = brute_force_bound(c)
            got = classical_bound(BellFunctional(c, "gauss"))
            assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", range(2, 12))
    def test_mermin_n_closed_form(self, n):
        bound = classical_bound(BellFunctional(mermin_coefficients(n), f"Mermin-{n}"))
        assert bound == 2.0 ** (n // 2)

    def test_all_ones_at_the_cap_in_bounded_memory(self):
        f = BellFunctional(np.ones((2,) * 12), "ones")
        tracemalloc.start()
        try:
            bound = classical_bound(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bound == 4096.0
        assert peak < 128 * 2**20

    def test_deterministic_strategies_never_exceed(self):
        for f in (make_chsh(), make_mermin3()):
            bound = classical_bound(f)
            best_seen = max(abs(evaluate(f, t)) for t in all_deterministic_tables(f))
            assert best_seen <= bound
            assert best_seen == bound  # the bound is attained

    def test_party_permutation_invariance(self):
        f = make_mermin3()
        for perm in itertools.permutations(range(3)):
            permuted = BellFunctional(np.transpose(f.coefficients, perm), "perm")
            assert classical_bound(permuted) == classical_bound(f)

    def test_setting_relabel_and_sign_flip_invariance(self):
        f = make_chsh()
        bound = classical_bound(f)
        swapped = BellFunctional(f.coefficients[::-1, :], "swap")
        assert classical_bound(swapped) == bound
        flipped = f.coefficients.copy()
        flipped[:, 1] *= -1  # relabel party 2's second outcome sign
        assert classical_bound(BellFunctional(flipped, "flip")) == bound


class TestEvaluate:
    def test_all_ones_table(self):
        assert evaluate(make_chsh(), np.ones((2, 2))) == 2.0

    def test_maximal_chsh_value(self):
        table = np.array([[SQRT2 / 2, SQRT2 / 2], [SQRT2 / 2, -SQRT2 / 2]])
        assert evaluate(make_chsh(), table) == pytest.approx(2 * SQRT2, abs=1e-12)

    def test_mermin_slots(self):
        table = np.zeros((2, 2, 2))
        table[0, 0, 1] = table[0, 1, 0] = table[1, 0, 0] = 1.0
        table[1, 1, 1] = -1.0
        assert evaluate(make_mermin3(), table) == 4.0

    def test_zero_table(self):
        assert evaluate(make_mermin3(), np.zeros((2, 2, 2))) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            evaluate(make_chsh(), np.ones((2, 3)))

    def test_out_of_range_correlator_rejected(self):
        bad = np.ones((2, 2))
        bad[0, 0] = 1.5
        with pytest.raises(ValueError, match="exceeds 1"):
            evaluate(make_chsh(), bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_correlator_rejected(self, bad):
        message = r"^correlator magnitude (nan|inf) exceeds 1: correlators lie in \[-1, 1\]$"
        with pytest.raises(ValueError, match=message):
            evaluate(make_chsh(), np.full((2, 2), bad))
        with pytest.raises(ValueError, match="exceeds 1"):
            violation_report(make_chsh(), np.full((2, 2), bad))

    def test_linear_within_the_correlator_box(self):
        rng = np.random.default_rng(37)
        f = make_chsh()
        for _ in range(20):
            t1 = rng.uniform(-1, 1, size=(2, 2))
            t2 = rng.uniform(-1, 1, size=(2, 2))
            lam = rng.random()
            mixed = lam * t1 + (1 - lam) * t2
            assert evaluate(f, mixed) == pytest.approx(
                lam * evaluate(f, t1) + (1 - lam) * evaluate(f, t2), abs=1e-12
            )


class TestViolationReport:
    def test_maximal_violation(self):
        table = np.array([[SQRT2 / 2, SQRT2 / 2], [SQRT2 / 2, -SQRT2 / 2]])
        report = violation_report(make_chsh(), table)
        assert report.violated
        assert report.value == pytest.approx(2 * SQRT2, abs=1e-12)
        assert report.margin == pytest.approx(2 * SQRT2 - 2, abs=1e-12)

    def test_boundary_not_violated(self):
        report = violation_report(make_chsh(), np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert not report.violated
        assert report.margin == pytest.approx(0.0, abs=1e-15)

    def test_negative_value_uses_magnitude(self):
        table = -np.array([[SQRT2 / 2, SQRT2 / 2], [SQRT2 / 2, -SQRT2 / 2]])
        report = violation_report(make_chsh(), table)
        assert report.violated
        assert report.value == pytest.approx(-2 * SQRT2, abs=1e-12)

    def test_subthreshold_werner_value(self):
        # optimized CHSH for noise parameter 0.5 reaches sqrt(2) < 2
        half = 0.5 * np.array([[SQRT2 / 2, SQRT2 / 2], [SQRT2 / 2, -SQRT2 / 2]])
        report = violation_report(make_chsh(), -half)
        assert not report.violated
        assert abs(report.value) == pytest.approx(SQRT2, abs=1e-12)


class TestParseFunctionalSpec:
    def test_builtins(self):
        assert parse_functional_spec("chsh").label == "CHSH"
        assert parse_functional_spec("mermin3").label == "Mermin-3"

    def test_custom_chsh_equivalent(self):
        f = parse_functional_spec("custom:2x2:1,1,1,-1")
        assert classical_bound(f) == 2.0
        assert np.array_equal(f.coefficients, make_chsh().coefficients)

    def test_custom_three_party(self):
        f = parse_functional_spec("custom:2x2x2:0,1,1,0,1,0,0,-1")
        assert f.settings_per_party == (2, 2, 2)

    @pytest.mark.parametrize(
        "bad",
        ["custom:2x2:1,1,1", "custom:2x2", "custom:ax2:1,1,1,1", "nope"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_functional_spec(bad)

    @pytest.mark.parametrize("spec", ["custom:-2x-2:1,2,3,4", "custom:-1x-4:1,2,3,4", "custom:2x0:1"])
    def test_rejects_non_positive_setting_count(self, spec):
        with pytest.raises(ValueError, match="every party needs at least one setting"):
            parse_functional_spec(spec)
