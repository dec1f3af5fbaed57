"""Tensor-core operations: partial traces."""

import numpy as np
import pytest

from oltsim.linalg import dag, partial_trace
from oltsim.states import make_bell_state, make_werner

I2 = np.eye(2, dtype=complex)


def random_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return g + dag(g)


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        rho = make_bell_state("phi+").matrix
        assert np.allclose(partial_trace(rho, {0}, 2), I2 / 2, atol=1e-12)

    def test_product_state_marginal(self):
        rng = np.random.default_rng(3)
        a = random_hermitian(rng, 4)
        chi = make_werner(0.3).matrix  # unit trace
        assert np.allclose(partial_trace(np.kron(a, chi), {0, 1}, 4), a, atol=1e-12)

    def test_keep_all_is_identity(self):
        rng = np.random.default_rng(5)
        rho = random_hermitian(rng, 8)
        assert np.array_equal(partial_trace(rho, {0, 1, 2}, 3), rho)

    def test_trace_preserving(self):
        rng = np.random.default_rng(9)
        rho = random_hermitian(rng, 16)
        for keep in ({0}, {1, 3}, {0, 2}, set()):
            assert np.isclose(
                np.trace(partial_trace(rho, keep, 4)), np.trace(rho), atol=1e-12
            )

    def test_linear(self):
        rng = np.random.default_rng(13)
        a = random_hermitian(rng, 8)
        b = random_hermitian(rng, 8)
        lhs = partial_trace(a + 3 * b, {1}, 3)
        rhs = partial_trace(a, {1}, 3) + 3 * partial_trace(b, {1}, 3)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            partial_trace(np.eye(4, dtype=complex), {2}, 2)

    @pytest.mark.parametrize("keep", [set(), {0}, {1, 2}, {0, 2}, {0, 1, 2}])
    def test_stack_matches_each_matrix(self, keep):
        rng = np.random.default_rng(17)
        stack = np.array([[random_hermitian(rng, 8) for _ in range(3)] for _ in range(2)])
        got = partial_trace(stack, keep, 3)
        d = 2 ** len(keep)
        assert got.shape == (2, 3, d, d)
        for idx in np.ndindex(2, 3):
            assert np.max(np.abs(got[idx] - partial_trace(stack[idx], keep, 3))) < 1e-12

    def test_stack_shape_checked(self):
        with pytest.raises(ValueError, match="expected 4x4 matrices for n=2"):
            partial_trace(np.zeros((3, 4, 8), dtype=complex), {0}, 2)

