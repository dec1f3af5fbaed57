"""Property tests: the exact classical bound respects the functional's symmetries."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oltsim.functionals import BellFunctional, classical_bound  # noqa: E402


@st.composite
def integer_functionals(draw):
    shape = draw(
        st.lists(st.integers(1, 4), min_size=2, max_size=4).filter(lambda ms: sum(ms) <= 12)
    )
    size = math.prod(shape)
    values = draw(st.lists(st.integers(-4, 4), min_size=size, max_size=size))
    hypothesis.assume(any(values))
    return np.array(values, dtype=float).reshape(shape)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bound_invariant_under_relabellings(data):
    c = data.draw(integer_functionals())
    bound = classical_bound(BellFunctional(c, "c"))

    perm = data.draw(st.permutations(range(c.ndim)))
    assert classical_bound(BellFunctional(np.transpose(c, perm), "perm")) == bound

    party = data.draw(st.integers(0, c.ndim - 1))
    order = data.draw(st.permutations(range(c.shape[party])))
    relabelled = np.take(c, order, axis=party)
    assert classical_bound(BellFunctional(relabelled, "relabel")) == bound

    flipped = c.copy()
    index = [slice(None)] * c.ndim
    index[party] = data.draw(st.integers(0, c.shape[party] - 1))
    flipped[tuple(index)] *= -1
    assert classical_bound(BellFunctional(flipped, "flip")) == bound
