"""Property tests: the bit-flip-mixture reduced state equals the full-register one."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oltsim.analysis import random_density, random_setting  # noqa: E402
from oltsim.protocol import flip_mixtures, reduced_states  # noqa: E402


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_flip_mixtures_match_reduced_states(n, seed, data):
    # Ginibre system and ancilla; random_setting mixes so2 and su2 settings
    rng = np.random.default_rng(seed)
    system, ancilla = random_density(rng, n), random_density(rng, n)
    shape = data.draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    lists = [[random_setting(rng) for _ in range(m)] for m in shape]
    mixtures = flip_mixtures(system, ancilla, lists)
    assert mixtures.matrix.shape == tuple(shape) + (2**n, 2**n)
    # the stack is row-major: entry idx is the direct route's state at idx
    for idx, direct in reduced_states(system, ancilla, lists):
        assert np.max(np.abs(direct.matrix - mixtures.matrix[idx])) < 1e-10
