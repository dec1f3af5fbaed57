"""Property tests: the bit-flip-mixture reduced state equals the full-register one,
and its Pauli expectations factorize into system and rotated-ancilla factors."""

import itertools

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oltsim.analysis import random_density, random_setting  # noqa: E402
from oltsim.gates import SO2, SU2, AngleSetting, pauli, rotation  # noqa: E402
from oltsim.protocol import flip_mixtures, reduced_states  # noqa: E402

from reference import kron_all  # noqa: E402


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
    direct = reduced_states(system, ancilla, lists)
    assert direct.matrix.shape == mixtures.matrix.shape
    assert np.max(np.abs(direct.matrix - mixtures.matrix)) < 1e-10


PAULI_BASIS = [np.eye(2)] + [pauli(k) for k in (1, 2, 3)]  # I, X, Y, Z


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_pauli_expectations_factorize(n, seed, data):
    # X^a P X^a = (-1)^(a . z(P)) P, z(P) marking the Y and Z positions of P, so
    # <P>_red = <P>_sys <Z^z(P)> on the rotated ancilla, for all 4^N strings P
    rng = np.random.default_rng(seed)
    system, ancilla = random_density(rng, n), random_density(rng, n)
    modes = data.draw(st.lists(st.sampled_from([SO2, SU2]), min_size=n, max_size=n))
    settings_ = [
        AngleSetting(mode, tuple(rng.uniform(-2 * np.pi, 2 * np.pi, size=1 if mode == SO2 else 3)))
        for mode in modes
    ]
    red = flip_mixtures(system, ancilla, [[s] for s in settings_]).matrix[(0,) * n]
    r = kron_all([rotation(s) for s in settings_])
    rotated = r @ ancilla.matrix @ r.conj().T
    for letters in itertools.product(range(4), repeat=n):
        p = kron_all([PAULI_BASIS[k] for k in letters])
        z = kron_all([pauli(3) if k >= 2 else np.eye(2) for k in letters])
        expected = np.trace(p @ system.matrix) * np.trace(z @ rotated)
        assert abs(np.trace(p @ red) - expected) < 1e-10
