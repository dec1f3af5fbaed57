"""Property tests: checks on an (..., d, d) stack of states agree with the same
checks made on each matrix alone."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oltsim.analysis import ppt_separable, random_density  # noqa: E402
from oltsim.states import validate_density  # noqa: E402


def _message(m):
    """The invariant message validate_density raises for `m`, or None if it passes."""
    try:
        validate_density(m)
    except ValueError as exc:
        return str(exc)
    return None


def _corrupt(m, kind, rng):
    """Break one invariant of the state `m`, keeping the others."""
    if kind == "hermitian":
        m[0, -1] += 1e-6
        return m
    if kind == "trace":
        return m * (1 + rng.uniform(1e-6, 1e-2))
    # smallest eigenvalue set to -delta, the rest rescaled to keep unit trace
    eigs, vecs = np.linalg.eigh(m)
    delta = rng.uniform(1e-6, 1e-3)
    eigs[0] = -delta
    eigs[1:] *= (1 + delta) / eigs[1:].sum()
    return (vecs * eigs) @ vecs.conj().T


KINDS = ["hermitian", "negative", "trace"]
shapes = st.lists(st.integers(1, 3), min_size=1, max_size=3)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), lead=shapes, seed=st.integers(0, 2**32 - 1), data=st.data())
def test_stack_validates_iff_every_slice_does(n, lead, seed, data):
    rng = np.random.default_rng(seed)
    count = int(np.prod(lead))
    slices = [random_density(rng, n).matrix.copy() for _ in range(count)]
    bad = data.draw(st.sets(st.integers(0, count - 1)))
    for i in bad:
        slices[i] = _corrupt(slices[i], data.draw(st.sampled_from(KINDS)), rng)
    stack = np.array(slices).reshape(tuple(lead) + slices[0].shape)
    alone = [_message(m) for m in slices]
    if all(msg is None for msg in alone):
        dm = validate_density(stack)
        assert dm.matrix.shape == stack.shape and dm.n_qubits == n
        assert np.array_equal(dm.matrix, stack)
    else:
        with pytest.raises(ValueError):
            validate_density(stack)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 3),
    lead=shapes,
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(KINDS),
    data=st.data(),
)
def test_one_corrupted_slice_names_its_invariant(n, lead, seed, kind, data):
    rng = np.random.default_rng(seed)
    count = int(np.prod(lead))
    slices = [random_density(rng, n).matrix.copy() for _ in range(count)]
    i = data.draw(st.integers(0, count - 1))
    slices[i] = _corrupt(slices[i], kind, rng)
    expected = _message(slices[i])
    assert expected is not None
    stack = np.array(slices).reshape(tuple(lead) + slices[0].shape)
    with pytest.raises(ValueError) as exc:
        validate_density(stack)
    assert str(exc.value) == expected


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 3), lead=shapes, seed=st.integers(0, 2**32 - 1), data=st.data())
def test_stacked_ppt_matches_per_matrix_verdicts(n, lead, seed, data):
    rng = np.random.default_rng(seed)
    count = int(np.prod(lead))
    # Ginibre states are often NPT; mixing in white noise makes some PPT
    weights = rng.uniform(0, 1, size=count)
    slices = [
        w * random_density(rng, n).matrix + (1 - w) * np.eye(2**n) / 2**n for w in weights
    ]
    partition = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
    stack = np.array(slices).reshape(tuple(lead) + (2**n, 2**n))
    verdict = ppt_separable(validate_density(stack), partition)
    alone = [ppt_separable(validate_density(m), partition) for m in slices]
    assert verdict.ppt.shape == verdict.min_eigenvalue.shape == tuple(lead)
    assert verdict.ppt.reshape(-1).tolist() == [v.ppt for v in alone]
    assert np.max(np.abs(verdict.min_eigenvalue.reshape(-1) - [v.min_eigenvalue for v in alone])) < 1e-12
    assert verdict.conclusive == (n == 2)
