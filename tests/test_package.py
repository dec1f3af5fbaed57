"""The package's public names: `__all__` and the package attributes agree."""

import types

import pytest

import oltsim

# deleted from the package, or kept only in their modules as the tests' reference route
NOT_EXPORTED = (
    "z_string",
    "kron_all",
    "cnot",
    "Z_TO_X_SETTING",
    "Z_TO_Y_SETTING",
    "assemble",
    "apply_olts",
    "reduced_system",
    "correlation_direct",
    "correlation_factorized",
    "embed",
    "partial_trace",
)


def test_every_listed_name_resolves():
    assert len(oltsim.__all__) == len(set(oltsim.__all__))
    for name in oltsim.__all__:
        assert getattr(oltsim, name) is not None


def test_every_public_attribute_is_listed():
    public = {
        name
        for name, value in vars(oltsim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(oltsim.__all__)


@pytest.mark.parametrize("name", NOT_EXPORTED)
def test_name_not_importable_from_the_package(name):
    assert name not in oltsim.__all__
    with pytest.raises(ImportError):
        exec(f"from oltsim import {name}", {})
