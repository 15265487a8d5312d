"""The package's export list."""

import types

import evframes


def test_all_names_exactly_the_public_names():
    public = {
        name
        for name, value in vars(evframes).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    # Equal as sorted lists: no name is missing, left over or listed twice.
    assert sorted(evframes.__all__) == sorted(public | {"__version__"})
