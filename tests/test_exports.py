"""The package's export list matches what `import sosrep` binds."""

import types

import sosrep


def test_all_is_sorted_and_unique():
    assert list(sosrep.__all__) == sorted(set(sosrep.__all__))


def test_every_exported_name_resolves():
    missing = [name for name in sosrep.__all__ if not hasattr(sosrep, name)]
    assert missing == []


def test_all_is_every_public_name_bound_in_the_package():
    # Submodules are bound as attributes once imported; they are not exports.
    public = {name for name, value in vars(sosrep).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(sosrep.__all__) == public
