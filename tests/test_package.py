"""The package namespace: ``__all__`` lists exactly the public names."""

import types

import distcert


def test_all_lists_every_public_name_once():
    public = {
        name
        for name, value in vars(distcert).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(distcert.__all__) == len(set(distcert.__all__))
    assert set(distcert.__all__) == public
