import types

import dogsim


def test_all_is_exactly_the_public_names():
    public = {
        name for name, value in vars(dogsim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert all(hasattr(dogsim, name) for name in dogsim.__all__)
    assert sorted(dogsim.__all__) == sorted(public)
