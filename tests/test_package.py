import types

import dogsim


def test_all_is_exactly_the_public_names():
    public = {
        name for name, value in vars(dogsim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert all(hasattr(dogsim, name) for name in dogsim.__all__)
    assert sorted(dogsim.__all__) == sorted(public)


def test_every_public_class_and_function_has_its_own_docstring():
    # A dataclass without a docstring gets its signature as __doc__.
    missing = [
        name for name in dogsim.__all__
        if not (doc := getattr(dogsim, name).__doc__) or doc.startswith(f"{name}(")
    ]
    assert missing == []
