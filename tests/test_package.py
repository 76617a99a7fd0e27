import ast
import types
from pathlib import Path

import dogsim
from dogsim import errors


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


def test_every_error_type_is_caught_by_name():
    # A SimulationError subclass earns its place only where the program
    # catches it by name: in an except clause or as a key of _EXIT_CODES.
    caught = set()
    for path in Path(dogsim.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_EXIT_CODES" for t in node.targets
            ):
                caught |= {k.id for k in node.value.keys if isinstance(k, ast.Name)}
    defined = {
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.SimulationError)
    }
    assert defined - caught == set()


def test_the_logistic_kernel_has_one_home():
    # The round loop reaches exp and log1p only through losses.softplus_sigmoid.
    engine = Path(dogsim.__file__).parent / "engine.py"
    calls = {
        node.attr for node in ast.walk(ast.parse(engine.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "np"
    }
    assert calls & {"exp", "log1p"} == set()
