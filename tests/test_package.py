import ast
import dataclasses
import types
from pathlib import Path

import dogsim
from dogsim import cli, errors


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


def _source_trees():
    return [ast.parse(path.read_text()) for path in Path(dogsim.__file__).parent.glob("*.py")]


_EXIT_CODE_TYPES = {kind.__name__ for kind in cli._EXIT_CODES}


def test_every_error_type_is_caught_by_name():
    # An exception type in dogsim.errors earns its place only where the
    # program catches it by name: in an except clause or as a key of _EXIT_CODES.
    caught = set(_EXIT_CODE_TYPES)
    for tree in _source_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
    defined = {
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, Exception)
    }
    assert defined == {"ConfigError", "DivergenceDetected", "NonConvergence"}
    assert defined - caught == set()


def test_every_raise_names_an_argument_error_or_an_exit_code_type():
    # An unusable argument raises ValueError or TypeError; anything else the
    # program raises must map to an exit code. A bare re-raise names nothing.
    raised = set()
    for tree in _source_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.id if isinstance(exc, ast.Name) else ast.dump(exc))
    assert raised - {"ValueError", "TypeError"} - _EXIT_CODE_TYPES == set()


def test_the_logistic_kernel_has_one_home():
    # The round loop reaches exp and log1p only through the kernel's two
    # halves, losses.exp_sigmoid and losses.softplus.
    engine = Path(dogsim.__file__).parent / "engine.py"
    calls = {
        node.attr for node in ast.walk(ast.parse(engine.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "np"
    }
    assert calls & {"exp", "log1p"} == set()


def test_the_synthetic_stream_draws_only_from_numpys_philox():
    # datagen takes its random words from np.random.Philox alone and holds
    # none of a Philox round's multipliers or key increments.
    tree = ast.parse((Path(dogsim.__file__).parent / "datagen.py").read_text())
    generators = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
        and node.value.attr == "random" and isinstance(node.value.value, ast.Name) and node.value.value.id == "np"
    }
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    imported |= {node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    round_constants = {0xD2E7470EE14C6C93, 0xCA5A826395121157, 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B}
    literals = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    assert generators == {"Philox"}
    assert not any("random" in name for name in imported)
    assert literals & round_constants == set()


def test_every_run_config_field_is_read_by_the_run():
    # A RunConfig holds only what a run reads: each field is read as
    # cfg.<field> in run_experiment or as self.<field> by a RunConfig
    # property. A value only the CLI needs belongs in cli.ExperimentFile.
    tree = ast.parse((Path(dogsim.__file__).parent / "engine.py").read_text())
    run = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "run_experiment")
    config = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "RunConfig")
    properties = [
        node for node in config.body
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list)
    ]
    read = {
        node.attr
        for owner, name in [(run, "cfg")] + [(prop, "self") for prop in properties]
        for node in ast.walk(owner)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == name
    }
    fields = {field.name for field in dataclasses.fields(dogsim.RunConfig)}
    assert fields - read == set()


def test_a_run_result_holds_what_the_loop_measured_unreduced():
    # RunResult keeps the (T, n) losses, and one function in metrics turns
    # them into the loss columns: it is the only running total of floats.
    # ingest and mixing call cumsum only for integer offsets into their
    # arrays (the parsed lines' first tokens and W's CSR row pointers).
    fields = {field.name for field in dataclasses.fields(dogsim.RunResult)}
    assert "losses" in fields
    assert {"avg_loss", "cum_loss", "pooled_samples"} & (fields | set(vars(dogsim.RunResult))) == set()
    callers = set()
    for path in Path(dogsim.__file__).parent.glob("*.py"):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, ast.FunctionDef) and any(
                isinstance(node, ast.Attribute) and node.attr == "cumsum" for node in ast.walk(func)
            ):
                callers.add(f"{path.stem}.{func.name}")
    assert callers == {"metrics.loss_columns", "ingest._parse_chunk", "mixing.build_mixing"}
