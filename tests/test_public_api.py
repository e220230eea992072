"""Public API surface tests: everything exported must import and work."""

import ast
import dataclasses
import importlib
import inspect
import io
import re
import tokenize
from collections import Counter, defaultdict
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.nn",
    "repro.nn.layers",
    "repro.nn.optim",
    "repro.data",
    "repro.data.synth",
    "repro.models",
    "repro.core",
    "repro.baselines",
    "repro.hw",
    "repro.parallel",
    "repro.serving",
    "repro.sim",
    "repro.cluster",
    "repro.faults",
    "repro.netsim",
    "repro.offload",
    "repro.eval",
    "repro.experiments",
    "repro.utils",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports(package):
    importlib.import_module(package)


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    mod = importlib.import_module(package)
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{package}.__all__ lists missing name {name!r}"


#: Exports that only tests use, kept on purpose: name -> why.
TEST_SUPPORT = {
    "constant_arrivals": "tests' fixed-rate arrival traces",
    "clear_oracle_cache": "resets the oracle memo between tests",
    "DEFAULT_CLASSES": "tests' three-class fixture",
    "gradcheck": "the autograd tests' numerical reference",
    "plan_batches": "the micro-batcher tests' offline reference",
}

_ROOT = Path(__file__).resolve().parents[1]
_WORD = re.compile(r"\w+")


def _program_files():
    """Every program file: the sources under ``src/``, and everything
    under ``benchmarks/`` (but the harness self-test), ``examples/`` and
    ``tools/``."""
    yield from sorted((_ROOT / "src").rglob("*.py"))
    for folder in ("benchmarks", "examples", "tools"):
        for path in sorted((_ROOT / folder).rglob("*.py")):
            if path.name != "test_harness.py":
                yield path


def _code_words(source: str, tree: ast.Module):
    """``(line, word)`` for every word of code: docstrings and comments
    do not count."""
    docstrings = {
        (node.body[0].lineno, node.body[0].col_offset)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT or (
            tok.type == tokenize.STRING and tok.start in docstrings
        ):
            continue
        for word in _WORD.findall(tok.string):
            yield tok.start[0], word


def _program_words():
    """Word counts over the code of every program file, and per
    top-level name the words of its own definitions, which do not count
    as a use.  ``__all__`` lists and package re-export imports under
    ``src/`` are left out."""
    total, own = Counter(), {}
    for path in _program_files():
        source = path.read_text()
        tree = ast.parse(source)
        words = list(_code_words(source, tree))
        skipped, spans = set(), []
        for node in tree.body if path.is_relative_to(_ROOT / "src") else ():
            names = [getattr(t, "id", None) for t in getattr(node, "targets", [])]
            if "__all__" in names or (
                path.name == "__init__.py" and isinstance(node, ast.ImportFrom)
            ):
                skipped.update(range(node.lineno, node.end_lineno + 1))
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Assign)):
                for name in names + [getattr(node, "name", None)]:
                    if name:
                        spans.append((name, node.lineno, node.end_lineno))
        total.update(word for line, word in words if line not in skipped)
        for name, first, last in spans:
            own.setdefault(name, Counter()).update(
                word for line, word in words if first <= line <= last
            )
    return total, own


def test_every_export_is_reached_by_a_program():
    """An export that no program's code names is dead weight that tests
    keep alive; delete it with its tests, or list it in
    ``TEST_SUPPORT``.  One level deep: a caller that is itself unreached
    still counts."""
    total, own = _program_words()
    unreached = sorted(
        f"{package}.{name}"
        for package in PACKAGES
        for name in getattr(importlib.import_module(package), "__all__", [])
        if name not in TEST_SUPPORT
        and total[name] - own.get(name, Counter())[name] <= 0
    )
    assert not unreached, f"exports no program reaches: {unreached}"
    exported = {
        name for package in PACKAGES for name in importlib.import_module(package).__all__
    }
    assert set(TEST_SUPPORT) <= exported


#: The simulator's packages, whose public classes and functions take
#: only settings that some program sets.
SWEPT = (
    "repro.cluster",
    "repro.faults",
    "repro.netsim",
    "repro.obs",
    "repro.offload",
    "repro.serving",
    "repro.sim",
    "repro.hw",
)

#: Defaulted parameters that no program passes, kept on purpose:
#: (callable, parameter) -> why.
KEPT_SETTINGS = {
    ("PhaseProfiler", "clock"): "tests pass a fake clock to time phases exactly",
    ("EdgeTier", "obs"): "attaches an Observer; programs run the tier unobserved",
    ("SessionTransport", "obs"): "attaches an Observer; programs run the transport unobserved",
}


def _callee(func) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def _program_calls(returns):
    """The keywords and the most positional arguments that program calls
    pass each callee name.  ``cls(...)`` in a class body calls that
    class and ``super().__init__(...)`` its bases; ``replace(f(), ...)``
    sets fields of ``returns.get(f, f)``, and ``replace(x, ...)`` of a
    variable may set any class's, so its keywords go under ``None``."""
    keywords, positional = defaultdict(set), Counter()

    def visit(node, classes):
        if isinstance(node, ast.ClassDef):
            classes = classes + [(node.name, [_callee(b) for b in node.bases])]
        if isinstance(node, ast.Call):
            passed = {kw.arg for kw in node.keywords if kw.arg is not None}
            for kw in node.keywords:
                if kw.arg is None and isinstance(kw.value, ast.Dict):
                    passed |= {k.value for k in kw.value.keys if isinstance(k, ast.Constant)}
            n_positional = len(node.args)
            if any(isinstance(a, ast.Starred) for a in node.args):
                n_positional = 1 << 30  # may fill every position
            func, names = node.func, [_callee(node.func)]
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "__init__"
                and isinstance(func.value, ast.Call)
                and _callee(func.value.func) == "super"
            ):
                names = classes[-1][1] if classes else []
            elif names == ["cls"] and classes:
                names = [classes[-1][0]]
            elif names == ["replace"] and node.args:
                target, n_positional = node.args[0], 0
                made_by = _callee(target.func) if isinstance(target, ast.Call) else None
                names = [returns.get(made_by, made_by)]
            for name in names:
                keywords[name] |= passed
                positional[name] = max(positional[name], n_positional)
        for child in ast.iter_child_nodes(node):
            visit(child, classes)

    for path in _program_files():
        visit(ast.parse(path.read_text()), [])
    return keywords, positional


def _swept_callables():
    seen = {}
    for package in SWEPT:
        module = importlib.import_module(package)
        for name in module.__all__:
            obj = getattr(module, name)
            if (inspect.isclass(obj) or inspect.isfunction(obj)) and obj not in seen.values():
                seen[name] = obj
    return seen


def test_every_setting_is_set_by_a_program():
    """A defaulted parameter of a public class or function that no
    program passes (by keyword, by position, through
    ``dataclasses.replace`` or as a ``**{...}`` key) runs only at its
    default outside tests: make it a constant, delete the branches only
    its other values reach, or keep it in ``KEPT_SETTINGS`` with a
    reason.  Methods' parameters are not swept."""
    callables = _swept_callables()
    returns = {
        name: str(inspect.signature(obj).return_annotation).split(".")[-1]
        for name, obj in callables.items()
        if inspect.isfunction(obj)
    }
    keywords, positional = _program_calls(returns)
    unset, defaulted = [], set()
    for name, obj in callables.items():
        params = inspect.signature(obj).parameters.values()
        ordered = [p.name for p in params if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
        passed = keywords[name] | keywords[None] | set(ordered[: positional[name]])
        for p in params:
            if p.default is p.empty or p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD):
                continue
            defaulted.add((name, p.name))
            if p.name not in passed and (name, p.name) not in KEPT_SETTINGS:
                unset.append(f"{obj.__module__}.{name}({p.name}=)")
    assert not unset, f"settings no program sets: {sorted(unset)}"
    assert set(KEPT_SETTINGS) <= defaulted
    assert all(KEPT_SETTINGS.values())


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_top_level_workflow_symbols():
    from repro import (
        CBNet,
        BranchyLeNet,
        ConvertingAutoencoder,
        LeNet,
        LightweightClassifier,
        PipelineConfig,
        TrainConfig,
        build_cbnet_pipeline,
        load_dataset,
        train_baseline_lenet,
    )

    # Construction-level sanity only (training covered elsewhere).
    assert PipelineConfig(dataset="mnist").dataset == "mnist"
    assert TrainConfig().epochs > 0
    # The model classes and workflow functions resolve to their home
    # modules, not to stand-ins.
    homes = {
        CBNet: "repro.core.cbnet",
        BranchyLeNet: "repro.models.branchynet",
        ConvertingAutoencoder: "repro.models.autoencoder",
        LeNet: "repro.models.lenet",
        LightweightClassifier: "repro.models.lightweight",
        build_cbnet_pipeline: "repro.core.pipeline",
        load_dataset: "repro.data.synth.registry",
        train_baseline_lenet: "repro.core.pipeline",
    }
    for obj, home in homes.items():
        assert obj.__module__ == home, obj.__name__
    assert all(inspect.isclass(obj) for obj in list(homes)[:5])
    assert all(inspect.isfunction(obj) for obj in list(homes)[5:])


def test_constructors_take_settings_not_runtime_state():
    """Counters, clocks and fault state start in ``__post_init__``: a
    caller cannot pass them, and each lives on the instance, so hot
    reads never fall through to a class attribute."""
    from repro.cluster import Replica
    from repro.faults import CircuitBreaker

    def params(cls):
        return tuple(inspect.signature(cls).parameters)

    assert params(Replica) == (
        "replica_id",
        "backend",
        "max_batch_size",
        "max_wait_s",
        "state",
        "classes",
        "scheduler",
    )
    assert params(CircuitBreaker) == ("config",)
    for obj in (Replica(0, None), CircuitBreaker()):
        state = {f.name for f in dataclasses.fields(obj) if not f.init}
        assert state <= vars(obj).keys(), type(obj).__name__


def test_run_fleet_net_takes_no_observer():
    """``run_fleet_net`` records no telemetry.  ``EdgeTier`` takes the
    observer on the shared device loop, and finalizes and guards it."""
    from repro.netsim import run_fleet_net

    assert tuple(inspect.signature(run_fleet_net).parameters) == (
        "link",
        "devices",
        "policy_for",
        "deadline_s",
        "rng",
        "aimd",
        "max_attempts",
    )
