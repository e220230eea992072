#!/usr/bin/env python
"""Documentation health check (the `make docs-check` target).

Six gates, all offline and fast:

1. the documentation suite exists (README.md, the docs/ pages) and the
   registered example scripts exist and compile;
2. every ```python code block in README.md compiles (syntax-checks the
   quickstart/serving tour without paying for training);
3. the README blocks and the examples use the API that exists: every
   ``from repro... import Name`` resolves, and every keyword passed to
   such a name is one of its parameters; the same keyword check covers
   the backticked call snippets in README.md and docs/*.md whose callee
   is a public ``repro`` name bound to one object
   (`` `EdgeTier(..., codec=...)` ``);
4. docstring coverage: every public symbol (``__all__``) of every
   ``repro`` (sub)package that is a function or class carries a
   docstring, as does every module;
5. cross-references resolve: every backticked dotted ``repro.…`` name
   in README.md and docs/*.md, every backticked ``Name.member`` there,
   alone or called, whose ``Name`` is a public ``repro`` name bound to
   one object (`` `Cluster.serve_log` ``), and every ``repro.…``
   target of a ``:mod:``/``:func:``/``:class:``/``:meth:``/``:data:``/
   ``:attr:`` role under src/, imports or resolves as an attribute.
   Unqualified role targets are relative to their module and are not
   checked;
6. commands and paths are current: in the code spans and fenced blocks
   of README.md, docs/*.md and the verify skill, every ``make <target>``
   names a target the Makefile defines, and every path under tools/,
   benchmarks/, examples/, src/, tests/ or docs/ exists (a glob must
   match at least one file).

With ``--run``, the README python blocks are additionally *executed* in
order in one shared namespace (later blocks use names from earlier
ones).  The first run trains the quickstart pipeline (minutes); cached
runs take seconds — hence opt-in (`make docs-run`).

Exits non-zero with a listing of violations.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

REQUIRED_DOCS = (
    "README.md",
    "docs/architecture.md",
    "docs/performance.md",
    "docs/cluster.md",
    "docs/offload.md",
    "docs/sim.md",
    "docs/scheduling.md",
    "docs/robustness.md",
    "docs/netsim.md",
    "docs/observability.md",
)

#: Runnable walkthroughs referenced from the docs; each must exist,
#: compile, and pass the API gate.  Nothing in CI executes them, so the
#: API gate is what catches a stale import or keyword.
REQUIRED_EXAMPLES = (
    "examples/quickstart.py",
    "examples/serving_demo.py",
    "examples/fleet_demo.py",
    "examples/offload_demo.py",
    "examples/obs_demo.py",
    "examples/prof_demo.py",
)


def check_docs_exist() -> list[str]:
    errors = [
        f"missing documentation file: {rel}"
        for rel in REQUIRED_DOCS
        if not (REPO / rel).exists()
    ]
    for rel in REQUIRED_EXAMPLES:
        path = REPO / rel
        if not path.exists():
            errors.append(f"missing example script: {rel}")
            continue
        try:
            compile(path.read_text(), rel, "exec")
        except SyntaxError as exc:
            errors.append(f"{rel} does not compile: {exc}")
    return errors


def _readme_blocks() -> list[str]:
    readme = REPO / "README.md"
    if not readme.exists():
        return []  # reported by check_docs_exist
    return re.findall(r"```python\n(.*?)```", readme.read_text(), re.DOTALL)


def _doc_pages() -> list[Path]:
    """README.md and the docs/*.md pages that exist."""
    pages = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]
    return [path for path in pages if path.exists()]


def check_readme_code_blocks(run: bool = False) -> list[str]:
    errors = []
    if not (REPO / "README.md").exists():
        return errors  # reported by check_docs_exist
    blocks = _readme_blocks()
    if not blocks:
        errors.append("README.md contains no ```python blocks")
    compiled = []
    for i, block in enumerate(blocks):
        try:
            compiled.append(compile(block, f"README.md:python-block-{i}", "exec"))
        except SyntaxError as exc:
            errors.append(f"README.md python block {i} does not compile: {exc}")
    if run and not errors:
        namespace: dict = {}
        for i, code in enumerate(compiled):
            print(f"-- running README python block {i} --")
            try:
                exec(code, namespace)
            except Exception as exc:  # noqa: BLE001 — report, don't crash
                errors.append(f"README.md python block {i} failed at runtime: {exc!r}")
                break
    return errors


_MISSING = object()


def _lookup(dotted: str):
    """What a dotted ``repro`` name denotes, or ``_MISSING``.

    The longest importable prefix is the module and the rest an
    attribute chain, in which a dataclass field without a class-level
    default counts as an attribute.  Resolves ``from module import
    name`` without executing the caller's code.
    """
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for name in parts[split:]:
            fields = getattr(obj, "__dataclass_fields__", {})
            obj = getattr(obj, name, fields.get(name, _MISSING))
            if obj is _MISSING:
                break
        return obj
    return _MISSING


def api_violations(blocks: list[str], where: str) -> list[str]:
    """Stale ``repro`` imports and keywords in ``blocks``.

    The blocks share one namespace, as the README's do.  Every
    ``from repro... import Name`` must resolve, and every keyword in a
    call of such a name must be one of its parameters; callables that
    take ``**kwargs`` are skipped.
    """
    trees = []
    for code in blocks:
        try:
            trees.append(ast.parse(code))
        except SyntaxError:
            pass  # reported by the compile gates
    errors, bound = [], {}
    for tree in trees:
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "repro"
            ):
                continue
            for alias in node.names:
                obj = _lookup(f"{node.module}.{alias.name}")
                if obj is _MISSING:
                    errors.append(
                        f"{where}: cannot import {alias.name!r} from {node.module}"
                    )
                else:
                    bound[alias.asname or alias.name] = obj
    for tree in trees:
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in bound
            ):
                continue
            try:
                params = inspect.signature(bound[node.func.id]).parameters
            except (TypeError, ValueError):
                continue
            if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
                continue
            for kw in node.keywords:
                if kw.arg is not None and kw.arg not in params:
                    errors.append(
                        f"{where}: {node.func.id}() has no parameter {kw.arg!r}"
                    )
    return errors


#: An inline code span (fenced blocks are blanked out first).
INLINE_CODE = re.compile(r"(?<!`)`([^`]+)`(?!`)")
FENCED_BLOCK = re.compile(r"```.*?```", re.DOTALL)


def unique_public_names() -> dict[str, str]:
    """Public ``repro`` names bound to one object, each with a module exporting it."""
    exporters: dict[str, str] = {}
    objects: dict[str, set[int]] = {}
    for name in iter_modules():
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            exporters.setdefault(symbol, name)
            objects.setdefault(symbol, set()).add(id(getattr(module, symbol, None)))
    return {symbol: exporters[symbol] for symbol, ids in objects.items() if len(ids) == 1}


def snippet_violations(text: str, names: dict[str, str], where: str) -> list[str]:
    """Stale keywords in the inline call snippets of a Markdown ``text``.

    A snippet is an inline code span that parses as a Python expression
    calling one of ``names`` (``name -> module``); each is checked by
    :func:`api_violations` as if it imported its callees.
    """
    text = FENCED_BLOCK.sub(lambda m: "\n" * m.group(0).count("\n"), text)
    errors = []
    for m in INLINE_CODE.finditer(text):
        code = m.group(1).strip()
        try:
            tree = ast.parse(code, mode="eval")
        except SyntaxError:
            continue
        callees = sorted(
            {
                node.func.id
                for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in names
            }
        )
        if callees:
            imports = "".join(f"from {names[c]} import {c}\n" for c in callees)
            line = text.count("\n", 0, m.start()) + 1
            errors += api_violations([imports + code], f"{where}:{line}")
    return errors


def check_api_usage() -> list[str]:
    errors = api_violations(_readme_blocks(), "README.md")
    for rel in REQUIRED_EXAMPLES:
        path = REPO / rel
        if path.exists():
            errors += api_violations([path.read_text()], rel)
    names = unique_public_names()
    for path in _doc_pages():
        rel = str(path.relative_to(REPO))
        errors += snippet_violations(path.read_text(), names, rel)
    return errors


def iter_modules() -> list[str]:
    import repro

    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(info.name)
    return names


def check_docstrings() -> list[str]:
    errors = []
    for name in iter_modules():
        module = importlib.import_module(name)
        if not (module.__doc__ or "").strip():
            errors.append(f"{name}: module has no docstring")
        for symbol in getattr(module, "__all__", []):
            obj = getattr(module, symbol, None)
            if obj is None:
                errors.append(f"{name}.{symbol}: listed in __all__ but missing")
                continue
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue  # constants/instances need no docstring
            if not (inspect.getdoc(obj) or "").strip():
                errors.append(f"{name}.{symbol}: public symbol has no docstring")
    return errors


#: A backticked dotted name in Markdown: `repro.cluster.Cluster`.
DOC_REFERENCE = re.compile(r"`(repro(?:\.\w+)+)`")
#: A backticked member of a bare name in Markdown, or a call of one:
#: `Cluster.serve_log`, `Observer.chrome_trace(path)`.
DOC_MEMBER = re.compile(r"`([A-Za-z_]\w*(?:\.\w+)+)(?:\([^`]*\))?`")
#: A fully qualified docstring role target, with or without a title
#: or a ``~``: :class:`~repro.sim.OracleBackend`, :meth:`serve <repro.…>`.
ROLE_REFERENCE = re.compile(
    r":(?:mod|func|class|meth|data|attr):`(?:[^`<]*<)?~?(repro(?:\.\w+)+)"
)


def reference_violations(
    text: str, pattern: re.Pattern, where: str, names: dict[str, str] | None = None
) -> list[str]:
    """The ``pattern`` matches in ``text`` whose dotted name does not resolve.

    With ``names`` (``name -> module``), a match is checked only when
    its first part is one of them, and is resolved in that module.
    """
    errors = []
    for m in pattern.finditer(text):
        dotted = m.group(1)
        if names is not None:
            head = dotted.split(".")[0]
            if head not in names:
                continue
            dotted = f"{names[head]}.{dotted}"
        if _lookup(dotted) is _MISSING:
            line = text.count("\n", 0, m.start()) + 1
            errors.append(f"{where}:{line}: `{m.group(1)}` does not resolve")
    return errors


def check_cross_references() -> list[str]:
    errors, names = [], unique_public_names()
    for path in _doc_pages():
        rel = str(path.relative_to(REPO))
        text = path.read_text()
        errors += reference_violations(text, DOC_REFERENCE, rel)
        errors += reference_violations(text, DOC_MEMBER, rel, names)
    for path in sorted((REPO / "src").rglob("*.py")):
        rel = str(path.relative_to(REPO))
        errors += reference_violations(path.read_text(), ROLE_REFERENCE, rel)
    return errors


#: A ``make <target>`` command.
MAKE_COMMAND = re.compile(r"\bmake\s+([A-Za-z0-9][\w.-]*)")
#: A repo path under one of the tracked top-level directories; ``*``
#: and ``[...]`` make it a glob.  A pytest ``::`` node suffix is not
#: part of the path.
REPO_PATH = re.compile(
    r"(?<![\w./-])((?:tools|benchmarks|examples|src|tests|docs)/[\w./*\[\]-]*)"
)
#: Pages checked for stale commands besides README.md and docs/*.md.
EXTRA_COMMAND_PAGES = (".claude/skills/verify/SKILL.md",)


def make_targets() -> set[str]:
    """The targets the Makefile defines."""
    text = (REPO / "Makefile").read_text()
    return set(re.findall(r"^([A-Za-z0-9][\w.-]*)\s*:(?!=)", text, re.MULTILINE))


def _path_exists(rel: str) -> bool:
    if any(c in rel for c in "*["):
        return next(REPO.glob(rel), None) is not None
    return (REPO / rel).exists()


def command_violations(text: str, targets: set[str], where: str) -> list[str]:
    """Unknown ``make`` targets and missing repo paths in ``text``'s code.

    Only code counts: fenced blocks and inline code spans of the
    Markdown ``text``.  ``targets`` are the Makefile's targets.
    """
    blocks = [(m.start(), m.group(0)) for m in FENCED_BLOCK.finditer(text)]
    prose = FENCED_BLOCK.sub(lambda m: " " * len(m.group(0)), text)
    spans = [(m.start(1), m.group(1)) for m in INLINE_CODE.finditer(prose)]
    errors = []
    for offset, code in sorted(blocks + spans):
        found = [
            (m.start(), f"`make {m.group(1)}`: no such Makefile target")
            for m in MAKE_COMMAND.finditer(code)
            if m.group(1) not in targets
        ]
        for m in REPO_PATH.finditer(code):
            rel = m.group(1).rstrip(".")
            if not _path_exists(rel):
                found.append((m.start(), f"`{rel}` matches no file"))
        for start, message in sorted(found):
            errors.append(f"{where}:{text.count(chr(10), 0, offset + start) + 1}: {message}")
    return errors


def check_commands() -> list[str]:
    targets, errors = make_targets(), []
    for path in _doc_pages() + [REPO / rel for rel in EXTRA_COMMAND_PAGES]:
        if path.exists():
            rel = str(path.relative_to(REPO))
            errors += command_violations(path.read_text(), targets, rel)
    return errors


def main() -> int:
    run = "--run" in sys.argv[1:]
    errors = (
        check_docs_exist()
        + check_readme_code_blocks(run=run)
        + check_api_usage()
        + check_docstrings()
        + check_cross_references()
        + check_commands()
    )
    if errors:
        print(f"docs-check: {len(errors)} problem(s)")
        for err in errors:
            print(f"  - {err}")
        return 1
    n_modules = len(iter_modules())
    print(f"docs-check: OK ({n_modules} modules, all public symbols documented)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
