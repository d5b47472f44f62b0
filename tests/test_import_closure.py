"""Every import in the repository resolves to something an install provides.

CI installs the project with ``pip install ".[test]"``, so an import of a
third-party package that ``pyproject.toml`` does not declare would only
fail there.  This test parses every Python file under ``src/``,
``tests/``, ``benchmarks/``, ``perfbench/``, ``scripts/`` and
``examples/`` and checks each top-level module it imports: the standard
library, ``repro``, a module next to the importing file (``conftest``, the
perfbench helpers), or a declared dependency.  Every ``repro`` module and
name those files import must also exist, so a deleted public name that an
example still imports fails here rather than when the example runs.  The
same holds for every dotted ``repro.…`` name the docs and the verify recipe
mention, and for every backticked ``Class.attr`` there whose ``Class`` is a
``repro`` class (or ``F``, ``repro.nn.functional``), so a deleted name does
not live on in the prose.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "benchmarks", "perfbench", "scripts", "examples")
DOCS = (*sorted((ROOT / "docs").glob("*.md")), ROOT / ".claude" / "skills" / "verify" / "SKILL.md")
DOTTED_NAME = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
BACKTICKED = re.compile(r"`([^`\n]+)`")
CLASS_MEMBER = re.compile(r"(?<![\w.])([A-Z]\w*)\.([A-Za-z_]\w*)")


def _declared_modules() -> set:
    """Import names of the dependencies and optional dependencies in ``pyproject.toml``."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    requirements = list(project["dependencies"])
    for extra in project.get("optional-dependencies", {}).values():
        requirements += extra
    names = {re.match(r"[A-Za-z0-9_.\-]+", requirement).group(0) for requirement in requirements}
    return {name.lower().replace("-", "_").replace(".", "_") for name in names}


def _imported_modules(path: Path):
    """``(line, top-level module)`` of every absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def _repro_imports(path: Path):
    """``(line, module, name)`` of every absolute ``repro`` import in ``path``; ``name`` is None for ``import``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield node.lineno, alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "repro":
            for alias in node.names:
                yield node.lineno, node.module, alias.name


def _resolves(module: str, name) -> bool:
    """Whether ``from module import name`` (or ``import module``) would succeed."""
    try:
        imported = importlib.import_module(module)
        if name is None or hasattr(imported, name):
            return True
        importlib.import_module(f"{module}.{name}")
        return True
    except ImportError:
        return False


def _dotted_name_resolves(dotted: str) -> bool:
    """Whether ``dotted`` names something: its longest importable module prefix, then attributes."""
    parts = dotted.split(".")
    for stop in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:stop]))
        except ImportError:
            continue
        for attribute in parts[stop:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def _scanned_files():
    return [path for folder in SCANNED for path in sorted((ROOT / folder).rglob("*.py"))]


def _is_local(module: str, path: Path) -> bool:
    folder = path.parent
    return (folder / f"{module}.py").is_file() or (folder / module / "__init__.py").is_file()


def test_declared_dependencies_cover_every_import():
    declared = _declared_modules() | {"repro"}
    assert {"numpy", "scipy", "networkx", "pytest", "hypothesis"} <= declared
    files = _scanned_files()
    assert len(files) > 100
    undeclared = [
        f"{path.relative_to(ROOT)}:{line}: {module}"
        for path in files
        for line, module in _imported_modules(path)
        if module not in sys.stdlib_module_names and module not in declared and not _is_local(module, path)
    ]
    assert not undeclared, "imports not declared in pyproject.toml:\n" + "\n".join(undeclared)


def test_every_repro_import_resolves():
    unresolved = [
        f"{path.relative_to(ROOT)}:{line}: {module}" + ("" if name is None else f".{name}")
        for path in _scanned_files()
        for line, module, name in _repro_imports(path)
        if not _resolves(module, name)
    ]
    assert not unresolved, "imports of missing repro modules or names:\n" + "\n".join(unresolved)


def test_every_repro_name_in_the_docs_resolves():
    mentioned = [
        (path, line, name)
        for path in DOCS
        if path.is_file()
        for line, text in enumerate(path.read_text().splitlines(), start=1)
        for name in DOTTED_NAME.findall(text)
    ]
    assert mentioned
    unresolved = [
        f"{path.relative_to(ROOT)}:{line}: {name}" for path, line, name in mentioned if not _dotted_name_resolves(name)
    ]
    assert not unresolved, "docs name missing repro modules or attributes:\n" + "\n".join(unresolved)


def _repro_classes() -> dict:
    """Every class a ``repro`` module defines, by name (several classes may share one)."""
    import repro

    classes: dict = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        for name, value in vars(importlib.import_module(info.name)).items():
            if inspect.isclass(value) and value.__module__.startswith("repro"):
                classes.setdefault(name, set()).add(value)
    return classes


def test_every_class_member_in_the_docs_resolves():
    from repro.nn import functional

    classes = _repro_classes()
    owners = {name: tuple(found) for name, found in classes.items()} | {"F": (functional,)}
    mentioned = [
        (path, line, owner, attribute)
        for path in DOCS
        if path.is_file()
        for line, text in enumerate(path.read_text().splitlines(), start=1)
        for span in BACKTICKED.findall(text)
        for owner, attribute in CLASS_MEMBER.findall(span)
        if owner in owners
    ]
    assert mentioned
    unresolved = [
        f"{path.relative_to(ROOT)}:{line}: {owner}.{attribute}"
        for path, line, owner, attribute in mentioned
        if not any(
            hasattr(target, attribute) or attribute in getattr(target, "__dataclass_fields__", {})
            for target in owners[owner]
        )
    ]
    assert not unresolved, "docs name missing members of repro classes:\n" + "\n".join(unresolved)


def test_repro_eval_does_not_import_perfbench():
    """``python -m repro.eval.perfbench`` must run the module once, not also as ``repro.eval.perfbench``."""
    code = "import sys, repro.eval; print('repro.eval.perfbench' in sys.modules)"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path}
    )
    assert result.stdout.strip() == "False"
