"""Every module under ``src/repro`` is one that a run can execute.

The guard walks the AST imports of the package, imports inside
functions included, from the two entry points: the package root
(``repro.run`` and friends) and the experiment runner CLI.  A module that
no path reaches is code only tests or benchmarks execute; it belongs in
``tests/`` (as an oracle, like ``tests/core/reference_isa.py``) or
nowhere.

Reachability rules:

* reaching a module reaches its parent packages (Python executes their
  ``__init__.py`` first);
* a plain module reaches everything it imports;
* a package ``__init__.py`` reaches only what its own function bodies
  use (``make_scheduler`` reaches the policy classes), so a bare
  re-export keeps nothing alive;
* ``from package import name`` reaches the module that defines ``name``,
  following the package's re-exports;
* imports under ``if TYPE_CHECKING:`` never run and reach nothing.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

SRC = Path(__file__).resolve().parents[1] / "src"

#: The entry points a run starts from.
ROOTS = ("repro", "repro.experiments.runner")


def _module_paths() -> Dict[str, Path]:
    """Dotted module name -> source file, packages under their own name."""
    paths = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        paths[".".join(parts)] = path
    return paths


MODULES = _module_paths()


def _is_package(name: str) -> bool:
    return MODULES[name].name == "__init__.py"


def _is_type_checking(node: ast.AST) -> bool:
    test = getattr(node, "test", None)
    return isinstance(node, ast.If) and (
        (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING")
        or (isinstance(test, ast.Attribute)
            and test.attr == "TYPE_CHECKING")
    )


def _walk(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that skips ``if TYPE_CHECKING:`` bodies."""
    for child in ast.iter_child_nodes(node):
        if _is_type_checking(child):
            yield from (n for stmt in child.orelse for n in _walk_at(stmt))
            continue
        yield child
        yield from _walk(child)


def _walk_at(node: ast.AST) -> Iterator[ast.AST]:
    yield node
    yield from _walk(node)


def _imports(module: str, node: ast.AST) -> Iterator[Tuple[str, str]]:
    """``(module, name)`` pairs imported under ``node``; ``name`` is
    ``""`` for a whole-module import."""
    package = module if _is_package(module) else module.rpartition(".")[0]
    for stmt in _walk_at(node):
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                yield alias.name, ""
        elif isinstance(stmt, ast.ImportFrom):
            base = stmt.module or ""
            if stmt.level:
                anchor = package.split(".")
                anchor = anchor[:len(anchor) - stmt.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            for alias in stmt.names:
                yield base, alias.name


def _bindings(package: str) -> Dict[str, Tuple[str, str]]:
    """Names a package ``__init__`` binds by module-level from-imports."""
    tree = ast.parse(MODULES[package].read_text())
    bound = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom):
            for base, name in _imports(package, stmt):
                alias = next(a for a in stmt.names if a.name == name)
                bound[alias.asname or name] = (base, name)
    return bound


def _targets(base: str, name: str) -> List[str]:
    """Modules that importing ``name`` from ``base`` executes."""
    if base not in MODULES:
        return []  # stdlib or third party
    if name and f"{base}.{name}" in MODULES:
        return [base, f"{base}.{name}"]
    if name and _is_package(base):
        origin = _bindings(base).get(name)
        if origin is not None:
            return [base] + _targets(*origin)
    return [base]


def _edges(module: str) -> Set[str]:
    """Modules ``module`` reaches when it is reached."""
    tree = ast.parse(MODULES[module].read_text())
    pairs: List[Tuple[str, str]] = []
    if not _is_package(module):
        pairs.extend(_imports(module, tree))
    else:
        bound = _bindings(module)
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            pairs.extend(_imports(module, func))
            pairs.extend(
                bound[n.id] for n in ast.walk(func)
                if isinstance(n, ast.Name) and n.id in bound
            )
    return {target for pair in pairs for target in _targets(*pair)}


def _with_parents(module: str) -> Iterator[str]:
    parts = module.split(".")
    for i in range(1, len(parts) + 1):
        yield ".".join(parts[:i])


def reachable() -> Set[str]:
    seen: Set[str] = set()
    stack = list(ROOTS)
    while stack:
        for module in _with_parents(stack.pop()):
            if module not in seen:
                seen.add(module)
                stack.extend(_edges(module))
    return seen


def test_every_src_module_is_reachable_from_a_run():
    unreached = sorted(set(MODULES) - reachable())
    assert not unreached, (
        "modules no run reaches from repro or the experiment runner "
        "(delete them or move them into tests/): " + ", ".join(unreached)
    )


def test_guard_follows_function_bodies_and_reexports():
    """The rules above, on known edges: ``make_scheduler``'s body reaches
    the policy modules, the root's ``run`` reaches ``run_scenario``'s
    module through a function-local import, a name imported from a
    package reaches the module that defines it, and ``repro.core``'s
    bare re-exports reach nothing."""
    assert "repro.schedulers.camdn_full" in _edges("repro.schedulers")
    assert "repro.experiments.common" in _edges("repro")
    assert "repro.sim.scenario" in _targets("repro.sim", "ScenarioSpec")
    assert _edges("repro.core") == set()
