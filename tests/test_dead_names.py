"""Every top-level name in `src/versemt` is used there: a function, class or
assigned name that no code loads outside its own definition is dead code."""

from __future__ import annotations

import ast
from pathlib import Path

import versemt

PACKAGE = Path(versemt.__file__).parent


def _dead_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each top-level function, class or assigned name that
    no code in ``sources`` loads outside its own definition, as a name, an
    attribute or an import; dunder names aside."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    loads: dict[str, list[int]] = {}  # a name -> the ids of the nodes that load it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.setdefault(node.id, []).append(id(node))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.setdefault(node.attr, []).append(id(node))
            elif isinstance(node, ast.alias):
                loads.setdefault(node.name, []).append(id(node))
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for target in targets for n in ast.walk(target)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
            else:
                continue
            own = {id(n) for n in ast.walk(node)}
            dead += [f"{module}.{name}" for name in names
                     if not (name.startswith("__") and name.endswith("__"))
                     and all(load in own for load in loads.get(name, ()))]
    return dead


def test_no_top_level_name_in_the_package_is_dead():
    sample = "def used():\n    return 1\n\n\ndef dead():\n    return used() + dead()\n"
    assert _dead_names({"sample": sample}) == ["sample.dead"]
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert _dead_names(sources) == []
