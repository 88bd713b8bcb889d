"""`manifest._Worker.__init__` is the one place in `src/versemt` that forks: the
manifest runner's stage workers are the only processes `versemt` starts, so no
other code may load `os.fork`, under any name."""

from __future__ import annotations

import ast
from pathlib import Path

import versemt

PACKAGE = Path(versemt.__file__).parent
FORK_SITE = "manifest._Worker.__init__"
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _fork_loads(sources: dict[str, str]) -> list[str]:
    """``module.function`` (dotted through classes and nested functions; code at a
    module's top level is ``module``) of each load of ``os.fork``, through any name
    ``os`` is imported as, or of a ``fork`` imported from ``os``, outside ``FORK_SITE``."""
    found = set()

    def visit(node: ast.AST, where: str, os_names: set[str], fork_names: set[str]) -> None:
        for child in ast.iter_child_nodes(node):
            inner = f"{where}.{child.name}" if isinstance(child, _SCOPES) else where
            loads_fork = (
                isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load)
                and child.attr == "fork" and getattr(child.value, "id", None) in os_names
                or isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load)
                and child.id in fork_names)
            if loads_fork and inner != FORK_SITE:
                found.add(inner)
            visit(child, inner, os_names, fork_names)

    for module, source in sources.items():
        tree = ast.parse(source)
        os_names, fork_names = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                os_names |= {alias.asname or alias.name for alias in node.names
                             if alias.name == "os"}
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                fork_names |= {alias.asname or alias.name for alias in node.names
                               if alias.name == "fork"}
        visit(tree, module, os_names, fork_names)
    return sorted(found)


def test_only_a_stage_worker_forks():
    sample = ("import os\nimport os as system\nfrom os import fork, fork as spawn\n\n"
              "child = fork\n\n\n"
              "def start():\n    return os.fork()\n\n\n"
              "class Pool:\n    def grow(self):\n        return system.fork() or spawn()\n\n\n"
              "class _Worker:\n    def __init__(self):\n        self.pid = os.fork()\n\n"
              "    def close(self):\n        return hasattr(os, 'fork') and os.forkpty\n")
    assert _fork_loads({"manifest": sample}) == [
        "manifest", "manifest.Pool.grow", "manifest.start"]
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert _fork_loads(sources) == []
