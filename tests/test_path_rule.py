"""`manifest._path_parts` is the one rule for when two paths are the same: the
runner's stage graph, its check that no two stages' outputs nest and the CLI's
check that no two outputs of one command nest all compare paths through it. So
no other code in `src/versemt` may load `os.path.abspath` or `os.path.normpath`,
under any name, or a second meaning of "the same path" could come back."""

from __future__ import annotations

import ast
from pathlib import Path

import versemt

PACKAGE = Path(versemt.__file__).parent
PATH_RULE = "manifest._path_parts"
RULES = {"os.path.abspath", "os.path.normpath"}
_PATH_MODULES = {"posixpath": "os.path", "ntpath": "os.path"}
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _rule_loads(sources: dict[str, str]) -> list[str]:
    """``module.function`` (dotted through classes and nested functions; code at a
    module's top level is ``module``) of each load of a name in ``RULES`` outside
    ``PATH_RULE``, through whatever name an import binds to it or to a module that
    holds it (``posixpath`` and ``ntpath`` are ``os.path``)."""
    found = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        bound = {}  # a name an import binds -> the dotted name it stands for
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]  # `import os.path` binds `os`
                    bound[alias.asname or top] = alias.name if alias.asname else top
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                for alias in node.names:
                    bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        for name, full in bound.items():
            head, dot, rest = full.partition(".")
            bound[name] = _PATH_MODULES.get(head, head) + dot + rest

        def dotted(node: ast.AST) -> str | None:
            if isinstance(node, ast.Name):
                return bound.get(node.id)
            if isinstance(node, ast.Attribute):
                base = dotted(node.value)
                return base and f"{base}.{node.attr}"
            return None

        def visit(node: ast.AST, where: str) -> None:
            for child in ast.iter_child_nodes(node):
                inner = f"{where}.{child.name}" if isinstance(child, _SCOPES) else where
                if (isinstance(child, (ast.Name, ast.Attribute))
                        and isinstance(child.ctx, ast.Load) and dotted(child) in RULES
                        and inner != PATH_RULE):
                    found.add(inner)
                visit(child, inner)

        visit(tree, module)
    return sorted(found)


def test_only_the_path_rule_makes_paths_absolute_or_normal():
    sample = ("import os\nimport os.path as osp\nimport posixpath\nfrom os import path\n"
              "from os.path import abspath, normpath as norm\n\n"
              "KEY = abspath\n\n\n"
              "def _path_parts(p):\n    return os.path.abspath(p)\n\n\n"
              "def spell(p):\n    return osp.normpath(p), path.abspath(p), norm(p)\n\n\n"
              "class Paths:\n    def same(self, p):\n"
              "        return posixpath.abspath(p) == os.path.join(os.path.basename(p))\n")
    assert _rule_loads({"manifest": sample}) == [
        "manifest", "manifest.Paths.same", "manifest.spell"]
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert _rule_loads(sources) == []
