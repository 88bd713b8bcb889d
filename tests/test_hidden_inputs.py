"""No code in `src/versemt` reads an input that a manifest run cannot see. The
state file fingerprints a stage's command line and declared input files only,
so no stage may read the environment, the terminal or stdin."""

from __future__ import annotations

import ast
from pathlib import Path

import versemt

PACKAGE = Path(versemt.__file__).parent
ENVIRONMENT = {"environ", "environb", "getenv"}
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _hidden_inputs(sources: dict[str, str]) -> list[str]:
    """``module.function`` (dotted through classes and nested functions; code at a
    module's top level is ``module``) of each load or import of the environment,
    call of the builtin ``input``, and load of ``stdin``."""
    found = set()

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = f"{where}.{child.name}" if isinstance(child, _SCOPES) else where
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                name = child.id
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                name = child.attr
            else:
                name = child.name if isinstance(child, ast.alias) else None
            if (name in ENVIRONMENT or name == "stdin"
                    or isinstance(child, ast.Call) and getattr(child.func, "id", None) == "input"):
                found.add(inner)
            visit(child, inner)

    for module, source in sources.items():
        visit(ast.parse(source), module)
    return sorted(found)


def test_no_code_reads_an_input_that_a_manifest_run_cannot_fingerprint():
    sample = ("import os, sys\nfrom os import getenv\n\n\n"
              "def seeded():\n    return os.environ.get('SEED')\n\n\n"
              "class Prompt:\n    def ask(self):\n        return input() or sys.stdin.read()\n\n\n"
              "def _cmd_gl_monitor(args):\n    return sys.stdin\n")
    assert _hidden_inputs({"cli": sample}) == ["cli", "cli.Prompt.ask", "cli._cmd_gl_monitor",
                                               "cli.seeded"]
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert _hidden_inputs(sources) == []
