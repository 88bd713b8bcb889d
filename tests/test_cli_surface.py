"""The CLI surface, pinned: `versemt --help`, each subcommand's `--help`, and
each subcommand's usage errors for a missing required flag and for an unknown
flag, under COLUMNS=80; and every parser's actions (option strings, dest,
required, default, type, choices, metavar, help).

argparse words its output differently across Python versions, so the printed
text is compared only under Python 3.11; the actions are compared on every
version. A mismatch prints a unified diff against the record. After an intended
change to the CLI, record both files again from the repository root with

    PYTHONPATH=src python3.11 tests/test_cli_surface.py
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from versemt import cli

RECORD = Path(__file__).with_name("cli_surface")
TRANSCRIPT = RECORD / "transcript_py311.txt"
ACTIONS = RECORD / "actions.txt"
TRANSCRIPT_VERSION = (3, 11)


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    [action] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return dict(action.choices)


def _valid_argv(name: str, sub: argparse.ArgumentParser) -> list[str]:
    """The subcommand with each required flag given a value its parser accepts."""
    argv = [name]
    for action in sub._actions:
        if action.required:
            argv += [action.option_strings[0], action.choices[0] if action.choices else "1"]
    return argv


def _main(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # argparse's --help
            status = exc.code
    return (f"$ versemt {' '.join(argv)}\nexit {status}\n"
            f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}\n")


def transcript() -> str:
    """What `versemt` prints for the help and usage-error cases, under COLUMNS=80."""
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        cases = [[], ["--help"], ["frobnicate"]]
        for name, sub in _subparsers(cli.build_parser()).items():
            cases.append([name, "--help"])
            if any(action.required for action in sub._actions):
                cases.append([name])
            cases.append([*_valid_argv(name, sub), "--bogus"])
        return "".join(_main(argv) for argv in cases)


def _describe(action: argparse.Action) -> str:
    choices, subcommands = action.choices, ""
    if isinstance(action, argparse._SubParsersAction):
        choices = list(choices)
        subcommands = "".join(f"    {a.dest}: {a.help}\n" for a in action._choices_actions)
    kind = getattr(action.type, "__name__", action.type)
    return (f"  {', '.join(action.option_strings) or '(positional)'} dest={action.dest!r} "
            f"required={action.required} default={action.default!r} type={kind} "
            f"choices={choices!r} metavar={action.metavar!r} help={action.help!r}\n{subcommands}")


def _header(name: str, parser: argparse.ArgumentParser) -> str:
    defaults = {key: getattr(value, "__name__", value) for key, value in parser._defaults.items()}
    return f"{name} defaults={defaults!r}\n"


def actions() -> str:
    """Every parser's actions, one line each; the same on every Python version."""
    parser = cli.build_parser()
    lines = [_header("versemt", parser), *map(_describe, parser._actions)]
    for name, sub in _subparsers(parser).items():
        lines += [_header(f"versemt {name}", sub), *map(_describe, sub._actions)]
    return "".join(lines)


def _assert_matches(record: Path, actual: str) -> None:
    expected = record.read_text(encoding="utf-8")
    if actual != expected:
        diff = difflib.unified_diff(expected.splitlines(keepends=True),
                                    actual.splitlines(keepends=True), str(record), "now")
        pytest.fail(f"the CLI surface differs from {record.name}:\n{''.join(diff)}", pytrace=False)


def test_every_parser_declares_the_recorded_actions():
    _assert_matches(ACTIONS, actions())


@pytest.mark.skipif(sys.version_info[:2] != TRANSCRIPT_VERSION,
                    reason="argparse words help and errors differently on other versions")
def test_help_and_usage_errors_print_the_recorded_text():
    _assert_matches(TRANSCRIPT, transcript())


if __name__ == "__main__":
    if sys.version_info[:2] != TRANSCRIPT_VERSION:
        sys.exit(f"record the transcript under Python {'.'.join(map(str, TRANSCRIPT_VERSION))}")
    RECORD.mkdir(exist_ok=True)
    TRANSCRIPT.write_text(transcript(), encoding="utf-8")
    ACTIONS.write_text(actions(), encoding="utf-8")
