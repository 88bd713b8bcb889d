"""Atomic file writing helpers used by every stage that produces output, and
the shared JSON Lines reader."""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Iterator

from .errors import MalformedLine


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` via a same-directory temp file + rename.

    A crash mid-write never leaves a partially written file at ``path``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except FileNotFoundError:
            pass
        raise
    return path


def atomic_write_lines(path: str | Path, lines: list[str]) -> Path:
    text = "\n".join(lines)
    if lines:
        text += "\n"
    return atomic_write_text(path, text)


def read_json_lines(path: str | Path) -> Iterator[tuple[str, dict]]:
    """Yield (``path:line``, record) for every non-blank line of a JSON Lines file.

    Raises MalformedLine, naming the line, unless the line is one JSON object.
    """
    with Path(path).open(encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            if not raw.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                record = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise MalformedLine(f"{where}: not JSON ({exc.msg})") from None
            if not isinstance(record, dict):
                raise MalformedLine(f"{where}: expected a JSON object")
            yield where, record
