r"""Every input file is read here: as lines, which end at ``\n``, ``\r\n`` or ``\r``
and nowhere else; as a word list; as line-aligned files; as tab-separated rows;
as JSON; or as chunks of bytes. Also atomic file writing."""

from __future__ import annotations

import json
import os
import stat
import tempfile
from collections import Counter
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import Iterator, TextIO

from .errors import LengthMismatch, MalformedLine

# mkstemp creates its file with mode 0600; an output gets the mode open() would
# give it instead. The umask can only be read by setting it, so it is read once,
# at import, while a program is still single-threaded.
_UMASK = os.umask(0)
os.umask(_UMASK)
_FILE_MODE = 0o666 & ~_UMASK


@contextmanager
def atomic_writer(path: str | Path) -> Iterator[TextIO]:
    """Open a same-directory temp file for writing; on a clean exit rename it
    to ``path``, on an exception unlink it and re-raise.

    A crash mid-write never leaves a partially written file at ``path``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
        os.chmod(tmp_name, _FILE_MODE)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except FileNotFoundError:
            pass
        raise


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` through ``atomic_writer``."""
    with atomic_writer(path) as handle:
        handle.write(text)
    return Path(path)


def atomic_write_lines(path: str | Path, lines: list[str]) -> Path:
    text = "\n".join(lines)
    if lines:
        text += "\n"
    return atomic_write_text(path, text)


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield (line number, line without its end) for every line of a UTF-8 file;
    a byte sequence that is not UTF-8 raises MalformedLine at ``path:line``, or
    at ``path`` alone for an input that is not a regular file, such as a pipe."""
    with open(path, encoding="utf-8") as handle:
        try:
            for lineno, raw in enumerate(handle, start=1):
                yield lineno, raw.rstrip("\n")
        except UnicodeDecodeError as exc:
            if not stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
                # Read again, a pipe gives only what is left, or waits for its writer.
                raise MalformedLine(f"{path}: not UTF-8 ({exc.reason})") from None
            # Text mode decodes ahead in chunks, so its error cannot name the
            # line: count the line ends before the first bad byte instead.
            data = Path(path).read_bytes()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as first:
                data = data[: first.start]
            ends = data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")
            raise MalformedLine(f"{path}:{ends + 1}: not UTF-8 ({exc.reason})") from None


@contextmanager
def read_binary(path: str | Path) -> Iterator[tuple[int, Iterator[bytes]]]:
    """The size of an open file and an iterator over its bytes, 64 KiB at a time."""
    with open(path, "rb") as handle:
        yield os.fstat(handle.fileno()).st_size, iter(partial(handle.read, 1 << 16), b"")


def read_word_list(path: str | Path) -> list[str]:
    """The stripped lines of a file, blank ones dropped, in file order."""
    return [word for _, line in read_lines(path) if (word := line.strip())]


def read_parallel_lines(
    *paths: str | Path, records: tuple[str | Path, int] | None = None
) -> list[list[str]]:
    """The lines of each line-aligned file; if their counts, or the sidecar count in
    ``records`` = (path, count), differ, LengthMismatch names each file and count."""
    files = [[line for _, line in read_lines(path)] for path in paths]
    counts = [*zip(paths, map(len, files)), *([records] if records else [])]
    if len({count for _, count in counts}) > 1:
        listing = ", ".join(f"{path} has {count}" for path, count in counts)
        raise LengthMismatch(f"line counts differ: {listing}")
    return files


def read_rows(path: str | Path, width: int, shape: str) -> Iterator[tuple[int, list[str]]]:
    """Yield (line number, tab-separated fields) for every line of a file; a line
    without ``width`` fields raises MalformedLine at ``path:line`` naming ``shape``."""
    for lineno, line in read_lines(path):
        fields = line.split("\t")
        if len(fields) != width:
            raise MalformedLine(f"{path}:{lineno}: expected `{shape}`")
        yield lineno, fields


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a repeated key, whose last value would silently
    replace the first, raises ValueError."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(key for key, count in Counter(key for key, _ in pairs).items() if count > 1)
        raise ValueError(f"key {key!r} is repeated")
    return obj


def _parse_json(text: str, path: str | Path, first_line: int) -> object:
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        lineno = first_line + exc.lineno - 1
        raise MalformedLine(f"{path}:{lineno}: not JSON ({exc.msg})") from None
    except (ValueError, RecursionError) as exc:  # a repeated key, a huge integer, too deep nesting
        where = f"{path}:{first_line}" if "\n" not in text else str(path)
        raise MalformedLine(f"{where}: not readable JSON ({exc})") from None


def read_json(path: str | Path) -> object:
    """The JSON document in a file; MalformedLine names the line of a syntax error."""
    return _parse_json("\n".join(line for _, line in read_lines(path)), path, 1)


def read_json_lines(path: str | Path) -> Iterator[tuple[str, dict]]:
    """Yield (``path:line``, record) for every non-blank line of a JSON Lines file;
    MalformedLine names a line that is not one JSON object."""
    for lineno, line in read_lines(path):
        if not line.strip():
            continue
        record = _parse_json(line, path, lineno)
        where = f"{path}:{lineno}"
        if not isinstance(record, dict):
            raise MalformedLine(f"{where}: expected a JSON object")
        yield where, record
