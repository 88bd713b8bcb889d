from __future__ import annotations

import json
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import versemt
from versemt.errors import LengthMismatch, MalformedLine
from versemt.fileio import (
    read_json, read_json_lines, read_lines, read_parallel_lines, read_rows, read_word_list,
)

# Characters that str.splitlines breaks at but a text-mode file does not.
NOT_LINE_ENDS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


class TestReadLines:
    def test_lines_end_only_at_newline_carriage_return_or_both(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(f"a{NOT_LINE_ENDS}b\nc\r\nd\re".encode("utf-8"))
        assert list(read_lines(path)) == [(1, f"a{NOT_LINE_ENDS}b"), (2, "c"), (3, "d"), (4, "e")]

    def test_blank_lines_are_kept(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"a\n\nb\n")
        assert list(read_lines(path)) == [(1, "a"), (2, ""), (3, "b")]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"")
        assert list(read_lines(path)) == []

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_undecodable_byte_names_its_line(self, tmp_path, end):
        path = tmp_path / "f.txt"
        path.write_bytes(end.join([b"one", "twö".encode("utf-8"), b"th\xffree", b"four"]))
        with pytest.raises(MalformedLine, match=re.escape(f"{path}:3: not UTF-8")):
            list(read_lines(path))

    def test_undecodable_byte_past_the_first_chunk(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"x" * 20_000 + b"\n" + b"y\n" * 5_000 + b"\xfe\n")
        with pytest.raises(MalformedLine, match=re.escape(f"{path}:5002:")):
            list(read_lines(path))

    def test_truncated_sequence_at_end_of_file(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"a\nb\n" + "é".encode("utf-8")[:1])
        with pytest.raises(MalformedLine, match=re.escape(f"{path}:3:")):
            list(read_lines(path))


class TestReadWordList:
    def test_lines_are_stripped_and_blank_ones_dropped_in_order(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_bytes("Shem \n\n \t\n Noah\nShem\n".encode("utf-8"))
        assert read_word_list(path) == ["Shem", "Noah", "Shem"]


class TestReadParallelLines:
    def test_equal_counts_give_each_file_its_lines(self, tmp_path):
        (tmp_path / "a").write_bytes(b"x\n\ny\n")
        (tmp_path / "b").write_bytes(b"1\n2\n3")
        assert read_parallel_lines(tmp_path / "a", tmp_path / "b", records=("d", 3)) == [
            ["x", "", "y"], ["1", "2", "3"]
        ]

    @pytest.mark.parametrize("b_count, records", [(1, None), (2, ("d.jsonl", 1))])
    def test_a_count_mismatch_names_every_file(self, tmp_path, b_count, records):
        (tmp_path / "a").write_bytes(b"x\ny\n")
        (tmp_path / "b").write_bytes(b"1\n" * b_count)
        with pytest.raises(LengthMismatch) as exc:
            read_parallel_lines(tmp_path / "a", tmp_path / "b", records=records)
        listing = [f"{tmp_path / 'a'} has 2", f"{tmp_path / 'b'} has {b_count}"]
        listing += [f"{records[0]} has {records[1]}"] if records else []
        assert str(exc.value) == "line counts differ: " + ", ".join(listing)


class TestReadRows:
    def test_fields(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_text("a\tb\nc\t\n", encoding="utf-8")
        assert list(read_rows(path, 2, "x<TAB>y")) == [(1, ["a", "b"]), (2, ["c", ""])]

    def test_wrong_field_count_names_line_and_shape(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_text("a\tb\nc\td\te\n", encoding="utf-8")
        with pytest.raises(MalformedLine, match=re.escape(f"{path}:2: expected `x<TAB>y`")):
            list(read_rows(path, 2, "x<TAB>y"))


class TestReadJson:
    def test_document(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text('{"a": [1,\r\n 2]}\n', encoding="utf-8")
        assert read_json(path) == {"a": [1, 2]}

    def test_syntax_error_names_its_line(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text('{\n  "stages": [\n    {"name": }\n', encoding="utf-8")
        with pytest.raises(MalformedLine, match=re.escape(f"{path}:3: not JSON")):
            read_json(path)

    def test_json_lines_error_names_its_line(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text('{"a": 1}\n\n{"a": \n', encoding="utf-8")
        with pytest.raises(MalformedLine, match=re.escape(f"{path}:3: not JSON")):
            list(read_json_lines(path))

    @pytest.mark.parametrize("text, where", [
        ('{"stages": [],\n "stages": []}\n', ""), ('{"a": {"b": 1, "b": 1}}\n', ":1")],
        ids=["document", "one-line"])
    def test_a_repeated_key_is_refused(self, tmp_path, text, where):
        # The last value would silently replace the first.
        path = tmp_path / "f.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(MalformedLine, match=re.escape(f"{path}{where}: not readable JSON (key")):
            read_json(path)

    def test_json_lines_keep_u2028_inside_a_record(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text(json.dumps({"a": "x\u2028y"}, ensure_ascii=False) + "\n", encoding="utf-8")
        assert [record for _, record in read_json_lines(path)] == [{"a": "x\u2028y"}]


class TestAtomicWriter:
    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o077], ids=["022", "027", "077"])
    def test_mode_follows_the_umask(self, tmp_path, umask):
        # fileio reads the umask when it is imported, so each umask needs a
        # fresh interpreter.
        created, replaced = tmp_path / "created.txt", tmp_path / "replaced.txt"
        replaced.write_text("old\n")
        os.chmod(replaced, 0o600)
        script = (
            f"import os, sys; os.umask({umask:#o}); "
            "from versemt.fileio import atomic_write_text; "
            "[atomic_write_text(path, 'new\\n') for path in sys.argv[1:]]"
        )
        src = str(Path(versemt.__file__).parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-c", script, str(created), str(replaced)],
                       check=True, env=env)
        for path in (created, replaced):
            assert path.read_text() == "new\n"
            assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path.name


def test_only_fileio_reads_text():
    """Every other module reads its input files through fileio, so they share one line rule."""
    package = Path(versemt.__file__).parent
    offenders = [
        f"{path.name}:{lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name != "fileio.py"
        for lineno, line in enumerate(path.read_text(encoding="utf-8").split("\n"), start=1)
        if re.search(r"read_text\(|\bopen\(|splitlines\(", line)
    ]
    assert offenders == []


# Loaded by `dataclasses` and by nothing the cli needs; importing them slows the
# start of every `versemt` command.
START_UP_FREE = ("ast", "dataclasses", "dis", "inspect")


def test_cli_import_loads_no_dataclasses_machinery():
    script = f"import sys, versemt.cli; print([m for m in {START_UP_FREE!r} if m in sys.modules])"
    src = str(Path(versemt.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout == "[]\n"


def test_no_module_imports_dataclasses():
    package = Path(versemt.__file__).parent
    offenders = [
        f"{path.name}:{lineno}"
        for path in sorted(package.glob("*.py"))
        for lineno, line in enumerate(path.read_text(encoding="utf-8").split("\n"), start=1)
        if re.match(r"\s*(from|import)\s+dataclasses\b", line)
    ]
    assert offenders == []
