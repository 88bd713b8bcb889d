"""One tokenization contract: text from outside the pipeline (bitext lines, seed
names, lexicon cells, decode surfaces) becomes tokens through corpus.tokenize."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import versemt
from versemt import cli
from versemt.corpus import tokenize

# A small en/sw bitext in which every name carries punctuation: `Noah,`
# always has its comma and `St. Paul` its inner period.
EN = [
    "Noah, walked to the house.",
    "and Noah, slept in the house.",
    "and St. Paul said.",
    "St. Paul wrote letters.",
    "the man said.",
    "and the man wrote letters.",
    "the man slept.",
    "the man walked.",
]
SW = [
    "Noa, gick till huset.",
    "och Noa, sov i huset.",
    "och S:t Paulus sade.",
    "S:t Paulus skrev brev.",
    "mannen sade.",
    "och mannen skrev brev.",
    "mannen sov.",
    "mannen gick.",
]


def _write(path: Path, lines: list[str]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def _run(*argv) -> None:
    assert cli.main([str(arg) for arg in argv]) == cli.EXIT_OK


def _lexicon(tmp_path: Path, en: list[str], sw: list[str], seeds: list[str]) -> dict[str, str]:
    """align-train then lex-build through the CLI; the sw cell of each seed."""
    for lang, texts in (("en", en), ("sw", sw)):
        _write(tmp_path / f"{lang}.txt", texts)
        _write(tmp_path / "corpus" / f"{lang}.tsv", [f"v{i}\t{t}" for i, t in enumerate(texts)])
    _run("align-train", "--src", tmp_path / "en.txt", "--tgt", tmp_path / "sw.txt",
         "--iterations", 5, "--out", tmp_path / "aligners" / "sw.tsv")
    _run("lex-build", "--seed-list", _write(tmp_path / "seed.txt", seeds),
         "--corpus", tmp_path / "corpus", "--aligners", tmp_path / "aligners",
         "--out", tmp_path / "lex.tsv")
    rows = [line.split("\t") for line in (tmp_path / "lex.tsv").read_text().splitlines()]
    assert rows[0] == ["id", "en", "sw"]
    return {row[1]: row[2] for row in rows[1:]}


def test_lexicon_and_netag_never_split_on_bare_whitespace():
    """Seeds, cells and decode surfaces meet corpus tokens, so they are tokenized alike."""
    package = Path(versemt.__file__).parent
    offenders = [
        f"{name}:{lineno}"
        for name in ("lexicon.py", "netag.py")
        for lineno, line in enumerate((package / name).read_text(encoding="utf-8").split("\n"), 1)
        if re.search(r"\.split\(\)", line)
    ]
    assert offenders == []


def test_punctuated_bitext_projects_the_names(tmp_path):
    cells = _lexicon(tmp_path, EN, SW, ["Noah", "St. Paul"])
    assert cells == {"Noah": "Noa", "St. Paul": "S:t Paulus"}


def test_punctuated_bitext_trains_the_table_of_its_tokenized_form(tmp_path):
    punctuated = _lexicon(tmp_path / "raw", EN, SW, ["Noah", "St. Paul"])
    tokenized = _lexicon(
        tmp_path / "tok",
        [" ".join(tokenize(line)) for line in EN],
        [" ".join(tokenize(line)) for line in SW],
        ["Noah", "St. Paul"],
    )
    assert punctuated == tokenized
    table = Path("aligners") / "sw.tsv"
    assert (tmp_path / "raw" / table).read_bytes() == (tmp_path / "tok" / table).read_bytes()


def test_seed_with_inner_punctuation_is_tagged(tmp_path):
    cells = _lexicon(tmp_path, EN, SW, ["St. Paul"])
    assert cells == {"St. Paul": "S:t Paulus"}
    _run("tag", "--lexicon", tmp_path / "lex.tsv", "--src", "en", "--tgt", "sw",
         "--in", _write(tmp_path / "test.en", ["and St. Paul said"]),
         "--out", tmp_path / "test.tagged", "--decode", tmp_path / "decode.jsonl")
    assert (tmp_path / "test.tagged").read_text() == "and $NE1 said\n"
    record = json.loads((tmp_path / "decode.jsonl").read_text())
    assert record["map"] == {"1": {"src": "St . Paul", "tgt": "S:t Paulus"}}


@pytest.mark.parametrize(
    "lang, cell, translated, reference, restored",
    [
        ("sw", "S:t Paulus", "och $NE1 sade .", "och S:t Paulus sade.", "och S:t Paulus sade ."),
        ("de", "St. Paulus", "und $NE1 sprach .", "und St. Paulus sprach.",
         "und St . Paulus sprach ."),
    ],
)
def test_restored_cell_is_tokenized_and_matched_by_rubric(
    tmp_path, lang, cell, translated, reference, restored
):
    lex = _write(tmp_path / "lex.tsv", [f"id\ten\t{lang}", f"ne0001\tSt. Paul\t{cell}"])
    decode = tmp_path / "decode.jsonl"
    _run("tag", "--lexicon", lex, "--src", "en", "--tgt", lang,
         "--in", _write(tmp_path / "test.en", ["and St. Paul said."]),
         "--out", tmp_path / "test.tagged", "--decode", decode)
    _run("restore", "--in", _write(tmp_path / "hyp.txt", [translated]),
         "--decode", decode, "--out", tmp_path / "restored.txt")
    assert (tmp_path / "restored.txt").read_text() == restored + "\n"
    # rubric reads tokenized text: the reference goes through the tokenizer.
    ref = _write(tmp_path / "ref.txt", [" ".join(tokenize(reference))])
    _run("rubric", "--hyp", tmp_path / "restored.txt", "--ref", ref, "--decode", decode,
         "--out", tmp_path / "judgments.jsonl")
    judgment = json.loads((tmp_path / "judgments.jsonl").read_text())
    assert (judgment["set_correct"], judgment["order_correct"]) == (True, True)
