"""Verse-aligned multilingual corpus: language registry, ingestion, alignment, splits, stats."""

from __future__ import annotations

import logging
import math
import random
import unicodedata
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from .errors import BadRatios, DuplicateLanguage, DuplicateVerseId, EmptyFile, MalformedLine
from .errors import UnknownLanguage, located
from .fileio import atomic_write_lines, read_rows

log = logging.getLogger(__name__)


class Language(NamedTuple):
    code: str
    family: str


# The 23 European languages, grouped by family, in registry order. Polish and
# Portuguese get distinct codes (pl, pt); Ukrainian is registered as uk.
_FAMILY_TABLE = (
    ("germanic", ("de", "dn", "dt", "no", "sw", "en")),
    ("slavic", ("cr", "cz", "pl", "ru", "uk", "bg")),
    ("romance", ("es", "fr", "it", "pt", "ro")),
    ("albanian", ("ab",)),
    ("hellenic", ("gk",)),
    ("italic", ("ln",)),
    ("uralic", ("fn", "hg")),
    ("celtic", ("ws",)),
)

FAMILIES = tuple(family for family, _ in _FAMILY_TABLE)

REGISTRY: dict[str, Language] = {
    code: Language(code, family) for family, codes in _FAMILY_TABLE for code in codes
}

# "ur" is accepted as a legacy spelling of Ukrainian. "po" is ambiguous
# (Polish vs Portuguese) and deliberately not aliased.
ALIASES = {"ur": "uk"}
_AMBIGUOUS = {"po": ("pl", "pt")}


def get_language(code: str) -> Language:
    """Resolve a language code against the registry (aliases accepted)."""
    code = ALIASES.get(code, code)
    if code in _AMBIGUOUS:
        options = " or ".join(_AMBIGUOUS[code])
        raise UnknownLanguage(f"language code {code!r} is ambiguous; use {options}")
    if code not in REGISTRY:
        raise UnknownLanguage(f"unknown language code {code!r}")
    return REGISTRY[code]


def languages_in_family(family: str) -> tuple[Language, ...]:
    if family not in FAMILIES:
        raise UnknownLanguage(f"unknown family {family!r}")
    return tuple(lang for lang in REGISTRY.values() if lang.family == family)


def registry_order(codes: Iterable[str]) -> list[str]:
    """Sort language codes into registry (family table) order."""
    order = {code: i for i, code in enumerate(REGISTRY)}
    resolved = [get_language(c).code for c in codes]
    return sorted(resolved, key=order.__getitem__)


def _is_separable_punct(ch: str) -> bool:
    # Connector punctuation (e.g. "_") stays attached so reserved tokens such
    # as __opt_src_fr survive re-tokenization.
    cat = unicodedata.category(ch)
    return cat.startswith("P") and cat != "Pc"


def tokenize(text: str) -> list[str]:
    """Split on Unicode whitespace, then peel leading/trailing punctuation
    into standalone tokens ("Noah," -> ["Noah", ","])."""
    tokens: list[str] = []
    for chunk in text.split():
        # Letters and digits are never punctuation, so a chunk with an
        # alphanumeric character at both ends has nothing to peel.
        if chunk[0].isalnum() and chunk[-1].isalnum():
            tokens.append(chunk)
            continue
        head: list[str] = []
        tail: list[str] = []
        while chunk and _is_separable_punct(chunk[0]):
            head.append(chunk[0])
            chunk = chunk[1:]
        while chunk and _is_separable_punct(chunk[-1]):
            tail.append(chunk[-1])
            chunk = chunk[:-1]
        tokens.extend(head)
        if chunk:
            tokens.append(chunk)
        tokens.extend(reversed(tail))
    return tokens


class ParallelCorpus:
    """The sorted verse ids, and each language's texts in the same order."""

    def __init__(self, ids: tuple[str, ...], texts: Mapping[str, tuple[str, ...]]) -> None:
        self.ids = ids
        self.languages = tuple(texts)
        self._texts = texts

    def __len__(self) -> int:
        return len(self.ids)

    def texts(self, lang: str) -> tuple[str, ...]:
        if lang not in self._texts:
            raise UnknownLanguage(f"language {lang!r} not in corpus")
        return self._texts[lang]


def ingest_language_file(path: str | Path, lang: str) -> dict[str, str]:
    """Read one registered language's verse file (see ``read_verse_file``)."""
    get_language(lang)
    return read_verse_file(path)


def read_verse_file(path: str | Path) -> dict[str, str]:
    """Read a ``verse_id<TAB>text`` TSV into a stripped id -> stripped NFC text map;
    an empty or repeated id, or no record at all, raises naming ``path``."""
    verses: dict[str, str] = {}
    for lineno, (verse_id, text) in read_rows(path, 2, "verse_id<TAB>text"):
        verse_id = verse_id.strip()
        if not verse_id:
            raise MalformedLine(f"{path}:{lineno}: empty verse id")
        if verse_id in verses:
            raise DuplicateVerseId(f"{path}:{lineno}: duplicate verse id {verse_id!r}")
        verses[verse_id] = unicodedata.normalize("NFC", text).strip()
    if not verses:
        raise EmptyFile(f"{path}: no records")
    return verses


def intersect_alignment(maps: Mapping[str, Mapping[str, str]]) -> ParallelCorpus:
    """Align per-language verse maps on the verse ids present in every map."""
    if not maps:
        raise ValueError("at least one language map is required")
    common = set.intersection(*(set(verse_map) for verse_map in maps.values()))
    if not common:
        log.warning("EmptyIntersection: no verse id is shared by all %d languages", len(maps))
    ids = tuple(sorted(common))
    return ParallelCorpus(
        ids, {lang: tuple(map(maps[lang].__getitem__, ids)) for lang in registry_order(maps)}
    )


class SplitAssignment(NamedTuple):
    train: frozenset[str]
    val: frozenset[str]
    test: frozenset[str]


def split_corpus(
    corpus: ParallelCorpus, ratios: tuple[float, float, float], seed: int
) -> SplitAssignment:
    """Deterministically partition verse ids into train/val/test by ratio.

    A seeded permutation of the sorted ids is cut at cumulative ratio
    boundaries (floor for train and val, remainder test), so sizes match the
    ratios within one verse and all languages share the split.
    """
    if len(ratios) != 3 or any(not 0 < r <= 1 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise BadRatios(f"ratios must be three positive fractions summing to 1.0, got {ratios!r}")
    ids = sorted(corpus.ids)
    rng = random.Random(seed)
    rng.shuffle(ids)
    n = len(ids)
    # Cumulative boundaries keep every part within one verse of its ratio; the
    # epsilon absorbs float noise in ratio sums (0.75 + 0.15 != 0.9 exactly).
    cut1 = math.floor(ratios[0] * n + 1e-9)
    cut2 = math.floor((ratios[0] + ratios[1]) * n + 1e-9)
    return SplitAssignment(
        train=frozenset(ids[:cut1]),
        val=frozenset(ids[cut1:cut2]),
        test=frozenset(ids[cut2:]),
    )


class CorpusStats(NamedTuple):
    verse_count: int
    token_count: int
    unique_token_count: int
    log10_token_count: float | None


def corpus_stats(corpus: ParallelCorpus, lang: str) -> CorpusStats:
    """Verse/token counts for one language; log10 token count to 2 decimals."""
    texts = corpus.texts(lang)
    total = 0
    vocab: set[str] = set()
    for text in texts:
        tokens = tokenize(text)
        total += len(tokens)
        vocab.update(tokens)
    log10 = round(math.log10(total), 2) if total > 0 else None
    return CorpusStats(
        verse_count=len(texts),
        token_count=total,
        unique_token_count=len(vocab),
        log10_token_count=log10,
    )


# ---------------------------------------------------------------------------
# On-disk formats: per-language TSV store, split TSV, stats TSV report.
# ---------------------------------------------------------------------------


def write_language_file(verses: Iterable[tuple[str, str]], path: str | Path) -> None:
    """Write ``(verse id, text)`` pairs, given in verse id order, as a verse file."""
    atomic_write_lines(path, [f"{vid}\t{text}" for vid, text in verses])


def write_corpus_dir(corpus: ParallelCorpus, directory: str | Path) -> None:
    for lang in corpus.languages:
        write_language_file(zip(corpus.ids, corpus.texts(lang)), Path(directory) / f"{lang}.tsv")


def language_files(directory: str | Path) -> dict[str, Path]:
    """Every ``<lang>.tsv`` in a directory, keyed by its registry code (``ur.tsv``
    holds ``uk``); two files of one language raise naming both."""
    path_of: dict[str, Path] = {}
    for path in sorted(Path(directory).glob("*.tsv")):
        with located(path):
            code = get_language(path.stem).code
        if code in path_of:
            raise DuplicateLanguage(f"{path_of[code]} and {path} both hold language {code!r}")
        path_of[code] = path
    return path_of


def read_corpus_dir(directory: str | Path) -> ParallelCorpus:
    """Load a directory's ``language_files`` and align them on shared verse ids."""
    path_of = language_files(directory)
    if not path_of:
        raise EmptyFile(f"{directory}: no <lang>.tsv files")
    return intersect_alignment({code: ingest_language_file(path, code)
                                for code, path in path_of.items()})


def write_split(split: SplitAssignment, path: str | Path) -> None:
    lines = []
    for part, ids in (("train", split.train), ("val", split.val), ("test", split.test)):
        lines.extend(f"{vid}\t{part}" for vid in sorted(ids))
    atomic_write_lines(path, sorted(lines))


def read_split(path: str | Path) -> SplitAssignment:
    parts: dict[str, set[str]] = {"train": set(), "val": set(), "test": set()}
    for lineno, (verse_id, part) in read_rows(path, 2, "verse_id<TAB>train|val|test"):
        if part not in parts:
            raise MalformedLine(f"{path}:{lineno}: expected `verse_id<TAB>train|val|test`")
        parts[part].add(verse_id)
    return SplitAssignment(**{part: frozenset(ids) for part, ids in parts.items()})


def write_stats_report(corpus: ParallelCorpus, path: str | Path) -> None:
    lines = ["lang\tverses\ttokens\tunique_tokens\tlog10_tokens"]
    for lang in corpus.languages:
        stats = corpus_stats(corpus, lang)
        log10 = "" if stats.log10_token_count is None else f"{stats.log10_token_count:.2f}"
        lines.append(
            f"{lang}\t{stats.verse_count}\t{stats.token_count}\t{stats.unique_token_count}\t{log10}"
        )
    atomic_write_lines(path, lines)
