"""Language/family label tokens, multiway pair expansion, and addition schedules."""

from __future__ import annotations

import random
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .corpus import (
    FAMILIES,
    REGISTRY,
    ParallelCorpus,
    SplitAssignment,
    get_language,
    languages_in_family,
    registry_order,
    tokenize,
)
from .errors import EmptySplit, MalformedLine, UnknownLanguage, UnknownVerse, located
from .fileio import atomic_write_lines, atomic_writer, read_rows


class LabelMode(Enum):
    LANGUAGE_ONLY = "language-only"
    WITH_FAMILY = "language-plus-family"


def label_tokens(src: str, tgt: str, mode: LabelMode) -> list[str]:
    """Label-token prefix for one translation direction.

    With-family mode yields four tokens (family pair then language pair),
    language-only mode just the last two.
    """
    src_lang = get_language(src)
    tgt_lang = get_language(tgt)
    tokens = [f"__opt_src_{src_lang.code}", f"__opt_tgt_{tgt_lang.code}"]
    if mode is LabelMode.WITH_FAMILY:
        tokens = [
            f"__opt_family_src_{src_lang.family}",
            f"__opt_family_tgt_{tgt_lang.family}",
        ] + tokens
    return tokens


def _codes(langs: Iterable[str]) -> list[str]:
    """Registry codes of ``langs``, sorted, once each: aliases resolve before
    duplicates go, so `ur` beside `uk` is one language."""
    return sorted({get_language(c).code for c in langs})


class TrainTexts:
    """The split's train verses in each of ``langs``, ordered by verse id.

    The corpus and the split are checked here, before any line is made. A
    language's texts are tokenized and space-joined on first use and then
    shared by every direction and every step that names the language.
    """

    def __init__(self, langs: Iterable[str], corpus: ParallelCorpus, split: SplitAssignment) -> None:
        codes = _codes(langs)
        for code in codes:
            if code not in corpus.languages:
                raise UnknownLanguage(f"language {code!r} not in corpus")
        if not split.train:
            raise EmptySplit("split has no train verses")
        row_of = {vid: row for row, vid in enumerate(corpus.ids)}
        missing = sorted(split.train - row_of.keys())
        if missing:
            raise UnknownVerse(
                f"{len(missing)} train verse id(s) not in corpus: {', '.join(map(repr, missing[:5]))}"
            )
        self._corpus = corpus
        self._checked = frozenset(codes)
        self._rows = [row_of[vid] for vid in sorted(split.train)]
        self._texts: dict[str, tuple[str, ...]] = {}

    def __getitem__(self, code: str) -> tuple[str, ...]:
        texts = self._texts.get(code)
        if texts is None:
            if code not in self._checked:
                raise UnknownLanguage(f"language {code!r} was not checked against the corpus")
            column = self._corpus.texts(code)
            texts = tuple(" ".join(tokenize(column[row])) for row in self._rows)
            self._texts[code] = texts
        return texts


class LabeledExample(NamedTuple):
    """One translation direction: per train verse, a source line (the label
    prefix, then the source text) and a target line (the target text)."""

    source_lines: list[str]
    target_lines: Sequence[str]
    src: str
    tgt: str


def expand_multiway_pairs(
    langs: Iterable[str], texts: TrainTexts, mode: LabelMode
) -> Iterator[LabeledExample]:
    """Emit one block per ordered pair of distinct languages, in (src, tgt)
    order; each holds |train| lines, so a step has |train| * n(n-1) lines."""
    codes = _codes(langs)
    for src in codes:
        source_texts = texts[src]
        for tgt in codes:
            if src == tgt:
                continue
            prefix = " ".join(label_tokens(src, tgt, mode))
            source_lines = [f"{prefix} {text}" if text else prefix for text in source_texts]
            yield LabeledExample(source_lines, texts[tgt], src, tgt)


class ScheduleMode(Enum):
    FAMILY_ADDITION = "family-addition"
    SPARSE_ADDITION = "sparse-addition"


class AdditionSchedule(NamedTuple):
    mode: ScheduleMode
    steps: tuple[frozenset[str], ...]
    anchor: str


def build_addition_schedule(
    anchor: str,
    mode: ScheduleMode,
    seed: int,
) -> AdditionSchedule:
    """Construct a cumulative language schedule anchored at a target language.

    Family addition grows by whole families: the anchor's own family first,
    then each remaining family in ``FAMILIES`` order, whose first three follow
    the experiment ladder (germanic, slavic, romance). Sparse addition draws
    seeded random languages with the same step sizes, covering not-yet-spanned
    families first so the cumulative set spans all eight as early as possible.
    """
    anchor_lang = get_language(anchor)
    ordered_families = [anchor_lang.family] + [f for f in FAMILIES if f != anchor_lang.family]

    family_steps: list[frozenset[str]] = []
    cumulative: set[str] = set()
    for family in ordered_families:
        cumulative.update(lang.code for lang in languages_in_family(family))
        family_steps.append(frozenset(cumulative))

    if mode is ScheduleMode.FAMILY_ADDITION:
        return AdditionSchedule(mode=mode, steps=tuple(family_steps), anchor=anchor_lang.code)

    sizes = [len(step) for step in family_steps]
    rng = random.Random(seed)
    chosen: set[str] = {anchor_lang.code}
    sparse_steps: list[frozenset[str]] = []
    remaining = sorted(set(REGISTRY) - chosen)
    for size in sizes:
        while len(chosen) < size:
            covered = {REGISTRY[c].family for c in chosen}
            uncovered_pool = [c for c in remaining if REGISTRY[c].family not in covered]
            pool = uncovered_pool or remaining
            pick = rng.choice(pool)
            chosen.add(pick)
            remaining.remove(pick)
        sparse_steps.append(frozenset(chosen))
    return AdditionSchedule(mode=mode, steps=tuple(sparse_steps), anchor=anchor_lang.code)


# ---------------------------------------------------------------------------
# On-disk formats: schedule TSV and line-aligned bitext files.
# ---------------------------------------------------------------------------


def write_schedule(schedule: AdditionSchedule, path: str | Path) -> None:
    lines = []
    for i, step in enumerate(schedule.steps, start=1):
        lines.append(f"{i}\t{','.join(registry_order(step))}")
    atomic_write_lines(path, lines)


# A step number becomes part of an output file name (``<prefix>.step<N>.src``).
MAX_SCHEDULE_STEP = 999_999


def read_schedule_steps(path: str | Path) -> list[tuple[int, list[str]]]:
    """Each line's step number and its languages as ``_codes`` gives them."""
    steps = []
    line_of: dict[int, int] = {}
    for lineno, (number, cell) in read_rows(path, 2, "step<TAB>languages"):
        try:
            step = int(number)
        except ValueError:
            raise MalformedLine(f"{path}:{lineno}: step {number!r} is not an integer") from None
        if not 1 <= step <= MAX_SCHEDULE_STEP:
            raise MalformedLine(
                f"{path}:{lineno}: step {number!r} is not from 1 to {MAX_SCHEDULE_STEP}"
            )
        langs = cell.split(",")
        if not all(lang.strip() for lang in langs):
            raise MalformedLine(f"{path}:{lineno}: empty language code in {cell!r}")
        if line_of.setdefault(step, lineno) != lineno:  # its files would replace the first's
            raise MalformedLine(f"{path}:{lineno}: step {step} repeats line {line_of[step]}")
        with located(f"{path}:{lineno}"):
            steps.append((step, _codes(langs)))
    return steps


def write_labeled_bitext(
    blocks: Iterable[LabeledExample], src_path: str | Path, tgt_path: str | Path
) -> int:
    """Stream trainer-ready line-aligned source/target files, one write per
    block and file; returns the line count.

    Both files are replaced only once ``blocks`` is exhausted; if it raises,
    neither file is created or replaced.
    """
    count = 0
    with atomic_writer(src_path) as src_out, atomic_writer(tgt_path) as tgt_out:
        for block in blocks:
            if block.source_lines:
                src_out.write("\n".join(block.source_lines) + "\n")
                tgt_out.write("\n".join(block.target_lines) + "\n")
                count += len(block.source_lines)
    return count
