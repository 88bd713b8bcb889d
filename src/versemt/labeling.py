"""Language/family label tokens, multiway pair expansion, and addition schedules."""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator

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
from .errors import EmptySplit, MalformedLine, UnknownLanguage, UnknownVerse
from .fileio import atomic_write_lines, atomic_writer


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


@dataclass(frozen=True)
class LabeledExample:
    source_tokens: tuple[str, ...]
    target_tokens: tuple[str, ...]
    src: str
    tgt: str


def expand_multiway_pairs(
    langs: Iterable[str],
    corpus: ParallelCorpus,
    split: SplitAssignment,
    mode: LabelMode,
) -> Iterator[LabeledExample]:
    """Emit one labeled example per ordered language pair per train verse.

    Output is ordered by (src, tgt, verse id); the total is |train| * n(n-1).
    """
    # Aliases resolve before duplicates go, so `ur` beside `uk` is one language.
    codes = sorted({get_language(c).code for c in langs})
    for code in codes:
        if code not in corpus.languages:
            raise UnknownLanguage(f"language {code!r} not in corpus")
    if not split.train:
        raise EmptySplit("split has no train verses")
    by_id = {v.id: v for v in corpus.verses}
    missing = sorted(set(split.train) - by_id.keys())
    if missing:
        raise UnknownVerse(
            f"{len(missing)} train verse id(s) not in corpus: {', '.join(map(repr, missing[:5]))}"
        )
    train = [by_id[vid] for vid in sorted(split.train)]
    # Each (verse, language) is tokenized once and shared by all n-1
    # directions it takes part in on either side.
    tokens = {code: [tuple(tokenize(verse.text(code))) for verse in train] for code in codes}
    for src in codes:
        for tgt in codes:
            if src == tgt:
                continue
            labels = tuple(label_tokens(src, tgt, mode))
            for source, target in zip(tokens[src], tokens[tgt]):
                yield LabeledExample(
                    source_tokens=labels + source, target_tokens=target, src=src, tgt=tgt
                )


class ScheduleMode(Enum):
    FAMILY_ADDITION = "family-addition"
    SPARSE_ADDITION = "sparse-addition"


@dataclass(frozen=True)
class AdditionSchedule:
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


def read_schedule_steps(path: str | Path) -> list[tuple[int, list[str]]]:
    steps = []
    with Path(path).open(encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            where = f"{path}:{lineno}"
            fields = raw.rstrip("\n").split("\t")
            if len(fields) != 2:
                raise MalformedLine(f"{where}: expected `step<TAB>languages`")
            try:
                step = int(fields[0])
            except ValueError:
                raise MalformedLine(f"{where}: step {fields[0]!r} is not an integer") from None
            langs = fields[1].split(",")
            if not all(lang.strip() for lang in langs):
                raise MalformedLine(f"{where}: empty language code in {fields[1]!r}")
            steps.append((step, langs))
    return steps


def write_labeled_bitext(
    examples: Iterable[LabeledExample], src_path: str | Path, tgt_path: str | Path
) -> int:
    """Stream trainer-ready line-aligned source/target files; returns line count.

    Both files are replaced only once ``examples`` is exhausted; if it raises,
    neither file is created or replaced.
    """
    count = 0
    with atomic_writer(src_path) as src_out, atomic_writer(tgt_path) as tgt_out:
        for example in examples:
            src_out.write(" ".join(example.source_tokens) + "\n")
            tgt_out.write(" ".join(example.target_tokens) + "\n")
            count += 1
    return count
