"""Order-preserving named-entity placeholders: tagging, restoration, order checking."""

from __future__ import annotations

import json
import logging
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import tokenize
from .errors import MalformedLine, UnknownLanguage, UnknownPlaceholder
from .fileio import atomic_write_lines, read_json_lines
from .lexicon import LexiconTable, SurfaceIndex, lookup_rows

log = logging.getLogger(__name__)

PLACEHOLDER_RE = re.compile(r"^\$NE([1-9][0-9]*)$")


def placeholder(index: int) -> str:
    return f"$NE{index}"


@dataclass(frozen=True)
class TaggedSentence:
    tokens: tuple[str, ...]
    placeholder_count: int

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


@dataclass
class DecodeTable:
    """Placeholder index -> (source surface, target surface)."""

    mapping: dict[int, tuple[str, str]]

    def target(self, index: int) -> str:
        if index not in self.mapping:
            raise UnknownPlaceholder(f"$NE{index} has no decode entry")
        return self.mapping[index][1]


def _replace_spans(
    tokens: Sequence[str], spans: Sequence[tuple[tuple[int, int], int]]
) -> tuple[str, ...]:
    """Replace each (start, end) token span with its numbered placeholder."""
    out = list(tokens)
    for (start, end), index in sorted(spans, reverse=True):
        out[start:end] = [placeholder(index)]
    return tuple(out)


def _tag(
    src: Sequence[str],
    tgt: Sequence[str] | None,
    table: LexiconTable,
    src_lang: str,
    tgt_lang: str,
) -> tuple[TaggedSentence, list[tuple[tuple[int, int], int]], DecodeTable]:
    """(tagged source, target spans, decode table): the source matches that
    have a `tgt_lang` surface become $NE1..$NEk in order of appearance.

    With a target sentence, each match also takes the leftmost occurrence of
    its target surface that overlaps none taken before; a match whose surface
    has no such occurrence stays untagged on both sides.
    """
    if tgt_lang not in table.languages:
        raise UnknownLanguage(f"language {tgt_lang!r} not in lexicon table")
    matches: list[tuple[tuple[int, int], str, tuple[str, ...]]] = []
    for span, entry in lookup_rows(table, src_lang, src):
        tgt_surface = entry.surface(tgt_lang)
        if not tgt_surface:
            log.debug("entry %s has no %s surface; left untagged", entry.id, tgt_lang)
            continue
        key = tuple(tokenize(tgt_surface)) if tgt is not None else ()
        matches.append((span, tgt_surface, key))
    free: dict[tuple[str, ...], list[range]] = {}
    if tgt is not None:
        keys = dict.fromkeys(key for _, _, key in matches if key)
        tgt_index = SurfaceIndex((key, key) for key in keys)
        for start, end, key in tgt_index.occurrences(tgt):
            free.setdefault(key, []).append(range(start, end))

    mapping: dict[int, tuple[str, str]] = {}
    src_spans: list[tuple[tuple[int, int], int]] = []
    tgt_spans: list[tuple[tuple[int, int], int]] = []
    consumed: set[int] = set()
    for span, tgt_surface, key in matches:
        index = len(mapping) + 1
        if tgt is not None:
            tgt_span = next((r for r in free.get(key, ()) if consumed.isdisjoint(r)), None)
            if tgt_span is None:
                log.debug("surface %r not free in target; left untagged", tgt_surface)
                continue
            consumed.update(tgt_span)
            tgt_spans.append(((tgt_span.start, tgt_span.stop), index))
        mapping[index] = (" ".join(src[span[0] : span[1]]), tgt_surface)
        src_spans.append((span, index))
    tagged_src = TaggedSentence(_replace_spans(src, src_spans), len(mapping))
    return tagged_src, tgt_spans, DecodeTable(mapping)


def tag_training_pair(
    src: Sequence[str],
    tgt: Sequence[str],
    table: LexiconTable,
    src_lang: str,
    tgt_lang: str,
) -> tuple[TaggedSentence, TaggedSentence, DecodeTable]:
    """Tag entities as $NE1..$NEk on both sides of a training pair.

    Source matches are numbered in order of appearance; each consumes the
    leftmost unconsumed occurrence of its target surface. Matches whose target
    surface is missing from the table or the target sentence stay untagged on
    both sides, and the surviving indices are renumbered densely.
    """
    tagged_src, tgt_spans, decode = _tag(src, tgt, table, src_lang, tgt_lang)
    tagged_tgt = TaggedSentence(_replace_spans(tgt, tgt_spans), tagged_src.placeholder_count)
    return tagged_src, tagged_tgt, decode


def tag_source(
    src: Sequence[str],
    table: LexiconTable,
    src_lang: str,
    tgt_lang: str,
) -> tuple[TaggedSentence, DecodeTable]:
    """Tag a source sentence for translation; decode targets come from the table."""
    tagged_src, _, decode = _tag(src, None, table, src_lang, tgt_lang)
    return tagged_src, decode


def restore_placeholders(translated: Sequence[str], decode: DecodeTable) -> list[str]:
    """Replace every $NEi token with the tokens of its decode-table target surface."""
    out: list[str] = []
    for token in translated:
        match = PLACEHOLDER_RE.match(token)
        if match:
            out.extend(tokenize(decode.target(int(match.group(1)))))
        else:
            out.append(token)
    return out


@dataclass(frozen=True)
class EntityJudgment:
    set_correct: bool
    order_correct: bool
    missing: tuple[str, ...]
    spurious: tuple[str, ...]


def _ordered_diff(seq: list[str], deficit: Counter[str]) -> tuple[str, ...]:
    remaining = Counter(deficit)
    out: list[str] = []
    for surface in seq:
        if remaining[surface] > 0:
            remaining[surface] -= 1
            out.append(surface)
    return tuple(out)


def check_entity_order(
    hyp: Sequence[str], ref: Sequence[str], decode: DecodeTable
) -> EntityJudgment:
    """Compare the multiset and ordering of decode-table entities in hyp vs ref."""
    surfaces = [tokenize(tgt) for _, tgt in decode.mapping.values()]
    index = SurfaceIndex((tokens, " ".join(tokens)) for tokens in surfaces if tokens)
    hyp_seq = [surface for _, _, surface in index.scan(hyp)]
    ref_seq = [surface for _, _, surface in index.scan(ref)]
    hyp_counts = Counter(hyp_seq)
    ref_counts = Counter(ref_seq)
    return EntityJudgment(
        set_correct=hyp_counts == ref_counts,
        order_correct=hyp_seq == ref_seq,
        missing=_ordered_diff(ref_seq, ref_counts - hyp_counts),
        spurious=_ordered_diff(hyp_seq, hyp_counts - ref_counts),
    )


# ---------------------------------------------------------------------------
# Decode sidecar: JSON Lines, one record per sentence.
# ---------------------------------------------------------------------------


def write_decode_sidecar(tables: Iterable[DecodeTable], path: str | Path) -> None:
    lines = []
    for lineno, decode in enumerate(tables, start=1):
        record = {
            "line": lineno,
            "map": {
                str(i): {"src": src, "tgt": tgt} for i, (src, tgt) in sorted(decode.mapping.items())
            },
        }
        lines.append(json.dumps(record, ensure_ascii=False, sort_keys=True))
    atomic_write_lines(path, lines)


def read_decode_sidecar(path: str | Path) -> list[DecodeTable]:
    """Read a sidecar; MalformedLine names the line of any record that is not
    ``{"line": <its 1-based position>, "map": {"<index>": {"src": str, "tgt": str}, ...}}``."""
    tables: list[DecodeTable] = []
    for position, (where, record) in enumerate(read_json_lines(path), start=1):
        line = record.get("line")
        if type(line) is not int or line != position:
            raise MalformedLine(f"{where}: `line` must be {position} (the record's position)")
        cells = record.get("map")
        if not isinstance(cells, dict):
            raise MalformedLine(f"{where}: `map` must be an object")
        mapping: dict[int, tuple[str, str]] = {}
        for key, cell in cells.items():
            if not PLACEHOLDER_RE.fullmatch(f"$NE{key}"):
                raise MalformedLine(f"{where}: map key {key!r} is not a placeholder index")
            src, tgt = (cell.get(k) if isinstance(cell, dict) else None for k in ("src", "tgt"))
            if not (isinstance(src, str) and isinstance(tgt, str)):
                raise MalformedLine(f"{where}: map entry {key} needs string `src` and `tgt`")
            mapping[int(key)] = (src, tgt)
        tables.append(DecodeTable(mapping))
    return tables
