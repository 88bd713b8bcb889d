"""Parallel named-entity lexicon: seed filtering, alignment projection, trimming, lookup."""

from __future__ import annotations

import logging
import unicodedata
from collections import Counter
from pathlib import Path
from typing import Generic, Iterable, Iterator, Mapping, NamedTuple, Sequence, TypeVar

from .alignment import TranslationTable, viterbi_align
from .corpus import ParallelCorpus, get_language, registry_order, tokenize
from .errors import BadParameter, EmptyResult, MalformedLine, MissingAligner, MissingFrequency
from .errors import MissingSelectionFile, UnknownLanguage, located
from .fileio import atomic_write_lines, read_lines, read_rows, read_word_list

log = logging.getLogger(__name__)

SEED_LANGUAGE = "en"

# Projected surfaces below this vote count are rejected as one-off
# misalignments; entries whose English corpus frequency is 1 can only ever
# collect one vote, so they are accepted at a single consistent vote.
DEFAULT_MIN_VOTES = 2

P = TypeVar("P")

# Trie-node key holding a surface's payload; never equal to a token.
_PAYLOAD = object()


class LexiconEntry(NamedTuple):
    id: str
    surfaces: dict[str, str]
    frequency: dict[str, int]

    def surface(self, lang: str) -> str:
        return self.surfaces.get(lang, "")


class LexiconTable:
    def __init__(self, entries: tuple[LexiconEntry, ...], languages: tuple[str, ...]) -> None:
        self.entries = entries
        self.languages = languages
        # Per-language SurfaceIndex, built by the first lookup_rows call.
        self._indexes: dict[str, SurfaceIndex] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other: object) -> bool:  # the indexes are a cache, not part of the value
        return isinstance(other, LexiconTable) and (
            (self.entries, self.languages) == (other.entries, other.languages))


def _strip_punct(text: str) -> str:
    def is_punct(ch: str) -> bool:
        return unicodedata.category(ch).startswith("P")

    start, end = 0, len(text)
    while start < end and is_punct(text[start]):
        start += 1
    while end > start and is_punct(text[end - 1]):
        end -= 1
    return text[start:end]


def filter_seed_list(raw: Iterable[str], stoplist: Iterable[str] = ()) -> list[str]:
    """Clean candidate names into a sorted, deduplicated English seed list.

    Strips surrounding punctuation, drops stoplist words and entries shorter
    than 2 characters, and collapses case-insensitive duplicates keeping the
    capitalized form.
    """
    stop = {word.casefold() for word in stoplist}
    by_fold: dict[str, str] = {}
    for candidate in raw:
        name = _strip_punct(candidate.strip())
        if len(name) < 2 or name.casefold() in stop:
            continue
        fold = name.casefold()
        if fold not in by_fold:
            by_fold[fold] = name
        elif name[:1].isupper() and not by_fold[fold][:1].isupper():
            by_fold[fold] = name
    if not by_fold:
        raise EmptyResult("every candidate was filtered out")
    return sorted(by_fold.values())


class SurfaceIndex(Generic[P]):
    """Token trie for case-sensitive surface matches: every occurrence, or the
    leftmost-longest non-overlapping ones.

    Built from (surface tokens, payload) pairs in order; on a duplicate surface
    the first payload wins. Read-only once built, so threads may share it.
    """

    def __init__(self, surfaces: Iterable[tuple[Sequence[str], P]]) -> None:
        self._root: dict = {}
        for surface_tokens, payload in surfaces:
            if not surface_tokens:
                raise ValueError("a surface needs at least one token")
            node = self._root
            for token in surface_tokens:
                node = node.setdefault(token, {})
            node.setdefault(_PAYLOAD, payload)

    def _walk(self, tokens: Sequence[str], start: int) -> Iterator[tuple[int, P]]:
        """(end, payload) of each surface starting at `start`, shortest first."""
        node, end, n = self._root.get(tokens[start]), start + 1, len(tokens)
        while node is not None:
            if _PAYLOAD in node:
                yield end, node[_PAYLOAD]
            node = node.get(tokens[end]) if end < n else None
            end += 1

    def occurrences(self, tokens: Sequence[str]) -> list[tuple[int, int, P]]:
        """(start, end, payload) of every match, overlapping ones included,
        ordered by start and then end."""
        root = self._root
        return [
            (i, j, payload)
            for i, token in enumerate(tokens)
            if token in root  # most tokens start no surface: skip the walk
            for j, payload in self._walk(tokens, i)
        ]

    def scan(self, tokens: Sequence[str]) -> list[tuple[int, int, P]]:
        """(start, end, payload) of each leftmost-longest match, ordered by start."""
        matches: list[tuple[int, int, P]] = []
        i, n, root = 0, len(tokens), self._root
        while i < n:
            longest = None
            if tokens[i] in root:  # most tokens start no surface: skip the walk
                for j, payload in self._walk(tokens, i):
                    longest = (i, j, payload)
            if longest:
                matches.append(longest)
            i = longest[1] if longest else i + 1
        return matches


def _leftmost_spans(
    texts: Sequence[Sequence[str]], surfaces: Iterable[tuple[str, ...]]
) -> dict[tuple[str, ...], list[tuple[int, int, int]]]:
    """(verse, start, end) of each surface's leftmost non-overlapping occurrences.

    Each surface is counted on its own: after a match its count resumes past
    it, so `a a` occurs once in `a a a`, and a surface nested in another
    (`John` in `John Mark`) is still found there.
    """
    spans: dict[tuple[str, ...], list[tuple[int, int, int]]] = {key: [] for key in surfaces}
    index = SurfaceIndex((key, key) for key in spans)
    for v, tokens in enumerate(texts):
        resume: dict[tuple[str, ...], int] = {}
        for start, end, key in index.occurrences(tokens):
            if start >= resume.get(key, 0):
                spans[key].append((v, start, end))
                resume[key] = end
    return spans


def check_min_votes(min_votes: int) -> None:
    if min_votes < 1:
        raise BadParameter(f"min_votes must be >= 1, got {min_votes}")


def assemble_table(
    seed: Sequence[str],
    corpus: ParallelCorpus,
    aligners: Mapping[str, TranslationTable],
    min_votes: int = DEFAULT_MIN_VOTES,
) -> LexiconTable:
    """Project an English seed list across the corpus languages via alignment.

    For each seed entry and language, Viterbi-linked target tokens are
    collected over every verse whose English side contains the seed surface,
    decoding with the positional prior that language's table was trained with;
    the majority candidate becomes the surface once it has enough votes.
    Multi-token candidates count only when the linked tokens are contiguous.
    """
    check_min_votes(min_votes)
    if SEED_LANGUAGE not in corpus.languages:
        raise UnknownLanguage(f"corpus has no {SEED_LANGUAGE!r} side")
    target_langs = [lang for lang in corpus.languages if lang != SEED_LANGUAGE]
    missing = [lang for lang in target_langs if lang not in aligners]
    if missing:
        raise MissingAligner(f"no aligner for language(s): {', '.join(missing)}")

    en_tokens = [tokenize(text) for text in corpus.texts(SEED_LANGUAGE)]
    tgt_tokens = {lang: [tokenize(text) for text in corpus.texts(lang)] for lang in target_langs}

    surfaces = [(name, tuple(tokenize(name))) for name in sorted(set(seed))]
    spans_of = _leftmost_spans(en_tokens, (surface_tokens for _, surface_tokens in surfaces))
    en_spans = [spans_of[surface_tokens] for _, surface_tokens in surfaces]
    for (name, _), spans in zip(surfaces, en_spans):
        if not spans:
            log.warning("SeedNotInCorpus: %r has no occurrence in the English side", name)
    wanted_verses = {v for spans in en_spans for v, _, _ in spans}

    def project(lang: str) -> list[Counter[str]]:
        """Each entry's votes in `lang`, from one Viterbi pass per wanted verse.
        The table is read here and released on return: `aligners` may read each
        table on lookup, and then one table is held at a time."""
        table = aligners[lang]
        tgt = tgt_tokens[lang]
        vectors: dict[int, list[int]] = {}  # verse -> Viterbi alignment vector
        # Verses are visited by sentence shape (n, m): the table keeps the
        # position priors of the last shape decoded, so each shape's are computed once.
        for v in sorted(wanted_verses, key=lambda v: (len(en_tokens[v]), len(tgt[v]), v)):
            if not en_tokens[v] or not tgt[v]:
                continue
            vectors[v] = viterbi_align(table, (en_tokens[v], tgt[v]))
        votes: list[Counter[str]] = [Counter() for _ in en_spans]
        for entry_votes, spans in zip(votes, en_spans):
            for v, a, b in spans:
                # Target positions linked into the span, sorted and unique.
                linked = [j for j, i in enumerate(vectors.get(v, ())) if a <= i < b]
                if not linked or linked[-1] - linked[0] + 1 != len(linked):
                    continue  # no projection, or a non-contiguous one: no vote
                entry_votes[" ".join(tgt[v][linked[0] : linked[-1] + 1])] += 1
        return votes

    votes_in = {lang: project(lang) for lang in target_langs}

    chosen: list[dict[str, str]] = []  # per entry: lang -> surface
    for entry_idx, (name, _) in enumerate(surfaces):
        entry_surfaces = {SEED_LANGUAGE: name}
        required = 1 if len(en_spans[entry_idx]) == 1 else min_votes
        for lang in target_langs:
            counter = votes_in[lang][entry_idx]
            if counter:
                top = max(counter.values())
                best = min(c for c, n in counter.items() if n == top)
                if len(counter) > 1:
                    variants = ", ".join(
                        f"{c}:{n}" for c, n in sorted(counter.items(), key=lambda kv: -kv[1])
                    )
                    log.debug("%s/%s surface variants: %s", name, lang, variants)
                if top >= required:
                    entry_surfaces[lang] = best
        chosen.append(entry_surfaces)

    frequencies = [{SEED_LANGUAGE: len(spans)} for spans in en_spans]
    for lang in target_langs:
        keys = {k: tuple(tokenize(s[lang])) for k, s in enumerate(chosen) if lang in s}
        spans_of = _leftmost_spans(tgt_tokens[lang], keys.values())
        for k, surface_tokens in keys.items():
            frequencies[k][lang] = len(spans_of[surface_tokens])

    width = max(4, len(str(len(surfaces))))
    entries = tuple(
        LexiconEntry(id=f"ne{k:0{width}d}", surfaces=entry_surfaces, frequency=entry_freq)
        for k, (entry_surfaces, entry_freq) in enumerate(zip(chosen, frequencies), start=1)
    )
    languages = tuple([SEED_LANGUAGE] + target_langs)
    return LexiconTable(entries=entries, languages=languages)


def trim_table(
    table: LexiconTable,
    policy: str,
    corpus: ParallelCorpus | None = None,
    selection_file: str | Path | None = None,
) -> LexiconTable:
    """Keep everything (`none`), the frequency-1 tail (`frequency-equals-one`,
    counted in `corpus` or else read from the stored English frequencies, which
    every entry must then have), or the English surfaces listed in
    `selection_file` (`manual-selection`)."""
    if policy == "none":
        return table
    if policy == "frequency-equals-one":
        if corpus is not None:
            en_texts = [tokenize(text) for text in corpus.texts(SEED_LANGUAGE)]
            keys = [tuple(tokenize(e.surface(SEED_LANGUAGE))) for e in table.entries]
            spans_of = _leftmost_spans(en_texts, (key for key in keys if key))
            counts = [len(spans_of.get(key, ())) for key in keys]
            kept = tuple(e for e, count in zip(table.entries, counts) if count == 1)
        else:
            for entry in table.entries:
                if SEED_LANGUAGE not in entry.frequency:
                    raise MissingFrequency(f"entry {entry.id!r} has no {SEED_LANGUAGE!r} count")
            kept = tuple(e for e in table.entries if e.frequency[SEED_LANGUAGE] == 1)
        return LexiconTable(entries=kept, languages=table.languages)
    if policy == "manual-selection":
        if selection_file is None or not Path(selection_file).exists():
            raise MissingSelectionFile(f"selection file not found: {selection_file}")
        selected = set(read_word_list(selection_file))
        kept = tuple(e for e in table.entries if e.surface(SEED_LANGUAGE) in selected)
        return LexiconTable(entries=kept, languages=table.languages)
    raise ValueError(f"unknown trim policy {policy!r}")


def lookup_rows(
    table: LexiconTable, lang: str, sentence: Sequence[str]
) -> list[tuple[tuple[int, int], LexiconEntry]]:
    """Leftmost-longest, case-sensitive, non-overlapping surface matches.

    Returns (token span, entry) pairs ordered by span start; the earlier row
    wins a shared surface. Each language's index is built once per table.
    """
    if lang not in table.languages:
        raise UnknownLanguage(f"language {lang!r} not in lexicon table")
    index = table._indexes.get(lang)
    if index is None:
        built = SurfaceIndex(
            (tokenize(entry.surface(lang)), entry) for entry in table.entries if entry.surface(lang)
        )
        # Publish only a finished index; concurrent first calls keep the first.
        index = table._indexes.setdefault(lang, built)
    return [((start, end), entry) for start, end, entry in index.scan(sentence)]


# ---------------------------------------------------------------------------
# Table file: TSV with id + en + remaining languages in family-table order;
# per-language frequencies in a sibling TSV.
# ---------------------------------------------------------------------------


def save_lexicon(table: LexiconTable, path: str | Path, freq_path: str | Path | None = None) -> None:
    rest = [lang for lang in registry_order(table.languages) if lang != SEED_LANGUAGE]
    columns = [SEED_LANGUAGE] + rest
    lines = ["id\t" + "\t".join(columns)]
    for entry in table.entries:
        lines.append(entry.id + "\t" + "\t".join(entry.surface(lang) for lang in columns))
    atomic_write_lines(path, lines)
    if freq_path is not None:
        freq_lines = [
            f"{entry.id}\t{lang}\t{entry.frequency[lang]}"
            for entry in table.entries
            for lang in columns
            if lang in entry.frequency
        ]
        atomic_write_lines(freq_path, freq_lines)


def load_lexicon(path: str | Path, freq_path: str | Path | None = None) -> LexiconTable:
    lines = read_lines(path)
    header = next(lines, (1, ""))[1]
    if not header.startswith("id\t"):
        raise MalformedLine(f"{path}:1: missing `id<TAB>...` header")
    with located(f"{path}:1"):
        columns = [get_language(lang).code for lang in header.split("\t")[1:]]
    twice = [lang for k, lang in enumerate(columns) if lang in columns[:k]]
    if twice:
        raise MalformedLine(f"{path}:1: language {twice[0]!r} names two columns")
    by_id: dict[str, LexiconEntry] = {}
    for lineno, line in lines:
        fields = line.split("\t")
        if len(fields) != len(columns) + 1:
            raise MalformedLine(f"{path}:{lineno}: expected {len(columns) + 1} columns")
        if fields[0] in by_id:
            raise MalformedLine(f"{path}:{lineno}: entry id {fields[0]!r} is repeated")
        surfaces = {lang: cell for lang, cell in zip(columns, fields[1:]) if cell}
        blank = [lang for lang, cell in surfaces.items() if not cell.strip()]
        if blank:
            raise MalformedLine(f"{path}:{lineno}: whitespace-only {blank[0]} cell")
        by_id[fields[0]] = LexiconEntry(id=fields[0], surfaces=surfaces, frequency={})
    if freq_path is not None:
        line_of: dict[tuple[str, str], int] = {}
        for lineno, (entry_id, code, count) in read_rows(freq_path, 3, "id<TAB>lang<TAB>count"):
            where = f"{freq_path}:{lineno}"
            with located(where):
                lang = get_language(code).code
            try:
                frequency = int(count)
            except ValueError:
                raise MalformedLine(f"{where}: count {count!r} is not an integer") from None
            first = line_of.setdefault((entry_id, lang), lineno)
            if first != lineno:  # the last count would silently replace the first
                raise MalformedLine(f"{where}: row {entry_id!r}, {lang!r} repeats line {first}")
            if entry_id in by_id:
                by_id[entry_id].frequency[lang] = frequency
    return LexiconTable(entries=tuple(by_id.values()), languages=tuple(columns))
