"""Byte-pair-encoding subword models with reserved-token protection."""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

from .errors import DanglingContinuation, EmptyCorpus, MalformedLine
from .fileio import atomic_write_text, read_lines

END_OF_WORD = "</w>"
CONTINUATION = "@@"

DEFAULT_NUM_MERGES = 30_000


@dataclass(frozen=True)
class BpeModel:
    merges: tuple[tuple[str, str], ...]
    vocab_side: str = "source"
    reserved: frozenset[str] = field(default_factory=frozenset)

    # cached_property writes to __dict__ directly, so it works on a frozen
    # dataclass and stays out of the generated __eq__; the rank table and
    # per-word memo (seeded with the reserved tokens, which stay whole) are
    # shared by every apply_bpe call on the same model.
    @cached_property
    def merge_ranks(self) -> dict[tuple[str, str], int]:
        return {pair: rank for rank, pair in enumerate(self.merges)}

    @cached_property
    def _segment_memo(self) -> dict[str, tuple[str, ...]]:
        return {token: (token,) for token in self.reserved}


def _word_symbols(word: str) -> tuple[str, ...]:
    return tuple(word) + (END_OF_WORD,)


def _merge_symbols(symbols: tuple[str, ...], pair: tuple[str, str]) -> tuple[str, ...]:
    first, second = pair
    last = len(symbols) - 1
    out: list[str] = []
    i = 0
    while i < last:
        symbol = symbols[i]
        if symbol == first and symbols[i + 1] == second:
            out.append(first + second)
            i += 2
        else:
            out.append(symbol)
            i += 1
    if i == last:
        out.append(symbols[last])
    return tuple(out)


def learn_bpe(
    tokenized_corpus: Iterable[str],
    num_merges: int,
    reserved: Iterable[str] = (),
    vocab_side: str = "source",
) -> BpeModel:
    """Learn up to ``num_merges`` greedy most-frequent-pair merges.

    Words are symbol sequences terminated by the end-of-word sentinel; pair
    frequencies are weighted by word frequency. Reserved tokens contribute no
    statistics. Ties on frequency break lexicographically on (left, right),
    so the model is deterministic. Stops early if no pair is left to merge.
    """
    if num_merges < 0:
        raise ValueError("num_merges must be >= 0")
    reserved_set = frozenset(reserved)
    word_freq = Counter(tokenized_corpus)
    if num_merges > 0 and not word_freq:
        raise EmptyCorpus("cannot learn merges from a corpus with no tokens")
    for token in reserved_set:
        word_freq.pop(token, None)

    words: list[tuple[str, ...]] = []
    freqs: list[int] = []
    stats: dict[tuple[str, str], int] = {}
    # index[pair] holds every word that contains pair, and possibly words that
    # no longer do: a merge only adds entries, so a stale one is skipped when
    # its word turns out not to change.
    index: dict[tuple[str, str], set[int]] = {}
    for word, freq in sorted(word_freq.items()):
        wid = len(words)
        symbols = _word_symbols(word)
        words.append(symbols)
        freqs.append(freq)
        for pair in zip(symbols, symbols[1:]):
            stats[pair] = stats.get(pair, 0) + freq
            index.setdefault(pair, set()).add(wid)

    # Max-heap with lazy invalidation: every count change pushes a fresh
    # entry, stale entries are discarded at pop time. Tuple order gives the
    # lexicographic tie-break on equal counts.
    heap: list[tuple[int, tuple[str, str]]] = [(-count, pair) for pair, count in stats.items()]
    heapq.heapify(heap)

    def pop_best() -> tuple[str, str] | None:
        while heap:
            neg_count, pair = heapq.heappop(heap)
            if stats.get(pair, 0) == -neg_count:
                return pair
        return None

    merges: list[tuple[str, str]] = []
    for _ in range(num_merges):
        best = pop_best()
        if best is None:
            break
        merges.append(best)
        merged = best[0] + best[1]
        # One delta per pair over every affected word: each word's old pairs
        # count -freq, its new pairs +freq. A pair absent from the old word
        # holds the merged symbol, so only those pairs need an index entry.
        delta: dict[tuple[str, str], int] = {}
        for wid in index.pop(best):
            old = words[wid]
            new = _merge_symbols(old, best)
            if len(new) == len(old):
                continue
            freq = freqs[wid]
            for pair in zip(old, old[1:]):
                delta[pair] = delta.get(pair, 0) - freq
            for pair in zip(new, new[1:]):
                delta[pair] = delta.get(pair, 0) + freq
                if merged in pair:
                    index.setdefault(pair, set()).add(wid)
            words[wid] = new
        # Only a pair's count after the whole merge needs a heap entry. A pair
        # whose net delta is 0 keeps its count, so its entry is still valid.
        for pair, d in delta.items():
            if d == 0:
                continue
            count = stats.get(pair, 0) + d
            if count <= 0:
                stats.pop(pair, None)
            else:
                stats[pair] = count
                heapq.heappush(heap, (-count, pair))
    return BpeModel(merges=tuple(merges), vocab_side=vocab_side, reserved=reserved_set)


def _segment(word: str, ranks: dict[tuple[str, str], int]) -> list[str]:
    if not word:
        return []
    symbols = list(_word_symbols(word))
    while len(symbols) > 1:
        pairs = set(zip(symbols, symbols[1:]))
        ranked = [(ranks[p], p) for p in pairs if p in ranks]
        if not ranked:
            break
        _, pair = min(ranked)
        symbols = list(_merge_symbols(tuple(symbols), pair))
    # Peel the end-of-word sentinel and mark continuations.
    if symbols[-1] == END_OF_WORD:
        symbols = symbols[:-1]
    elif symbols[-1].endswith(END_OF_WORD):
        symbols[-1] = symbols[-1][: -len(END_OF_WORD)]
    return [s + CONTINUATION for s in symbols[:-1]] + [symbols[-1]]


def apply_bpe(model: BpeModel, sentence: Sequence[str]) -> list[str]:
    """Segment each token by the model's merges; reserved tokens pass through
    (the memo maps each of them to itself)."""
    ranks = model.merge_ranks
    memo = model._segment_memo
    out: list[str] = []
    for token in sentence:
        pieces = memo.get(token)
        if pieces is None:
            pieces = tuple(_segment(token, ranks))
            memo[token] = pieces
        out.extend(pieces)
    return out


def revert_bpe(subwords: Sequence[str]) -> list[str]:
    """Invert apply_bpe by joining continuation pieces back into tokens."""
    out: list[str] = []
    buffer = ""
    for piece in subwords:
        if piece.endswith(CONTINUATION):
            buffer += piece[: -len(CONTINUATION)]
        else:
            out.append(buffer + piece)
            buffer = ""
    if buffer:
        raise DanglingContinuation("subword sequence ends mid-word")
    return out


# ---------------------------------------------------------------------------
# Model file: `#bpe v1 <side>` header, one merge per line, reserved trailer.
# ---------------------------------------------------------------------------


def save_model(model: BpeModel, path: str | Path) -> None:
    lines = [f"#bpe v1 {model.vocab_side}"]
    lines.extend(f"{left} {right}" for left, right in model.merges)
    lines.append("#reserved")
    lines.extend(sorted(model.reserved))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_model(path: str | Path) -> BpeModel:
    lines = read_lines(path)
    header = next(lines, (1, ""))[1]
    if not header.startswith("#bpe v1 "):
        raise MalformedLine(f"{path}:1: missing `#bpe v1 <side>` header")
    side = header[len("#bpe v1 ") :].strip()
    merges: list[tuple[str, str]] = []
    reserved: list[str] = []
    in_reserved = False
    for lineno, line in lines:
        if line == "#reserved":
            in_reserved = True
            continue
        if in_reserved:
            if line:
                reserved.append(line)
            continue
        parts = line.split(" ")
        if len(parts) != 2:
            raise MalformedLine(f"{path}:{lineno}: expected `left<SPACE>right`")
        merges.append((parts[0], parts[1]))
    return BpeModel(merges=tuple(merges), vocab_side=side, reserved=frozenset(reserved))
