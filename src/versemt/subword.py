"""Byte-pair-encoding subword models with reserved-token protection."""

from __future__ import annotations

import heapq
import sys
from collections import Counter, defaultdict
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

from .errors import BadParameter, DanglingContinuation, EmptyCorpus, MalformedLine
from .fileio import atomic_write_text, read_lines

END_OF_WORD = "</w>"
CONTINUATION = "@@"

DEFAULT_NUM_MERGES = 30_000

# The rank of a pair no merge makes: above every real rank.
_UNRANKED = sys.maxsize


class BpeModel:
    def __init__(self, merges: tuple[tuple[str, str], ...], vocab_side: str = "source",
                 reserved: frozenset[str] = frozenset()) -> None:
        self.merges = merges
        self.vocab_side = vocab_side
        self.reserved = reserved

    # Built on first use by apply_bpe (bpe-learn only saves), shared by later
    # calls and ignored by __eq__.
    @cached_property
    def _segment_memo(self) -> _SegmentMemo:
        return _SegmentMemo(self.merges, self.reserved)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BpeModel) and (self.merges, self.vocab_side, self.reserved) == (
            other.merges, other.vocab_side, other.reserved)


def check_merges(num_merges: int) -> None:
    if num_merges < 0:
        raise BadParameter("num_merges must be >= 0")


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
    A word that holds the sentinel raises MalformedLine: in a merge its text
    would read as the end of a word, and it can make a merged pair form again.
    """
    check_merges(num_merges)
    reserved_set = frozenset(reserved)
    word_freq = Counter(tokenized_corpus)
    if num_merges > 0 and not word_freq:
        raise EmptyCorpus("cannot learn merges from a corpus with no tokens")
    for token in reserved_set:
        word_freq.pop(token, None)

    words: list[list[str]] = []
    freqs: list[int] = []
    stats: dict[tuple[str, str], int] = {}
    # index[pair] holds every word that contains pair, and possibly words that
    # no longer do: a merge only adds entries, so a stale one is skipped when
    # no site of the pair turns up in its word.
    index: defaultdict[tuple[str, str], set[int]] = defaultdict(set)
    for word, freq in sorted(word_freq.items()):
        if END_OF_WORD in word:
            raise MalformedLine(f"token {word!r} holds the end-of-word marker `{END_OF_WORD}`")
        wid = len(words)
        symbols = [*word, END_OF_WORD]
        words.append(symbols)
        freqs.append(freq)
        for pair in zip(symbols, symbols[1:]):
            stats[pair] = stats.get(pair, 0) + freq
            index[pair].add(wid)

    # Max-heap with lazy invalidation: a pair whose count rises gets a fresh
    # entry; one whose count falls keeps its old entry, too high, which goes
    # back with the true count when it reaches the top. So every live pair has
    # an entry at or above its count, and the first entry that matches its
    # pair's count is the best pair. Tuple order gives the lexicographic
    # tie-break on equal counts.
    heap: list[tuple[int, tuple[str, str]]] = [(-count, pair) for pair, count in stats.items()]
    heapq.heapify(heap)

    def pop_best() -> tuple[str, str] | None:
        while heap:
            neg_count, pair = heapq.heappop(heap)
            count = stats.get(pair, 0)
            if count == -neg_count:
                return pair
            if count:
                heapq.heappush(heap, (-count, pair))
        return None

    merges: list[tuple[str, str]] = []
    for _ in range(num_merges):
        best = pop_best()
        if best is None:
            break
        merges.append(best)
        first, second = best
        merged = first + second
        # Merge each word in place, left to right. A site changes only the
        # pairs it touches: (left, first) becomes (left, merged) and
        # (second, right) becomes (merged, right), where left may be the
        # previous site's merged symbol. One delta per pair sums these over
        # every word; only the new pairs, which hold merged, need an index entry.
        delta: dict[tuple[str, str], int] = {}
        for wid in index.pop(best):
            symbols = words[wid]
            freq = freqs[wid]
            i = 0
            last = len(symbols) - 1
            while i < last:
                if symbols[i] != first or symbols[i + 1] != second:
                    i += 1
                    continue
                last -= 1
                if i:
                    left = symbols[i - 1]
                    pair = (left, first)
                    delta[pair] = delta.get(pair, 0) - freq
                    pair = (left, merged)
                    delta[pair] = delta.get(pair, 0) + freq
                    index[pair].add(wid)
                if i < last:
                    right = symbols[i + 2]
                    pair = (second, right)
                    delta[pair] = delta.get(pair, 0) - freq
                    pair = (merged, right)
                    delta[pair] = delta.get(pair, 0) + freq
                    index[pair].add(wid)
                symbols[i : i + 2] = (merged,)
                i += 1
        # Every site of best is merged away, so its count drops to 0. Only a
        # pair's count after the whole merge matters: a pair whose net delta
        # is 0 keeps its count and its entry.
        del stats[best]
        for pair, d in delta.items():
            if d == 0:
                continue
            count = stats.get(pair, 0) + d
            if count <= 0:
                stats.pop(pair, None)
            else:
                stats[pair] = count
                if d > 0:
                    heapq.heappush(heap, (-count, pair))
    return BpeModel(merges=tuple(merges), vocab_side=vocab_side, reserved=reserved_set)


def _segment(word: str, ranks: dict[tuple[str, str], int]) -> tuple[str, ...]:
    """Greedy lowest-rank-first: merge every site of the best-ranked pair, left
    to right, then rank again. A merge changes only the ranks beside its site."""
    if not word:
        return ()
    get = ranks.get
    symbols = [*word, END_OF_WORD]
    pair_ranks = [get(pair, _UNRANKED) for pair in zip(symbols, symbols[1:])]
    rank = min(pair_ranks)
    while rank != _UNRANKED:
        # A merged symbol is longer than either part, so no pair that this
        # merge makes is the pair itself: every site it finds was in the word.
        while rank in pair_ranks:
            i = pair_ranks.index(rank)
            merged = symbols[i] + symbols.pop(i + 1)
            symbols[i] = merged
            del pair_ranks[i]
            if i:
                pair_ranks[i - 1] = get((symbols[i - 1], merged), _UNRANKED)
            if i < len(pair_ranks):
                pair_ranks[i] = get((merged, symbols[i + 1]), _UNRANKED)
        rank = min(pair_ranks, default=_UNRANKED)
    # Peel the end-of-word sentinel and mark continuations.
    if symbols[-1] == END_OF_WORD:
        symbols.pop()
    elif symbols[-1].endswith(END_OF_WORD):
        symbols[-1] = symbols[-1][: -len(END_OF_WORD)]
    return (*[s + CONTINUATION for s in symbols[:-1]], symbols[-1])


class _SegmentMemo(dict):
    """Word type -> its pieces, segmented on first lookup; seeded with the
    reserved tokens, which stay whole."""

    def __init__(self, merges: Sequence[tuple[str, str]], reserved: Iterable[str]) -> None:
        super().__init__((token, (token,)) for token in reserved)
        self.ranks = {pair: rank for rank, pair in enumerate(merges)}

    def __missing__(self, word: str) -> tuple[str, ...]:
        pieces = self[word] = _segment(word, self.ranks)
        return pieces


def apply_bpe(model: BpeModel, sentence: Sequence[str]) -> list[str]:
    """Segment each token by the model's merges; reserved tokens pass through
    (the memo maps each of them to itself)."""
    memo = model._segment_memo
    out: list[str] = []
    for token in sentence:
        out.extend(memo[token])
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
    if subwords and subwords[-1].endswith(CONTINUATION):  # also a bare "@@", which adds nothing
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
    if side not in ("source", "target"):
        raise MalformedLine(f"{path}:1: side must be `source` or `target`, not {side!r}")
    merge_lines: dict[tuple[str, str], int] = {}
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
        left, _, right = line.partition(" ")
        if not left or not right or " " in right:
            raise MalformedLine(f"{path}:{lineno}: expected `left<SPACE>right`, two non-empty symbols")
        first = merge_lines.setdefault((left, right), lineno)
        if first != lineno:
            raise MalformedLine(f"{path}:{lineno}: merge `{line}` repeats line {first}")
    return BpeModel(merges=tuple(merge_lines), vocab_side=side, reserved=frozenset(reserved))
