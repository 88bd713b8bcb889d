"""Byte-pair-encoding subword models with reserved-token protection."""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

from .errors import DanglingContinuation, EmptyCorpus, MalformedLine
from .fileio import atomic_write_text

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
    # per-word memo are shared by every apply_bpe call on the same model.
    @cached_property
    def merge_ranks(self) -> dict[tuple[str, str], int]:
        return {pair: rank for rank, pair in enumerate(self.merges)}

    @cached_property
    def _segment_memo(self) -> dict[str, tuple[str, ...]]:
        return {}


def _word_symbols(word: str) -> tuple[str, ...]:
    return tuple(word) + (END_OF_WORD,)


def _pair_counts(symbols: Sequence[str]) -> Counter[tuple[str, str]]:
    return Counter(zip(symbols, symbols[1:]))


def _merge_symbols(symbols: tuple[str, ...], pair: tuple[str, str]) -> tuple[str, ...]:
    merged = pair[0] + pair[1]
    out: list[str] = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and symbols[i] == pair[0] and symbols[i + 1] == pair[1]:
            out.append(merged)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
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
    word_freq: Counter[str] = Counter()
    saw_token = False
    for token in tokenized_corpus:
        saw_token = True
        if token not in reserved_set:
            word_freq[token] += 1
    if num_merges > 0 and not saw_token:
        raise EmptyCorpus("cannot learn merges from a corpus with no tokens")

    words: list[tuple[str, ...]] = []
    freqs: list[int] = []
    stats: Counter[tuple[str, str]] = Counter()
    index: dict[tuple[str, str], set[int]] = {}
    for word, freq in sorted(word_freq.items()):
        wid = len(words)
        symbols = _word_symbols(word)
        words.append(symbols)
        freqs.append(freq)
        for pair, n in _pair_counts(symbols).items():
            stats[pair] += n * freq
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
        delta: Counter[tuple[str, str]] = Counter()
        for wid in sorted(index.get(best, ())):
            old = words[wid]
            new = _merge_symbols(old, best)
            freq = freqs[wid]
            for pair, n in _pair_counts(old).items():
                delta[pair] -= n * freq
                index[pair].discard(wid)
            for pair, n in _pair_counts(new).items():
                delta[pair] += n * freq
                index.setdefault(pair, set()).add(wid)
            words[wid] = new
        # Only a pair's count after the whole merge needs a heap entry. A pair
        # whose net delta is 0 keeps its count, so its entry is still valid.
        for pair, d in delta.items():
            if d == 0:
                continue
            count = stats[pair] + d
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
    """Segment each token by the model's merges; reserved tokens pass through."""
    ranks = model.merge_ranks
    memo = model._segment_memo
    out: list[str] = []
    for token in sentence:
        if token in model.reserved:
            out.append(token)
            continue
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
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("#bpe v1 "):
        raise MalformedLine(f"{path}: missing `#bpe v1 <side>` header")
    side = lines[0][len("#bpe v1 ") :].strip()
    merges: list[tuple[str, str]] = []
    reserved: list[str] = []
    in_reserved = False
    for lineno, line in enumerate(lines[1:], start=2):
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
