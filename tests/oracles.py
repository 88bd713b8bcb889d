"""Independent brute-force oracles the implementation is checked against.

These deliberately share no code with the package: dense loops, no pruning,
numpy where a reference algorithm exists.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np


def bleu_oracle(hypotheses: list[list[str]], references: list[list[str]], max_n: int = 4):
    """Corpus BLEU by direct enumeration of every n-gram occurrence."""

    def ngrams(tokens, n):
        out = []
        for i in range(len(tokens)):
            if i + n <= len(tokens):
                out.append(tuple(tokens[i : i + n]))
        return out

    precisions = []
    for n in range(1, max_n + 1):
        matched = 0
        total = 0
        for hyp, ref in zip(hypotheses, references):
            hyp_grams = ngrams(hyp, n)
            ref_grams = ngrams(ref, n)
            total += len(hyp_grams)
            for gram in set(hyp_grams):
                matched += min(hyp_grams.count(gram), ref_grams.count(gram))
        precisions.append(matched / total if total else 0.0)

    c = sum(len(h) for h in hypotheses)
    r = sum(len(t) for t in references)
    if c == 0:
        return precisions, 0.0, 0.0
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    if any(p == 0.0 for p in precisions):
        score = 0.0
    else:
        score = bp * math.exp(sum(math.log(p) for p in precisions) / max_n) * 100.0
    return precisions, bp, score


def pair_count_oracle(word_freq: dict[str, int], end_of_word: str = "</w>") -> Counter:
    """Adjacent-symbol pair frequencies over character-split words."""
    counts: Counter = Counter()
    for word, freq in word_freq.items():
        symbols = list(word) + [end_of_word]
        for left, right in zip(symbols, symbols[1:]):
            counts[(left, right)] += freq
    return counts


def best_pair_oracle(counts: Counter) -> tuple[str, str] | None:
    """Most frequent pair, ties broken lexicographically on (left, right)."""
    if not counts:
        return None
    top = max(counts.values())
    return min(pair for pair, n in counts.items() if n == top)


def model1_em_oracle(bitext: list[tuple[list[str], list[str]]], iterations: int):
    """Dense IBM Model 1 EM (no NULL, no positional prior), uniform init.

    Returns t[source][target] after ``iterations`` EM steps.
    """
    src_vocab = sorted({e for src, _ in bitext for e in src})
    tgt_vocab = sorted({f for _, tgt in bitext for f in tgt})
    t = {}
    for e in src_vocab:
        cooc = sorted({f for src, tgt in bitext if e in src for f in tgt})
        t[e] = {f: 1.0 / len(cooc) for f in cooc}
    for _ in range(iterations):
        counts = {e: {} for e in src_vocab}
        totals = {e: 0.0 for e in src_vocab}
        for src, tgt in bitext:
            for f in tgt:
                z = sum(t[e].get(f, 0.0) for e in src)
                if z == 0.0:
                    continue
                for e in src:
                    post = t[e].get(f, 0.0) / z
                    if post > 0.0:
                        counts[e][f] = counts[e].get(f, 0.0) + post
                        totals[e] += post
        for e in src_vocab:
            if totals[e] > 0.0:
                t[e] = {f: c / totals[e] for f, c in counts[e].items()}
    _ = tgt_vocab
    return t


def least_squares_oracle(xs: list[float], ys: list[float]):
    """(slope, intercept, r^2) for y = a*x + b via numpy lstsq."""
    design = np.column_stack([np.asarray(xs, dtype=float), np.ones(len(xs))])
    y = np.asarray(ys, dtype=float)
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ np.array([slope, intercept])
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r_squared


def lookup_rows_oracle(table, lang, sentence):
    """Surface matching as lookup_rows did it before the token trie: a
    first-token index rebuilt per call, candidates tried longest first."""
    by_first = {}
    for entry in table.entries:
        surface = entry.surface(lang)
        if not surface:
            continue
        surface_tokens = tuple(surface.split())
        by_first.setdefault(surface_tokens[0], []).append((surface_tokens, entry))
    for candidates in by_first.values():
        candidates.sort(key=lambda item: -len(item[0]))

    matches = []
    i = 0
    while i < len(sentence):
        for surface_tokens, entry in by_first.get(sentence[i], ()):
            end = i + len(surface_tokens)
            if end <= len(sentence) and tuple(sentence[i:end]) == surface_tokens:
                matches.append(((i, end), entry))
                i = end
                break
        else:
            i += 1
    return matches


def surface_sequence_oracle(tokens, surfaces):
    """Left-to-right, longest-first scan for decode-table surfaces."""
    ordered = sorted(surfaces, key=len, reverse=True)
    found = []
    i = 0
    while i < len(tokens):
        for surface_tokens in ordered:
            end = i + len(surface_tokens)
            if end <= len(tokens) and tuple(tokens[i:end]) == surface_tokens:
                found.append(" ".join(surface_tokens))
                i = end
                break
        else:
            i += 1
    return found


def entity_order_oracle(hyp, ref, targets):
    """(set_correct, order_correct, missing, spurious) of the target surfaces
    ``targets`` found in hyp vs ref."""
    surfaces = sorted({tuple(tgt.split()) for tgt in targets if tgt})
    hyp_seq = surface_sequence_oracle(hyp, surfaces)
    ref_seq = surface_sequence_oracle(ref, surfaces)

    def surplus(seq, other):
        remaining = Counter(seq) - Counter(other)
        out = []
        for surface in seq:
            if remaining[surface] > 0:
                remaining[surface] -= 1
                out.append(surface)
        return tuple(out)

    return (
        Counter(hyp_seq) == Counter(ref_seq),
        hyp_seq == ref_seq,
        surplus(ref_seq, hyp_seq),
        surplus(hyp_seq, ref_seq),
    )


def count_occurrences_oracle(texts, surface):
    """Non-overlapping occurrences of one surface, scanning leftmost first."""
    surface_tokens = tuple(surface.split())
    if not surface_tokens:
        return 0
    width = len(surface_tokens)
    count = 0
    for tokens in texts:
        i = 0
        while i + width <= len(tokens):
            if tuple(tokens[i : i + width]) == surface_tokens:
                count += 1
                i += width
            else:
                i += 1
    return count
