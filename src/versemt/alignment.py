"""Lexical translation tables via EM with a diagonal positional prior, plus Viterbi decoding."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .errors import EmptyBitext, EmptySentence, MalformedLine
from .fileio import atomic_write_lines

log = logging.getLogger(__name__)

NULL_TOKEN = "<NULL>"

SentencePair = tuple[Sequence[str], Sequence[str]]


@dataclass(frozen=True)
class DiagonalParams:
    """Positional prior: tension of the diagonal and the NULL alignment mass.

    tension = 0 makes all source positions equally likely (lexical model only);
    null_prob = 0 disables NULL alignment entirely.
    """

    tension: float = 4.0
    null_prob: float = 0.08

    def __post_init__(self) -> None:
        if self.tension < 0:
            raise ValueError(f"tension must be >= 0, got {self.tension}")
        if not 0 <= self.null_prob < 1:
            raise ValueError(f"null_prob must be in [0, 1), got {self.null_prob}")


@dataclass(frozen=True)
class AlignmentLink:
    src_index: int
    tgt_index: int


@dataclass
class TranslationTable:
    """Sparse t(target | source) probabilities for co-occurring word pairs.

    The source vocabulary includes NULL_TOKEN. ``log_likelihood_history``
    records the corpus log-likelihood observed during each E-step (one entry
    per EM iteration, non-decreasing). ``params`` is the positional prior the
    table was trained with, when known.
    """

    probs: dict[str, dict[str, float]]
    log_likelihood_history: tuple[float, ...] = ()
    params: DiagonalParams | None = None

    def prob(self, source_word: str, target_word: str) -> float:
        return self.probs.get(source_word, {}).get(target_word, 0.0)


def _position_priors(n: int, m: int, params: DiagonalParams) -> list[list[float]]:
    """priors[j][i] for target position j over source positions i (1-based math,
    0-based storage); index n is NULL."""
    priors: list[list[float]] = []
    for j in range(1, m + 1):
        deltas = [math.exp(-params.tension * abs(i / n - j / m)) for i in range(1, n + 1)]
        z = sum(deltas)
        row = [(1.0 - params.null_prob) * d / z for d in deltas]
        row.append(params.null_prob)
        priors.append(row)
    return priors


def _uniform_table(bitext: Sequence[SentencePair]) -> dict[str, dict[str, float]]:
    support: dict[str, set[str]] = {}
    for src_tokens, tgt_tokens in bitext:
        for f in tgt_tokens:
            support.setdefault(NULL_TOKEN, set()).add(f)
            for e in src_tokens:
                support.setdefault(e, set()).add(f)
    return {
        e: {f: 1.0 / len(targets) for f in sorted(targets)}
        for e, targets in sorted(support.items())
    }


def train_em(
    bitext: Sequence[SentencePair],
    iterations: int,
    params: DiagonalParams = DiagonalParams(),
) -> TranslationTable:
    """Estimate t(target | source) by expectation-maximization.

    Each E-step distributes every target token's posterior over the source
    tokens plus NULL, weighting source positions by the diagonal prior; the
    M-step renormalizes expected counts. iterations=0 returns the
    uniform-initialized table.
    """
    if not bitext:
        raise EmptyBitext("bitext is empty")
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    table = _uniform_table(bitext)
    history: list[float] = []
    for _ in range(iterations):
        counts: dict[str, dict[str, float]] = {}
        totals: dict[str, float] = {}
        log_likelihood = 0.0
        for src_tokens, tgt_tokens in bitext:
            n, m = len(src_tokens), len(tgt_tokens)
            if n == 0 or m == 0:
                continue
            priors = _position_priors(n, m, params)
            sources = list(src_tokens) + [NULL_TOKEN]
            for j, f in enumerate(tgt_tokens):
                weights = [priors[j][i] * table.get(e, {}).get(f, 0.0) for i, e in enumerate(sources)]
                z = sum(weights)
                if z <= 0.0:
                    continue
                log_likelihood += math.log(z)
                for e, w in zip(sources, weights):
                    if w > 0.0:
                        counts.setdefault(e, {})
                        counts[e][f] = counts[e].get(f, 0.0) + w / z
                        totals[e] = totals.get(e, 0.0) + w / z
        for e, target_counts in counts.items():
            total = totals[e]
            table[e] = {f: c / total for f, c in sorted(target_counts.items())}
        history.append(log_likelihood)
    return TranslationTable(probs=table, log_likelihood_history=tuple(history), params=params)


def viterbi_align(
    table: TranslationTable,
    params: DiagonalParams,
    pair: SentencePair,
) -> list[AlignmentLink]:
    """Best source link (or NULL) per target position; NULL links are omitted."""
    src_tokens, tgt_tokens = pair
    if not src_tokens or not tgt_tokens:
        raise EmptySentence("both sentences must be non-empty")
    n, m = len(src_tokens), len(tgt_tokens)
    priors = _position_priors(n, m, params)
    links: list[AlignmentLink] = []
    for j, f in enumerate(tgt_tokens):
        best_i = -1
        best_weight = 0.0
        for i, e in enumerate(src_tokens):
            weight = priors[j][i] * table.prob(e, f)
            if weight > best_weight:
                best_weight = weight
                best_i = i
        null_weight = priors[j][n] * table.prob(NULL_TOKEN, f)
        if best_i < 0 or null_weight > best_weight:
            log.debug("target token %r at %d aligned to NULL", f, j)
            continue
        links.append(AlignmentLink(src_index=best_i, tgt_index=j))
    return links


# ---------------------------------------------------------------------------
# Table file: sorted `source<TAB>target<TAB>prob` TSV with a parameter header.
# ---------------------------------------------------------------------------


def save_table(
    table: TranslationTable,
    path: str | Path,
    params: DiagonalParams,
    iterations: int,
) -> None:
    lines = [f"#lambda={params.tension}\tp0={params.null_prob}\titerations={iterations}"]
    for source_word in sorted(table.probs):
        for target_word, prob in sorted(table.probs[source_word].items()):
            lines.append(f"{source_word}\t{target_word}\t{prob:.12g}")
    atomic_write_lines(path, lines)


def _parse_header(line: str, where: str) -> DiagonalParams:
    fields = dict(item.partition("=")[::2] for item in line[1:].split("\t"))
    try:
        return DiagonalParams(tension=float(fields["lambda"]), null_prob=float(fields["p0"]))
    except (KeyError, ValueError):
        raise MalformedLine(f"{where}: bad parameter header {line!r}") from None


def load_table(path: str | Path) -> TranslationTable:
    """Read a table; ``params`` comes from the ``#lambda=`` header, if present."""
    probs: dict[str, dict[str, float]] = {}
    params = None
    with Path(path).open(encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if lineno == 1 and line.startswith("#lambda="):
                params = _parse_header(line, f"{path}:1")
                continue
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise MalformedLine(f"{path}:{lineno}: expected `source<TAB>target<TAB>prob`")
            probs.setdefault(fields[0], {})[fields[1]] = float(fields[2])
    return TranslationTable(probs=probs, params=params)
