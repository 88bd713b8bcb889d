"""Lexical translation tables via EM with a diagonal positional prior, plus Viterbi decoding."""

from __future__ import annotations

import logging
import math
import sys
from array import array
from pathlib import Path
from typing import Iterable, Sequence

from .errors import BadParameter, EmptyBitext, EmptySentence, MalformedLine
from .fileio import atomic_writer, read_lines

log = logging.getLogger(__name__)

NULL_TOKEN = "<NULL>"

SentencePair = tuple[Sequence[str], Sequence[str]]

if sys.version_info >= (3, 12):

    def _sum_ltr(values: Iterable[float]) -> float:
        """Add left to right, as the builtin ``sum`` does before Python 3.12; from
        3.12 on it compensates float sums, which changes their last bits."""
        total = 0
        for value in values:
            total += value
        return total

else:
    _sum_ltr = sum


class DiagonalParams:
    """Positional prior: tension of the diagonal and the NULL alignment mass.

    tension = 0 makes all source positions equally likely (lexical model only);
    tension must be finite. null_prob = 0 disables NULL alignment entirely.
    """

    def __init__(self, tension: float = 4.0, null_prob: float = 0.08) -> None:
        if not (math.isfinite(tension) and tension >= 0):
            raise BadParameter(f"tension must be finite and >= 0, got {tension}")
        if not 0 <= null_prob < 1:
            raise BadParameter(f"null_prob must be in [0, 1), got {null_prob}")
        self.tension = tension
        self.null_prob = null_prob

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DiagonalParams) and (
            (self.tension, self.null_prob) == (other.tension, other.null_prob))


class TranslationTable:
    """Sparse t(target | source) probabilities for co-occurring word pairs.

    The source vocabulary includes NULL_TOKEN. ``log_likelihood_history``
    records the corpus log-likelihood observed during each E-step (one entry
    per EM iteration, non-decreasing). ``params`` is the positional prior the
    table was trained with, and the one it is decoded with.
    """

    def __init__(
        self,
        probs: dict[str, dict[str, float]],
        log_likelihood_history: tuple[float, ...] = (),
        params: DiagonalParams = DiagonalParams(),
    ) -> None:
        self.probs = probs
        self.log_likelihood_history = log_likelihood_history
        self.params = params
        # ((n, m), priors) of the last sentence shape decoded: one value, read once per call.
        self._priors: tuple[tuple[int, int], list[list[float]]] = ((0, 0), [])


def _position_priors(n: int, m: int, params: DiagonalParams) -> list[list[float]]:
    """priors[j][i] for target position j over source positions i (1-based math,
    0-based storage); index n is NULL."""
    priors: list[list[float]] = []
    for j in range(1, m + 1):
        distances = [abs(i / n - j / m) for i in range(1, n + 1)]
        deltas = [math.exp(-params.tension * d) for d in distances]
        z = _sum_ltr(deltas)
        if z < sys.float_info.min:
            # The deltas underflowed (a large tension): all to 0.0, or to
            # subnormals too coarse to normalize. Measuring distances from the
            # row's nearest source position leaves the normalized row unchanged
            # in exact arithmetic and gives the nearest delta 1.0.
            nearest = min(distances)
            deltas = [math.exp(-params.tension * (d - nearest)) for d in distances]
            z = _sum_ltr(deltas)
        row = [(1.0 - params.null_prob) * d / z for d in deltas]
        row.append(params.null_prob)
        priors.append(row)
    return priors


def check_iterations(iterations: int) -> None:
    if iterations < 0:
        raise BadParameter("iterations must be >= 0")


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
    check_iterations(iterations)
    # Intern once: every (e, f) pair of the support gets one slot, in table
    # order (rows sorted by e, each row sorted by f); row r owns the slots
    # bounds[r]:bounds[r + 1]. t[slot] holds the pair's probability, first uniform.
    support: dict[str, set[str]] = {}
    for src_tokens, tgt_tokens in bitext:
        if tgt_tokens:
            for e in (*src_tokens, NULL_TOKEN):
                support.setdefault(e, set()).update(tgt_tokens)
    sources = sorted(support)
    targets: list[str] = []
    bounds = [0]
    t = array("d")
    slot_of: dict[str, dict[str, int]] = {}
    for e in sources:
        row = sorted(support.pop(e))
        slot_of[e] = {f: len(targets) + i for i, f in enumerate(row)}
        targets.extend(row)
        t.extend([1.0 / len(row)] * len(row))
        bounds.append(len(targets))
    row_of = {e: r for r, e in enumerate(sources)}

    # Per sentence: the priors of its (n, m), the source row of each position
    # (NULL last), and per target position the slots of (e_i, f_j) over i.
    priors: dict[tuple[int, int], list[list[float]]] = {}
    sentences = []
    for src_tokens, tgt_tokens in bitext:
        n, m = len(src_tokens), len(tgt_tokens)
        if n == 0 or m == 0:
            continue
        if (n, m) not in priors:
            priors[n, m] = _position_priors(n, m, params)
        positions = (*src_tokens, NULL_TOKEN)
        rows = array("i", [row_of[e] for e in positions])
        row_slots = [slot_of[e] for e in positions]
        cells = [array("i", [slots[f] for slots in row_slots]) for f in tgt_tokens]
        sentences.append((priors[n, m], rows, cells))
    del slot_of, row_of

    # The float operations, and their order, are those of the dict-of-dicts
    # EM kept in tests/oracles.py, so every table is bit-for-bit the same.
    # That version added q = w / z to a pair's count only when w > 0; here
    # every q is added. The results agree: adding 0.0 changes no sum, and
    # z <= 1 (a prior row sums to 1 and t <= 1, up to a few ulps) makes q > 0
    # exactly when w > 0. So a pair's count is > 0 exactly when that version
    # gave it a count, and only such pairs stay in their row after the M-step;
    # `kept` records that, since c / total can underflow to 0.0 when c > 0.
    kept = bytearray(b"\x01") * len(t)
    history: list[float] = []
    for _ in range(iterations):
        counts = array("d", [0.0]) * len(t)
        totals = [0.0] * len(sources)
        log_likelihood = 0.0
        for prior_rows, rows, cells in sentences:
            for prior, slots in zip(prior_rows, cells):
                weights = [p * t[k] for p, k in zip(prior, slots)]
                z = _sum_ltr(weights)
                if z <= 0.0:
                    continue
                log_likelihood += math.log(z)
                for r, k, w in zip(rows, slots, weights):
                    q = w / z
                    counts[k] += q
                    totals[r] += q
        # Rows that got no mass keep their values.
        for r, total in enumerate(totals):
            if total > 0.0:
                for k in range(bounds[r], bounds[r + 1]):
                    c = counts[k]
                    t[k] = c / total
                    kept[k] = c > 0.0
        history.append(log_likelihood)
    probs = {
        e: {targets[k]: t[k] for k in range(bounds[r], bounds[r + 1]) if kept[k]}
        for r, e in enumerate(sources)
    }
    return TranslationTable(probs=probs, log_likelihood_history=tuple(history), params=params)


def viterbi_align(table: TranslationTable, pair: SentencePair) -> list[int]:
    """The alignment vector a: a[j] is the source index linked to target
    position j, or -1 where NULL (or no source word) is the best link, under
    ``table.params``. The table keeps the position priors of the last sentence
    shape (n, m) it decoded, so pairs of one shape in a row compute them once."""
    src_tokens, tgt_tokens = pair
    if not src_tokens or not tgt_tokens:
        raise EmptySentence("both sentences must be non-empty")
    n, m = len(src_tokens), len(tgt_tokens)
    shape, priors = table._priors
    if shape != (n, m):
        priors = _position_priors(n, m, table.params)
        table._priors = ((n, m), priors)
    # Each source row is fetched once per sentence, not once per cell.
    rows = [table.probs.get(e, {}) for e in src_tokens]
    null_row = table.probs.get(NULL_TOKEN, {})
    vector: list[int] = []
    for j, f in enumerate(tgt_tokens):
        prior = priors[j]
        best_i = -1
        best_weight = 0.0
        for i, row in enumerate(rows):
            weight = prior[i] * row.get(f, 0.0)
            if weight > best_weight:
                best_weight = weight
                best_i = i
        null_weight = prior[n] * null_row.get(f, 0.0)
        if best_i < 0 or null_weight > best_weight:
            log.debug("target token %r at %d aligned to NULL", f, j)
            best_i = -1
        vector.append(best_i)
    return vector


# ---------------------------------------------------------------------------
# Table file: sorted `source<TAB>target<TAB>prob` TSV with a parameter header.
# ---------------------------------------------------------------------------


def save_table(table: TranslationTable, path: str | Path) -> None:
    """Write the table one source row at a time, so saving holds no copy of it.
    ``iterations=`` counts its EM iterations, so a table from ``load_table`` saves 0."""
    params, iterations = table.params, len(table.log_likelihood_history)
    with atomic_writer(path) as handle:
        handle.write(f"#lambda={params.tension}\tp0={params.null_prob}\titerations={iterations}\n")
        for source_word in sorted(table.probs):
            handle.write("".join(
                f"{source_word}\t{target_word}\t{prob:.12g}\n"
                for target_word, prob in sorted(table.probs[source_word].items())
            ))


def _parse_header(line: str, where: str) -> DiagonalParams:
    if line.startswith("#lambda="):
        fields = dict(item.partition("=")[::2] for item in line[1:].split("\t"))
        try:
            return DiagonalParams(tension=float(fields["lambda"]), null_prob=float(fields["p0"]))
        except (KeyError, ValueError):
            pass
    raise MalformedLine(f"{where}: expected a `#lambda=...<TAB>p0=...` header, got {line!r}")


def load_table(path: str | Path) -> TranslationTable:
    """Read a table; ``params`` comes from its required ``#lambda=`` header."""
    probs: dict[str, dict[str, float]] = {}
    lines = read_lines(path)
    params = _parse_header(next(lines, (1, ""))[1], f"{path}:1")
    source: str | None = None  # the source of `row`: a saved table's rows come grouped by it
    for lineno, line in lines:
        if not line or line.startswith("#"):
            continue
        try:
            e, f, text = line.split("\t")
        except ValueError:
            raise MalformedLine(f"{path}:{lineno}: expected `source<TAB>target<TAB>prob`") from None
        try:
            prob = float(text)
        except ValueError:
            prob = math.nan
        if not 0.0 <= prob <= 1.0:  # also false for nan
            raise MalformedLine(f"{path}:{lineno}: probability {text!r} is not in [0, 1]")
        if e != source:  # a source seen before gets its row back, and its pairs checked
            source, row = e, probs.setdefault(e, {})
        if f in row:  # the last would silently replace the first
            raise MalformedLine(f"{path}:{lineno}: pair {e!r}, {f!r} is repeated")
        row[f] = prob
    return TranslationTable(probs=probs, params=params)
