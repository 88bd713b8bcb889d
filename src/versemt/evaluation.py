"""Corpus BLEU and the three-criterion translation accuracy rubric."""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .alignment import _sum_ltr
from .errors import BadParameter, EmptyCorpus, LengthMismatch, MalformedLine, UnresolvedJudgments
from .fileio import atomic_write_lines, read_json_lines
from .netag import DecodeTable, check_entity_order

Sentence = Sequence[str] | str

ACCURATE = "accurate"
ALMOST_ACCURATE = "almost-accurate"
INACCURATE = "inaccurate"
PENDING_HUMAN = "pending-human"

DEFAULT_MAX_N = 4


def _tokens(sentence: Sentence) -> list[str]:
    return sentence.split() if isinstance(sentence, str) else list(sentence)


def _ngram_counts(tokens: Sequence[str], max_n: int) -> Counter[tuple[str, ...]]:
    """The n-grams of every order 1..max_n in one Counter; a key's length is its order."""
    shifted = [tokens[i:] for i in range(max_n)]
    counts: Counter[tuple[str, ...]] = Counter()
    for n in range(1, max_n + 1):
        counts.update(zip(*shifted[:n]))
    return counts


class BleuReport(NamedTuple):
    precisions: tuple[float, ...]
    brevity_penalty: float
    score: float
    hypothesis_length: int
    reference_length: int


def check_max_n(max_n: int) -> None:
    if max_n < 1:
        raise BadParameter("max_n must be >= 1")


def corpus_bleu(
    hypotheses: Sequence[Sentence],
    references: Sequence[Sentence],
    max_n: int = DEFAULT_MAX_N,
) -> BleuReport:
    """Corpus-level BLEU with clipped n-gram counts and brevity penalty.

    Single reference per hypothesis; unsmoothed, so the score is 0 whenever
    any modified precision is 0.
    """
    if len(hypotheses) != len(references):
        raise LengthMismatch(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    if not hypotheses:
        raise EmptyCorpus("no sentences to score")
    check_max_n(max_n)
    hyp_tokens = [_tokens(h) for h in hypotheses]
    ref_tokens = [_tokens(r) for r in references]

    matched = [0] * max_n
    total = [0] * max_n
    for hyp, ref in zip(hyp_tokens, ref_tokens):
        ref_counts = _ngram_counts(ref, max_n)
        for gram, count in _ngram_counts(hyp, max_n).items():
            matched[len(gram) - 1] += min(count, ref_counts.get(gram, 0))
        for n in range(max_n):  # order n + 1 has len(hyp) - n n-grams
            total[n] += max(len(hyp) - n, 0)

    c = sum(len(h) for h in hyp_tokens)
    r = sum(len(t) for t in ref_tokens)
    precisions = [m / t if t > 0 else 0.0 for m, t in zip(matched, total)]

    if c == 0:
        return BleuReport(tuple(precisions), 0.0, 0.0, c, r)
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    if any(p == 0.0 for p in precisions):
        score = 0.0
    else:
        score = bp * math.exp(_sum_ltr(math.log(p) for p in precisions) / max_n) * 100.0
    return BleuReport(tuple(precisions), bp, score, c, r)


class RubricJudgment(NamedTuple):
    set_correct: bool
    order_correct: bool
    meaning_accurate: bool | None
    category: str


def judge_sentence(
    hyp: Sentence,
    ref: Sentence,
    decode: DecodeTable,
    meaning: bool | None = None,
) -> RubricJudgment:
    """Apply the entity set / entity order / meaning rubric to one sentence.

    Without the human meaning flag the category stays pending-human.
    """
    check = check_entity_order(_tokens(hyp), _tokens(ref), decode)
    return _judgment(check.set_correct, check.order_correct, meaning)


def _judgment(set_correct: bool, order_correct: bool, meaning: bool | None) -> RubricJudgment:
    """The rubric's category rules, in one place."""
    if meaning is None:
        category = PENDING_HUMAN
    elif not meaning:
        category = INACCURATE
    elif set_correct and order_correct:
        category = ACCURATE
    else:
        category = ALMOST_ACCURATE
    return RubricJudgment(set_correct, order_correct, meaning, category)


def aggregate_rubric(judgments: Sequence[RubricJudgment]) -> dict[str, float]:
    """Percentage of accurate / almost-accurate / inaccurate, to one decimal."""
    if not judgments:
        raise UnresolvedJudgments("no judgments to aggregate")
    pending = sum(1 for j in judgments if j.category == PENDING_HUMAN)
    if pending:
        raise UnresolvedJudgments(f"{pending} judgment(s) still pending the human meaning pass")
    counts = Counter(j.category for j in judgments)
    n = len(judgments)
    return {
        category: round(counts[category] * 100 / n, 1)
        for category in (ACCURATE, ALMOST_ACCURATE, INACCURATE)
    }


# ---------------------------------------------------------------------------
# Report and rubric serialization.
# ---------------------------------------------------------------------------


def write_bleu_report(report: BleuReport, path: str | Path) -> None:
    header = "\t".join(
        ["score", "bp", "hyp_len", "ref_len"]
        + [f"p{n}" for n in range(1, len(report.precisions) + 1)]
    )
    row = "\t".join(
        [f"{report.score:.4f}", f"{report.brevity_penalty:.6f}",
         str(report.hypothesis_length), str(report.reference_length)]
        + [f"{p:.6f}" for p in report.precisions]
    )
    atomic_write_lines(path, [header, row])


def format_bleu_summary(report: BleuReport) -> str:
    precisions = "/".join(f"{100 * p:.1f}" for p in report.precisions)
    return (
        f"BLEU = {report.score:.2f}, {precisions} "
        f"(BP={report.brevity_penalty:.3f}, hyp_len={report.hypothesis_length}, "
        f"ref_len={report.reference_length})"
    )


def write_judgments(judgments: Iterable[RubricJudgment], path: str | Path) -> None:
    """JSON Lines export; ``meaning`` stays null until the human pass fills it."""
    lines = []
    for j in judgments:
        lines.append(
            json.dumps(
                {
                    "set_correct": j.set_correct,
                    "order_correct": j.order_correct,
                    "meaning": j.meaning_accurate,
                },
                sort_keys=True,
            )
        )
    atomic_write_lines(path, lines)


def read_judgments(path: str | Path) -> list[RubricJudgment]:
    judgments = []
    for where, record in read_json_lines(path):
        set_correct, order_correct = record.get("set_correct"), record.get("order_correct")
        meaning = record.get("meaning")
        if not (isinstance(set_correct, bool) and isinstance(order_correct, bool)):
            raise MalformedLine(f"{where}: `set_correct` and `order_correct` must be true or false")
        if not (meaning is None or isinstance(meaning, bool)):
            raise MalformedLine(f"{where}: `meaning` must be true, false or null")
        judgments.append(_judgment(set_correct, order_correct, meaning))
    return judgments
