from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from versemt.errors import EmptyCorpus, LengthMismatch, UnresolvedJudgments
from versemt.evaluation import (
    ACCURATE,
    ALMOST_ACCURATE,
    INACCURATE,
    PENDING_HUMAN,
    aggregate_rubric,
    corpus_bleu,
    format_bleu_summary,
    judge_sentence,
    read_judgments,
    write_bleu_report,
    write_judgments,
)

from oracles import bleu_oracle


def _random_corpus(rng: random.Random, sentences: int, max_len: int = 12):
    vocab = ["the", "cat", "sat", "on", "a", "mat", "dog", "ran", "far"]
    hyps, refs = [], []
    for _ in range(sentences):
        hyps.append([rng.choice(vocab) for _ in range(rng.randint(1, max_len))])
        refs.append([rng.choice(vocab) for _ in range(rng.randint(1, max_len))])
    return hyps, refs


@st.composite
def _small_vocabulary_corpora(draw):
    """Corpora over 1-4 words, so n-grams repeat and clipping matters; sentences
    may be empty; with max_n from 1 to 5."""
    sentence = st.lists(st.sampled_from("abcd"[: draw(st.integers(1, 4))]), max_size=10)
    pairs = draw(st.lists(st.tuples(sentence, sentence), min_size=1, max_size=8))
    return [hyp for hyp, _ in pairs], [ref for _, ref in pairs], draw(st.integers(1, 5))


class TestBleu:
    def test_identical_scores_100(self):
        sentences = [["the", "cat", "sat", "on", "the", "mat"], ["a", "dog", "ran"]]
        report = corpus_bleu(sentences, sentences)
        assert report.score == 100.0
        assert report.brevity_penalty == 1.0

    def test_the_the_the_clipping(self):
        report = corpus_bleu(["the the the the the the the"], ["the cat is on the mat"])
        assert report.precisions[0] == pytest.approx(2 / 7)

    def test_no_fourgram_match_scores_zero(self):
        report = corpus_bleu(["the cat sat down"], ["a dog ran far away"])
        assert report.score == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            corpus_bleu(["a"], ["a", "b"])

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            corpus_bleu([], [])

    def test_empty_hypothesis_scores_zero(self):
        report = corpus_bleu([""], ["the cat"])
        assert report.score == 0.0

    def test_matches_oracle_on_random_corpora(self):
        rng = random.Random(123)
        for _ in range(60):
            hyps, refs = _random_corpus(rng, rng.randint(1, 10))
            report = corpus_bleu(hyps, refs)
            precisions, bp, score = bleu_oracle(hyps, refs)
            assert report.score == pytest.approx(score, abs=1e-9)
            assert report.brevity_penalty == pytest.approx(bp, abs=1e-9)
            for mine, oracle in zip(report.precisions, precisions):
                assert mine == pytest.approx(oracle, abs=1e-9)

    @given(corpus=_small_vocabulary_corpora())
    @settings(max_examples=300)
    def test_precisions_and_brevity_penalty_equal_the_oracle_exactly(self, corpus):
        hyps, refs, max_n = corpus
        report = corpus_bleu(hyps, refs, max_n)
        precisions, bp, score = bleu_oracle(hyps, refs, max_n)
        assert report.precisions == tuple(precisions)
        assert report.brevity_penalty == bp
        # The oracle adds the log precisions with the builtin sum, which
        # compensates float sums from Python 3.12 on.
        assert report.score == pytest.approx(score, rel=1e-12, abs=0.0)

    @given(seed=st.integers(0, 2_000))
    @settings(max_examples=40)
    def test_permutation_invariant(self, seed):
        rng = random.Random(seed)
        hyps, refs = _random_corpus(rng, 6)
        base = corpus_bleu(hyps, refs)
        order = list(range(6))
        rng.shuffle(order)
        shuffled = corpus_bleu([hyps[i] for i in order], [refs[i] for i in order])
        assert shuffled.score == pytest.approx(base.score, abs=1e-12)

    @given(seed=st.integers(0, 2_000))
    @settings(max_examples=40)
    def test_score_bounds(self, seed):
        rng = random.Random(seed)
        hyps, refs = _random_corpus(rng, 4)
        report = corpus_bleu(hyps, refs)
        assert 0.0 <= report.score <= 100.0
        assert 0.0 <= report.brevity_penalty <= 1.0


DECODE = {1: ("Noah", "Noa"), 2: ("Shem", "Sem")}


class TestJudge:
    def test_all_pass(self):
        judgment = judge_sentence("Noa och Sem", "Noa och Sem", DECODE, meaning=True)
        assert judgment.category == ACCURATE

    def test_missing_entity_meaning_ok(self):
        judgment = judge_sentence("Noa gick", "Noa och Sem gick", DECODE, meaning=True)
        assert not judgment.set_correct
        assert judgment.category == ALMOST_ACCURATE

    def test_wrong_position_meaning_ok(self):
        judgment = judge_sentence("Sem och Noa", "Noa och Sem", DECODE, meaning=True)
        assert judgment.set_correct and not judgment.order_correct
        assert judgment.category == ALMOST_ACCURATE

    def test_meaning_false(self):
        judgment = judge_sentence("Noa och Sem", "Noa och Sem", DECODE, meaning=False)
        assert judgment.category == INACCURATE

    def test_meaning_missing_pending(self):
        judgment = judge_sentence("Noa", "Noa", DECODE)
        assert judgment.category == PENDING_HUMAN


class TestAggregate:
    def _judgments(self, accurate: int, almost: int, inaccurate: int):
        out = []
        out += [judge_sentence("Noa", "Noa", DECODE, meaning=True)] * accurate
        out += [judge_sentence("Sem", "Noa", DECODE, meaning=True)] * almost
        out += [judge_sentence("Noa", "Noa", DECODE, meaning=False)] * inaccurate
        return out

    def test_reported_percentages(self):
        percentages = aggregate_rubric(self._judgments(194, 108, 18))
        assert percentages == {ACCURATE: 60.6, ALMOST_ACCURATE: 33.8, INACCURATE: 5.6}

    def test_all_accurate(self):
        percentages = aggregate_rubric(self._judgments(5, 0, 0))
        assert percentages == {ACCURATE: 100.0, ALMOST_ACCURATE: 0.0, INACCURATE: 0.0}

    def test_one_each(self):
        percentages = aggregate_rubric(self._judgments(1, 1, 1))
        assert percentages == {ACCURATE: 33.3, ALMOST_ACCURATE: 33.3, INACCURATE: 33.3}

    def test_pending_rejected(self):
        with pytest.raises(UnresolvedJudgments):
            aggregate_rubric([judge_sentence("Noa", "Noa", DECODE)])

    def test_empty_rejected(self):
        with pytest.raises(UnresolvedJudgments):
            aggregate_rubric([])

    @given(
        counts=st.tuples(st.integers(0, 50), st.integers(0, 50), st.integers(0, 50)).filter(
            lambda c: sum(c) > 0
        )
    )
    @settings(max_examples=60)
    def test_percentages_sum_to_100(self, counts):
        percentages = aggregate_rubric(self._judgments(*counts))
        assert sum(percentages.values()) == pytest.approx(100.0, abs=0.1 + 1e-9)


class TestEvaluationIo:
    def test_bleu_report_file(self, tmp_path):
        report = corpus_bleu(["the cat sat on a mat"], ["the cat sat on a mat"])
        write_bleu_report(report, tmp_path / "report.tsv")
        lines = (tmp_path / "report.tsv").read_text().splitlines()
        assert lines[0].split("\t")[:2] == ["score", "bp"]
        assert lines[1].split("\t")[0] == "100.0000"

    def test_summary_format(self):
        report = corpus_bleu(["a b c d"], ["a b c d"])
        summary = format_bleu_summary(report)
        assert summary.startswith("BLEU = 100.00")

    def test_judgments_roundtrip(self, tmp_path):
        judgments = [
            judge_sentence("Noa", "Noa", DECODE, meaning=True),
            judge_sentence("Sem", "Noa", DECODE, meaning=True),
            judge_sentence("Noa", "Noa", DECODE, meaning=False),
            judge_sentence("Noa", "Noa", DECODE),
        ]
        write_judgments(judgments, tmp_path / "rubric.jsonl")
        loaded = read_judgments(tmp_path / "rubric.jsonl")
        assert [j.category for j in loaded] == [j.category for j in judgments]
        assert loaded[3].meaning_accurate is None
