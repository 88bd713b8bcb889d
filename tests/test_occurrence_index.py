"""Lexicon projection through one SurfaceIndex per language, against the
one-scan-per-surface assemble_table and trim_table it replaced."""

from __future__ import annotations

import logging

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from versemt import lexicon
from versemt.alignment import DiagonalParams, train_em
from versemt.corpus import ParallelCorpus, tokenize
from versemt.lexicon import (
    LexiconEntry,
    LexiconTable,
    SurfaceIndex,
    _leftmost_spans,
    assemble_table,
    trim_table,
)

from conftest import make_corpus
from oracles import assemble_table_oracle, trim_table_oracle

# Case variants and a tiny vocabulary, so tokens repeat, runs like `a a a`
# overlap a two-token surface, and seeds nest inside other seeds.
EN_VOCAB = ["a", "A", "b", "B", "c"]
# `a,` tokenizes to `a ,` in a seed as in the corpus, so it is found where a
# verse has `a,`; `Z` never occurs, so it gives an absent seed.
SEED_VOCAB = EN_VOCAB + ["a,", "Z"]
# A noisy translation of each English token; `c` becomes two target tokens
# and `A`, like many names, is spelled the same on both sides.
TRANSLATION = {"a": ["x"], "A": ["A"], "b": ["y"], "B": ["y"], "c": ["z", "z"], "a,": ["x", ","]}
TGT_VOCAB = ["x", "A", "y", "z"]

token = st.sampled_from(EN_VOCAB)
sentence = st.lists(token, max_size=12)
surface_tokens = st.lists(token, min_size=1, max_size=3)
seed_name = st.tuples(
    st.lists(st.sampled_from(SEED_VOCAB), min_size=1, max_size=3), st.sampled_from([" ", "  "])
).map(lambda parts: parts[1].join(parts[0]))


def _scan_spans(texts, tokens):
    index = SurfaceIndex([(tokens, None)])
    return [(v, a, b) for v, verse in enumerate(texts) for a, b, _ in index.scan(verse)]


@given(
    texts=st.lists(sentence, max_size=6),
    surfaces=st.lists(surface_tokens, min_size=1, max_size=5),
)
@settings(max_examples=300, deadline=None)
def test_spans_equal_one_surface_scan(texts, surfaces):
    spans = _leftmost_spans(texts, (tuple(tokens) for tokens in surfaces))
    assert set(spans) == {tuple(tokens) for tokens in surfaces}
    for tokens in surfaces:
        assert spans[tuple(tokens)] == _scan_spans(texts, tokens)


def test_spans_resume_past_a_match_and_count_nested_surfaces_alone():
    texts = [["a", "a", "a"], ["John", "Mark", "John"], []]
    surfaces = [("a", "a"), ("John", "Mark"), ("John",), ("A",), ("a", "a")]
    spans = _leftmost_spans(texts, surfaces)
    assert spans[("a", "a")] == [(0, 0, 2)]
    assert spans[("John", "Mark")] == [(1, 0, 2)]
    assert spans[("John",)] == [(1, 0, 1), (1, 2, 3)]
    assert spans[("A",)] == []  # case-sensitive
    with pytest.raises(ValueError):
        _leftmost_spans(texts, [()])


@st.composite
def _projection_case(draw):
    n_verses = draw(st.integers(1, 8))
    target_langs = draw(st.sampled_from([["sw"], ["fr", "sw"]]))
    en = [draw(st.lists(st.sampled_from(EN_VOCAB + ["a,"]), max_size=8)) for _ in range(n_verses)]
    texts = {"en": {f"v{i}": " ".join(words) for i, words in enumerate(en)}}
    for lang in target_langs:
        tgt = {}
        for i, words in enumerate(en):
            if draw(st.booleans()):
                tgt[f"v{i}"] = " ".join(t for w in words for t in TRANSLATION[w])
            else:  # unrelated, possibly empty
                tgt[f"v{i}"] = " ".join(draw(st.lists(st.sampled_from(TGT_VOCAB), max_size=6)))
        texts[lang] = tgt
    corpus = make_corpus(texts)
    params = DiagonalParams(
        tension=draw(st.sampled_from([0.0, 4.0])), null_prob=draw(st.sampled_from([0.0, 0.08]))
    )
    iterations = draw(st.integers(0, 2))
    aligners = {
        lang: train_em(
            [(tokenize(e), tokenize(f)) for e, f in zip(corpus.texts("en"), corpus.texts(lang))],
            iterations,
            params,
        )
        for lang in target_langs
    }
    seed = draw(st.lists(seed_name, max_size=8))
    return seed, corpus, aligners, draw(st.integers(1, 3))


def _warnings(caplog):
    records = [(r.name, r.levelname, r.getMessage()) for r in caplog.records]
    caplog.clear()
    return records


@given(case=_projection_case())
@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_assemble_table_equals_per_surface_scans(case, caplog):
    seed, corpus, aligners, min_votes = case
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="versemt.lexicon"):
        got = assemble_table(seed, corpus, aligners, min_votes)
        got_warnings = _warnings(caplog)
        want = assemble_table_oracle(seed, corpus, aligners, min_votes)
        want_warnings = _warnings(caplog)
    assert got == want  # ids, surfaces, frequencies and languages
    assert got_warnings == want_warnings


class _LoggedTables(dict):
    def __getitem__(self, lang):
        logging.getLogger("versemt.lexicon").debug("reading the %s table", lang)
        return super().__getitem__(lang)


def _decode_log(caplog):
    """The table reads and the Viterbi DEBUG lines, in the order they were logged."""
    return [r.getMessage() for r in caplog.records
            if r.name == "versemt.alignment" or r.getMessage().startswith("reading the")]


@given(case=_projection_case())
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_assemble_table_reads_and_decodes_one_language_after_another(case, caplog):
    # Each table read logs a DEBUG line, so the log shows the order of the languages.
    seed, corpus, aligners, min_votes = case
    aligners = _LoggedTables(aligners)
    targets = [lang for lang in corpus.languages if lang != "en"]
    logs = []
    for langs in [targets, *([lang] for lang in targets)]:  # all, then each alone
        alone = ParallelCorpus(corpus.ids, {lang: corpus.texts(lang) for lang in ["en", *langs]})
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="versemt"):
            assemble_table(seed, alone, aligners, min_votes)
        logs.append(_decode_log(caplog))
    assert [m for m in logs[0] if m.startswith("reading")] == [
        f"reading the {lang} table" for lang in targets]  # each once, in corpus order
    assert logs[0] == [m for log in logs[1:] for m in log]  # each language's DEBUG lines in turn


@given(
    case=_projection_case(),
    extra=st.lists(seed_name | st.just(""), max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_trim_frequency_one_equals_per_entry_scans(case, extra):
    seed, corpus, aligners, min_votes = case
    table = assemble_table(seed, corpus, aligners, min_votes)
    # Loaded tables may hold any English cell, or none.
    loose = tuple(
        LexiconEntry(id=f"x{i}", surfaces={"en": name} if name else {"sw": "x"}, frequency={})
        for i, name in enumerate(extra)
    )
    table = LexiconTable(entries=table.entries + loose, languages=table.languages)
    policy = "frequency-equals-one"
    assert trim_table(table, policy, corpus) == trim_table_oracle(table, policy, corpus)


def _three_language_case():
    en = ["Noah saw Noah", "John Mark went", "John went", "", "the man"]
    translations = {"Noah": "Noa", "saw": "sag", "John": "Johannes", "Mark": "Markus",
                    "went": "gick", "the": "det", "man": "mannen"}
    texts = {"en": {f"v{i}": text for i, text in enumerate(en)}}
    for lang in ("fr", "sw"):
        texts[lang] = {
            f"v{i}": " ".join(translations[w] for w in text.split()) for i, text in enumerate(en)
        }
    corpus = make_corpus(texts)
    aligners = {
        lang: train_em(
            [(tokenize(e), tokenize(f)) for e, f in zip(corpus.texts("en"), corpus.texts(lang))], 3
        )
        for lang in ("fr", "sw")
    }
    return corpus, aligners


def test_assemble_table_builds_one_surface_index_per_language(monkeypatch):
    built = []

    class CountingIndex(SurfaceIndex):
        def __init__(self, surfaces):
            built.append(1)
            super().__init__(surfaces)

    corpus, aligners = _three_language_case()
    monkeypatch.setattr(lexicon, "SurfaceIndex", CountingIndex)
    seed = ["John", "John Mark", "Noah", "Zerubbabel"]
    table = assemble_table(seed, corpus, aligners, min_votes=1)
    assert len(built) == len(corpus.languages) == 3
    by_en = {e.surface("en"): e for e in table.entries}
    assert by_en["John"].frequency["en"] == 2  # nested in `John Mark`, still counted
    assert by_en["Noah"].frequency["en"] == 2

    built.clear()
    trim_table(table, "frequency-equals-one", corpus)
    assert len(built) == 1


def test_empty_seed_is_rejected_as_before():
    corpus, aligners = _three_language_case()
    with pytest.raises(ValueError):
        assemble_table(["", "Noah"], corpus, aligners)
    with pytest.raises(ValueError):
        assemble_table_oracle(["", "Noah"], corpus, aligners, 2)
