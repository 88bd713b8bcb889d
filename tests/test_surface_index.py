"""The token-trie SurfaceIndex against the brute-force scans it replaced."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from versemt import lexicon
from versemt.corpus import tokenize
from versemt.lexicon import LexiconEntry, LexiconTable, SurfaceIndex, _leftmost_spans, lookup_rows
from versemt.netag import check_entity_order

from oracles import count_occurrences_oracle, entity_order_oracle, lookup_rows_oracle

# A small vocabulary with case variants, so surfaces are often prefixes of one
# another, repeat, and differ only in case.
VOCAB = ["a", "b", "c", "A", "B"]
token = st.sampled_from(VOCAB)
sentence = st.lists(token, max_size=14)
# A surface cell: 1-3 tokens joined by one or two spaces.
surface_text = st.tuples(st.lists(token, min_size=1, max_size=3), st.sampled_from([" ", "  "])).map(
    lambda parts: parts[1].join(parts[0])
)


def _table(cells: list[tuple[str, str]]) -> LexiconTable:
    entries = tuple(
        LexiconEntry(id=f"ne{i}", surfaces={k: v for k, v in zip(("en", "sw"), pair) if v}, frequency={})
        for i, pair in enumerate(cells, start=1)
    )
    return LexiconTable(entries=entries, languages=("en", "sw"))


@given(
    cells=st.lists(st.tuples(surface_text | st.just(""), surface_text | st.just("")), max_size=10),
    sentences=st.lists(sentence, min_size=1, max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_lookup_rows_matches_oracle(cells, sentences):
    table = _table(cells)
    for lang in ("en", "sw"):
        for tokens in sentences:
            got = [(span, entry.id) for span, entry in lookup_rows(table, lang, tokens)]
            want = [(span, entry.id) for span, entry in lookup_rows_oracle(table, lang, tokens)]
            assert got == want


@given(
    targets=st.lists(surface_text | st.just(""), max_size=6),
    hyp=sentence,
    ref=sentence,
)
@settings(max_examples=200, deadline=None)
def test_check_entity_order_matches_oracle(targets, hyp, ref):
    decode = {i: (f"src{i}", tgt) for i, tgt in enumerate(targets, start=1)}
    judgment = check_entity_order(hyp, ref, decode)
    got = (judgment.set_correct, judgment.order_correct, judgment.missing, judgment.spurious)
    assert got == entity_order_oracle(hyp, ref, targets)


@given(texts=st.lists(sentence, max_size=5), surface=surface_text | st.just(""))
@settings(max_examples=200, deadline=None)
def test_count_occurrences_matches_oracle(texts, surface):
    key = tuple(tokenize(surface))
    count = len(_leftmost_spans(texts, [key])[key]) if key else 0
    assert count == count_occurrences_oracle(texts, surface)


def test_first_payload_wins_on_duplicate_surface():
    index = SurfaceIndex([(["New", "York"], 1), (["New"], 2), (["New", "York"], 3)])
    assert index.scan(["New", "York", "New", "Jersey"]) == [(0, 2, 1), (2, 3, 2)]


def test_empty_surface_rejected():
    with pytest.raises(ValueError):
        SurfaceIndex([([], "nothing")])


def test_lookup_rows_builds_index_once_per_language(monkeypatch):
    built = []

    class CountingIndex(SurfaceIndex):
        def __init__(self, surfaces):
            built.append(1)
            super().__init__(surfaces)

    monkeypatch.setattr(lexicon, "SurfaceIndex", CountingIndex)
    table = _table([("Noah", "Noa"), ("Shem", "Sem")])
    assert [entry.id for _, entry in lookup_rows(table, "en", ["Noah", "and", "Shem"])] == ["ne1", "ne2"]
    assert [entry.id for _, entry in lookup_rows(table, "en", ["Shem"])] == ["ne2"]
    assert len(built) == 1
    lookup_rows(table, "sw", ["Noa"])
    assert len(built) == 2


@given(
    cells=st.lists(st.tuples(st.lists(token, min_size=1, max_size=3), st.integers(0, 9)), max_size=8),
    tokens=sentence,
)
@settings(max_examples=300, deadline=None)
def test_occurrences_lists_every_window_that_is_a_surface(cells, tokens):
    first_payload: dict[tuple[str, ...], int] = {}
    for surface, payload in cells:
        first_payload.setdefault(tuple(surface), payload)
    want = [
        (start, end, first_payload[tuple(tokens[start:end])])
        for start in range(len(tokens))
        for end in range(start + 1, len(tokens) + 1)
        if tuple(tokens[start:end]) in first_payload
    ]
    assert SurfaceIndex(cells).occurrences(tokens) == want
