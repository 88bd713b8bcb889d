from __future__ import annotations

import random

import pytest

from versemt.corpus import ParallelCorpus


def make_corpus(texts_by_lang: dict[str, dict[str, str]]) -> ParallelCorpus:
    """Build a corpus from {lang: {verse_id: text}}; ids must agree across langs."""
    ids = tuple(sorted(next(iter(texts_by_lang.values()))))
    return ParallelCorpus(ids, {
        lang: tuple(texts_by_lang[lang][vid] for vid in ids) for lang in sorted(texts_by_lang)
    })


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
