"""Shared immutable state (models, tables) must be safe to use from threads."""

from __future__ import annotations

import random
import sys
from concurrent.futures import ThreadPoolExecutor

from versemt.alignment import DiagonalParams, train_em, viterbi_align
from versemt.corpus import tokenize
from versemt.lexicon import LexiconEntry, LexiconTable, lookup_rows
from versemt.subword import apply_bpe, learn_bpe


def test_apply_bpe_parallel_matches_serial():
    rng = random.Random(0)
    words = ["alpha", "beta", "gamma", "delta", "omega", "lambda"]
    corpus = [rng.choice(words) for _ in range(2000)]
    model = learn_bpe(corpus, 30, reserved={"$NE1"})
    sentences = [[rng.choice(words + ["$NE1"]) for _ in range(10)] for _ in range(400)]
    serial = [apply_bpe(model, s) for s in sentences]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda s: apply_bpe(model, s), sentences))
    assert parallel == serial


def test_lookup_rows_parallel_matches_serial():
    entries = tuple(
        LexiconEntry(id=f"ne{i}", surfaces={"en": name}, frequency={})
        for i, name in enumerate(["Noah", "Shem", "Ham", "New York"], start=1)
    )
    table = LexiconTable(entries=entries, languages=("en",))
    rng = random.Random(1)
    pool_words = ["Noah", "Shem", "Ham", "New", "York", "and", "saw", "the"]
    sentences = [[rng.choice(pool_words) for _ in range(12)] for _ in range(300)]
    serial = [lookup_rows(table, "en", s) for s in sentences]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda s: lookup_rows(table, "en", s), sentences))
    assert parallel == serial


def test_lookup_rows_racing_first_calls_see_a_complete_index():
    entries = tuple(
        LexiconEntry(id=f"ne{i}", surfaces={"en": f"Name{i} of{i % 7}"}, frequency={})
        for i in range(300)
    )
    sentences = [["and", f"Name{i}", f"of{i % 7}"] for i in range(300)]
    serial_table = LexiconTable(entries=entries, languages=("en",))
    serial = [lookup_rows(serial_table, "en", s) for s in sentences]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            table = LexiconTable(entries=entries, languages=("en",))
            with ThreadPoolExecutor(max_workers=16) as pool:
                parallel = list(pool.map(lambda s: lookup_rows(table, "en", s), sentences, timeout=60))
            assert parallel == serial
    finally:
        sys.setswitchinterval(previous)


def test_viterbi_parallel_on_shared_table():
    rng = random.Random(2)
    words = [f"w{i}" for i in range(8)]
    bitext = []
    for _ in range(40):
        src = [rng.choice(words) for _ in range(rng.randint(2, 6))]
        bitext.append((src, [f"x{w}" for w in src]))
    params = DiagonalParams()
    table = train_em(bitext, 4, params)
    serial = [viterbi_align(table, pair) for pair in bitext]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda pair: viterbi_align(table, pair), bitext))
    assert parallel == serial


def test_tokenize_parallel():
    texts = [f'"Sentence number {i}, with punctuation!"' for i in range(200)]
    serial = [tokenize(t) for t in texts]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(tokenize, texts))
    assert parallel == serial
