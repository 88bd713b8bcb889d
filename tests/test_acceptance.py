"""Acceptance gate: every criterion checked at its stated tolerance.

Each test prints one `[acceptance NN] PASS/FAIL` line (visible with
``pytest tests/test_acceptance.py -s``) and fails the suite if the
criterion does not hold.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter

from versemt.alignment import DiagonalParams, train_em, viterbi_align
from versemt.corpus import corpus_stats, split_corpus, tokenize
from versemt.evaluation import aggregate_rubric, corpus_bleu, judge_sentence
from versemt.harness import AblationPlan, GlState, fit_power_law, gl_update, sample_low_resource
from versemt.labeling import LabelMode, label_tokens
from versemt.lexicon import LexiconEntry, LexiconTable, assemble_table
from versemt.netag import restore_placeholders, tag_training_pair
from versemt.subword import apply_bpe, learn_bpe, revert_bpe

from conftest import make_corpus
from oracles import (
    best_pair_oracle,
    bleu_oracle,
    least_squares_oracle,
    model1_em_oracle,
    table_prob,
)


def _report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {num:02d}] {status} {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def test_criterion_01_label_format_bit_exact():
    start = time.perf_counter()
    tokens = label_tokens("fr", "en", LabelMode.WITH_FAMILY)
    elapsed = time.perf_counter() - start
    expected = "__opt_family_src_romance __opt_family_tgt_germanic __opt_src_fr __opt_tgt_en"
    ok = " ".join(tokens) == expected and elapsed < 1.0
    _report(1, "label_tokens(fr, en, with-family) is bit-exact", ok, f"{elapsed:.3f}s")


def _entity_lexicon() -> LexiconTable:
    names = [
        ("Noah", "Noa"), ("Shem", "Sem"), ("Ham", "Ham"), ("Japheth", "Jafet"),
        ("Saul", "Saul"), ("Jonathan", "Jonatan"), ("David", "David"),
        ("Egypt", "Egypten"), ("Moses", "Mose"), ("Aaron", "Aron"),
        ("New York", "New York"), ("Beth Shemesh", "Bet Semes"),
        ("Parshandatha", "Parsandata"), ("Dalphon", "Dalefon"), ("Aspatha", "Aspata"),
        ("Poratha", "Porata"), ("Adalia", "Adalja"), ("Aridatha", "Aridata"),
        ("Parmashta", "Parmasta"), ("Arisai", "Arisai"), ("Aridai", "Aridai"),
        ("Vajezatha", "Vajsata"),
    ]
    entries = tuple(
        LexiconEntry(id=f"ne{i:03d}", surfaces={"en": en, "sw": sw}, frequency={})
        for i, (en, sw) in enumerate(names, start=1)
    )
    return LexiconTable(entries=entries, languages=("en", "sw"))


def test_criterion_02_ne_round_trip_1000_pairs():
    start = time.perf_counter()
    table = _entity_lexicon()
    entries = list(table.entries)
    fillers_en = ["and", "the", "king", "went", "to", "battle", "with", "his", "men", "."]
    fillers_sw = ["och", "kungen", "gick", "till", "strid", "med", "sina", "man", "dar", "."]
    rng = random.Random(42)
    restored_ok = 0
    indices_ok = 0
    total = 1000
    for _ in range(total):
        src: list[str] = []
        tgt: list[str] = []
        for _ in range(rng.randint(0, 10)):
            entry = rng.choice(entries)
            src.extend(rng.choices(fillers_en, k=rng.randint(0, 2)))
            src.extend(entry.surface("en").split())
            tgt.extend(rng.choices(fillers_sw, k=rng.randint(0, 2)))
            tgt.extend(entry.surface("sw").split())
        src.extend(rng.choices(fillers_en, k=rng.randint(1, 5)))
        tgt.extend(rng.choices(fillers_sw, k=rng.randint(1, 5)))

        tagged_src, tagged_tgt, decode = tag_training_pair(src, tgt, table, "en", "sw")
        if restore_placeholders(tagged_tgt.tokens, decode) == tgt:
            restored_ok += 1
        seen = [int(t[3:]) for t in tagged_src.tokens if t.startswith("$NE") and t[3:].isdigit()]
        if seen == list(range(1, len(seen) + 1)) and len(seen) == len(decode):
            indices_ok += 1
    elapsed = time.perf_counter() - start
    ok = restored_ok == total and indices_ok == total and elapsed < 10.0
    _report(
        2,
        "restore inverts tagging on 1000 synthetic pairs; indices dense",
        ok,
        f"restored {restored_ok}/{total}, indices {indices_ok}/{total}, {elapsed:.2f}s",
    )


def test_criterion_03_table_format_reproduction():
    table = LexiconTable(
        entries=(
            LexiconEntry(id="n1", surfaces={"en": "Noah", "sw": "Noa"}, frequency={}),
            LexiconEntry(id="n2", surfaces={"en": "Shem", "sw": "Sem"}, frequency={}),
            LexiconEntry(id="n3", surfaces={"en": "Ham", "sw": "Ham"}, frequency={}),
            LexiconEntry(id="n4", surfaces={"en": "Japheth", "sw": "Jafet"}, frequency={}),
        ),
        languages=("en", "sw"),
    )
    src = tokenize("And Noah fathered three sons, Shem, Ham, and Japheth.")
    tgt = tokenize("Och Noa födde tre söner: Sem, Ham och Jafet.")
    tagged_src, _, decode = tag_training_pair(src, tgt, table, "en", "sw")
    tagging_ok = (
        tagged_src.text == "And $NE1 fathered three sons , $NE2 , $NE3 , and $NE4 ."
        and decode
        == {1: ("Noah", "Noa"), 2: ("Shem", "Sem"), 3: ("Ham", "Ham"), 4: ("Japheth", "Jafet")}
    )
    translated = "Och $NE1 födde tre söner , $NE2 $NE3 och $NE4".split()
    restored = " ".join(restore_placeholders(translated, decode))
    restore_ok = restored == "Och Noa födde tre söner , Sem Ham och Jafet"
    _report(3, "placeholder tagging/restoration reproduces the published example", tagging_ok and restore_ok)


def test_criterion_04_bleu_oracle_equivalence():
    rng = random.Random(7)
    vocab = ["the", "cat", "sat", "on", "a", "mat", "dog", "ran", "far", "near"]
    all_close = True
    for _ in range(100):
        n = rng.randint(1, 10)
        hyps = [[rng.choice(vocab) for _ in range(rng.randint(1, 12))] for _ in range(n)]
        refs = [[rng.choice(vocab) for _ in range(rng.randint(1, 12))] for _ in range(n)]
        report = corpus_bleu(hyps, refs)
        precisions, bp, score = bleu_oracle(hyps, refs)
        all_close &= abs(report.score - score) < 1e-9
        all_close &= abs(report.brevity_penalty - bp) < 1e-9
        all_close &= all(abs(a - b) < 1e-9 for a, b in zip(report.precisions, precisions))
    identical = corpus_bleu(["the cat sat on a mat"], ["the cat sat on a mat"])
    exact_100 = identical.score == 100.0
    clipped = corpus_bleu(["the the the the the the the"], ["the cat is on the mat"])
    p1_exact = clipped.precisions[0] == 2 / 7
    _report(
        4,
        "corpus BLEU matches brute-force oracle to 1e-9; 100.0 and 2/7 exact",
        all_close and exact_100 and p1_exact,
    )


def test_criterion_05_gl_arithmetic():
    state = GlState(alpha=0.1)
    state, _, _ = gl_update(state, 1, 40.0)
    state, _, _ = gl_update(state, 2, 44.5)
    state, gl, decision = gl_update(state, 3, 44.4)
    case_ok = abs(gl - 0.2247) <= 0.0001 and decision == "stop"

    improving = GlState(alpha=0.1)
    never_stopped = True
    for epoch, score in enumerate([10.0, 12.0, 12.5, 20.0, 35.5, 36.0], start=1):
        improving, gl_i, decision_i = gl_update(improving, epoch, score)
        never_stopped &= decision_i == "continue" and gl_i == 0.0
    _report(5, "GL = 0.2247 stops at alpha=0.1; improving runs never stop", case_ok and never_stopped, f"gl={gl:.4f}")


TABLE4 = [
    (53589, 4.73), (107262, 5.03), (161332, 5.21), (214185, 5.33), (268228, 5.43),
    (322116, 5.51), (375439, 5.57), (429470, 5.63), (483440, 5.68), (538030, 5.73),
]
TABLE4_EN2SW = [25.2, 30.6, 32.9, 32.7, 34.2, 34.2, 33.8, 33.6, 34.3, 34.9]


def test_criterion_06_log10_consistency():
    corpus = make_corpus({"sw": {"v1": "w " * 53589}})
    reported = corpus_stats(corpus, "sw").log10_token_count
    first_ok = reported == 4.73
    # Module rounding rule (2 decimals) applied to each published word count.
    all_ok = all(abs(round(math.log10(w), 2) - logw) <= 0.005 for w, logw in TABLE4)
    _report(6, "log10(53589) = 4.73; all ten published (#w, log#w) pairs consistent", first_ok and all_ok)


def test_criterion_07_power_law_fit():
    points = [(w, y) for (w, _), y in zip(TABLE4, TABLE4_EN2SW)]
    fit = fit_power_law(points)
    slope, intercept, r_squared = least_squares_oracle(
        [math.log10(w) for w, _ in points], [y for _, y in points]
    )
    ok = (
        fit.slope > 0
        and abs(fit.slope - slope) < 1e-9
        and abs(fit.intercept - intercept) < 1e-9
        and abs(fit.r_squared - r_squared) < 1e-9
    )
    _report(7, "power-law fit matches least-squares oracle to 1e-9 with positive slope", ok,
            f"slope={fit.slope:.4f} r2={fit.r_squared:.4f}")


def test_criterion_08_ablation_sampler():
    start = time.perf_counter()
    verses = [(f"v{i:05d}", "some words here") for i in range(10_000)]
    plan = AblationPlan(fraction=0.2, seed=13, total=10_000)
    first = sample_low_resource(verses, plan)
    second = sample_low_resource(verses, plan)
    elapsed = time.perf_counter() - start
    ok = (
        len(first.ids) == 10_000
        and first.distinct_count <= 2_000
        and Counter(first.ids) == Counter(second.ids)
        and first.ids == second.ids
        and elapsed < 5.0
    )
    _report(8, "f=0.2 of N=10000 yields 10000 lines, <=2000 distinct, seed-stable", ok,
            f"distinct={first.distinct_count}, {elapsed:.2f}s")


def _synthetic_bitext(rng: random.Random):
    """200 pairs over a 20-word vocabulary with a bijective dictionary and
    mild reordering (one adjacent swap half the time)."""
    fillers = [f"word{i}" for i in range(10)]
    entities = [f"Entity{i}" for i in range(10)]
    src_vocab = fillers + entities
    mapping = {w: f"xx{w}" for w in src_vocab}
    verses_en, verses_sw = {}, {}
    for i in range(200):
        length = rng.randint(4, 8)
        src = [rng.choice(src_vocab) for _ in range(length)]
        tgt = [mapping[w] for w in src]
        if rng.random() < 0.5 and length >= 2:
            j = rng.randint(0, length - 2)
            tgt[j], tgt[j + 1] = tgt[j + 1], tgt[j]
        verses_en[f"v{i:03d}"] = " ".join(src)
        verses_sw[f"v{i:03d}"] = " ".join(tgt)
    return verses_en, verses_sw, mapping, entities


def test_criterion_09_alignment_recovery():
    start = time.perf_counter()
    rng = random.Random(2024)
    verses_en, verses_sw, mapping, entities = _synthetic_bitext(rng)
    bitext = [
        (verses_en[vid].split(), verses_sw[vid].split()) for vid in sorted(verses_en)
    ]
    params = DiagonalParams()
    table = train_em(bitext, 5, params)

    history = table.log_likelihood_history
    ll_ok = all(later >= earlier - 1e-9 for earlier, later in zip(history, history[1:]))

    total_links = 0
    correct_links = 0
    for src, tgt in bitext:
        for j, i in enumerate(viterbi_align(table, (src, tgt))):
            if i < 0:
                continue
            total_links += 1
            correct_links += tgt[j] == mapping[src[i]]
    precision = correct_links / total_links if total_links else 0.0

    corpus = make_corpus({"en": verses_en, "sw": verses_sw})
    lex = assemble_table(entities, corpus, {"sw": table})
    recovered = sum(
        1 for entry in lex.entries if entry.surface("sw") == mapping[entry.surface("en")]
    )

    rng2 = random.Random(5)
    vocab = [f"s{i}" for i in range(4)]
    small_bitext = []
    for _ in range(6):
        n = rng2.randint(1, 3)
        src = [rng2.choice(vocab) for _ in range(n)]
        small_bitext.append((src, [f"t{w}" for w in src]))
    model1 = train_em(small_bitext, 3, DiagonalParams(tension=0.0, null_prob=0.0))
    oracle = model1_em_oracle(small_bitext, 3)
    model1_ok = all(
        abs(table_prob(model1, e, f) - p) < 1e-9
        for e, row in oracle.items() for f, p in row.items()
    )

    elapsed = time.perf_counter() - start
    ok = precision >= 0.95 and recovered >= 9 and ll_ok and model1_ok and elapsed < 60.0
    _report(
        9,
        "EM recovers planted dictionary; projection recovers planted entities",
        ok,
        f"precision={precision:.3f}, recovered={recovered}/10, {elapsed:.1f}s",
    )


def test_criterion_10_bpe_properties():
    rng = random.Random(99)
    reserved = frozenset({"$NE1", "$NE2", "$NE3", "__opt_src_fr", "__opt_tgt_en",
                          "__opt_family_src_romance"})
    word_pool = ["low", "lower", "lowest", "newer", "wider", "Ähre", "νερό", "stora",
                 "huset", "mannen", "konung", "översättning"]
    sentences = []
    for _ in range(1000):
        tokens = [rng.choice(word_pool) for _ in range(rng.randint(1, 9))]
        for _ in range(rng.randint(0, 2)):
            tokens.insert(rng.randint(0, len(tokens)), rng.choice(sorted(reserved)))
        sentences.append(tokens)

    flat = [token for sentence in sentences for token in sentence]
    model = learn_bpe(flat, num_merges=40, reserved=reserved)

    # Replay learning against the brute-force pair-count oracle.
    word_freq = Counter(token for token in flat if token not in reserved)
    symbols = {word: tuple(word) + ("</w>",) for word in word_freq}
    merges_ok = True
    for merge in model.merges:
        counts: Counter = Counter()
        for word, freq in word_freq.items():
            for pair in zip(symbols[word], symbols[word][1:]):
                counts[pair] += freq
        merges_ok &= merge == best_pair_oracle(counts)
        merged = merge[0] + merge[1]
        for word in symbols:
            seq = symbols[word]
            out = []
            i = 0
            while i < len(seq):
                if i + 1 < len(seq) and (seq[i], seq[i + 1]) == merge:
                    out.append(merged)
                    i += 2
                else:
                    out.append(seq[i])
                    i += 1
            symbols[word] = tuple(out)

    roundtrip_ok = True
    reserved_ok = True
    for sentence in sentences:
        encoded = apply_bpe(model, sentence)
        roundtrip_ok &= revert_bpe(encoded) == sentence
        # Reserved tokens must appear verbatim, occurrence for occurrence, and
        # never as fragments inside other pieces.
        want = Counter(t for t in sentence if t in reserved)
        got = Counter(t for t in encoded if t in reserved)
        reserved_ok &= want == got
        reserved_ok &= not any(
            ("$NE" in piece or "__opt_" in piece) and piece not in reserved for piece in encoded
        )
    _report(
        10,
        "BPE revert∘apply identity on 1000 sentences; merges match oracle; reserved intact",
        roundtrip_ok and merges_ok and reserved_ok,
        f"merges={len(model.merges)}",
    )


def test_criterion_11_split_exactness():
    corpus = make_corpus({"sw": {f"v{i:05d}": "text" for i in range(23_000)}})
    first = split_corpus(corpus, (0.75, 0.15, 0.10), seed=1234)
    second = split_corpus(corpus, (0.75, 0.15, 0.10), seed=1234)
    sizes = (len(first.train), len(first.val), len(first.test))
    sizes_ok = (
        abs(sizes[0] - 17_250) <= 1 and abs(sizes[1] - 3_450) <= 1 and abs(sizes[2] - 2_300) <= 1
    )
    _report(
        11,
        "23000-verse split yields 17250/3450/2300 (±1), deterministic",
        sizes_ok and first == second,
        f"sizes={sizes}",
    )


def test_criterion_12_rubric_aggregation():
    decode = {1: ("Noah", "Noa")}
    judgments = (
        [judge_sentence("Noa hem", "Noa hem", decode, meaning=True)] * 194
        + [judge_sentence("hem", "Noa hem", decode, meaning=True)] * 108
        + [judge_sentence("Noa hem", "Noa hem", decode, meaning=False)] * 18
    )
    percentages = aggregate_rubric(judgments)
    ok = percentages == {"accurate": 60.6, "almost-accurate": 33.8, "inaccurate": 5.6}
    _report(12, "320 judgments (194/108/18) aggregate to 60.6/33.8/5.6", ok, str(percentages))
