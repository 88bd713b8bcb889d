from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from versemt.alignment import (
    NULL_TOKEN,
    DiagonalParams,
    TranslationTable,
    _position_priors,
    _sum_ltr,
    load_table,
    save_table,
    train_em,
    viterbi_align,
)
from versemt.errors import EmptyBitext, EmptySentence, MalformedLine

from oracles import load_table_oracle, model1_em_oracle, table_prob, train_em_oracle
from oracles import viterbi_align_oracle

MODEL1 = DiagonalParams(tension=0.0, null_prob=0.0)


def _random_bitext(rng: random.Random, pairs: int, vocab: int, max_len: int = 4):
    words = [f"s{i}" for i in range(vocab)]
    trans = [f"t{i}" for i in range(vocab)]
    bitext = []
    for _ in range(pairs):
        n = rng.randint(1, max_len)
        src = [rng.choice(words) for _ in range(n)]
        tgt = [trans[words.index(w)] for w in src]
        bitext.append((src, tgt))
    return bitext


class TestParams:
    def test_defaults(self):
        params = DiagonalParams()
        assert params.tension == 4.0
        assert params.null_prob == 0.08

    def test_validation(self):
        with pytest.raises(ValueError):
            DiagonalParams(tension=-1.0)
        with pytest.raises(ValueError):
            DiagonalParams(null_prob=1.0)
        for tension in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                DiagonalParams(tension=tension)


class TestPositionPriors:
    @pytest.mark.parametrize("tension", [1e5, 13000.0])
    def test_underflowing_rows_concentrate_on_nearest_position(self, tension):
        # At 1e5 every delta of a row with no exact diagonal hit underflows to
        # 0.0; at 13000 the first row's deltas sum to a subnormal. Such rows
        # give all non-NULL mass to the nearest position.
        priors = _position_priors(7, 5, DiagonalParams(tension=tension, null_prob=0.08))
        for j, row in enumerate(priors, start=1):
            distances = [abs(i / 7 - j / 5) for i in range(1, 8)]
            nearest = distances.index(min(distances))
            assert row[nearest] == pytest.approx(0.92)
            assert row[7] == 0.08
            assert sum(row) == pytest.approx(1.0)


class TestTrainEm:
    def test_single_pair_three_iterations(self):
        table = train_em([(["a"], ["x"])], 3)
        assert table_prob(table, "a", "x") > 0.9

    def test_second_pair_disambiguates(self):
        table = train_em([(["a", "b"], ["x", "y"]), (["a"], ["x"])], 5)
        assert table_prob(table, "a", "x") > table_prob(table, "a", "y")

    def test_zero_iterations_uniform(self):
        table = train_em([(["a", "b"], ["x", "y"])], 0)
        assert table_prob(table, "a", "x") == 0.5
        assert table_prob(table, "a", "y") == 0.5
        assert table_prob(table, NULL_TOKEN, "x") == 0.5

    def test_empty_bitext(self):
        with pytest.raises(EmptyBitext):
            train_em([], 3)

    def test_negative_iterations(self):
        with pytest.raises(ValueError):
            train_em([(["a"], ["x"])], -1)

    @given(seed=st.integers(0, 500), iterations=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_rows_normalize(self, seed, iterations):
        rng = random.Random(seed)
        bitext = _random_bitext(rng, pairs=8, vocab=5)
        table = train_em(bitext, iterations)
        for source_word, row in table.probs.items():
            if row:
                assert sum(row.values()) == pytest.approx(1.0, abs=1e-6)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=20, deadline=None)
    def test_log_likelihood_non_decreasing(self, seed):
        rng = random.Random(seed)
        bitext = _random_bitext(rng, pairs=10, vocab=6)
        table = train_em(bitext, 6)
        history = table.log_likelihood_history
        assert len(history) == 6
        for earlier, later in zip(history, history[1:]):
            assert later >= earlier - 1e-9

    @given(seed=st.integers(0, 500), iterations=st.integers(0, 4))
    @settings(max_examples=30, deadline=None)
    def test_model1_reduction_matches_oracle(self, seed, iterations):
        # lambda=0, p0=0 must reproduce plain Model 1 EM (lengths <= 3).
        rng = random.Random(seed)
        bitext = _random_bitext(rng, pairs=6, vocab=4, max_len=3)
        table = train_em(bitext, iterations, MODEL1)
        oracle = model1_em_oracle(bitext, iterations)
        for source_word, row in oracle.items():
            for target_word, prob in row.items():
                assert table_prob(table, source_word, target_word) == pytest.approx(prob, abs=1e-9)

    def test_deterministic(self):
        bitext = _random_bitext(random.Random(11), pairs=12, vocab=6)
        assert train_em(bitext, 4).probs == train_em(bitext, 4).probs

    def test_underflowed_probability_keeps_its_key(self):
        # At this tension the count of (e, f) is the smallest subnormal and
        # count / total rounds to 0.0, but the pair got a count, so it stays.
        bitext = [(["e", "h"], ["f"])] + [(["e"], ["g"])] * 3
        params = DiagonalParams(tension=1488.0, null_prob=0.08)
        table = train_em(bitext, 1, params)
        assert table.probs["e"] == {"f": 0.0, "g": 1.0}
        assert table.probs == train_em_oracle(bitext, 1, params).probs

    @given(
        bitext=st.lists(
            st.tuples(
                st.lists(st.sampled_from(["a", "b", "c", "d", "e", NULL_TOKEN]), max_size=8),
                st.lists(st.sampled_from(["v", "w", "x", "y", "z", "a"]), max_size=8),
            ),
            min_size=1,
            max_size=8,
        ),
        tension=st.sampled_from([0.0, 4.0, 40.0]),
        null_prob=st.sampled_from([0.0, 0.08, 0.5]),
        iterations=st.integers(0, 4),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_pre_slot_oracle_exactly(self, bitext, tension, null_prob, iterations):
        # Same floats, same row order and same key order in every row.
        params = DiagonalParams(tension=tension, null_prob=null_prob)
        table = train_em(bitext, iterations, params)
        oracle = train_em_oracle(bitext, iterations, params)
        assert [(e, list(row.items())) for e, row in table.probs.items()] == [
            (e, list(row.items())) for e, row in oracle.probs.items()
        ]
        assert table.log_likelihood_history == oracle.log_likelihood_history
        assert table.params == params


class TestViterbi:
    def test_forced_argmax(self):
        table = TranslationTable(probs={"a": {"x": 1.0}})
        links = viterbi_align(table, (["a"], ["x"]))
        assert links == [0]

    def test_uniform_follows_diagonal(self):
        row = {"p": 0.2, "q": 0.2, "r": 0.2}
        table = TranslationTable(
            probs={"a": dict(row), "b": dict(row), "c": dict(row), NULL_TOKEN: {}},
            params=DiagonalParams(tension=4.0, null_prob=0.08),
        )
        pair = (["a", "b", "c"], ["p", "q", "r"])
        assert viterbi_align(table, pair) == [0, 1, 2]
        # The table's own prior decodes it: without a diagonal, ties go to the first word.
        assert viterbi_align(TranslationTable(table.probs, params=MODEL1), pair) == [0, 0, 0]

    def test_unseen_target_omitted(self):
        table = TranslationTable(probs={"a": {"x": 1.0}})
        links = viterbi_align(table, (["a"], ["zzz"]))
        assert links == [-1]

    def test_empty_sentence(self):
        table = TranslationTable(probs={"a": {"x": 1.0}})
        with pytest.raises(EmptySentence):
            viterbi_align(table, ([], ["x"]))

    def test_tables_decoded_alternately_each_use_their_own_priors(self):
        bitext = _random_bitext(random.Random(5), pairs=30, vocab=6, max_len=5)
        flat, steep = DiagonalParams(tension=0.0), DiagonalParams(tension=20.0)
        tables = [train_em(bitext, 3, flat), train_em(bitext, 3, steep)]
        links = {id(table): [] for table in tables}
        for pair in bitext:
            for table in tables:  # each pair's shape, decoded by one table and then the other
                links[id(table)].append(viterbi_align(table, pair))
                n, m = len(pair[0]), len(pair[1])
                assert table._priors == ((n, m), _position_priors(n, m, table.params))
        for table in tables:
            assert links[id(table)] == [viterbi_align_oracle(table, pair) for pair in bitext]
        assert links[id(tables[0])] != links[id(tables[1])]


_viterbi_words = st.lists(st.sampled_from(["a", "b", "c", "A"]), max_size=5)
_viterbi_targets = st.lists(st.sampled_from(["x", "y", "z", "X"]), max_size=5)


@given(
    bitext=st.lists(st.tuples(_viterbi_words, _viterbi_targets), min_size=1, max_size=8),
    extra=st.lists(
        st.tuples(
            st.lists(st.sampled_from(["a", "b", "q"]), min_size=1, max_size=5),
            st.lists(st.sampled_from(["x", "y", "w"]), min_size=1, max_size=5),
        ),
        max_size=3,
    ),
    tension=st.sampled_from([0.0, 4.0, 40.0]),
    null_prob=st.sampled_from([0.0, 0.08, 0.5]),
    iterations=st.integers(0, 3),
)
@settings(max_examples=150, deadline=None)
def test_viterbi_links_equal_oracle(bitext, extra, tension, null_prob, iterations):
    """Rows fetched once per sentence give the links of per-cell lookups;
    `extra` adds unseen words."""
    params = DiagonalParams(tension=tension, null_prob=null_prob)
    table = train_em(bitext, iterations, params)
    oracle_cache = {}
    for pair in bitext + extra:
        if not pair[0] or not pair[1]:
            continue
        want = viterbi_align_oracle(table, pair)
        assert viterbi_align(table, pair) == want
        assert viterbi_align_oracle(table, pair, oracle_cache) == want


class TestTableIo:
    def test_roundtrip(self, tmp_path):
        bitext = _random_bitext(random.Random(3), pairs=10, vocab=5)
        params = DiagonalParams()
        table = train_em(bitext, 3, params)
        save_table(table, tmp_path / "table.tsv")
        loaded = load_table(tmp_path / "table.tsv")
        for source_word, row in table.probs.items():
            for target_word, prob in row.items():
                assert table_prob(loaded, source_word, target_word) == pytest.approx(prob, rel=1e-9)

    def test_header_records_params(self, tmp_path):
        table = train_em([(["a"], ["x"])], 1)
        save_table(table, tmp_path / "t.tsv")
        header = (tmp_path / "t.tsv").read_text().splitlines()[0]
        assert header == "#lambda=4.0\tp0=0.08\titerations=1"

    def test_sorted_rows(self, tmp_path):
        table = train_em([(["b", "a"], ["y", "x"])], 2)
        save_table(table, tmp_path / "t.tsv")
        rows = [
            line.split("\t")[:2]
            for line in (tmp_path / "t.tsv").read_text().splitlines()
            if not line.startswith("#")
        ]
        assert rows == sorted(rows)

    def test_load_returns_header_params(self, tmp_path):
        params = DiagonalParams(tension=2.5, null_prob=0.1)
        table = train_em([(["a"], ["x"])], 1, params)
        save_table(table, tmp_path / "t.tsv")
        assert load_table(tmp_path / "t.tsv").params == params

    @pytest.mark.parametrize("text", ["a\tx\t1\n", ""], ids=["headerless", "empty"])
    def test_load_without_header_is_malformed(self, tmp_path, text):
        (tmp_path / "t.tsv").write_text(text, encoding="utf-8")
        with pytest.raises(MalformedLine, match="t.tsv:1"):
            load_table(tmp_path / "t.tsv")

    @pytest.mark.parametrize("prob", ["nan", "inf", "-inf", "-0.5", "1.5", "half"])
    def test_probability_outside_unit_interval_is_malformed(self, tmp_path, prob):
        (tmp_path / "t.tsv").write_text(
            f"#lambda=4.0\tp0=0.08\titerations=1\na\tx\t1\na\ty\t{prob}\n", encoding="utf-8"
        )
        with pytest.raises(MalformedLine, match="t.tsv:3"):
            load_table(tmp_path / "t.tsv")

    def test_a_repeated_pair_is_malformed(self, tmp_path):
        (tmp_path / "t.tsv").write_text(
            "#lambda=4.0\tp0=0.08\titerations=1\nNoah\tNoa\t0.9\nNoah\tNoa\t0.1\n",
            encoding="utf-8",
        )
        with pytest.raises(MalformedLine, match="t.tsv:3: pair 'Noah', 'Noa' is repeated"):
            load_table(tmp_path / "t.tsv")

    def test_malformed_header(self, tmp_path):
        (tmp_path / "t.tsv").write_text("#lambda=wide\tp0=0.08\na\tx\t1\n", encoding="utf-8")
        with pytest.raises(MalformedLine, match="t.tsv:1"):
            load_table(tmp_path / "t.tsv")


def _save_table_joined(table, path, iterations):
    """``save_table`` as it was: every line built, then the joined text written."""
    params = table.params
    lines = [f"#lambda={params.tension}\tp0={params.null_prob}\titerations={iterations}"]
    for source_word in sorted(table.probs):
        for target_word, prob in sorted(table.probs[source_word].items()):
            lines.append(f"{source_word}\t{target_word}\t{prob:.12g}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


_word = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")), min_size=1,
                max_size=6)


@given(
    probs=st.dictionaries(_word, st.dictionaries(_word, st.floats(0.0, 1.0), max_size=5),
                          max_size=6),
    tension=st.sampled_from([0.0, 2.5, 4.0]),
    null_prob=st.sampled_from([0.0, 0.08]),
    iterations=st.integers(0, 9),
)
@settings(max_examples=150, deadline=None)
def test_save_table_writes_the_bytes_of_the_joined_text(tmp_path_factory, probs, tension,
                                                        null_prob, iterations):
    root = tmp_path_factory.mktemp("tables")
    table = TranslationTable(probs=probs, log_likelihood_history=(0.0,) * iterations,
                             params=DiagonalParams(tension, null_prob))
    save_table(table, root / "rows.tsv")
    _save_table_joined(table, root / "joined.tsv", iterations)
    assert (root / "rows.tsv").read_bytes() == (root / "joined.tsv").read_bytes()


# Table file lines: rows over a few sources and targets, so pairs repeat and a
# source's rows come in several runs; probabilities in and out of [0, 1]; and
# lines the parser skips or refuses for their field count.
_table_row = st.tuples(
    st.sampled_from(["a", "b", NULL_TOKEN]), st.sampled_from(["x", "y", "z"]),
    st.sampled_from(["0.5", "1", "0", "0.25", "1e-3", "nan", "-0.1", "1.5", "inf", "half", ""]),
).map("\t".join)
_table_line = _table_row | st.sampled_from(["", "#note", "a\tx", "a\tx\t0.5\t0.5", "a x 0.5"])


@given(lines=st.lists(_table_line, max_size=12))
@example(lines=["a\tx\t0.5", "a\tx\t0.5"])  # a pair repeated right after itself
@example(lines=["a\tx\t0.5", "b\tx\t0.5", "a\tx\t0.5"])  # and after another source
@example(lines=["a\tx\t0.5", "b\tx\t0.5", "a\ty\t0.5"])  # a source's rows in two runs
@settings(max_examples=300, deadline=None)
def test_load_table_accepts_and_refuses_what_the_line_by_line_parse_did(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("tables") / "t.tsv"
    path.write_text("".join(f"{line}\n" for line in ["#lambda=4.0\tp0=0.08", *lines]),
                    encoding="utf-8")
    results = []
    for load in (load_table, load_table_oracle):
        try:
            probs = load(path).probs
            results.append([(e, list(row.items())) for e, row in probs.items()])
        except MalformedLine as exc:
            results.append(str(exc))
    assert results[0] == results[1]


def test_sum_ltr_adds_left_to_right():
    assert _sum_ltr([1e16, 1.0, -1e16]) == 0.0  # Python 3.12's compensated sum gives 1.0
    assert _sum_ltr([]) == sum([])


# Trains and saves tables whose bytes, before `_sum_ltr`, differed between
# Python 3.11 and 3.12 (seeds 5 and 11 among them); prints the sha256 of all of them.
_TABLE_DIGEST = """
import hashlib, random, tempfile
from pathlib import Path
from versemt.alignment import save_table, train_em
digest = hashlib.sha256()
with tempfile.TemporaryDirectory() as tmp:
    for seed in range(12):
        rng = random.Random(seed)
        words = [f"w{i}" for i in range(30)]
        bitext = [([rng.choice(words) for _ in range(rng.randint(2, 12))],
                   [rng.choice(words).upper() for _ in range(rng.randint(2, 12))])
                  for _ in range(120)]
        path = Path(tmp) / "table.tsv"
        save_table(train_em(bitext, 8), path)
        digest.update(path.read_bytes())
print(digest.hexdigest())
"""


# BLEU reports of random corpora (repeated n-grams, empty sentences, max_n 1-5)
# and every trainer config, after the modules a fresh `import versemt.cli` loaded
# of those that only `dataclasses` needs; prints the sha256 of all of them, then
# the module list.
_OUTPUT_DIGEST = """
import sys
import versemt.cli
loaded = [m for m in ("ast", "dataclasses", "dis", "inspect") if m in sys.modules]
import hashlib, random, tempfile
from pathlib import Path
from versemt.evaluation import corpus_bleu, write_bleu_report
digest = hashlib.sha256(repr(loaded).encode())
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "out"
    for seed in range(60):
        rng = random.Random(seed)
        vocab = [f"w{i}" for i in range(rng.randint(1, 4))]
        lines = [[rng.choice(vocab) for _ in range(rng.randint(0, 12))]
                 for _ in range(2 * rng.randint(1, 8))]
        write_bleu_report(corpus_bleu(lines[::2], lines[1::2], rng.randint(1, 5)), path)
        digest.update(path.read_bytes())
    for profile in ("multilingual", "single-pair"):
        versemt.cli.dispatch(["emit-config", "--profile", profile, "--out", str(path)])
        digest.update(path.read_bytes())
print(digest.hexdigest())
print(loaded)
"""


def _stdout_on_python_3_10_to_3_13(script: str) -> dict[str, str]:
    """The stdout of ``script`` on this interpreter and on each pyenv 3.10-3.13."""
    root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
    pythons = sorted(root.glob("versions/3.1[0-3]*/bin/python"))
    if not pythons:
        pytest.skip(f"no Python 3.10-3.13 interpreter in {root}/versions")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    outputs = {}
    for python in [sys.executable, *pythons]:
        proc = subprocess.run([str(python), "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs[str(python)] = proc.stdout
    return outputs


def test_tables_are_byte_identical_on_python_3_10_to_3_13():
    digests = _stdout_on_python_3_10_to_3_13(_TABLE_DIGEST)
    assert len(set(digests.values())) == 1, digests


def test_reports_configs_and_start_up_are_identical_on_python_3_10_to_3_13():
    outputs = _stdout_on_python_3_10_to_3_13(_OUTPUT_DIGEST)
    assert len(set(outputs.values())) == 1, outputs
    assert next(iter(outputs.values())).endswith("\n[]\n")
