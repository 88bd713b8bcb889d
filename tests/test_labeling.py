from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from versemt import labeling
from versemt.corpus import FAMILIES, REGISTRY, SplitAssignment, get_language, split_corpus, tokenize
from versemt.errors import EmptySplit, MalformedLine, PipelineError, UnknownLanguage
from versemt.labeling import (
    LabelMode,
    ScheduleMode,
    build_addition_schedule,
    expand_multiway_pairs,
    label_tokens,
    read_schedule_steps,
    write_labeled_bitext,
    write_schedule,
)

from conftest import make_corpus
from oracles import expand_multiway_pairs_oracle, write_labeled_bitext_oracle

ALL_CODES = sorted(REGISTRY)

LABEL_TOKEN_RE = re.compile(r"^__opt_(family_)?(src|tgt)_[a-z]+$")


def language_set_spans(langs, families) -> bool:
    """True iff the language set contains at least one member of every family."""
    covered = {get_language(c).family for c in langs}
    return all(f in covered for f in families)


class TestLabelTokens:
    def test_fr_en_with_family(self):
        assert label_tokens("fr", "en", LabelMode.WITH_FAMILY) == [
            "__opt_family_src_romance",
            "__opt_family_tgt_germanic",
            "__opt_src_fr",
            "__opt_tgt_en",
        ]

    def test_de_sw_with_family(self):
        assert label_tokens("de", "sw", LabelMode.WITH_FAMILY) == [
            "__opt_family_src_germanic",
            "__opt_family_tgt_germanic",
            "__opt_src_de",
            "__opt_tgt_sw",
        ]

    def test_fr_en_language_only(self):
        assert label_tokens("fr", "en", LabelMode.LANGUAGE_ONLY) == [
            "__opt_src_fr",
            "__opt_tgt_en",
        ]

    def test_unknown_language(self):
        with pytest.raises(UnknownLanguage):
            label_tokens("xx", "en", LabelMode.LANGUAGE_ONLY)

    @given(
        src=st.sampled_from(ALL_CODES),
        tgt=st.sampled_from(ALL_CODES),
        mode=st.sampled_from(list(LabelMode)),
    )
    @settings(max_examples=60)
    def test_token_pattern_and_count(self, src, tgt, mode):
        tokens = label_tokens(src, tgt, mode)
        assert len(tokens) == (4 if mode is LabelMode.WITH_FAMILY else 2)
        assert all(LABEL_TOKEN_RE.match(token) for token in tokens)


def _pair_corpus(langs: list[str], n_verses: int):
    return make_corpus(
        {lang: {f"v{i:03d}": f"{lang} sentence {i}" for i in range(n_verses)} for lang in langs}
    )


class TestExpandMultiway:
    def test_two_langs_ten_verses(self):
        corpus = _pair_corpus(["en", "sw"], 10)
        split = split_corpus(corpus, (0.8, 0.1, 0.1), seed=0)
        # 10 verses at these ratios put 8 in train: force all 10 into train
        split = type(split)(
            train=frozenset(corpus.ids()), val=frozenset(), test=frozenset(),
        )
        examples = list(
            expand_multiway_pairs(["en", "sw"], corpus, split, LabelMode.LANGUAGE_ONLY)
        )
        assert len(examples) == 20

    def test_six_langs_thirty_pairs_per_verse(self):
        germanic = ["de", "dn", "dt", "no", "sw", "en"]
        corpus = _pair_corpus(germanic, 1)
        split = _full_train_split(corpus)
        examples = list(
            expand_multiway_pairs(germanic, corpus, split, LabelMode.WITH_FAMILY)
        )
        assert len(examples) == 30

    def test_singleton_empty(self):
        corpus = _pair_corpus(["en"], 4)
        split = _full_train_split(corpus)
        assert list(expand_multiway_pairs(["en"], corpus, split, LabelMode.LANGUAGE_ONLY)) == []

    def test_total_and_no_self_pairs(self):
        langs = ["en", "sw", "fr"]
        corpus = _pair_corpus(langs, 7)
        split = _full_train_split(corpus)
        examples = list(expand_multiway_pairs(langs, corpus, split, LabelMode.WITH_FAMILY))
        assert len(examples) == 7 * 3 * 2
        assert all(e.src != e.tgt for e in examples)
        keys = [(e.src, e.tgt) for e in examples]
        assert keys == sorted(keys)

    def test_labels_prefix_source(self):
        corpus = _pair_corpus(["en", "sw"], 1)
        split = _full_train_split(corpus)
        example = next(
            iter(expand_multiway_pairs(["en", "sw"], corpus, split, LabelMode.WITH_FAMILY))
        )
        assert example.source_tokens[:4] == tuple(
            label_tokens(example.src, example.tgt, LabelMode.WITH_FAMILY)
        )

    def test_empty_split(self):
        corpus = _pair_corpus(["en", "sw"], 3)
        split = _full_train_split(corpus)
        empty = type(split)(
            train=frozenset(), val=split.train, test=frozenset()
        )
        with pytest.raises(EmptySplit):
            list(expand_multiway_pairs(["en", "sw"], corpus, empty, LabelMode.LANGUAGE_ONLY))

    def test_lang_not_in_corpus(self):
        corpus = _pair_corpus(["en", "sw"], 3)
        split = _full_train_split(corpus)
        with pytest.raises(UnknownLanguage):
            list(expand_multiway_pairs(["en", "fr"], corpus, split, LabelMode.LANGUAGE_ONLY))

    def test_train_id_missing_from_corpus_is_data_error(self):
        corpus = _pair_corpus(["en", "sw"], 3)
        split = _full_train_split(corpus)
        stale = SplitAssignment(
            train=split.train | {"zzz999"}, val=frozenset(), test=frozenset(),
        )
        with pytest.raises(PipelineError, match="zzz999"):
            list(expand_multiway_pairs(["en", "sw"], corpus, stale, LabelMode.LANGUAGE_ONLY))

    def test_alias_beside_its_code_is_one_language(self):
        corpus = _pair_corpus(["en", "uk"], 3)
        split = _full_train_split(corpus)
        examples = list(
            expand_multiway_pairs(["en", "ur", "uk"], corpus, split, LabelMode.LANGUAGE_ONLY)
        )
        assert [(e.src, e.tgt) for e in examples] == [("en", "uk")] * 3 + [("uk", "en")] * 3

    def test_tokenizes_each_verse_once_per_language(self, monkeypatch):
        calls = []

        def counting_tokenize(text):
            calls.append(text)
            return tokenize(text)

        monkeypatch.setattr(labeling, "tokenize", counting_tokenize)
        langs = ["en", "sw", "fr", "de"]
        corpus = _pair_corpus(langs, 5)
        split = _full_train_split(corpus)
        examples = list(expand_multiway_pairs(langs, corpus, split, LabelMode.WITH_FAMILY))
        assert len(examples) == 5 * 4 * 3
        assert len(calls) == 5 * 4


# Tokens chosen to exercise tokenize: peeled leading/trailing punctuation,
# connector punctuation that stays attached, and label-like tokens.
_TEXT_PIECES = ["Noah", "Noah,", "(Sem)", "«Ham»", "...", "_", "a_b", "__opt_src_fr", "'t", "x"]
_CORPUS_LANGS = ["en", "sw", "fr", "uk", "ru"]


@st.composite
def _labeling_case(draw):
    corpus_langs = draw(st.lists(st.sampled_from(_CORPUS_LANGS), min_size=1, max_size=4, unique=True))
    n_verses = draw(st.integers(1, 4))
    text = st.lists(st.sampled_from(_TEXT_PIECES), max_size=5).flatmap(
        lambda pieces: st.sampled_from([" ", "  ", "\t"]).map(lambda sep: sep.join(pieces))
    )
    texts = {
        lang: {f"v{i}": draw(text) for i in range(n_verses)} for lang in corpus_langs
    }
    corpus = make_corpus(texts)
    # Repeats, and the Ukrainian alias "ur" beside "uk".
    aliases = ["ur"] if "uk" in corpus_langs else []
    langs = draw(st.lists(st.sampled_from(corpus_langs + aliases), min_size=1, max_size=6))
    train = draw(st.sets(st.sampled_from(corpus.ids()), min_size=1))
    split = SplitAssignment(
        train=frozenset(train), val=frozenset(), test=frozenset()
    )
    return langs, corpus, split, draw(st.sampled_from(list(LabelMode)))


class TestExpandMatchesOracle:
    """Per-call token reuse and the streaming writer equal the buffered,
    per-direction tokenizing versions they replaced."""

    @given(case=_labeling_case())
    @settings(max_examples=150, deadline=None)
    def test_examples_equal_oracle(self, case):
        langs, corpus, split, mode = case
        assert list(expand_multiway_pairs(langs, corpus, split, mode)) == list(
            expand_multiway_pairs_oracle(langs, corpus, split, mode)
        )

    @given(case=_labeling_case())
    @settings(max_examples=60, deadline=None)
    def test_written_files_equal_oracle(self, tmp_path_factory, case):
        langs, corpus, split, mode = case
        out = tmp_path_factory.mktemp("bitext")
        count = write_labeled_bitext(
            expand_multiway_pairs(langs, corpus, split, mode), out / "new.src", out / "new.tgt"
        )
        expected = write_labeled_bitext_oracle(
            expand_multiway_pairs_oracle(langs, corpus, split, mode), out / "old.src", out / "old.tgt"
        )
        assert count == expected
        assert (out / "new.src").read_bytes() == (out / "old.src").read_bytes()
        assert (out / "new.tgt").read_bytes() == (out / "old.tgt").read_bytes()


def _full_train_split(corpus):
    from versemt.corpus import SplitAssignment

    return SplitAssignment(
        train=frozenset(corpus.ids()),
        val=frozenset(),
        test=frozenset(),
    )


class TestSpanning:
    def test_en_fr_spans_two(self):
        assert language_set_spans({"en", "fr"}, {"germanic", "romance"})

    def test_en_de_does_not_span_romance(self):
        assert not language_set_spans({"en", "de"}, {"germanic", "romance"})

    def test_one_per_family_spans_all(self):
        one_per_family = ["en", "ru", "fr", "ab", "gk", "ln", "fn", "ws"]
        assert language_set_spans(one_per_family, FAMILIES)

    @given(
        langs=st.sets(st.sampled_from(ALL_CODES), min_size=1),
        extra=st.sets(st.sampled_from(ALL_CODES)),
        families=st.sets(st.sampled_from(FAMILIES)),
    )
    @settings(max_examples=60)
    def test_monotone_under_superset(self, langs, extra, families):
        if language_set_spans(langs, families):
            assert language_set_spans(langs | extra, families)


class TestSchedules:
    def test_family_mode_step1_is_anchor_family(self):
        schedule = build_addition_schedule("sw", ScheduleMode.FAMILY_ADDITION, seed=0)
        assert schedule.steps[0] == frozenset({"de", "dn", "dt", "no", "sw", "en"})

    def test_family_mode_step2_adds_slavic(self):
        schedule = build_addition_schedule("sw", ScheduleMode.FAMILY_ADDITION, seed=0)
        added = schedule.steps[1] - schedule.steps[0]
        assert added == frozenset({"cr", "cz", "pl", "ru", "uk", "bg"})

    def test_family_mode_romance_anchor(self):
        schedule = build_addition_schedule("fr", ScheduleMode.FAMILY_ADDITION, seed=0)
        assert schedule.steps[0] == frozenset({"es", "fr", "it", "pt", "ro"})
        assert schedule.steps[1] - schedule.steps[0] == frozenset(
            {"de", "dn", "dt", "no", "sw", "en"}
        )

    def test_steps_monotone_and_end_with_everything(self):
        for mode in ScheduleMode:
            schedule = build_addition_schedule("sw", mode, seed=5)
            for prev, cur in zip(schedule.steps, schedule.steps[1:]):
                assert prev < cur
            assert schedule.steps[-1] == frozenset(REGISTRY)

    def test_sparse_sizes_match_family_mode(self):
        family = build_addition_schedule("sw", ScheduleMode.FAMILY_ADDITION, seed=1)
        sparse = build_addition_schedule("sw", ScheduleMode.SPARSE_ADDITION, seed=1)
        assert [len(s) for s in sparse.steps] == [len(s) for s in family.steps]

    def test_sparse_spans_all_once_big_enough(self):
        sparse = build_addition_schedule("sw", ScheduleMode.SPARSE_ADDITION, seed=9)
        for step in sparse.steps:
            if len(step) >= 8:
                assert language_set_spans(step, FAMILIES)

    def test_sparse_family_coverage_grows_until_spanned(self):
        sparse = build_addition_schedule("sw", ScheduleMode.SPARSE_ADDITION, seed=2)
        coverage = [len({REGISTRY[c].family for c in step}) for step in sparse.steps]
        for prev, cur in zip(coverage, coverage[1:]):
            assert cur > prev or prev == len(FAMILIES)

    def test_sparse_contains_anchor_and_deterministic(self):
        first = build_addition_schedule("sw", ScheduleMode.SPARSE_ADDITION, seed=3)
        second = build_addition_schedule("sw", ScheduleMode.SPARSE_ADDITION, seed=3)
        assert first == second
        assert all("sw" in step for step in first.steps)

    def test_unknown_anchor(self):
        with pytest.raises(UnknownLanguage):
            build_addition_schedule("xx", ScheduleMode.FAMILY_ADDITION, seed=0)


class TestLabelingIo:
    def test_schedule_roundtrip(self, tmp_path):
        schedule = build_addition_schedule("sw", ScheduleMode.FAMILY_ADDITION, seed=0)
        write_schedule(schedule, tmp_path / "sched.tsv")
        steps = read_schedule_steps(tmp_path / "sched.tsv")
        assert [set(langs) for _, langs in steps] == [set(s) for s in schedule.steps]
        assert [k for k, _ in steps] == list(range(1, len(schedule.steps) + 1))

    @pytest.mark.parametrize(
        "line, problem",
        [("x\ten,sw", "not an integer"), ("1\t", "empty language"), ("1\ten,,sw", "empty language")],
    )
    def test_malformed_schedule_line_names_its_location(self, tmp_path, line, problem):
        sched = tmp_path / "sched.tsv"
        sched.write_text("1\ten,sw\n" + line + "\n", encoding="utf-8")
        with pytest.raises(MalformedLine, match=re.escape(f"{sched}:2: ") + f".*{problem}"):
            read_schedule_steps(sched)

    def test_failing_examples_leave_existing_files_alone(self, tmp_path):
        src, tgt = tmp_path / "a.src", tmp_path / "a.tgt"
        src.write_bytes(b"old source\n")
        tgt.write_bytes(b"old target\n")
        corpus = _pair_corpus(["en", "sw"], 3)
        examples = expand_multiway_pairs(["en", "sw"], corpus, _full_train_split(corpus),
                                         LabelMode.LANGUAGE_ONLY)

        def failing():
            yield next(examples)
            yield next(examples)
            raise RuntimeError("source went away")

        with pytest.raises(RuntimeError, match="went away"):
            write_labeled_bitext(failing(), src, tgt)
        assert src.read_bytes() == b"old source\n"
        assert tgt.read_bytes() == b"old target\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.src", "a.tgt"]

    def test_failing_examples_create_no_files(self, tmp_path):
        def failing():
            raise RuntimeError("nothing to write")
            yield

        with pytest.raises(RuntimeError):
            write_labeled_bitext(failing(), tmp_path / "a.src", tmp_path / "a.tgt")
        assert list(tmp_path.iterdir()) == []

    def test_bitext_files_line_aligned(self, tmp_path):
        corpus = _pair_corpus(["en", "sw"], 3)
        split = _full_train_split(corpus)
        examples = expand_multiway_pairs(["en", "sw"], corpus, split, LabelMode.WITH_FAMILY)
        count = write_labeled_bitext(examples, tmp_path / "a.src", tmp_path / "a.tgt")
        src_lines = (tmp_path / "a.src").read_text().splitlines()
        tgt_lines = (tmp_path / "a.tgt").read_text().splitlines()
        assert count == len(src_lines) == len(tgt_lines) == 6
        assert src_lines[0].startswith("__opt_family_src_")
