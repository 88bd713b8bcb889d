from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from versemt import cli, labeling
from versemt.corpus import FAMILIES, REGISTRY, SplitAssignment, get_language, read_corpus_dir
from versemt.corpus import split_corpus, tokenize, write_corpus_dir, write_split
from versemt.errors import EmptySplit, MalformedLine, PipelineError, UnknownLanguage
from versemt.labeling import (
    LabelMode,
    ScheduleMode,
    TrainTexts,
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


def _expand(langs, corpus, split, mode):
    """``label``'s path for one step: check the inputs, then expand."""
    return expand_multiway_pairs(langs, TrainTexts(langs, corpus, split), mode)


def _line_count(blocks) -> int:
    return sum(len(block.source_lines) for block in blocks)


class TestExpandMultiway:
    def test_two_langs_ten_verses(self):
        corpus = _pair_corpus(["en", "sw"], 10)
        split = split_corpus(corpus, (0.8, 0.1, 0.1), seed=0)
        # 10 verses at these ratios put 8 in train: force all 10 into train
        split = type(split)(
            train=frozenset(corpus.ids), val=frozenset(), test=frozenset(),
        )
        blocks = list(_expand(["en", "sw"], corpus, split, LabelMode.LANGUAGE_ONLY))
        assert _line_count(blocks) == 20
        assert [len(block.target_lines) for block in blocks] == [10, 10]

    def test_six_langs_thirty_pairs_per_verse(self):
        germanic = ["de", "dn", "dt", "no", "sw", "en"]
        corpus = _pair_corpus(germanic, 1)
        split = _full_train_split(corpus)
        blocks = list(_expand(germanic, corpus, split, LabelMode.WITH_FAMILY))
        assert len(blocks) == 30
        assert _line_count(blocks) == 30

    def test_singleton_empty(self):
        corpus = _pair_corpus(["en"], 4)
        split = _full_train_split(corpus)
        assert list(_expand(["en"], corpus, split, LabelMode.LANGUAGE_ONLY)) == []

    def test_total_and_no_self_pairs(self):
        langs = ["en", "sw", "fr"]
        corpus = _pair_corpus(langs, 7)
        split = _full_train_split(corpus)
        blocks = list(_expand(langs, corpus, split, LabelMode.WITH_FAMILY))
        assert _line_count(blocks) == 7 * 3 * 2
        assert all(len(b.source_lines) == len(b.target_lines) == 7 for b in blocks)
        assert all(b.src != b.tgt for b in blocks)
        keys = [(b.src, b.tgt) for b in blocks]
        assert keys == sorted(keys)

    def test_labels_prefix_source(self):
        corpus = _pair_corpus(["en", "sw"], 1)
        split = _full_train_split(corpus)
        block = next(iter(_expand(["en", "sw"], corpus, split, LabelMode.WITH_FAMILY)))
        labels = label_tokens(block.src, block.tgt, LabelMode.WITH_FAMILY)
        assert block.source_lines[0].split()[:4] == labels

    def test_empty_split(self):
        corpus = _pair_corpus(["en", "sw"], 3)
        split = _full_train_split(corpus)
        empty = type(split)(
            train=frozenset(), val=split.train, test=frozenset()
        )
        with pytest.raises(EmptySplit):
            list(_expand(["en", "sw"], corpus, empty, LabelMode.LANGUAGE_ONLY))

    def test_lang_not_in_corpus(self):
        corpus = _pair_corpus(["en", "sw"], 3)
        split = _full_train_split(corpus)
        with pytest.raises(UnknownLanguage):
            list(_expand(["en", "fr"], corpus, split, LabelMode.LANGUAGE_ONLY))

    def test_language_not_checked_against_the_corpus_is_refused(self):
        corpus = _pair_corpus(["en", "sw", "fr"], 3)
        texts = TrainTexts(["en", "sw"], corpus, _full_train_split(corpus))
        with pytest.raises(UnknownLanguage, match="'fr' was not checked"):
            list(expand_multiway_pairs(["en", "fr"], texts, LabelMode.LANGUAGE_ONLY))

    def test_train_id_missing_from_corpus_is_data_error(self):
        corpus = _pair_corpus(["en", "sw"], 3)
        split = _full_train_split(corpus)
        stale = SplitAssignment(
            train=split.train | {"zzz999"}, val=frozenset(), test=frozenset(),
        )
        with pytest.raises(PipelineError, match="zzz999"):
            list(_expand(["en", "sw"], corpus, stale, LabelMode.LANGUAGE_ONLY))

    def test_alias_beside_its_code_is_one_language(self):
        corpus = _pair_corpus(["en", "uk"], 3)
        split = _full_train_split(corpus)
        blocks = _expand(["en", "ur", "uk"], corpus, split, LabelMode.LANGUAGE_ONLY)
        assert [(b.src, b.tgt, len(b.source_lines)) for b in blocks] == [
            ("en", "uk", 3), ("uk", "en", 3)
        ]

    def test_example_is_a_tuple_of_four_named_fields(self):
        example = labeling.LabeledExample(
            source_lines=["__opt_src_en a"], target_lines=("b",), src="en", tgt="sw"
        )
        assert labeling.LabeledExample._fields == ("source_lines", "target_lines", "src", "tgt")
        assert example == (["__opt_src_en a"], ("b",), "en", "sw")
        assert example.target_lines == ("b",)

    def test_tokenizes_each_verse_once_per_label_call(self, monkeypatch, tmp_path):
        calls = []

        def counting_tokenize(text):
            calls.append(text)
            return tokenize(text)

        monkeypatch.setattr(labeling, "tokenize", counting_tokenize)
        corpus = _pair_corpus(["en", "sw", "fr", "de", "ru"], 5)
        write_corpus_dir(corpus, tmp_path / "aligned")
        write_split(_full_train_split(corpus), tmp_path / "splits.tsv")
        # Four steps, three of them naming en and sw; ru is in no step.
        (tmp_path / "sched.tsv").write_text("1\ten,sw\n2\ten,sw,fr\n3\tfr,de\n4\ten,sw,fr,de\n")
        assert cli.dispatch([
            "label", "--corpus", str(tmp_path / "aligned"), "--split", str(tmp_path / "splits.tsv"),
            "--mode", "family", "--schedule", str(tmp_path / "sched.tsv"),
            "--out-prefix", str(tmp_path / "run"),
        ]) == 0
        assert len((tmp_path / "run.step4.src").read_text().splitlines()) == 5 * 4 * 3
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
    train = draw(st.sets(st.sampled_from(corpus.ids), min_size=1))
    split = SplitAssignment(
        train=frozenset(train), val=frozenset(), test=frozenset()
    )
    return langs, corpus, split, draw(st.sampled_from(list(LabelMode)))


class TestExpandMatchesOracle:
    """Per-call token reuse and the block writer equal the buffered,
    per-direction tokenizing, per-line versions they replaced."""

    @given(case=_labeling_case())
    @settings(max_examples=150, deadline=None)
    def test_examples_equal_oracle(self, case):
        langs, corpus, split, mode = case
        lines = [
            (source, target, block.src, block.tgt)
            for block in _expand(langs, corpus, split, mode)
            for source, target in zip(block.source_lines, block.target_lines, strict=True)
        ]
        assert lines == [
            (" ".join(e.source_tokens), " ".join(e.target_tokens), e.src, e.tgt)
            for e in expand_multiway_pairs_oracle(langs, corpus, split, mode)
        ]

    @given(case=_labeling_case())
    @settings(max_examples=60, deadline=None)
    def test_written_files_equal_oracle(self, tmp_path_factory, case):
        langs, corpus, split, mode = case
        out = tmp_path_factory.mktemp("bitext")
        count = write_labeled_bitext(
            _expand(langs, corpus, split, mode), out / "new.src", out / "new.tgt"
        )
        expected = write_labeled_bitext_oracle(
            expand_multiway_pairs_oracle(langs, corpus, split, mode), out / "old.src", out / "old.tgt"
        )
        assert count == expected
        assert (out / "new.src").read_bytes() == (out / "old.src").read_bytes()
        assert (out / "new.tgt").read_bytes() == (out / "old.tgt").read_bytes()


_STAGE_LANGS = ["en", "sw", "fr", "uk", "ru", "fn"]


@st.composite
def _label_stage_case(draw):
    """A corpus, a split and a schedule of random steps: not cumulative, a
    step set may repeat, a step may name one language, and `ur` may stand
    beside `uk`. Some verse texts tokenize to nothing."""
    corpus_langs = draw(st.lists(st.sampled_from(_STAGE_LANGS), min_size=1, max_size=5, unique=True))
    n_verses = draw(st.integers(1, 5))
    pieces = st.sampled_from(_TEXT_PIECES)
    text = st.one_of(st.just(""), st.lists(pieces, min_size=1, max_size=5).map(" ".join))
    texts = {lang: {f"v{i}": draw(text) for i in range(n_verses)} for lang in corpus_langs}
    corpus = make_corpus(texts)
    train = draw(st.sets(st.sampled_from(corpus.ids), min_size=1))
    names = corpus_langs + (["ur"] if "uk" in corpus_langs else [])
    step_langs = st.lists(st.sampled_from(names), min_size=1, max_size=5)
    steps = draw(st.lists(step_langs, min_size=1, max_size=4))
    if draw(st.booleans()):  # one step's language set again
        steps.append(list(draw(st.sampled_from(steps))))
    mode = draw(st.sampled_from(["language", "family"]))
    return corpus, train, steps, mode


class TestLabelStageMatchesOracle:
    @given(case=_label_stage_case())
    @settings(max_examples=60, deadline=None)
    def test_every_step_file_equals_oracle(self, tmp_path_factory, case):
        corpus, train, steps, mode = case
        work = tmp_path_factory.mktemp("label")
        write_corpus_dir(corpus, work / "aligned")
        split = SplitAssignment(train=frozenset(train), val=frozenset(), test=frozenset())
        write_split(split, work / "splits.tsv")
        sched = "".join(f"{k}\t{','.join(langs)}\n" for k, langs in enumerate(steps, start=1))
        (work / "sched.tsv").write_text(sched, encoding="utf-8")
        assert cli.dispatch([
            "label", "--corpus", str(work / "aligned"), "--split", str(work / "splits.tsv"),
            "--mode", mode, "--schedule", str(work / "sched.tsv"), "--out-prefix", str(work / "run"),
        ]) == 0
        read_back = read_corpus_dir(work / "aligned")
        label_mode = LabelMode.WITH_FAMILY if mode == "family" else LabelMode.LANGUAGE_ONLY
        for k, langs in enumerate(steps, start=1):
            expected = expand_multiway_pairs_oracle(langs, read_back, split, label_mode)
            write_labeled_bitext_oracle(expected, work / "old.src", work / "old.tgt")
            for side in ("src", "tgt"):
                assert (work / f"run.step{k}.{side}").read_bytes() == (
                    work / f"old.{side}"
                ).read_bytes(), (k, side)


def _full_train_split(corpus):
    from versemt.corpus import SplitAssignment

    return SplitAssignment(
        train=frozenset(corpus.ids),
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
        [("x\ten,sw", "not an integer"), ("1\t", "empty language"), ("1\ten,,sw", "empty language"),
         ("0\ten,sw", "not from 1 to 999999"), ("1" * 300 + "\ten,sw", "not from 1 to 999999"),
         ("01\ten,fr", "step 1 repeats line 1")],
    )
    def test_malformed_schedule_line_names_its_location(self, tmp_path, line, problem):
        sched = tmp_path / "sched.tsv"
        sched.write_text("1\ten,sw\n" + line + "\n", encoding="utf-8")
        with pytest.raises(MalformedLine, match=re.escape(f"{sched}:2: ") + f".*{problem}"):
            read_schedule_steps(sched)

    def test_schedule_steps_are_registry_codes_once_each(self, tmp_path):
        sched = tmp_path / "sched.tsv"
        sched.write_text("1\tsw,ur,uk,en,sw\n", encoding="utf-8")
        assert read_schedule_steps(sched) == [(1, ["en", "sw", "uk"])]

    def test_unknown_code_names_its_location(self, tmp_path):
        sched = tmp_path / "sched.tsv"
        sched.write_text("1\ten,sw\n2\ten,xx\n", encoding="utf-8")
        with pytest.raises(UnknownLanguage, match=re.escape(f"{sched}:2: unknown language code 'xx'")):
            read_schedule_steps(sched)

    def test_failing_examples_leave_existing_files_alone(self, tmp_path):
        src, tgt = tmp_path / "a.src", tmp_path / "a.tgt"
        src.write_bytes(b"old source\n")
        tgt.write_bytes(b"old target\n")
        corpus = _pair_corpus(["en", "sw"], 3)
        examples = _expand(["en", "sw"], corpus, _full_train_split(corpus), LabelMode.LANGUAGE_ONLY)

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
        examples = _expand(["en", "sw"], corpus, split, LabelMode.WITH_FAMILY)
        count = write_labeled_bitext(examples, tmp_path / "a.src", tmp_path / "a.tgt")
        src_lines = (tmp_path / "a.src").read_text().splitlines()
        tgt_lines = (tmp_path / "a.tgt").read_text().splitlines()
        assert count == len(src_lines) == len(tgt_lines) == 6
        assert src_lines[0].startswith("__opt_family_src_")
