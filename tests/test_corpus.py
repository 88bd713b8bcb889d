from __future__ import annotations

import logging
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from versemt.corpus import (
    FAMILIES,
    REGISTRY,
    CorpusStats,
    corpus_stats,
    get_language,
    ingest_language_file,
    intersect_alignment,
    read_corpus_dir,
    read_split,
    split_corpus,
    tokenize,
    write_corpus_dir,
    write_split,
    write_stats_report,
)
from versemt.errors import (
    BadRatios,
    DuplicateVerseId,
    EmptyFile,
    MalformedLine,
    UnknownLanguage,
)

from conftest import make_corpus


class TestRegistry:
    def test_eight_families_23_languages(self):
        assert len(FAMILIES) == 8
        assert len(REGISTRY) == 23
        assert {lang.family for lang in REGISTRY.values()} == set(FAMILIES)

    def test_germanic_members(self):
        germanic = {c for c, lang in REGISTRY.items() if lang.family == "germanic"}
        assert germanic == {"de", "dn", "dt", "no", "sw", "en"}

    def test_ukrainian_alias(self):
        assert get_language("ur").code == "uk"

    def test_po_is_ambiguous(self):
        with pytest.raises(UnknownLanguage, match="ambiguous"):
            get_language("po")

    def test_unknown_code(self):
        with pytest.raises(UnknownLanguage):
            get_language("xx")


class TestTokenize:
    def test_trailing_punct_separated(self):
        assert tokenize("Noah,") == ["Noah", ","]

    def test_leading_and_trailing(self):
        assert tokenize('"Hello!"') == ['"', "Hello", "!", '"']

    def test_connector_punct_stays(self):
        assert tokenize("__opt_src_fr text") == ["__opt_src_fr", "text"]

    def test_placeholder_survives(self):
        assert tokenize("$NE1 went home .") == ["$NE1", "went", "home", "."]

    def test_whitespace_only(self):
        assert tokenize("  \t \n ") == []


class TestIngest:
    def test_single_line(self, tmp_path):
        path = tmp_path / "sw.tsv"
        path.write_text("GEN_1_1\tI begynnelsen\n", encoding="utf-8")
        assert ingest_language_file(path, "sw") == {"GEN_1_1": "I begynnelsen"}

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "sw.tsv"
        path.write_text("GEN_1_1\ta\nGEN_1_1\tb\n", encoding="utf-8")
        with pytest.raises(DuplicateVerseId):
            ingest_language_file(path, "sw")

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "sw.tsv"
        path.write_text("GEN_1_1\ta\tb\n", encoding="utf-8")
        with pytest.raises(MalformedLine):
            ingest_language_file(path, "sw")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "sw.tsv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(EmptyFile):
            ingest_language_file(path, "sw")

    def test_nfc_normalization_and_trim(self, tmp_path):
        path = tmp_path / "de.tsv"
        # Ä is the decomposed form of Ä.
        path.write_text("V1\t  Ägypten  \n", encoding="utf-8")
        assert ingest_language_file(path, "de") == {"V1": "Ägypten"}

    def test_unknown_language(self, tmp_path):
        path = tmp_path / "xx.tsv"
        path.write_text("V1\ta\n", encoding="utf-8")
        with pytest.raises(UnknownLanguage):
            ingest_language_file(path, "xx")


class TestIntersect:
    def test_two_maps(self):
        corpus = intersect_alignment(
            {"en": {"1": "a", "2": "b", "3": "c"}, "sw": {"2": "x", "3": "y", "4": "z"}}
        )
        assert corpus.ids() == ["2", "3"]
        assert set(corpus.languages) == {"en", "sw"}

    def test_single_map_identity(self):
        corpus = intersect_alignment({"en": {"2": "b", "1": "a"}})
        assert corpus.ids() == ["1", "2"]
        assert corpus.texts("en") == ["a", "b"]

    def test_disjoint_maps_warn(self, caplog):
        with caplog.at_level(logging.WARNING):
            corpus = intersect_alignment({"en": {"1": "a"}, "sw": {"2": "b"}})
        assert len(corpus) == 0
        assert any("EmptyIntersection" in rec.message for rec in caplog.records)

    @given(
        a=st.sets(st.integers(0, 30)),
        b=st.sets(st.integers(0, 30)),
        c=st.sets(st.integers(0, 30)),
    )
    @settings(max_examples=50)
    def test_commutative_associative_over_ids(self, a, b, c):
        def ids(*maps_sets):
            maps = {
                lang: {str(i): "t" for i in ids_set}
                for lang, ids_set in zip(("en", "sw", "de"), maps_sets)
            }
            return set(intersect_alignment(maps).ids())

        expected = {str(i) for i in a & b & c}
        assert ids(a, b, c) == expected
        assert ids(b, a, c) == expected
        assert ids(c, b, a) == expected


def _verse_corpus(n: int):
    return make_corpus({"en": {f"v{i:05d}": f"word{i} text" for i in range(n)}})


class TestSplit:
    def test_sizes_100(self):
        split = split_corpus(_verse_corpus(100), (0.75, 0.15, 0.10), seed=42)
        assert (len(split.train), len(split.val), len(split.test)) == (75, 15, 10)

    def test_deterministic(self):
        corpus = _verse_corpus(137)
        first = split_corpus(corpus, (0.75, 0.15, 0.10), seed=7)
        second = split_corpus(corpus, (0.75, 0.15, 0.10), seed=7)
        assert first == second

    def test_seed_changes_assignment(self):
        corpus = _verse_corpus(137)
        assert split_corpus(corpus, (0.75, 0.15, 0.10), 1) != split_corpus(
            corpus, (0.75, 0.15, 0.10), 2
        )

    def test_bad_ratios(self):
        with pytest.raises(BadRatios):
            split_corpus(_verse_corpus(10), (0.5, 0.5, 0.5), seed=0)

    def test_negative_ratio(self):
        with pytest.raises(BadRatios):
            split_corpus(_verse_corpus(10), (1.2, -0.1, -0.1), seed=0)

    @given(n=st.integers(3, 200), seed=st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_partition_property(self, n, seed):
        corpus = _verse_corpus(n)
        split = split_corpus(corpus, (0.75, 0.15, 0.10), seed)
        ids = set(corpus.ids())
        assert split.train | split.val | split.test == ids
        assert not (split.train & split.val)
        assert not (split.train & split.test)
        assert not (split.val & split.test)
        assert abs(len(split.train) - 0.75 * n) <= 1
        assert abs(len(split.val) - 0.15 * n) <= 1
        assert abs(len(split.test) - 0.10 * n) <= 1


class TestStats:
    def test_hand_count(self):
        corpus = make_corpus({"en": {"v1": "a b a"}})
        stats = corpus_stats(corpus, "en")
        assert stats == CorpusStats(
            verse_count=1, token_count=3, unique_token_count=2, log10_token_count=0.48
        )

    def test_log10_of_53589(self):
        corpus = make_corpus({"sw": {"v1": "w " * 53589}})
        stats = corpus_stats(corpus, "sw")
        assert stats.token_count == 53589
        assert stats.log10_token_count == 4.73

    def test_empty_corpus(self):
        corpus = make_corpus({"en": {}})
        stats = corpus_stats(corpus, "en")
        assert stats.token_count == 0
        assert stats.log10_token_count is None

    def test_unknown_language(self):
        with pytest.raises(UnknownLanguage):
            corpus_stats(make_corpus({"en": {"v1": "a"}}), "sw")

    @given(counts=st.lists(st.integers(1, 40), min_size=1, max_size=8))
    @settings(max_examples=40)
    def test_log_matches_reported_count(self, counts):
        texts = {f"v{i}": "w " * c for i, c in enumerate(counts)}
        stats = corpus_stats(make_corpus({"en": texts}), "en")
        assert stats.log10_token_count == pytest.approx(
            math.log10(stats.token_count), abs=0.005
        )


class TestCorpusIo:
    def test_roundtrip_dir(self, tmp_path):
        corpus = make_corpus(
            {
                "en": {"v1": "In the beginning", "v2": "And God said"},
                "sw": {"v1": "I begynnelsen", "v2": "Och Gud sade"},
            }
        )
        write_corpus_dir(corpus, tmp_path / "store")
        loaded = read_corpus_dir(tmp_path / "store")
        assert loaded.ids() == corpus.ids()
        assert loaded.texts("sw") == corpus.texts("sw")

    def test_split_roundtrip(self, tmp_path):
        split = split_corpus(_verse_corpus(40), (0.75, 0.15, 0.10), seed=3)
        write_split(split, tmp_path / "splits.tsv")
        assert read_split(tmp_path / "splits.tsv") == split

    def test_stats_report(self, tmp_path):
        corpus = make_corpus({"en": {"v1": "a b a"}})
        write_stats_report(corpus, tmp_path / "stats.tsv")
        lines = (tmp_path / "stats.tsv").read_text().splitlines()
        assert lines[0].startswith("lang\t")
        assert lines[1] == "en\t1\t3\t2\t0.48"
