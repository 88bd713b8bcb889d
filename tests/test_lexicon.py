from __future__ import annotations

import logging
import random

import pytest

from versemt.alignment import DiagonalParams, train_em
from versemt.corpus import tokenize
from versemt.errors import (
    BadParameter,
    EmptyResult,
    MalformedLine,
    MissingAligner,
    MissingFrequency,
    MissingSelectionFile,
    UnknownLanguage,
)
from versemt.lexicon import (
    LexiconEntry,
    LexiconTable,
    assemble_table,
    filter_seed_list,
    load_lexicon,
    lookup_rows,
    save_lexicon,
    trim_table,
)

from conftest import make_corpus


class TestFilterSeed:
    def test_all_rules_fire(self):
        assert filter_seed_list(["Noah", "and", "noah", "Z"], {"and"}) == ["Noah"]

    def test_punctuation_strip(self):
        assert filter_seed_list(["Noah,"]) == ["Noah"]

    def test_empty_result(self):
        with pytest.raises(EmptyResult):
            filter_seed_list([])

    def test_stoplist_case_insensitive(self):
        with pytest.raises(EmptyResult):
            filter_seed_list(["And"], {"and"})

    def test_sorted_output(self):
        assert filter_seed_list(["Shem", "Ham", "Noah"]) == ["Ham", "Noah", "Shem"]

    def test_capitalized_form_kept_regardless_of_order(self):
        assert filter_seed_list(["noah", "Noah"]) == ["Noah"]
        assert filter_seed_list(["Noah", "noah"]) == ["Noah"]


def _noah_table() -> LexiconTable:
    entries = tuple(
        LexiconEntry(id=f"ne{i}", surfaces={"en": en, "sw": sw}, frequency={"en": freq})
        for i, (en, sw, freq) in enumerate(
            [("Noah", "Noa", 58), ("Shem", "Sem", 18), ("Ham", "Ham", 17), ("Japheth", "Jafet", 11)],
            start=1,
        )
    )
    return LexiconTable(entries=entries, languages=("en", "sw"))


class TestLookup:
    def test_table7_row1_four_matches_in_order(self):
        sentence = tokenize("And Noah fathered three sons, Shem, Ham, and Japheth.")
        matches = lookup_rows(_noah_table(), "en", sentence)
        assert [entry.surface("en") for _, entry in matches] == ["Noah", "Shem", "Ham", "Japheth"]
        starts = [span[0] for span, _ in matches]
        assert starts == sorted(starts)

    def test_no_match(self):
        assert lookup_rows(_noah_table(), "en", ["nothing", "here"]) == []

    def test_leftmost_longest(self):
        entries = (
            LexiconEntry(id="a", surfaces={"en": "New"}, frequency={}),
            LexiconEntry(id="b", surfaces={"en": "New York"}, frequency={}),
        )
        table = LexiconTable(entries=entries, languages=("en",))
        matches = lookup_rows(table, "en", ["New", "York"])
        assert len(matches) == 1
        assert matches[0][0] == (0, 2)
        assert matches[0][1].id == "b"

    def test_case_sensitive(self):
        matches = lookup_rows(_noah_table(), "en", ["ham", "Ham"])
        assert [span for span, _ in matches] == [(1, 2)]

    def test_non_overlapping_reconstruction(self):
        sentence = tokenize("Noah saw Noah and Shem near Ham .")
        matches = lookup_rows(_noah_table(), "en", sentence)
        spans = [span for span, _ in matches]
        for (_, prev_end), (next_start, _) in zip(spans, spans[1:]):
            assert prev_end <= next_start
        rebuilt = []
        cursor = 0
        for (start, end), entry in matches:
            rebuilt.extend(sentence[cursor:start])
            rebuilt.extend(entry.surface("en").split())
            cursor = end
        rebuilt.extend(sentence[cursor:])
        assert rebuilt == sentence

    def test_unknown_language(self):
        with pytest.raises(UnknownLanguage):
            lookup_rows(_noah_table(), "de", ["Noah"])


def _projection_fixture():
    """Bijective en->sw toy corpus; every en word has one sw translation."""
    vocab = {
        "the": "det",
        "man": "mannen",
        "saw": "sag",
        "house": "huset",
        "went": "gick",
        "to": "till",
        "Egypt": "Egypten",
        "Noah": "Noa",
        "Moses": "Mose",
    }
    words = sorted(vocab)
    rng = random.Random(99)
    en_texts, sw_texts = {}, {}
    for i in range(60):
        n = rng.randint(3, 6)
        sentence = [rng.choice(words) for _ in range(n)]
        en_texts[f"v{i:03d}"] = " ".join(sentence)
        sw_texts[f"v{i:03d}"] = " ".join(vocab[w] for w in sentence)
    corpus = make_corpus({"en": en_texts, "sw": sw_texts})
    params = DiagonalParams()
    bitext = [
        (tokenize(en_texts[vid]), tokenize(sw_texts[vid])) for vid in sorted(en_texts)
    ]
    aligner = train_em(bitext, 5, params)
    return corpus, {"sw": aligner}, vocab


class TestAssemble:
    def test_projected_surfaces(self):
        corpus, aligners, vocab = _projection_fixture()
        table = assemble_table(["Egypt", "Noah"], corpus, aligners)
        by_en = {e.surface("en"): e for e in table.entries}
        assert by_en["Egypt"].surface("sw") == "Egypten"
        assert by_en["Noah"].surface("sw") == "Noa"
        assert by_en["Egypt"].frequency["en"] > 0
        assert by_en["Egypt"].frequency["sw"] == by_en["Egypt"].frequency["en"]

    def test_absent_seed_retained_with_empty_cells(self, caplog):
        corpus, aligners, _ = _projection_fixture()
        with caplog.at_level(logging.WARNING):
            table = assemble_table(["Zerubbabel"], corpus, aligners)
        entry = table.entries[0]
        assert entry.surface("en") == "Zerubbabel"
        assert entry.surface("sw") == ""
        assert entry.frequency["en"] == 0
        assert any("SeedNotInCorpus" in rec.message for rec in caplog.records)

    def test_missing_aligner(self):
        corpus, _, _ = _projection_fixture()
        with pytest.raises(MissingAligner):
            assemble_table(["Noah"], corpus, aligners={})

    @pytest.mark.parametrize("min_votes", [0, -3])
    def test_min_votes_below_one(self, min_votes):
        corpus, aligners, _ = _projection_fixture()
        with pytest.raises(BadParameter, match=f"min_votes must be >= 1, got {min_votes}"):
            assemble_table(["Noah"], corpus, aligners, min_votes=min_votes)

    def test_corpus_without_english(self):
        corpus = make_corpus({"sw": {"v1": "hej"}, "de": {"v1": "hallo"}})
        with pytest.raises(UnknownLanguage):
            assemble_table(["Noah"], corpus, aligners={})

    def test_deterministic(self):
        corpus, aligners, _ = _projection_fixture()
        first = assemble_table(["Egypt", "Noah"], corpus, aligners)
        second = assemble_table(["Egypt", "Noah"], corpus, aligners)
        assert first == second

    def test_priors_computed_once_per_shape_and_one_shape_held(self, monkeypatch):
        from versemt import alignment, lexicon

        corpus, aligners, _ = _projection_fixture()
        computed = []
        held = []

        def counting_priors(n, m, params):
            computed.append((n, m))
            return _position_priors(n, m, params)

        def recording_viterbi(table, pair):
            links = viterbi_align(table, pair)
            held.append((len(pair[0]), len(pair[1]), table._priors))
            return links

        _position_priors = alignment._position_priors
        viterbi_align = alignment.viterbi_align
        monkeypatch.setattr(alignment, "_position_priors", counting_priors)
        monkeypatch.setattr(lexicon, "viterbi_align", recording_viterbi)
        assemble_table(["Egypt", "Noah"], corpus, aligners)
        assert len(held) > len(computed) == len(set(computed))
        # The table holds one shape's priors: those of the pair it just decoded.
        assert all(shape == (n, m) and len(priors) == m for n, m, (shape, priors) in held)

    def test_unique_ids(self):
        corpus, aligners, _ = _projection_fixture()
        table = assemble_table(["Egypt", "Noah", "Moses"], corpus, aligners)
        ids = [e.id for e in table.entries]
        assert len(ids) == len(set(ids))


class TestTrim:
    def _table_and_corpus(self):
        corpus = make_corpus(
            {
                "en": {
                    "v1": "Noah saw Noah",  # Noah: 2 occurrences
                    "v2": "Japheth stood",  # Japheth: 1
                },
                "sw": {"v1": "Noa sag Noa", "v2": "Jafet stod"},
            }
        )
        table = _noah_table()
        return table, corpus

    def test_none_is_identity(self):
        table, corpus = self._table_and_corpus()
        assert trim_table(table, "none", corpus) is table

    def test_frequency_one_keeps_tail(self):
        table, corpus = self._table_and_corpus()
        trimmed = trim_table(table, "frequency-equals-one", corpus)
        assert [e.surface("en") for e in trimmed.entries] == ["Japheth"]

    def test_frequency_one_from_stored_counts(self):
        entries = (
            LexiconEntry(id="a", surfaces={"en": "Noah"}, frequency={"en": 58}),
            LexiconEntry(id="b", surfaces={"en": "Aridai"}, frequency={"en": 1}),
        )
        table = LexiconTable(entries=entries, languages=("en",))
        trimmed = trim_table(table, "frequency-equals-one")
        assert [e.surface("en") for e in trimmed.entries] == ["Aridai"]

    def test_frequency_one_refuses_an_entry_without_a_stored_count(self):
        entries = (
            LexiconEntry(id="a", surfaces={"en": "Noah"}, frequency={"en": 1}),
            LexiconEntry(id="b", surfaces={"en": "Aridai"}, frequency={"sw": 1}),
        )
        table = LexiconTable(entries=entries, languages=("en", "sw"))
        with pytest.raises(MissingFrequency, match="^entry 'b' has no 'en' count$"):
            trim_table(table, "frequency-equals-one")

    def test_manual_selection(self, tmp_path):
        table, corpus = self._table_and_corpus()
        selection = tmp_path / "keep.txt"
        selection.write_text("Noah\n", encoding="utf-8")
        trimmed = trim_table(table, "manual-selection", corpus, selection)
        assert [e.surface("en") for e in trimmed.entries] == ["Noah"]

    def test_missing_selection_file(self, tmp_path):
        table, corpus = self._table_and_corpus()
        with pytest.raises(MissingSelectionFile):
            trim_table(table, "manual-selection", corpus, tmp_path / "nope.txt")

    def test_output_subset_of_input(self):
        table, corpus = self._table_and_corpus()
        trimmed = trim_table(table, "frequency-equals-one", corpus)
        assert set(e.id for e in trimmed.entries) <= set(e.id for e in table.entries)


class TestLexiconIo:
    def test_roundtrip(self, tmp_path):
        table = _noah_table()
        save_lexicon(table, tmp_path / "lex.tsv", tmp_path / "freq.tsv")
        loaded = load_lexicon(tmp_path / "lex.tsv", tmp_path / "freq.tsv")
        assert [e.surface("en") for e in loaded.entries] == [
            e.surface("en") for e in table.entries
        ]
        assert [e.surface("sw") for e in loaded.entries] == [
            e.surface("sw") for e in table.entries
        ]
        assert loaded.entries[0].frequency == {"en": 58}

    def test_header_en_first(self, tmp_path):
        corpus, aligners, _ = _projection_fixture()
        table = assemble_table(["Noah"], corpus, aligners)
        save_lexicon(table, tmp_path / "lex.tsv")
        header = (tmp_path / "lex.tsv").read_text().splitlines()[0]
        assert header == "id\ten\tsw"

    def test_empty_cell_means_missing(self, tmp_path):
        entries = (LexiconEntry(id="a", surfaces={"en": "Noah"}, frequency={}),)
        table = LexiconTable(entries=entries, languages=("en", "sw"))
        save_lexicon(table, tmp_path / "lex.tsv")
        loaded = load_lexicon(tmp_path / "lex.tsv")
        assert loaded.entries[0].surface("sw") == ""

    def test_whitespace_only_cell_rejected(self, tmp_path):
        (tmp_path / "lex.tsv").write_text("id\ten\tsw\nne1\tNoah\t \n", encoding="utf-8")
        with pytest.raises(MalformedLine, match="lex.tsv:2"):
            load_lexicon(tmp_path / "lex.tsv")

    @pytest.mark.parametrize("header, lang", [("id\ten\ten", "en"), ("id\ten\tur\tuk", "uk")])
    def test_a_language_named_twice_is_rejected_at_the_header(self, tmp_path, header, lang):
        (tmp_path / "lex.tsv").write_text(f"{header}\n", encoding="utf-8")
        with pytest.raises(MalformedLine, match=f"lex.tsv:1: language '{lang}' names two columns"):
            load_lexicon(tmp_path / "lex.tsv")

    def test_a_column_is_known_by_its_registry_code(self, tmp_path):
        (tmp_path / "lex.tsv").write_text("id\ten\tur\nne1\tPaul\tПавло\n", encoding="utf-8")
        loaded = load_lexicon(tmp_path / "lex.tsv")
        assert loaded.languages == ("en", "uk")
        assert loaded.entries[0].surface("uk") == "Павло"

    def test_a_frequency_row_is_known_by_its_registry_code(self, tmp_path):
        lex, freq = tmp_path / "lex.tsv", tmp_path / "freq.tsv"
        lex.write_text("id\ten\tur\nne1\tPaul\tПавло\n", encoding="utf-8")
        # A row for an id the lexicon lacks is kept apart: a trimmed lexicon reads
        # the full frequency file.
        freq.write_text("ne1\ten\t2\nne1\tur\t4\nne9\tuk\t1\n", encoding="utf-8")
        assert load_lexicon(lex, freq).entries[0].frequency == {"en": 2, "uk": 4}
        freq.write_text("ne1\tuk\t4\nne1\tur\t4\n", encoding="utf-8")
        with pytest.raises(MalformedLine, match=r"freq.tsv:2: row 'ne1', 'uk' repeats line 1"):
            load_lexicon(lex, freq)

    @pytest.mark.parametrize("code, message", [
        ("xx", "unknown language code 'xx'"),
        ("po", "language code 'po' is ambiguous; use pl or pt"),
    ])
    def test_an_unknown_frequency_row_code_is_rejected_at_its_line(self, tmp_path, code,
                                                                   message):
        lex, freq = tmp_path / "lex.tsv", tmp_path / "freq.tsv"
        lex.write_text("id\ten\tsw\nne1\tNoah\tNoa\n", encoding="utf-8")
        freq.write_text(f"ne1\ten\t1\nne1\t{code}\t3\n", encoding="utf-8")
        with pytest.raises(UnknownLanguage, match=f"^{freq}:2: {message}$"):
            load_lexicon(lex, freq)

    def test_a_repeated_entry_id_is_rejected_at_its_line(self, tmp_path):
        lex, freq = tmp_path / "lex.tsv", tmp_path / "freq.tsv"
        lex.write_text("id\ten\tsw\nne1\tNoah\tNoa\nne2\tShem\tSem\nne1\tHam\tHam\n",
                       encoding="utf-8")
        freq.write_text("ne1\ten\t3\n", encoding="utf-8")
        with pytest.raises(MalformedLine, match=r"lex.tsv:4: entry id 'ne1' is repeated"):
            load_lexicon(lex, freq)
