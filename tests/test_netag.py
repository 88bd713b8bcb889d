from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from versemt.corpus import tokenize
from versemt.errors import UnknownPlaceholder
from versemt.lexicon import LexiconEntry, LexiconTable
from versemt.netag import (
    DecodeTable,
    check_entity_order,
    read_decode_sidecar,
    restore_placeholders,
    tag_source,
    tag_training_pair,
    write_decode_sidecar,
)

from oracles import tag_training_pair_oracle


def _table(pairs: list[tuple[str, str]]) -> LexiconTable:
    entries = tuple(
        LexiconEntry(id=f"ne{i}", surfaces={"en": en, "sw": sw}, frequency={})
        for i, (en, sw) in enumerate(pairs, start=1)
    )
    return LexiconTable(entries=entries, languages=("en", "sw"))


NOAH_TABLE = _table([("Noah", "Noa"), ("Shem", "Sem"), ("Ham", "Ham"), ("Japheth", "Jafet")])


class TestTagTrainingPair:
    def test_table7_row1(self):
        src = tokenize("And Noah fathered three sons, Shem, Ham, and Japheth.")
        tgt = tokenize("Och Noa födde tre söner: Sem, Ham och Jafet.")
        tagged_src, tagged_tgt, decode = tag_training_pair(src, tgt, NOAH_TABLE, "en", "sw")
        assert tagged_src.text == "And $NE1 fathered three sons , $NE2 , $NE3 , and $NE4 ."
        assert tagged_tgt.text == "Och $NE1 födde tre söner : $NE2 , $NE3 och $NE4 ."
        assert decode.mapping == {
            1: ("Noah", "Noa"),
            2: ("Shem", "Sem"),
            3: ("Ham", "Ham"),
            4: ("Japheth", "Jafet"),
        }

    def test_no_entities(self):
        src = tokenize("three sons were born")
        tgt = tokenize("tre söner föddes")
        tagged_src, tagged_tgt, decode = tag_training_pair(src, tgt, NOAH_TABLE, "en", "sw")
        assert tagged_src.tokens == tuple(src)
        assert tagged_tgt.tokens == tuple(tgt)
        assert decode.mapping == {}

    def test_repeated_entity_distinct_indices(self):
        table = _table([("John", "Johannes")])
        src = tokenize("John saw John")
        tgt = tokenize("Johannes sag Johannes")
        tagged_src, tagged_tgt, decode = tag_training_pair(src, tgt, table, "en", "sw")
        assert tagged_src.text == "$NE1 saw $NE2"
        assert tagged_tgt.text == "$NE1 sag $NE2"
        assert decode.mapping == {1: ("John", "Johannes"), 2: ("John", "Johannes")}

    def test_surplus_source_occurrence_untagged(self):
        table = _table([("John", "Johannes")])
        src = tokenize("John saw John")
        tgt = tokenize("Johannes sag honom")  # target has only one Johannes
        tagged_src, tagged_tgt, decode = tag_training_pair(src, tgt, table, "en", "sw")
        assert tagged_src.text == "$NE1 saw John"
        assert tagged_tgt.text == "$NE1 sag honom"
        assert decode.mapping == {1: ("John", "Johannes")}

    def test_missing_target_cell_untagged_both_sides(self):
        entries = (LexiconEntry(id="a", surfaces={"en": "Noah"}, frequency={}),)
        table = LexiconTable(entries=entries, languages=("en", "sw"))
        src = tokenize("Noah slept")
        tgt = tokenize("Noa sov")
        tagged_src, tagged_tgt, decode = tag_training_pair(src, tgt, table, "en", "sw")
        assert tagged_src.tokens == tuple(src)
        assert tagged_tgt.tokens == tuple(tgt)
        assert decode.mapping == {}

    def test_indices_dense_and_increasing(self):
        src = tokenize("Ham and Japheth and Noah")
        tgt = tokenize("Ham och Jafet och Noa")
        tagged_src, _, decode = tag_training_pair(src, tgt, NOAH_TABLE, "en", "sw")
        indices = [int(t[3:]) for t in tagged_src.tokens if t.startswith("$NE")]
        assert indices == [1, 2, 3]
        assert sorted(decode.mapping) == indices

    def test_multi_token_surface_single_placeholder(self):
        table = _table([("New York", "New York")])
        src = tokenize("go to New York now")
        tgt = tokenize("åk till New York nu")
        tagged_src, tagged_tgt, decode = tag_training_pair(src, tgt, table, "en", "sw")
        assert tagged_src.text == "go to $NE1 now"
        assert tagged_tgt.text == "åk till $NE1 nu"
        assert decode.mapping == {1: ("New York", "New York")}


SAUL_TABLE = _table([("Saul", "Saul"), ("Jonathan", "Jonatan"), ("David", "David")])


class TestTagSource:
    def test_table7_row2(self):
        src = tokenize(
            "And Saul spoke to his son Jonathan, and to all his servants, to kill David."
        )
        tagged, decode = tag_source(src, SAUL_TABLE, "en", "sw")
        assert tagged.placeholder_count == 3
        assert decode.mapping == {
            1: ("Saul", "Saul"),
            2: ("Jonathan", "Jonatan"),
            3: ("David", "David"),
        }

    def test_unknown_names_zero_placeholders(self):
        tagged, decode = tag_source(tokenize("Zedekiah met Jehoiachin"), SAUL_TABLE, "en", "sw")
        assert tagged.placeholder_count == 0
        assert decode.mapping == {}

    def test_table7_row3_ten_rare_entities(self):
        pairs = [
            ("Parshandatha", "Parsandata"),
            ("Dalphon", "Dalefon"),
            ("Aspatha", "Aspata"),
            ("Poratha", "Porata"),
            ("Adalia", "Adalja"),
            ("Aridatha", "Aridata"),
            ("Parmashta", "Parmasta"),
            ("Arisai", "Arisai"),
            ("Aridai", "Aridai"),
            ("Vajezatha", "Vajsata"),
        ]
        table = _table(pairs)
        src = tokenize(
            "And they killed Parshandatha, and Dalphon, and Aspatha, and Poratha, and Adalia,"
            " and Aridatha, and Parmashta, and Arisai, and Aridai, and Vajezatha,"
        )
        tagged, decode = tag_source(src, table, "en", "sw")
        placeholders = [t for t in tagged.tokens if t.startswith("$NE")]
        assert placeholders == [f"$NE{i}" for i in range(1, 11)]
        assert [decode.mapping[i] for i in range(1, 11)] == pairs

    def test_empty_target_cell_skipped(self):
        entries = (
            LexiconEntry(id="a", surfaces={"en": "Saul"}, frequency={}),
            LexiconEntry(id="b", surfaces={"en": "David", "sw": "David"}, frequency={}),
        )
        table = LexiconTable(entries=entries, languages=("en", "sw"))
        tagged, decode = tag_source(tokenize("Saul met David"), table, "en", "sw")
        assert tagged.text == "Saul met $NE1"
        assert decode.mapping == {1: ("David", "David")}


class TestRestore:
    def test_table7_row1_restoration(self):
        decode = DecodeTable(
            {1: ("Noah", "Noa"), 2: ("Shem", "Sem"), 3: ("Ham", "Ham"), 4: ("Japheth", "Jafet")}
        )
        translated = "Och $NE1 födde tre söner , $NE2 $NE3 och $NE4".split()
        restored = restore_placeholders(translated, decode)
        assert " ".join(restored) == "Och Noa födde tre söner , Sem Ham och Jafet"

    def test_identity_without_placeholders(self):
        decode = DecodeTable({1: ("Noah", "Noa")})
        tokens = ["Och", "han", "sov", "."]
        assert restore_placeholders(tokens, decode) == tokens

    def test_unknown_placeholder(self):
        decode = DecodeTable(
            {1: ("Noah", "Noa"), 2: ("Shem", "Sem"), 3: ("Ham", "Ham"), 4: ("Japheth", "Jafet")}
        )
        with pytest.raises(UnknownPlaceholder):
            restore_placeholders(["$NE9"], decode)

    def test_multi_token_target_inserted(self):
        decode = DecodeTable({1: ("New York", "New York")})
        assert restore_placeholders(["i", "$NE1", "!"], decode) == ["i", "New", "York", "!"]

    def test_non_placeholder_dollar_tokens_untouched(self):
        decode = DecodeTable({1: ("Noah", "Noa")})
        assert restore_placeholders(["$NE0", "$NEx", "$NE"], decode) == ["$NE0", "$NEx", "$NE"]


class TestRoundTrip:
    def _random_pair(self, rng: random.Random, table: LexiconTable):
        fillers_src = ["och", "han", "gick", "till", "den", "stora", "staden"]
        fillers_tgt = ["and", "he", "went", "to", "the", "big", "city"]
        entries = list(table.entries)
        src, tgt = [], []
        for _ in range(rng.randint(0, 10)):
            entry = rng.choice(entries)
            src.extend([rng.choice(fillers_src), entry.surface("en")])
            tgt.extend([rng.choice(fillers_tgt), entry.surface("sw")])
        src.extend(rng.choices(fillers_src, k=rng.randint(1, 4)))
        tgt.extend(rng.choices(fillers_tgt, k=rng.randint(1, 4)))
        return src, tgt

    def test_restore_inverts_tagging(self, rng):
        table = NOAH_TABLE
        for _ in range(300):
            src, tgt = self._random_pair(rng, table)
            tagged_src, tagged_tgt, decode = tag_training_pair(src, tgt, table, "en", "sw")
            assert restore_placeholders(tagged_tgt.tokens, decode) == tgt
            indices = [
                int(t[3:]) for t in tagged_src.tokens if t.startswith("$NE") and t[3:].isdigit()
            ]
            assert indices == list(range(1, len(indices) + 1))


class TestCheckOrder:
    DECODE = DecodeTable(
        {1: ("Noah", "Noa"), 2: ("Shem", "Sem"), 3: ("Ham", "Ham"), 4: ("Japheth", "Jafet")}
    )

    def test_all_correct(self):
        ref = "Och Noa födde tre söner : Sem , Ham och Jafet .".split()
        hyp = "Och Noa födde tre söner , Sem Ham och Jafet".split()
        judgment = check_entity_order(hyp, ref, self.DECODE)
        assert judgment.set_correct and judgment.order_correct
        assert judgment.missing == () and judgment.spurious == ()

    def test_missing_entity(self):
        ref = "Noa och Sem och Ham och Jafet".split()
        hyp = "Noa och Sem och Ham".split()
        judgment = check_entity_order(hyp, ref, self.DECODE)
        assert not judgment.set_correct
        assert judgment.missing == ("Jafet",)
        assert judgment.spurious == ()

    def test_swapped_entities(self):
        ref = "Noa och Sem och Ham".split()
        hyp = "Noa och Ham och Sem".split()
        judgment = check_entity_order(hyp, ref, self.DECODE)
        assert judgment.set_correct
        assert not judgment.order_correct

    def test_spurious_entity(self):
        ref = "Noa kom hem".split()
        hyp = "Noa och Sem kom hem".split()
        judgment = check_entity_order(hyp, ref, self.DECODE)
        assert judgment.spurious == ("Sem",)


class TestSidecar:
    def test_roundtrip(self, tmp_path):
        tables = [
            DecodeTable({1: ("Noah", "Noa"), 2: ("Shem", "Sem")}),
            DecodeTable({}),
            DecodeTable({1: ("New York", "New York")}),
        ]
        write_decode_sidecar(tables, tmp_path / "decode.jsonl")
        loaded = read_decode_sidecar(tmp_path / "decode.jsonl")
        assert [t.mapping for t in loaded] == [t.mapping for t in tables]

    def test_line_numbers(self, tmp_path):
        import json

        write_decode_sidecar([DecodeTable({}), DecodeTable({})], tmp_path / "d.jsonl")
        records = [
            json.loads(line) for line in (tmp_path / "d.jsonl").read_text().splitlines()
        ]
        assert [r["line"] for r in records] == [1, 2]


def test_check_entity_order_skips_whitespace_only_target():
    # A blank target surface matches no token; scanning for it must not stall.
    decode = DecodeTable({1: ("Noah", " "), 2: ("Shem", "Sem")})
    judgment = check_entity_order(["Sem", "sov"], ["Sem", "sov"], decode)
    assert (judgment.set_correct, judgment.order_correct) == (True, True)


# Three tokens, so target surfaces repeat, nest in one another (`a` in `a b`)
# and are shared by several entries, also as `a b` against `a  b`.
TAG_VOCAB = ["a", "b", "A"]
tag_cell = st.tuples(
    st.lists(st.sampled_from(TAG_VOCAB), min_size=1, max_size=3), st.sampled_from([" ", "  "])
).map(lambda parts: parts[1].join(parts[0]))


@given(
    cells=st.lists(st.tuples(tag_cell, tag_cell | st.just("")), max_size=6),
    src=st.lists(st.sampled_from(TAG_VOCAB), max_size=12),
    tgt=st.lists(st.sampled_from(TAG_VOCAB), max_size=12),
)
@settings(max_examples=500, deadline=None)
def test_tag_training_pair_matches_sliding_window_oracle(cells, src, tgt):
    table = _table(cells)
    got_src, got_tgt, got_decode = tag_training_pair(src, tgt, table, "en", "sw")
    want_src, want_tgt, want_decode = tag_training_pair_oracle(src, tgt, table, "en", "sw")
    assert got_decode.mapping == want_decode.mapping
    assert got_src == want_src
    assert got_tgt == want_tgt
