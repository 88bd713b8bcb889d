from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from versemt.errors import DanglingContinuation, EmptyCorpus, MalformedLine
from versemt.subword import (
    BpeModel,
    apply_bpe,
    learn_bpe,
    load_model,
    revert_bpe,
    save_model,
)

from oracles import apply_bpe_oracle, best_pair_oracle, learn_bpe_oracle, pair_count_oracle

RESERVED = frozenset({"$NE1", "$NE2", "__opt_src_fr", "__opt_tgt_en"})


def _corpus(word_freq: dict[str, int]) -> list[str]:
    return [word for word, freq in sorted(word_freq.items()) for _ in range(freq)]


class TestLearn:
    def test_first_merge_matches_pair_oracle(self):
        word_freq = {"low": 5, "lowest": 2}
        model = learn_bpe(_corpus(word_freq), num_merges=1)
        assert model.merges == (best_pair_oracle(pair_count_oracle(word_freq)),)
        assert model.merges == (("l", "o"),)

    def test_every_merge_is_oracle_best(self):
        # Re-derive each merge by replaying the oracle on the partially merged
        # corpus: symbols after k merges must yield merge k+1 as max pair.
        word_freq = {"hug": 10, "pug": 5, "pun": 12, "bun": 4, "hugs": 5}
        model = learn_bpe(_corpus(word_freq), num_merges=6)
        symbols = {word: tuple(word) + ("</w>",) for word in word_freq}
        for merge in model.merges:
            counts: Counter = Counter()
            for word, freq in word_freq.items():
                for pair in zip(symbols[word], symbols[word][1:]):
                    counts[pair] += freq
            assert merge == best_pair_oracle(counts)
            merged = merge[0] + merge[1]
            for word in symbols:
                out = []
                i = 0
                seq = symbols[word]
                while i < len(seq):
                    if i + 1 < len(seq) and (seq[i], seq[i + 1]) == merge:
                        out.append(merged)
                        i += 2
                    else:
                        out.append(seq[i])
                        i += 1
                symbols[word] = tuple(out)

    def test_zero_merges(self):
        model = learn_bpe(["low"], num_merges=0)
        assert model.merges == ()
        assert apply_bpe(model, ["low"]) == ["l@@", "o@@", "w"]

    def test_reserved_excluded_from_stats(self):
        corpus = ["__opt_src_fr"] * 50 + ["ab"] * 3
        model = learn_bpe(corpus, num_merges=5, reserved=RESERVED)
        flat = {symbol for pair in model.merges for symbol in pair}
        assert all("_" not in symbol and "f" not in symbol and "r" not in symbol for symbol in flat)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            learn_bpe([], num_merges=3)

    def test_reserved_only_corpus_learns_nothing(self):
        # Reserved tokens count as seen tokens, so this is not EmptyCorpus.
        assert learn_bpe(["$NE1", "$NE1", "__opt_src_fr"], 3, reserved=RESERVED).merges == ()

    def test_empty_corpus_zero_merges_ok(self):
        assert learn_bpe([], num_merges=0).merges == ()

    def test_merges_stop_when_exhausted(self):
        model = learn_bpe(["ab"], num_merges=100)
        # a+b, ab+</w>: two pairs exist in total
        assert len(model.merges) == 2

    def test_deterministic(self):
        corpus = _corpus({"banana": 4, "bandana": 2, "cabana": 3})
        assert learn_bpe(corpus, 10) == learn_bpe(corpus, 10)

    @given(
        word_freq=st.dictionaries(
            st.text(alphabet="abc", min_size=1, max_size=7), st.integers(1, 3), max_size=12
        ),
        reserved_freq=st.dictionaries(st.sampled_from(sorted(RESERVED)), st.integers(1, 4)),
        merges=st.integers(0, 40),
    )
    @example(word_freq={"aaaa": 2, "aaaaa": 1, "aab": 3}, reserved_freq={}, merges=8)
    @example(word_freq={"abab": 1, "aaaaaa": 2}, reserved_freq={"$NE1": 1}, merges=10)
    @example(word_freq={}, reserved_freq={"$NE1": 2, "__opt_src_fr": 1}, merges=3)
    # Adjacent sites: (a, b) then (ab, ab) in "ababab", where a site's left
    # neighbour is the previous site's merged symbol; (a, a) in "aaaaa".
    @example(word_freq={"ababab": 1}, reserved_freq={}, merges=4)
    @example(word_freq={"aaaaa": 2}, reserved_freq={}, merges=4)
    # (a, </w>) has a site at the last symbol, then (a, b) one at the first.
    @example(word_freq={"aba": 2}, reserved_freq={}, merges=3)
    @settings(max_examples=300, deadline=None)
    def test_equals_per_pair_update_oracle(self, word_freq, reserved_freq, merges):
        # A three-letter alphabet and frequencies 1-3 make equal pair counts,
        # so the lexicographic tie-break decides many merges; runs such as
        # "aaaa" make a merge change one pair's count in both directions.
        corpus = _corpus(word_freq) + _corpus(reserved_freq)
        if not corpus and merges:
            return
        assert learn_bpe(corpus, merges, reserved=RESERVED) == learn_bpe_oracle(
            corpus, merges, reserved=RESERVED
        )

    def test_a_token_holding_the_end_of_word_marker_is_refused(self):
        # Built from "<", "/", "w" and ">", the marker's text forms the pair
        # (b, </w>) again after it was merged: the learner would merge it twice.
        corpus = ["aab"] * 4 + ["ab"] * 3 + ["ab</w>b</w>"] * 6 + ["b"] * 9
        merges = learn_bpe_oracle(corpus, 40).merges
        assert merges.count(("b", "</w>")) == 2
        with pytest.raises(MalformedLine, match=r"token 'ab</w>b</w>' holds the end-of-word marker"):
            learn_bpe(corpus, 40)
        assert learn_bpe(corpus, 40, reserved={"ab</w>b</w>"}).merges == learn_bpe_oracle(
            corpus, 40, reserved={"ab</w>b</w>"}).merges

    def test_net_zero_delta_keeps_pair_poppable(self):
        # Merging (a, a) in "aaab" takes the (a, b) pair out of that word and
        # puts it back, so its count is unchanged; it must still be learned.
        corpus = ["aaab"] * 3 + ["ab"] * 2
        assert learn_bpe(corpus, 6) == learn_bpe_oracle(corpus, 6)


# Words over two letters repeat their pairs ("aaaaa", "ababab"); hand-written
# merges join such runs, with or without the end-of-word marker on the right.
_AB_WORDS = st.text(alphabet="ab", min_size=1, max_size=8)
_SENTENCES = st.lists(st.one_of(_AB_WORDS, st.sampled_from(sorted(RESERVED))), max_size=10)
_SYMBOLS = st.text(alphabet="ab", min_size=1, max_size=3)
_RIGHT_SYMBOLS = st.one_of(_SYMBOLS, _SYMBOLS.map(lambda s: s + "</w>"), st.just("</w>"))


class TestApplyRevert:
    def test_reserved_pass_through(self):
        model = learn_bpe(["low"] * 3, num_merges=2, reserved=RESERVED)
        assert apply_bpe(model, ["$NE1"]) == ["$NE1"]

    def test_unseen_word_hand_simulated(self):
        # Hand simulation on a 3-merge model: h,i,g,h,e,r</w> -> (e,r) ->
        # h,i,g,h,er -> (er,</w>) -> ... -> (h,er</w>) makes "her" one piece.
        model = BpeModel(merges=(("e", "r"), ("er", "</w>"), ("h", "er</w>")))
        assert apply_bpe(model, ["higher"]) == ["h@@", "i@@", "g@@", "her"]

    @given(
        word_freq=st.dictionaries(_AB_WORDS, st.integers(1, 3), min_size=1, max_size=10),
        merges=st.integers(0, 30),
        sentence=_SENTENCES,
    )
    @example(word_freq={"ababab": 2, "aaaaa": 1}, merges=8,
             sentence=["ababab", "aaaaa", "abba", "$NE1", "ababab", ""])
    @settings(max_examples=150, deadline=None)
    def test_equals_oracle_on_learned_models(self, word_freq, merges, sentence):
        model = learn_bpe(_corpus(word_freq), merges, reserved=RESERVED)
        assert apply_bpe(model, sentence) == apply_bpe_oracle(model, sentence)

    @given(merges=st.lists(st.tuples(_SYMBOLS, _RIGHT_SYMBOLS), max_size=12), sentence=_SENTENCES)
    # The model of test_unseen_word_hand_simulated.
    @example(merges=[("e", "r"), ("er", "</w>"), ("h", "er</w>")], sentence=["higher", "her"])
    # Merging the first (a, b) makes (ab, a), ranked lower, but every site of
    # (a, b) is merged before any other pair: "abab" is ab@@ ab.
    @example(merges=[("ab", "a"), ("a", "b")], sentence=["abab", "ababab"])
    # Merges whose parts no earlier merge makes: (ab, ab) and (aa, a) rank
    # first, yet only the later (a, b) and (a, a) make their parts.
    @example(merges=[("ab", "ab"), ("a", "b"), ("b", "a")], sentence=["ababab"])
    @example(merges=[("aa", "a"), ("a", "a"), ("a", "aa")], sentence=["aaaaa", "aaaa"])
    @settings(max_examples=300, deadline=None)
    def test_equals_oracle_on_hand_written_models(self, merges, sentence):
        model = BpeModel(merges=tuple(merges), reserved=RESERVED)
        assert apply_bpe(model, sentence) == apply_bpe_oracle(model, sentence)

    def test_roundtrip_example(self):
        assert revert_bpe(["lo@@", "w"]) == ["low"]

    def test_reserved_revert(self):
        assert revert_bpe(["$NE1"]) == ["$NE1"]

    def test_dangling(self):
        for pieces in (["lo@@"], ["lo@@", "w", "@@"]):  # a bare "@@" adds nothing, yet dangles
            with pytest.raises(DanglingContinuation):
                revert_bpe(pieces)

    @given(
        sentence=st.lists(
            st.one_of(
                st.text(alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Lo")), min_size=1, max_size=8),
                st.sampled_from(sorted(RESERVED)),
            ),
            min_size=0,
            max_size=12,
        ),
        merges=st.integers(0, 30),
    )
    @settings(max_examples=80)
    def test_roundtrip_property(self, sentence, merges):
        training = ["low", "lower", "widest", "Ähre", "νερό"] * 3 + sentence
        model = learn_bpe(training, num_merges=merges, reserved=RESERVED)
        assert revert_bpe(apply_bpe(model, sentence)) == sentence

    def test_monotone_compression(self):
        corpus = _corpus({"sentence": 6, "sentiment": 4, "sent": 9, "tent": 2})
        model = learn_bpe(corpus, num_merges=12)
        previous = None
        for k in range(len(model.merges) + 1):
            prefix = BpeModel(merges=model.merges[:k])
            total = sum(len(apply_bpe(prefix, [word])) for word in corpus)
            if previous is not None:
                assert total <= previous
            previous = total


class TestModelIo:
    def test_roundtrip(self, tmp_path):
        model = learn_bpe(_corpus({"low": 5, "lowest": 2}), 4, reserved=RESERVED, vocab_side="target")
        save_model(model, tmp_path / "bpe.model")
        assert load_model(tmp_path / "bpe.model") == model

    def test_header_and_sections(self, tmp_path):
        model = learn_bpe(["low"] * 2, 1, reserved={"$NE1"})
        save_model(model, tmp_path / "bpe.model")
        lines = (tmp_path / "bpe.model").read_text().splitlines()
        assert lines[0] == "#bpe v1 source"
        assert "#reserved" in lines
        assert lines[-1] == "$NE1"

    def test_identical_model_files(self, tmp_path):
        corpus = _corpus({"alpha": 3, "beta": 5, "gamma": 2})
        save_model(learn_bpe(corpus, 8), tmp_path / "a.model")
        save_model(learn_bpe(corpus, 8), tmp_path / "b.model")
        assert (tmp_path / "a.model").read_bytes() == (tmp_path / "b.model").read_bytes()
