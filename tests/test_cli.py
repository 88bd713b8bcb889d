from __future__ import annotations

import ast
import contextlib
import io
import json
import logging
import os
import random
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import versemt
from versemt import cli, harness
from versemt.errors import CycleDetected, StageFailed, UsageError
from versemt.fileio import atomic_write_text
from versemt.manifest import _stage_graph, _topological_order


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


@pytest.fixture
def corpus_dir(tmp_path):
    raw = tmp_path / "raw"
    _write(raw / "en.txt", "".join(f"v{i:03d}\tthe man saw house number {i} .\n" for i in range(20)))
    _write(raw / "sw.txt", "".join(f"v{i:03d}\tmannen sag huset nummer {i} .\n" for i in range(20)))
    store = tmp_path / "store"
    assert cli.dispatch(["ingest", "--lang", "en", "--in", str(raw / "en.txt"), "--out", str(store)]) == 0
    assert cli.dispatch(["ingest", "--lang", "sw", "--in", str(raw / "sw.txt"), "--out", str(store)]) == 0
    aligned = tmp_path / "aligned"
    assert cli.dispatch(["align", "--in", str(store), "--out", str(aligned)]) == 0
    return aligned


class TestExitCodes:
    def test_unknown_subcommand(self):
        assert cli.main(["frobnicate"]) == cli.EXIT_USAGE

    def test_missing_argument(self):
        assert cli.main(["ingest", "--lang", "en"]) == cli.EXIT_USAGE

    def test_no_subcommand(self):
        assert cli.main([]) == cli.EXIT_USAGE

    def test_data_error(self, tmp_path):
        missing = tmp_path / "nope.tsv"
        _write(missing, "only-one-column\n")
        assert cli.main(["ingest", "--lang", "en", "--in", str(missing), "--out", str(tmp_path)]) == cli.EXIT_DATA

    def test_missing_file_is_data_error(self, tmp_path):
        assert cli.main(
            ["ingest", "--lang", "en", "--in", str(tmp_path / "absent.tsv"), "--out", str(tmp_path)]
        ) == cli.EXIT_DATA

    def test_malformed_number_is_data_error(self, tmp_path):
        points = tmp_path / "points.tsv"
        _write(points, "not-a-number\t3.0\n10\t5.0\n")
        assert cli.main(["fit", "--in", str(points)]) == cli.EXIT_DATA

    def test_identical_runs_byte_identical(self, tmp_path):
        src = tmp_path / "s.txt"
        tgt = tmp_path / "t.txt"
        _write(src, "the man saw\nthe house stood\n")
        _write(tgt, "mannen sag\nhuset stod\n")
        for name in ("a.tsv", "b.tsv"):
            assert cli.dispatch([
                "align-train", "--src", str(src), "--tgt", str(tgt),
                "--iterations", "3", "--out", str(tmp_path / name),
            ]) == 0
        assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()

    def test_dispatch_raises_usage(self):
        with pytest.raises(UsageError):
            cli.dispatch(["not-a-command"])


class TestLanguageAlias:
    """`ur` is another spelling of `uk`: a corpus store holds one file per language,
    named by its registry code."""

    UK = "v1\tНа початку\nv2\tА земля\n"

    def _align(self, tmp_path):
        store, aligned = tmp_path / "store", tmp_path / "aligned"
        status = cli.main(["align", "--in", str(store), "--out", str(aligned),
                           "--stats", str(tmp_path / "stats.tsv")])
        return status, aligned

    def test_ingest_writes_the_registry_code_and_align_reads_it(self, tmp_path, capsys):
        _write(tmp_path / "en.txt", "v1\tIn the beginning\nv2\tAnd the earth\n")
        _write(tmp_path / "ur.txt", self.UK)
        for lang in ("en", "ur"):
            assert cli.main(["ingest", "--lang", lang, "--in", str(tmp_path / f"{lang}.txt"),
                             "--out", str(tmp_path / "store")]) == cli.EXIT_OK
        assert sorted(p.name for p in (tmp_path / "store").iterdir()) == ["en.tsv", "uk.tsv"]
        status, aligned = self._align(tmp_path)
        assert status == cli.EXIT_OK, capsys.readouterr().err
        assert (aligned / "uk.tsv").read_text(encoding="utf-8") == self.UK
        stats = (tmp_path / "stats.tsv").read_text(encoding="utf-8").splitlines()
        assert [line.split("\t")[0] for line in stats] == ["lang", "en", "uk"]

    def test_a_file_under_the_alias_is_read_as_its_language(self, tmp_path, capsys):
        _write(tmp_path / "store" / "ur.tsv", self.UK)
        status, aligned = self._align(tmp_path)
        assert status == cli.EXIT_OK, capsys.readouterr().err
        assert sorted(p.name for p in aligned.iterdir()) == ["uk.tsv"]

    def test_two_files_of_one_language_exit_2_naming_both(self, tmp_path, capsys):
        _write(tmp_path / "store" / "en.tsv", "v1\tIn the beginning\nv2\tAnd the earth\n")
        _write(tmp_path / "store" / "uk.tsv", self.UK)
        _write(tmp_path / "store" / "ur.tsv", "v1\tfirst\nv2\tsecond\n")
        status, aligned = self._align(tmp_path)
        assert status == cli.EXIT_DATA
        store = tmp_path / "store"
        assert (f"DuplicateLanguage: {store / 'uk.tsv'} and {store / 'ur.tsv'} both hold "
                f"language 'uk'") in capsys.readouterr().err
        assert not aligned.exists()

    def _lex_build(self, tmp_path, aligner_names):
        """lex-build over an en/uk corpus, one aligner trained per name given."""
        _write(tmp_path / "aligned" / "en.tsv", "v1\tPaul said\nv2\tPaul went\n")
        _write(tmp_path / "aligned" / "uk.tsv", "v1\tПавло сказав\nv2\tПавло пішов\n")
        _write(tmp_path / "bitext.en", "Paul said\nPaul went\n")
        _write(tmp_path / "bitext.uk", "Павло сказав\nПавло пішов\n")
        _write(tmp_path / "seeds.txt", "Paul\n")
        for name in aligner_names:
            assert cli.main(["align-train", "--src", str(tmp_path / "bitext.en"),
                             "--tgt", str(tmp_path / "bitext.uk"), "--iterations", "3",
                             "--out", str(tmp_path / "aligners" / name)]) == cli.EXIT_OK
        return cli.main(["lex-build", "--seed-list", str(tmp_path / "seeds.txt"),
                         "--corpus", str(tmp_path / "aligned"),
                         "--aligners", str(tmp_path / "aligners"),
                         "--out", str(tmp_path / "lex.tsv")])

    def test_a_file_named_by_no_language_exits_2_naming_it(self, tmp_path, capsys):
        _write(tmp_path / "store" / "en.tsv", "v1\tIn the beginning\nv2\tAnd the earth\n")
        _write(tmp_path / "store" / "xx.tsv", self.UK)
        status, aligned = self._align(tmp_path)
        assert status == cli.EXIT_DATA
        assert (f"UnknownLanguage: {tmp_path / 'store' / 'xx.tsv'}: unknown language code "
                f"'xx'") in capsys.readouterr().err
        assert not aligned.exists()
        assert self._lex_build(tmp_path, ["zz.tsv"]) == cli.EXIT_DATA
        assert (f"UnknownLanguage: {tmp_path / 'aligners' / 'zz.tsv'}: unknown language code "
                f"'zz'") in capsys.readouterr().err
        assert not (tmp_path / "lex.tsv").exists()

    def test_an_aligner_under_the_alias_serves_its_language(self, tmp_path, capsys):
        assert self._lex_build(tmp_path, ["ur.tsv"]) == cli.EXIT_OK, capsys.readouterr().err
        assert (tmp_path / "lex.tsv").read_text(encoding="utf-8").splitlines() == [
            "id\ten\tuk", "ne0001\tPaul\tПавло"
        ]

    def test_two_aligners_of_one_language_exit_2_naming_both(self, tmp_path, capsys):
        assert self._lex_build(tmp_path, ["uk.tsv", "ur.tsv"]) == cli.EXIT_DATA
        aligners = tmp_path / "aligners"
        assert (f"DuplicateLanguage: {aligners / 'uk.tsv'} and {aligners / 'ur.tsv'} both "
                f"hold language 'uk'") in capsys.readouterr().err
        assert not (tmp_path / "lex.tsv").exists()

    @pytest.mark.parametrize("column, tgt", [("uk", "ur"), ("ur", "uk")])
    def test_tag_reads_the_alias_as_its_language(self, tmp_path, capsys, column, tgt):
        _write(tmp_path / "lex.tsv", f"id\ten\t{column}\nne1\tPaul\tПавло\n")
        _write(tmp_path / "test.en", "Paul said .\n")
        status = cli.main(["tag", "--lexicon", str(tmp_path / "lex.tsv"), "--src", "en",
                           "--tgt", tgt, "--in", str(tmp_path / "test.en"),
                           "--out", str(tmp_path / "out")])
        assert status == cli.EXIT_OK, capsys.readouterr().err
        assert (tmp_path / "out").read_text(encoding="utf-8") == "$NE1 said .\n"


class TestPipelineStages:
    def test_split_and_label(self, tmp_path, corpus_dir):
        splits = tmp_path / "splits.tsv"
        assert cli.dispatch([
            "split", "--corpus", str(corpus_dir), "--ratios", "0.75,0.15,0.10",
            "--seed", "42", "--out", str(splits),
        ]) == 0
        parts = {}
        for line in splits.read_text().splitlines():
            vid, part = line.split("\t")
            parts.setdefault(part, []).append(vid)
        assert len(parts["train"]) == 15
        assert len(parts["val"]) == 3
        assert len(parts["test"]) == 2

        prefix = tmp_path / "bitext"
        assert cli.dispatch([
            "label", "--corpus", str(corpus_dir), "--split", str(splits),
            "--mode", "family", "--langs", "en,sw", "--out-prefix", str(prefix),
        ]) == 0
        src_lines = (tmp_path / "bitext.src").read_text().splitlines()
        assert len(src_lines) == 30  # 15 train verses x 2 directions
        assert src_lines[0].startswith("__opt_family_src_")

    def test_label_alias_beside_its_code_is_one_language(self, tmp_path):
        raw = tmp_path / "raw"
        _write(raw / "en.txt", "".join(f"v{i}\tthe man {i}\n" for i in range(6)))
        _write(raw / "uk.txt", "".join(f"v{i}\tcholovik {i}\n" for i in range(6)))
        store, aligned = tmp_path / "store", tmp_path / "aligned"
        for lang in ("en", "uk"):
            raw_file = str(raw / f"{lang}.txt")
            assert cli.dispatch(["ingest", "--lang", lang, "--in", raw_file, "--out", str(store)]) == 0
        assert cli.dispatch(["align", "--in", str(store), "--out", str(aligned)]) == 0
        splits = tmp_path / "splits.tsv"
        _write(splits, "".join(f"v{i}\ttrain\n" for i in range(6)))
        prefix = tmp_path / "bitext"
        assert cli.dispatch([
            "label", "--corpus", str(aligned), "--split", str(splits),
            "--mode", "language", "--langs", "en,ur,uk", "--out-prefix", str(prefix),
        ]) == 0
        src_lines = (tmp_path / "bitext.src").read_text().splitlines()
        assert len(src_lines) == 6 * 2  # en->uk and uk->en, once each

    def test_schedule_command(self, tmp_path):
        out = tmp_path / "sched.tsv"
        assert cli.dispatch([
            "schedule", "--anchor", "sw", "--mode", "family-addition", "--seed", "0",
            "--out", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 8
        assert lines[0].split("\t")[0] == "1"

    def test_bpe_learn_apply(self, tmp_path):
        text = tmp_path / "text.txt"
        _write(text, "low lower lowest\nlow low newer\n")
        reserved = tmp_path / "reserved.txt"
        _write(reserved, "$NE1\n__opt_src_en\n")
        model = tmp_path / "bpe.model"
        assert cli.dispatch([
            "bpe-learn", "--in", str(text), "--merges", "10",
            "--reserved", str(reserved), "--out", str(model),
        ]) == 0
        encoded = tmp_path / "text.bpe"
        assert cli.dispatch([
            "bpe-apply", "--model", str(model), "--in", str(text), "--out", str(encoded),
        ]) == 0
        lines = encoded.read_text().splitlines()
        assert len(lines) == 2
        rebuilt = [
            " ".join(piece[:-2] if piece.endswith("@@") else piece for piece in line.split())
            for line in lines
        ]
        assert rebuilt[0].replace(" ", "") == "lowlowerlowest"

    def test_bpe_revert_gives_restore_the_tagged_text(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _write(tmp_path / "lex.tsv", "id\ten\tsw\nne1\tPaulus\tPaulo\nne2\tShem\tSem\n")
        _write(tmp_path / "test.en", "And Paulus fathered Shem .\nPaulus preached long .\n")
        _write(tmp_path / "reserved.txt", "$NE1\n$NE2\n")
        steps = [
            ["tag", "--lexicon", "lex.tsv", "--src", "en", "--tgt", "sw", "--in", "test.en",
             "--out", "test.tagged"],
            ["bpe-learn", "--in", "test.tagged", "--merges", "4", "--reserved", "reserved.txt",
             "--out", "model.bpe"],
            # The translation stand-in: the tagged source itself, in BPE pieces.
            ["bpe-apply", "--model", "model.bpe", "--in", "test.tagged", "--out", "mt.bpe"],
            ["bpe-revert", "--in", "mt.bpe", "--out", "mt.sw"],
            ["restore", "--in", "mt.sw", "--decode", "test.tagged.decode.jsonl",
             "--out", "mt.restored"],
        ]
        for argv in steps:
            assert cli.main(argv) == cli.EXIT_OK
        assert "@@ " in (tmp_path / "mt.bpe").read_text()
        assert (tmp_path / "mt.sw").read_bytes() == (tmp_path / "test.tagged").read_bytes()
        assert (tmp_path / "mt.restored").read_text().splitlines() == [
            "And Paulo fathered Sem .", "Paulo preached long .",
        ]

    def test_bpe_revert_names_the_line_of_a_dangling_piece(self, tmp_path, capsys):
        pieces = tmp_path / "mt.bpe"
        for dangling in ("lo@@", "w @@"):
            _write(pieces, f"lo@@ w\n{dangling}\n")
            status = cli.main(["bpe-revert", "--in", str(pieces), "--out", str(tmp_path / "out")])
            assert status == cli.EXIT_DATA
            assert f"DanglingContinuation: {pieces}:2: " in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("model, line, message", [
        ("#bpe v1 source\na b\na \n#reserved\n", 3, "expected `left<SPACE>right`"),
        ("#bpe v1 source\na b\nab c\na b\n#reserved\n", 4, "merge `a b` repeats line 2"),
        ("#bpe v1 \na b\n#reserved\n", 1, "side must be `source` or `target`, not ''"),
    ], ids=["empty-symbol", "repeated-merge", "no-side"])
    def test_bpe_apply_refuses_a_malformed_model(self, tmp_path, capsys, model, line, message):
        _write(tmp_path / "model.bpe", model)
        _write(tmp_path / "text.txt", "abc\n")
        argv = ["bpe-apply", "--model", str(tmp_path / "model.bpe"), "--in",
                str(tmp_path / "text.txt"), "--out", str(tmp_path / "out")]
        assert cli.main(argv) == cli.EXIT_DATA
        assert f"MalformedLine: {tmp_path / 'model.bpe'}:{line}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bpe_learn_refuses_a_token_holding_the_end_of_word_marker(self, tmp_path, capsys):
        # In a model file "b </w>" could then mean either, and such a corpus
        # can make the learner merge one pair twice.
        _write(tmp_path / "text.txt", "a b\nb</w>ba\n")
        argv = ["bpe-learn", "--in", str(tmp_path / "text.txt"), "--merges", "5",
                "--out", str(tmp_path / "out")]
        assert cli.main(argv) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"MalformedLine: {tmp_path / 'text.txt'}: token 'b</w>ba' holds the end-of-word" in err
        assert not (tmp_path / "out").exists()

    def test_align_train_and_lex_build(self, tmp_path, corpus_dir):
        src = tmp_path / "bitext.en"
        tgt = tmp_path / "bitext.sw"
        _write(src, "".join("the man saw house\n" for _ in range(30)))
        _write(tgt, "".join("mannen sag huset\n" for _ in range(30)))
        table = tmp_path / "aligners" / "sw.tsv"
        table.parent.mkdir()
        assert cli.dispatch([
            "align-train", "--src", str(src), "--tgt", str(tgt), "--iterations", "4",
            "--out", str(table),
        ]) == 0
        assert table.read_text().startswith("#lambda=")

        seeds = tmp_path / "seed.txt"
        _write(seeds, "man\nhouse\n")
        lex = tmp_path / "lex.tsv"
        assert cli.dispatch([
            "lex-build", "--seed-list", str(seeds), "--corpus", str(corpus_dir),
            "--aligners", str(table.parent), "--out", str(lex),
            "--freq-out", str(tmp_path / "freq.tsv"),
        ]) == 0
        assert lex.read_text().splitlines()[0] == "id\ten\tsw"

    def test_lex_filter_and_trim(self, tmp_path):
        raw = tmp_path / "names.txt"
        _write(raw, "Noah,\nand\nnoah\nZ\nShem\n")
        stop = tmp_path / "stop.txt"
        _write(stop, "and\n")
        cleaned = tmp_path / "seed.txt"
        assert cli.dispatch([
            "lex-filter", "--in", str(raw), "--stoplist", str(stop), "--out", str(cleaned),
        ]) == 0
        assert cleaned.read_text().splitlines() == ["Noah", "Shem"]

        lex = tmp_path / "lex.tsv"
        _write(lex, "id\ten\tsw\nne1\tNoah\tNoa\nne2\tShem\tSem\n")
        manual = tmp_path / "keep.txt"
        _write(manual, "Noah\n")
        out = tmp_path / "trimmed.tsv"
        assert cli.dispatch([
            "lex-trim", "--in", str(lex), "--policy", "manual-selection",
            "--manual-file", str(manual), "--out", str(out),
        ]) == 0
        assert [line.split("\t")[1] for line in out.read_text().splitlines()[1:]] == ["Noah"]

    def test_tag_and_restore_roundtrip(self, tmp_path):
        lex = tmp_path / "lex.tsv"
        _write(lex, "id\ten\tsw\nne1\tNoah\tNoa\nne2\tShem\tSem\n")
        src = tmp_path / "test.en"
        _write(src, "And Noah fathered Shem .\nNothing here .\n")
        tagged = tmp_path / "test.tagged"
        assert cli.dispatch([
            "tag", "--lexicon", str(lex), "--src", "en", "--tgt", "sw",
            "--in", str(src), "--out", str(tagged),
        ]) == 0
        assert tagged.read_text().splitlines()[0] == "And $NE1 fathered $NE2 ."
        sidecar = tmp_path / "test.tagged.decode.jsonl"
        assert sidecar.exists()

        translated = tmp_path / "mt.sw"
        _write(translated, "Och $NE1 födde $NE2 .\nInget här .\n")
        restored = tmp_path / "mt.restored"
        assert cli.dispatch([
            "restore", "--in", str(translated), "--decode", str(sidecar), "--out", str(restored),
        ]) == 0
        assert restored.read_text().splitlines()[0] == "Och Noa födde Sem ."

    def test_tag_training_pair_mode(self, tmp_path):
        lex = tmp_path / "lex.tsv"
        _write(lex, "id\ten\tsw\nne1\tNoah\tNoa\n")
        src = tmp_path / "train.en"
        tgt = tmp_path / "train.sw"
        _write(src, "Noah slept .\n")
        _write(tgt, "Noa sov .\n")
        assert cli.dispatch([
            "tag", "--lexicon", str(lex), "--src", "en", "--tgt", "sw",
            "--in", str(src), "--out", str(tmp_path / "out.en"),
            "--tgt-in", str(tgt), "--tgt-out", str(tmp_path / "out.sw"),
        ]) == 0
        assert (tmp_path / "out.en").read_text() == "$NE1 slept .\n"
        assert (tmp_path / "out.sw").read_text() == "$NE1 sov .\n"

    def test_sample(self, tmp_path):
        verses = tmp_path / "verses.tsv"
        _write(verses, "".join(f"v{i}\tword{i} extra\n" for i in range(10)))
        out = tmp_path / "sampled.tsv"
        assert cli.dispatch([
            "sample", "--in", str(verses), "--fraction", "0.5", "--seed", "3",
            "--out", str(out), "--manifest", str(tmp_path / "manifest.tsv"),
        ]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 10
        assert len({line.split("\t")[0] for line in lines}) <= 5

    def test_fit(self, tmp_path, capsys):
        points = tmp_path / "points.tsv"
        _write(points, "10\t3.0\n100\t5.0\n1000\t7.0\n")
        assert cli.dispatch(["fit", "--in", str(points)]) == 0
        captured = capsys.readouterr().out
        assert "slope\t2.000000000" in captured

    def test_bleu(self, tmp_path, capsys):
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        _write(hyp, "the cat sat on a mat\n")
        _write(ref, "the cat sat on a mat\n")
        assert cli.dispatch(["bleu", "--hyp", str(hyp), "--ref", str(ref)]) == 0
        assert "BLEU = 100.00" in capsys.readouterr().out

    def test_rubric_judge_then_aggregate(self, tmp_path, capsys):
        decode = tmp_path / "decode.jsonl"
        _write(
            decode,
            json.dumps({"line": 1, "map": {"1": {"src": "Noah", "tgt": "Noa"}}}) + "\n",
        )
        hyp = tmp_path / "hyp.txt"
        ref = tmp_path / "ref.txt"
        _write(hyp, "Noa sov\n")
        _write(ref, "Noa sov\n")
        judgments = tmp_path / "judgments.jsonl"
        assert cli.dispatch([
            "rubric", "--hyp", str(hyp), "--ref", str(ref), "--decode", str(decode),
            "--out", str(judgments),
        ]) == 0
        record = json.loads(judgments.read_text().splitlines()[0])
        assert record["meaning"] is None
        record["meaning"] = True
        _write(judgments, json.dumps(record) + "\n")
        assert cli.dispatch(["rubric", "--in", str(judgments)]) == 0
        assert "accurate\t100.0" in capsys.readouterr().out

    def test_emit_config(self, tmp_path):
        out = tmp_path / "train.cfg"
        assert cli.dispatch(["emit-config", "--profile", "multilingual", "--out", str(out)]) == 0
        assert "minibatch_size: 64" in out.read_text()

    def test_gl_monitor(self, tmp_path, capsys):
        scores = tmp_path / "scores.tsv"
        _write(scores, "1\t40.0\n2\t44.5\n3\t44.4\n4\t44.4\n")
        assert cli.dispatch(["gl-monitor", "--in", str(scores), "--alpha", "0.1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3  # stops after the first stop decision
        assert lines[-1].endswith("stop")
        assert lines[0].endswith("continue")


class TestManifest:
    def test_empty_manifest(self, tmp_path):
        manifest = tmp_path / "pipeline.json"
        _write(manifest, json.dumps({"stages": []}))
        assert cli.dispatch(["run", "--manifest", str(manifest)]) == 0

    def test_two_stage_manifest(self, tmp_path):
        raw = tmp_path / "en.txt"
        _write(raw, "v1\thello world\nv2\tmore text\n")
        store = tmp_path / "store"
        cfg = tmp_path / "train.cfg"
        manifest = tmp_path / "pipeline.json"
        _write(
            manifest,
            json.dumps(
                {
                    "stages": [
                        {
                            "name": "config",
                            "command": ["emit-config", "--profile", "multilingual", "--out", str(cfg)],
                            "inputs": [],
                            "outputs": [str(cfg)],
                        },
                        {
                            "name": "ingest-en",
                            "command": ["ingest", "--lang", "en", "--in", str(raw), "--out", str(store)],
                            "inputs": [str(raw)],
                            "outputs": [str(store / "en.tsv")],
                        },
                    ]
                }
            ),
        )
        assert cli.dispatch(["run", "--manifest", str(manifest)]) == 0
        assert cfg.exists()
        assert (store / "en.tsv").exists()

    def test_up_to_date_stage_skipped(self, tmp_path, caplog):
        cfg = tmp_path / "train.cfg"
        manifest = tmp_path / "pipeline.json"
        _write(
            manifest,
            json.dumps(
                {
                    "stages": [
                        {
                            "name": "config",
                            "command": ["emit-config", "--profile", "multilingual", "--out", str(cfg)],
                            "inputs": [],
                            "outputs": [str(cfg)],
                        }
                    ]
                }
            ),
        )
        assert cli.dispatch(["run", "--manifest", str(manifest)]) == 0
        with caplog.at_level(logging.INFO, logger="versemt"):
            assert cli.dispatch(["run", "--manifest", str(manifest)]) == 0
        assert any("up to date" in rec.message for rec in caplog.records)

    def test_directory_input_is_hashed(self, tmp_path, caplog):
        store = tmp_path / "store"
        _write(store / "en.tsv", "v1\thello world\n")
        _write(store / "sw.tsv", "v1\tjambo dunia\n")
        aligned = tmp_path / "aligned"
        manifest = tmp_path / "pipeline.json"
        _write(
            manifest,
            json.dumps(
                {
                    "stages": [
                        {
                            "name": "align",
                            "command": ["align", "--in", str(store), "--out", str(aligned)],
                            "inputs": [str(store)],
                            "outputs": [str(aligned)],
                        }
                    ]
                }
            ),
        )

        def run() -> bool:
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="versemt"):
                assert cli.main(["run", "--manifest", str(manifest)]) == cli.EXIT_OK
            return not any("up to date" in rec.message for rec in caplog.records)

        assert run()
        assert not run()
        _write(store / "sw.tsv", "v1\tjambo ulimwengu\n")
        assert run()
        assert "ulimwengu" in (aligned / "sw.tsv").read_text()

    def test_cycle_detected(self, tmp_path):
        manifest = tmp_path / "pipeline.json"
        _write(
            manifest,
            json.dumps(
                {
                    "stages": [
                        {"name": "a", "command": [], "inputs": ["x"], "outputs": ["y"]},
                        {"name": "b", "command": [], "inputs": ["y"], "outputs": ["x"]},
                    ]
                }
            ),
        )
        with pytest.raises(CycleDetected):
            cli.dispatch(["run", "--manifest", str(manifest)])
        assert cli.main(["run", "--manifest", str(manifest)]) == cli.EXIT_DATA

    def test_stage_failure_propagates(self, tmp_path):
        manifest = tmp_path / "pipeline.json"
        _write(
            manifest,
            json.dumps(
                {
                    "stages": [
                        {
                            "name": "broken",
                            "command": ["ingest", "--lang", "en", "--in", str(tmp_path / "absent.tsv"), "--out", str(tmp_path)],
                            "inputs": [],
                            "outputs": [],
                        }
                    ]
                }
            ),
        )
        with pytest.raises(StageFailed, match="broken"):
            cli.dispatch(["run", "--manifest", str(manifest)])
        assert cli.main(["run", "--manifest", str(manifest)]) == cli.EXIT_DATA

    def test_missing_declared_output_fails_stage(self, tmp_path, capsys):
        written = tmp_path / "sched.tsv"
        declared = tmp_path / "missing.tsv"
        manifest = tmp_path / "pipeline.json"
        _write(
            manifest,
            json.dumps(
                {
                    "stages": [
                        {
                            "name": "schedule",
                            "command": ["schedule", "--anchor", "sw", "--mode", "family-addition",
                                        "--seed", "0", "--out", str(written)],
                            "inputs": [],
                            "outputs": [str(declared)],
                        }
                    ]
                }
            ),
        )
        with pytest.raises(StageFailed, match="stage schedule .*" + re.escape(str(declared))):
            cli.dispatch(["run", "--manifest", str(manifest)])
        assert written.exists()
        state = manifest.with_suffix(".json.state.json")
        assert not state.exists() or "schedule" not in json.loads(state.read_text())
        assert cli.main(["run", "--manifest", str(manifest)]) == cli.EXIT_DATA
        assert str(declared) in capsys.readouterr().err

    def test_dependency_order(self, tmp_path):
        # Stage names chosen so naive name order would run them backwards.
        first_out = tmp_path / "seed.txt"
        second_out = tmp_path / "cleaned.txt"
        manifest = tmp_path / "pipeline.json"
        _write(
            manifest,
            json.dumps(
                {
                    "stages": [
                        {
                            "name": "a-filter",
                            "command": ["lex-filter", "--in", str(first_out), "--out", str(second_out)],
                            "inputs": [str(first_out)],
                            "outputs": [str(second_out)],
                        },
                        {
                            "name": "z-make-seed",
                            "command": ["emit-config", "--profile", "multilingual", "--out", str(first_out)],
                            "inputs": [],
                            "outputs": [str(first_out)],
                        },
                    ]
                }
            ),
        )
        assert cli.dispatch(["run", "--manifest", str(manifest)]) == 0
        assert second_out.exists()


class TestParserReuse:
    def test_manifest_builds_parser_once(self, tmp_path, monkeypatch):
        # The parser is built once, at import: a manifest run builds none.
        built = []
        build_parser = cli.build_parser

        def counting_build_parser():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        stages = [
            {
                "name": f"config-{i}",
                "command": ["emit-config", "--profile", "multilingual", "--out", str(tmp_path / f"{i}.cfg")],
                "inputs": [],
                "outputs": [str(tmp_path / f"{i}.cfg")],
            }
            for i in range(3)
        ]
        manifest = tmp_path / "pipeline.json"
        _write(manifest, json.dumps({"stages": stages}))
        assert cli.dispatch(["run", "--manifest", str(manifest)]) == 0
        assert all((tmp_path / f"{i}.cfg").exists() for i in range(3))
        assert built == []

    def test_consecutive_dispatches_share_no_option_values(self, tmp_path, corpus_dir, monkeypatch):
        from versemt import lexicon

        src, tgt = tmp_path / "bitext.en", tmp_path / "bitext.sw"
        _write(src, "".join("the man saw house\n" for _ in range(10)))
        _write(tgt, "".join("mannen sag huset\n" for _ in range(10)))
        aligners = tmp_path / "aligners"
        aligners.mkdir()
        assert cli.dispatch([
            "align-train", "--src", str(src), "--tgt", str(tgt), "--iterations", "2",
            "--out", str(aligners / "sw.tsv"),
        ]) == 0
        seeds = tmp_path / "seed.txt"
        _write(seeds, "man\n")
        seen = []
        assemble_table = lexicon.assemble_table

        def recording_assemble(*args, min_votes, **kwargs):
            seen.append(min_votes)
            return assemble_table(*args, min_votes=min_votes, **kwargs)

        monkeypatch.setattr(lexicon, "assemble_table", recording_assemble)
        command = [
            "lex-build", "--seed-list", str(seeds), "--corpus", str(corpus_dir),
            "--aligners", str(aligners), "--out", str(tmp_path / "lex.tsv"),
        ]
        assert cli.dispatch(command + ["--min-votes", "1"]) == 0
        assert cli.dispatch(command) == 0
        assert seen == [1, lexicon.DEFAULT_MIN_VOTES] == [1, 2]


class TestAtomicWrite:
    def test_no_temp_residue(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "content\n")
        assert target.read_text() == "content\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_overwrites_existing(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"


class TestMalformedInputs:
    """Malformed files exit 2 with a `path:line` message, never 3 or a wrong result."""

    def _main(self, argv, capsys):
        status = cli.main([str(arg) for arg in argv])
        return status, capsys.readouterr().err

    def test_whitespace_only_lexicon_cell(self, tmp_path, capsys):
        lex = tmp_path / "lex.tsv"
        _write(lex, "id\ten\tsw\nne1\tNoah\tNoa\nne2\t \tSem\n")
        src = tmp_path / "test.en"
        _write(src, "Noah slept .\n")
        status, err = self._main(
            ["tag", "--lexicon", lex, "--src", "en", "--tgt", "sw", "--in", src,
             "--out", tmp_path / "out"], capsys)
        assert status == cli.EXIT_DATA
        assert f"{lex}:3" in err

    @pytest.mark.parametrize("code, message", [
        ("xx", "unknown language code 'xx'"),
        ("po", "language code 'po' is ambiguous; use pl or pt"),
    ])
    @pytest.mark.parametrize("command", ["tag", "lex-trim"])
    def test_a_bad_language_code_in_a_lexicon_header_names_its_line(self, tmp_path, capsys,
                                                                    command, code, message):
        lex = tmp_path / "lex.tsv"
        _write(lex, f"id\ten\t{code}\nne1\tNoah\tNoe\n")
        src = tmp_path / "test.en"
        _write(src, "Noah slept .\n")
        argv = {"tag": ["tag", "--lexicon", lex, "--src", "en", "--tgt", "sw", "--in", src],
                "lex-trim": ["lex-trim", "--in", lex]}[command]
        status, err = self._main([*argv, "--out", tmp_path / "out"], capsys)
        assert status == cli.EXIT_DATA
        assert f"error: UnknownLanguage: {lex}:1: {message}\n" in err
        assert not (tmp_path / "out").exists()

    def _restore(self, tmp_path, capsys, record: str):
        decode = tmp_path / "decode.jsonl"
        _write(decode, record + "\n")
        translated = tmp_path / "mt.sw"
        _write(translated, "$NE1 sov .\n" * (record.count("\n") + 1))
        status, err = self._main(
            ["restore", "--in", translated, "--decode", decode, "--out", tmp_path / "out"], capsys)
        assert status == cli.EXIT_DATA
        assert f"{decode}:1" in err

    def test_decode_record_without_tgt(self, tmp_path, capsys):
        self._restore(tmp_path, capsys, '{"line": 1, "map": {"1": {"src": "Noah"}}}')

    def test_decode_record_with_non_integer_key(self, tmp_path, capsys):
        self._restore(tmp_path, capsys, '{"line": 1, "map": {"one": {"src": "Noah", "tgt": "Noa"}}}')

    def test_decode_record_not_json(self, tmp_path, capsys):
        self._restore(tmp_path, capsys, '{"line": 1, "map": ')

    def test_decode_records_out_of_order(self, tmp_path, capsys):
        self._restore(
            tmp_path,
            capsys,
            '{"line": 2, "map": {"1": {"src": "Shem", "tgt": "Sem"}}}\n'
            '{"line": 1, "map": {"1": {"src": "Noah", "tgt": "Noa"}}}',
        )

    def test_a_placeholder_the_sidecar_lacks_names_its_line(self, tmp_path, capsys):
        decode = tmp_path / "decode.jsonl"
        _write(decode, '{"line": 1, "map": {"1": {"src": "Noah", "tgt": "Noa"}}}\n'
                       '{"line": 2, "map": {"1": {"src": "Shem", "tgt": "Sem"}}}\n')
        translated = tmp_path / "hyp.fr"
        _write(translated, "$NE1 sov .\n$NE2 vaknade .\n")
        status, err = self._main(
            ["restore", "--in", translated, "--decode", decode, "--out", tmp_path / "out"], capsys)
        assert status == cli.EXIT_DATA
        assert f"UnknownPlaceholder: {translated}:2: $NE2 has no decode entry" in err
        assert not (tmp_path / "out").exists()

    def _label(self, tmp_path, corpus_dir, capsys, splits, schedule):
        prefix = tmp_path / "bitext"
        status, err = self._main(
            ["label", "--corpus", corpus_dir, "--split", splits, "--mode", "family",
             "--schedule", schedule, "--out-prefix", prefix], capsys)
        assert status == cli.EXIT_DATA
        assert not list(tmp_path.glob("bitext*"))
        return err

    def _valid_split(self, tmp_path, corpus_dir):
        splits = tmp_path / "splits.tsv"
        assert cli.dispatch([
            "split", "--corpus", str(corpus_dir), "--ratios", "0.75,0.15,0.10",
            "--seed", "42", "--out", str(splits),
        ]) == 0
        return splits

    def test_split_train_id_missing_from_corpus(self, tmp_path, corpus_dir, capsys):
        splits = self._valid_split(tmp_path, corpus_dir)
        with splits.open("a", encoding="utf-8") as handle:
            handle.write("zzz999\ttrain\n")
        schedule = tmp_path / "sched.tsv"
        _write(schedule, "1\ten,sw\n")
        err = self._label(tmp_path, corpus_dir, capsys, splits, schedule)
        assert "zzz999" in err

    def test_label_langs_with_a_train_id_missing_from_the_corpus_writes_nothing(
            self, tmp_path, corpus_dir, capsys):
        splits = self._valid_split(tmp_path, corpus_dir)
        with splits.open("a", encoding="utf-8") as handle:
            handle.write("zz\ttrain\n")
        prefix = tmp_path / "bitext"
        status, err = self._main(
            ["label", "--corpus", corpus_dir, "--split", splits, "--langs", "en,sw",
             "--out-prefix", prefix], capsys)
        assert status == cli.EXIT_DATA
        assert f"UnknownVerse: {splits}: 1 train verse id(s) not in corpus: 'zz'" in err
        assert not (tmp_path / "bitext.src").exists()
        assert not (tmp_path / "bitext.tgt").exists()

    def test_a_verse_listed_twice_in_a_split_names_both_lines_and_writes_nothing(
            self, tmp_path, corpus_dir, capsys):
        splits = tmp_path / "splits.tsv"
        _write(splits, "v000\ttrain\nv001\ttrain\nv000\ttest\n")
        prefix = tmp_path / "bitext"
        status, err = self._main(
            ["label", "--corpus", corpus_dir, "--split", splits, "--langs", "en,sw",
             "--out-prefix", prefix], capsys)
        assert status == cli.EXIT_DATA
        assert f"MalformedLine: {splits}:3: verse 'v000' repeats line 1" in err
        assert not (tmp_path / "bitext.src").exists()

    @pytest.mark.parametrize("line", ["x\ten,sw", "1\t", "1\ten,,sw"])
    def test_malformed_schedule_line(self, tmp_path, corpus_dir, capsys, line):
        splits = self._valid_split(tmp_path, corpus_dir)
        schedule = tmp_path / "sched.tsv"
        _write(schedule, line + "\n")
        err = self._label(tmp_path, corpus_dir, capsys, splits, schedule)
        assert f"{schedule}:1" in err

    def test_unknown_code_in_a_later_step_writes_nothing_and_names_its_line(
            self, tmp_path, corpus_dir, capsys):
        splits = self._valid_split(tmp_path, corpus_dir)
        schedule = tmp_path / "sched.tsv"
        _write(schedule, "1\ten,sw\n2\ten,sw,xx\n")
        err = self._label(tmp_path, corpus_dir, capsys, splits, schedule)
        assert f"{schedule}:2: unknown language code 'xx'" in err

    def test_a_later_step_language_missing_from_the_corpus_writes_nothing(
            self, tmp_path, corpus_dir, capsys):
        splits = self._valid_split(tmp_path, corpus_dir)
        schedule = tmp_path / "sched.tsv"
        _write(schedule, "1\ten,sw\n2\ten,sw,fr\n")
        err = self._label(tmp_path, corpus_dir, capsys, splits, schedule)
        assert "language 'fr' not in corpus" in err

    @pytest.mark.parametrize("flags, problem", [
        ([], "exactly one of --langs / --schedule"),
        (["--langs", "en,sw", "--schedule", "sched.tsv"], "exactly one of --langs / --schedule"),
        (["--langs", "en,sw", "--mode", "tribe"], "unknown label mode 'tribe'"),
    ], ids=["neither", "both", "bad-mode"])
    def test_label_flags_are_checked_before_any_input_is_read(self, tmp_path, capsys, flags,
                                                               problem):
        status, err = self._main(
            ["label", "--corpus", tmp_path / "absent", "--split", tmp_path / "absent.tsv",
             "--out-prefix", tmp_path / "bitext", *flags], capsys)
        assert status == cli.EXIT_USAGE
        assert problem in err
        assert not list(tmp_path.iterdir())

    def _rubric(self, tmp_path, capsys, record: str):
        judgments = tmp_path / "judgments.jsonl"
        _write(judgments, '{"meaning": true, "order_correct": true, "set_correct": true}\n' + record + "\n")
        status, err = self._main(["rubric", "--in", judgments], capsys)
        assert status == cli.EXIT_DATA
        assert f"{judgments}:2" in err

    def test_judgment_with_string_boolean(self, tmp_path, capsys):
        self._rubric(tmp_path, capsys, '{"meaning": true, "order_correct": true, "set_correct": "false"}')

    def test_judgment_without_order_correct(self, tmp_path, capsys):
        self._rubric(tmp_path, capsys, '{"meaning": true, "set_correct": true}')

    def test_judgment_with_non_boolean_meaning(self, tmp_path, capsys):
        self._rubric(tmp_path, capsys, '{"meaning": "yes", "order_correct": true, "set_correct": true}')

    def test_lex_build_decodes_with_table_params(self, tmp_path, corpus_dir, capsys):
        from versemt import alignment, corpus, lexicon

        src = tmp_path / "bitext.en"
        tgt = tmp_path / "bitext.sw"
        _write(src, "".join("the man saw house\n" for _ in range(10)))
        _write(tgt, "".join("mannen sag huset\n" for _ in range(10)))
        table = tmp_path / "aligners" / "sw.tsv"
        assert cli.dispatch([
            "align-train", "--src", str(src), "--tgt", str(tgt), "--iterations", "2",
            "--tension", "2", "--out", str(table),
        ]) == 0
        seeds = tmp_path / "seed.txt"
        _write(seeds, "man\nhouse\n")
        command = ["lex-build", "--seed-list", seeds, "--corpus", corpus_dir,
                   "--aligners", table.parent, "--out", tmp_path / "lex.tsv"]
        status, err = self._main(command, capsys)
        assert status == cli.EXIT_OK, err
        aligner = alignment.load_table(table)
        assert aligner.params == alignment.DiagonalParams(tension=2.0)
        expected = lexicon.assemble_table(
            ["man", "house"], corpus.read_corpus_dir(corpus_dir), {"sw": aligner}
        )
        lexicon.save_lexicon(expected, tmp_path / "expected.tsv")
        assert (tmp_path / "lex.tsv").read_bytes() == (tmp_path / "expected.tsv").read_bytes()
        status, err = self._main(command + ["--tension", "2"], capsys)
        assert status == cli.EXIT_USAGE
        assert "--tension" in err

    def test_lex_build_rejects_non_finite_table_probability(self, tmp_path, corpus_dir, capsys):
        table = tmp_path / "aligners" / "sw.tsv"
        _write(table, "#lambda=4.0\tp0=0.08\titerations=1\nman\tmannen\t1\nman\tsag\tnan\n")
        seeds = tmp_path / "seed.txt"
        _write(seeds, "man\n")
        status, err = self._main(
            ["lex-build", "--seed-list", seeds, "--corpus", corpus_dir,
             "--aligners", table.parent, "--out", tmp_path / "lex.tsv"], capsys)
        assert status == cli.EXIT_DATA
        assert f"{table}:3" in err
        assert not (tmp_path / "lex.tsv").exists()

    @pytest.mark.parametrize(
        "text, lineno",
        [("1\t40.0\n2\tnan\n", 2), ("1\tinf\n", 1), ("1\t40.0\n\n2.5\t41.0\n", 3)],
        ids=["nan-score", "inf-score", "fractional-epoch"],
    )
    def test_gl_monitor_rejects_bad_line(self, tmp_path, monkeypatch, capsys, text, lineno):
        monkeypatch.chdir(tmp_path)
        _write(tmp_path / "scores.tsv", text)
        status, err = self._main(["gl-monitor", "--in", "scores.tsv"], capsys)
        assert status == cli.EXIT_DATA
        assert f"scores.tsv:{lineno}:" in err

    @pytest.mark.parametrize(
        "manifest, where",
        [
            ([], ""),
            ({"stages": 5}, ""),
            ({"stages": [5]}, "stages[0]"),
            ({"stages": [{"name": "a", "command": ["emit-config", "--profile", "multilingual",
                                                   "--out", "a.cfg"]},
                         {"name": "b", "command": "ingest"}]}, "stages[1]"),
        ],
        ids=["top-level-list", "stages-not-list", "stage-not-object", "command-string"],
    )
    def test_malformed_manifest_runs_no_stage(self, tmp_path, monkeypatch, capsys, manifest, where):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "pipeline.json"
        _write(path, json.dumps(manifest))
        status, err = self._main(["run", "--manifest", path], capsys)
        assert status == cli.EXIT_DATA
        assert f"{path}: {where}" in err
        assert not (tmp_path / "a.cfg").exists()
        assert not path.with_suffix(".json.state.json").exists()

    @pytest.mark.parametrize("state", ["[]", "5", "null", '"done"'])
    def test_state_file_not_an_object_runs_no_stage(self, tmp_path, monkeypatch, capsys, state):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "pipeline.json"
        stage = {"name": "a", "command": ["emit-config", "--profile", "multilingual",
                                          "--out", "a.cfg"], "outputs": ["a.cfg"]}
        _write(path, json.dumps({"stages": [stage]}))
        state_path = path.with_suffix(".json.state.json")
        _write(state_path, state + "\n")
        status, err = self._main(["run", "--manifest", path], capsys)
        assert status == cli.EXIT_DATA, err
        assert f"{state_path}: the top level must be a JSON object" in err
        assert not (tmp_path / "a.cfg").exists()
        assert state_path.read_text() == state + "\n"


class TestAlignTrainTension:
    """A 7-token vs 5-token pair through `align-train` at extreme tensions."""

    def _train(self, tmp_path, tension, capsys):
        src = tmp_path / "bitext.en"
        tgt = tmp_path / "bitext.sw"
        _write(src, "a b c d e f g\n")
        _write(tgt, "v w x y z\n")
        out = tmp_path / "table.tsv"
        status = cli.main([
            "align-train", "--src", str(src), "--tgt", str(tgt), "--iterations", "2",
            "--tension", tension, "--out", str(out),
        ])
        return status, capsys.readouterr().err, out

    @pytest.mark.parametrize("tension", ["nan", "inf"])
    def test_non_finite_tension_is_data_error(self, tmp_path, tension, capsys):
        status, err, out = self._train(tmp_path, tension, capsys)
        assert status == cli.EXIT_DATA
        assert "tension must be finite" in err
        assert not out.exists()

    def test_huge_tension_trains(self, tmp_path, capsys):
        status, err, out = self._train(tmp_path, "1e5", capsys)
        assert status == cli.EXIT_OK, err
        probs = [float(line.split("\t")[2]) for line in out.read_text().splitlines()[1:]]
        assert probs and all(0.0 <= p <= 1.0 for p in probs)
        # a is the nearest source position of target v, and gets all of v's mass.
        assert "a\tv\t1\n" in out.read_text()

    def test_log_likelihood_history_logged(self, tmp_path, caplog, capsys):
        with caplog.at_level(logging.INFO, logger="versemt"):
            status, err, _ = self._train(tmp_path, "4", capsys)
        assert status == cli.EXIT_OK, err
        [message] = [rec.message for rec in caplog.records if rec.message.startswith("align-train")]
        ll = message.partition(" ll=")[2].split(",")
        assert len(ll) == 2
        assert float(ll[0]) <= float(ll[1]) < 0.0


class TestOneLineRule:
    """A U+2028 inside a line is text, not a line end, in every stage that pairs lines."""

    def test_align_train_pairs_each_line_once(self, tmp_path, caplog, capsys):
        src = tmp_path / "bitext.en"
        tgt = tmp_path / "bitext.sw"
        _write(src, "the\u2028man saw\nthe house\n")
        _write(tgt, "mannen\u2028sag\nhuset\n")
        with caplog.at_level(logging.INFO, logger="versemt"):
            status = cli.main(["align-train", "--src", str(src), "--tgt", str(tgt),
                               "--iterations", "1", "--out", str(tmp_path / "t.tsv")])
        assert status == cli.EXIT_OK, capsys.readouterr().err
        assert any(rec.message.startswith("align-train pairs=2 ") for rec in caplog.records)

    def test_tag_keeps_the_line_count(self, tmp_path):
        lex = tmp_path / "lex.tsv"
        _write(lex, "id\ten\tsw\nne1\tNoah\tNoa\n")
        src = tmp_path / "test.en"
        _write(src, "Noah\u2028slept\nNoah woke\n")
        out = tmp_path / "out"
        assert cli.dispatch(["tag", "--lexicon", str(lex), "--src", "en", "--tgt", "sw",
                             "--in", str(src), "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8").split("\n") == ["$NE1 slept", "$NE1 woke", ""]
        decode = (tmp_path / "out.decode.jsonl").read_text(encoding="utf-8")
        assert decode.count("\n") == 2

    def test_bleu_sees_equal_line_counts(self, tmp_path, capsys):
        hyp = tmp_path / "hyp"
        ref = tmp_path / "ref"
        _write(hyp, "a b\u2028c d\ne f g h\n")
        _write(ref, "a b c d\ne f g h\n")
        assert cli.main(["bleu", "--hyp", str(hyp), "--ref", str(ref)]) == cli.EXIT_OK
        assert "100.0" in capsys.readouterr().out


def _valid_inputs(root):
    """One valid input file of every format a subcommand reads, each of three or more lines."""
    files = {
        "raw.txt": "v1\tNoah slept\nv2\tShem woke\nv3\tHam ate\n",
        "aligned/en.tsv": "v1\tNoah slept\nv2\tShem woke\nv3\tHam ate\n",
        "aligned/sw.tsv": "v1\tNoa alilala\nv2\tSem aliamka\nv3\tHam alikula\n",
        "splits.tsv": "v1\ttrain\nv2\tval\nv3\ttest\n",
        "sched.tsv": "1\ten,sw\n2\ten,sw\n3\ten,sw\n",
        "aligners/sw.tsv": "#lambda=4.0\tp0=0.08\titerations=1\nNoah\tNoa\t1\nShem\tSem\t1\n",
        "seeds.txt": "Noah\nShem\nHam\n",
        "lexicon.tsv": "id\ten\tsw\nne1\tNoah\tNoa\nne2\tShem\tSem\n",
        "freq.tsv": "ne1\ten\t1\nne1\tsw\t1\nne2\ten\t2\n",
        "keep.txt": "Noah\nShem\nHam\n",
        "model.bpe": "#bpe v1 source\na b\nab c\n#reserved\n",
        "text.txt": "Noah slept\nShem woke\nHam ate\n",
        "decode.jsonl": "".join(f'{{"line": {i}, "map": {{}}}}\n' for i in (1, 2, 3)),
        "judgments.jsonl": '{"meaning": true, "order_correct": true, "set_correct": true}\n' * 3,
        "sample.tsv": "v1\ta b\nv2\tc d\nv3\te f\n",
        "points.tsv": "10\t1\n100\t2\n1000\t3\n",
        "scores.tsv": "1\t10\n2\t20\n3\t30\n",
        "pipeline.json": '{\n  "stages": [\n  ]\n}\n',
        "pipeline.json.state.json": "{\n\n}\n",
    }
    for name, text in files.items():
        _write(root / name, text)


_READERS = {
    # corrupted file: argv (file names relative to the work directory)
    "raw.txt": ["ingest", "--lang", "en", "--in", "raw.txt", "--out", "store"],
    "splits.tsv": ["label", "--corpus", "aligned", "--split", "splits.tsv", "--langs", "en,sw",
                   "--out-prefix", "out"],
    "sched.tsv": ["label", "--corpus", "aligned", "--split", "splits.tsv", "--schedule",
                  "sched.tsv", "--out-prefix", "out"],
    "aligners/sw.tsv": ["lex-build", "--seed-list", "seeds.txt", "--corpus", "aligned",
                        "--aligners", "aligners", "--out", "out"],
    "seeds.txt": ["lex-build", "--seed-list", "seeds.txt", "--corpus", "aligned",
                  "--aligners", "aligners", "--out", "out"],
    "lexicon.tsv": ["tag", "--lexicon", "lexicon.tsv", "--src", "en", "--tgt", "sw",
                    "--in", "text.txt", "--out", "out"],
    "freq.tsv": ["lex-trim", "--in", "lexicon.tsv", "--freq", "freq.tsv",
                 "--policy", "frequency-equals-one", "--out", "out"],
    "keep.txt": ["lex-trim", "--in", "lexicon.tsv", "--policy", "manual-selection",
                 "--manual-file", "keep.txt", "--out", "out"],
    "model.bpe": ["bpe-apply", "--model", "model.bpe", "--in", "text.txt", "--out", "out"],
    "text.txt": ["bpe-learn", "--in", "text.txt", "--merges", "2", "--out", "out"],
    "decode.jsonl": ["restore", "--in", "text.txt", "--decode", "decode.jsonl", "--out", "out"],
    "judgments.jsonl": ["rubric", "--in", "judgments.jsonl"],
    "sample.tsv": ["sample", "--in", "sample.tsv", "--fraction", "0.5", "--out", "out"],
    "points.tsv": ["fit", "--in", "points.tsv"],
    "scores.tsv": ["gl-monitor", "--in", "scores.tsv"],
    "pipeline.json": ["run", "--manifest", "pipeline.json"],
    "pipeline.json.state.json": ["run", "--manifest", "pipeline.json"],
}

# Plain-text inputs read as word lists or as line-aligned files (`fileio.read_word_list`,
# `fileio.read_parallel_lines`), or line by line as text to split into tokens.
_LINE_INPUTS = [
    ["bpe-learn", "--in", "text.txt", "--reserved", "BAD", "--out", "out"],
    ["bpe-apply", "--model", "model.bpe", "--in", "BAD", "--out", "out"],
    ["bpe-revert", "--in", "BAD", "--out", "out"],
    ["align-train", "--src", "BAD", "--tgt", "text.txt", "--out", "out"],
    ["align-train", "--src", "text.txt", "--tgt", "BAD", "--out", "out"],
    ["lex-filter", "--in", "BAD", "--out", "out"],
    ["lex-filter", "--in", "text.txt", "--stoplist", "BAD", "--out", "out"],
    ["tag", "--lexicon", "lexicon.tsv", "--src", "en", "--tgt", "sw", "--in", "BAD",
     "--out", "out"],
    ["tag", "--lexicon", "lexicon.tsv", "--src", "en", "--tgt", "sw", "--in", "text.txt",
     "--tgt-in", "BAD", "--tgt-out", "out2", "--out", "out"],
    ["restore", "--in", "BAD", "--decode", "decode.jsonl", "--out", "out"],
    ["bleu", "--hyp", "BAD", "--ref", "text.txt"],
    ["bleu", "--hyp", "text.txt", "--ref", "BAD"],
    ["rubric", "--hyp", "BAD", "--ref", "text.txt", "--decode", "decode.jsonl", "--out", "out"],
    ["rubric", "--hyp", "text.txt", "--ref", "BAD", "--decode", "decode.jsonl", "--out", "out"],
]


class TestUndecodableInput:
    """A byte that is not UTF-8 on line 3 of any input exits 2 naming `file:3`."""

    def _check(self, tmp_path, monkeypatch, capsys, argv, bad):
        monkeypatch.chdir(tmp_path)
        _valid_inputs(tmp_path)
        lines = (tmp_path / bad).read_bytes().split(b"\n")
        lines[2] += b"\xff"
        (tmp_path / bad).write_bytes(b"\n".join(lines))
        status = cli.main(argv)
        err = capsys.readouterr().err
        assert status == cli.EXIT_DATA, err
        assert f"{bad}:3: not UTF-8" in err

    def test_inputs_are_valid(self, tmp_path, monkeypatch, capsys):
        commands = [*_READERS.values(), *(
            [arg.replace("BAD", "keep.txt") for arg in argv] for argv in _LINE_INPUTS
        )]
        for index, argv in enumerate(commands):
            monkeypatch.chdir(tmp_path)
            _valid_inputs(tmp_path / str(index))
            monkeypatch.chdir(tmp_path / str(index))
            assert cli.main(argv) == cli.EXIT_OK, (argv, capsys.readouterr().err)

    @pytest.mark.parametrize("bad", sorted(_READERS))
    def test_reader(self, tmp_path, monkeypatch, capsys, bad):
        self._check(tmp_path, monkeypatch, capsys, _READERS[bad], bad)

    @pytest.mark.parametrize("argv", _LINE_INPUTS, ids=lambda argv: f"{argv[0]}-{argv.index('BAD')}")
    def test_line_input(self, tmp_path, monkeypatch, capsys, argv):
        argv = [arg.replace("BAD", "bad.txt") for arg in argv]
        _write(tmp_path / "bad.txt", "Noah slept\nShem woke\nHam ate\n")
        self._check(tmp_path, monkeypatch, capsys, argv, "bad.txt")


class TestLexTrimSources:
    def _trim(self, tmp_path, capsys, *extra):
        lex = tmp_path / "lex.tsv"
        _write(lex, "id\ten\tsw\nne1\tNoah\tNoa\nne2\tShem\tSem\n")
        status = cli.main(["lex-trim", "--in", str(lex), "--policy", "frequency-equals-one",
                           "--out", str(tmp_path / "tail.tsv"), *map(str, extra)])
        return status, capsys.readouterr().err

    def test_frequency_policy_without_corpus_or_freq_is_usage_error(self, tmp_path, capsys):
        status, err = self._trim(tmp_path, capsys)
        assert status == cli.EXIT_USAGE
        assert "--corpus or --freq" in err
        assert not (tmp_path / "tail.tsv").exists()

    def test_missing_freq_file_is_data_error(self, tmp_path, capsys):
        status, err = self._trim(tmp_path, capsys, "--freq", tmp_path / "absent.tsv")
        assert status == cli.EXIT_DATA
        assert "absent.tsv" in err
        assert not (tmp_path / "tail.tsv").exists()

    def test_non_integer_count_names_its_line(self, tmp_path, capsys):
        freq = tmp_path / "freq.tsv"
        _write(freq, "ne1\ten\t1\nne2\ten\tmany\n")
        status, err = self._trim(tmp_path, capsys, "--freq", freq)
        assert status == cli.EXIT_DATA
        assert f"{freq}:2:" in err

    @pytest.mark.parametrize("rows", ["ne1\ten\t1\nne1\ten\t5\n",
                                      "ne1\ten\t1\nne1\tsw\t1\nne1\ten\t1\n"],
                             ids=["next", "after-another"])
    def test_a_repeated_id_and_language_names_the_line_it_repeats(self, tmp_path, capsys, rows):
        freq = tmp_path / "freq.tsv"
        _write(freq, rows)
        status, err = self._trim(tmp_path, capsys, "--freq", freq)
        at = len(rows.splitlines())
        assert status == cli.EXIT_DATA
        assert err == f"error: MalformedLine: {freq}:{at}: row 'ne1', 'en' repeats line 1\n"
        assert not (tmp_path / "tail.tsv").exists()

    @pytest.mark.parametrize("rows, entry", [("ne1\ten\t1\n", "ne2"),
                                             ("ne1\tsw\t1\nne9\ten\t1\n", "ne1")],
                             ids=["one-covered", "none-covered"])
    def test_an_entry_without_an_english_count_is_refused(self, tmp_path, capsys, rows, entry):
        freq = tmp_path / "freq.tsv"
        _write(freq, rows)
        status, err = self._trim(tmp_path, capsys, "--freq", freq)
        assert status == cli.EXIT_DATA
        assert err == f"error: MissingFrequency: {freq}: entry {entry!r} has no 'en' count\n"
        assert not (tmp_path / "tail.tsv").exists()

    def test_a_row_code_is_resolved_as_the_header_is(self, tmp_path, capsys):
        lex, freq, out = tmp_path / "lex.tsv", tmp_path / "freq.tsv", tmp_path / "fo.tsv"
        _write(lex, "id\ten\tur\nne1\tPaul\tPavlo\n")
        _write(freq, "ne1\ten\t1\nne1\tur\t4\n")
        assert cli.main(["lex-trim", "--in", str(lex), "--freq", str(freq), "--out",
                         str(tmp_path / "t.tsv"), "--freq-out", str(out)]) == cli.EXIT_OK
        assert out.read_text(encoding="utf-8") == "ne1\ten\t1\nne1\tuk\t4\n"
        _write(freq, "ne1\ten\t1\nne1\txx\t3\n")
        out.unlink()
        assert cli.main(["lex-trim", "--in", str(lex), "--freq", str(freq), "--out",
                         str(tmp_path / "t.tsv"), "--freq-out", str(out)]) == cli.EXIT_DATA
        assert (capsys.readouterr().err
                == f"error: UnknownLanguage: {freq}:2: unknown language code 'xx'\n")
        assert not out.exists()

    def test_freq_file_selects_the_tail(self, tmp_path, capsys):
        freq = tmp_path / "freq.tsv"
        _write(freq, "ne1\ten\t1\nne2\ten\t3\n")
        status, err = self._trim(tmp_path, capsys, "--freq", freq)
        assert status == cli.EXIT_OK, err
        assert (tmp_path / "tail.tsv").read_text(encoding="utf-8") == "id\ten\tsw\nne1\tNoah\tNoa\n"


class TestNumberLocations:
    @pytest.mark.parametrize("bad", ["nan", "inf", "x"])
    def test_fit_rejects_a_number_at_its_line(self, tmp_path, capsys, bad):
        points = tmp_path / "points.tsv"
        _write(points, f"100\t2\n10\t{bad}\n1000\t3\n")
        status = cli.main(["fit", "--in", str(points)])
        err = capsys.readouterr().err
        assert status == cli.EXIT_DATA
        assert f"{points}:2:" in err

    @pytest.mark.parametrize(
        "text, lineno",
        [("1\t40.0\n2\t41.0\n2\t42.0\n", 3), ("1\t-1.0\n", 1)],
        ids=["non-monotone-epoch", "negative-score"],
    )
    def test_gl_monitor_names_its_line(self, tmp_path, monkeypatch, capsys, text, lineno):
        monkeypatch.chdir(tmp_path)
        _write(tmp_path / "scores.tsv", text)
        status = cli.main(["gl-monitor", "--in", "scores.tsv"])
        assert status == cli.EXIT_DATA
        assert f"scores.tsv:{lineno}:" in capsys.readouterr().err

    def test_manifest_that_is_not_json_names_its_line(self, tmp_path, capsys):
        manifest = tmp_path / "pipeline.json"
        _write(manifest, '{\n  "stages": [\n')
        status = cli.main(["run", "--manifest", str(manifest)])
        assert status == cli.EXIT_DATA
        assert f"{manifest}:2: not JSON" in capsys.readouterr().err


def _kahn_order(stages):
    """The manifest order of the hand-written Kahn loop the runner used before
    graphlib: least ready name first; None for a cycle. A stage follows every
    stage with an output at, inside or above one of its inputs."""

    def related(a, b):
        return a == b or a.startswith(b + "/") or b.startswith(a + "/")

    deps = {
        stage["name"]: {
            other["name"]
            for other in stages
            for out in other["outputs"]
            for inp in stage["inputs"]
            if other["name"] != stage["name"] and related(inp, out)
        }
        for stage in stages
    }
    ordered = []
    ready = sorted(name for name, d in deps.items() if not d)
    pending = {name: set(d) for name, d in deps.items() if d}
    while ready:
        name = ready.pop(0)
        ordered.append(name)
        for other, d in list(pending.items()):
            d.discard(name)
            if not d:
                ready.append(other)
                del pending[other]
        ready.sort()
    return None if pending else ordered


def test_stage_order_matches_kahn_on_random_manifests():
    rng = random.Random(7)
    paths = ["f0", "f1", "f2", "d", "d/f3", "d/f4", "d/e", "d/e/f5", "df6"]
    cycles = 0
    for _ in range(1500):
        files = rng.sample(paths, rng.randint(1, 8))
        names = rng.sample("abcdefghij", rng.randint(1, 8))
        stages = [
            {"name": name,
             "inputs": rng.sample(files, rng.randint(0, min(3, len(files)))),
             "outputs": rng.sample(files, rng.randint(0, min(2, len(files))))}
            for name in names
        ]
        expected = _kahn_order(stages)
        if expected is None:
            cycles += 1
            with pytest.raises(CycleDetected):
                _topological_order(_stage_graph(stages))
        else:
            assert _topological_order(_stage_graph(stages)) == expected
    assert 0 < cycles < 1500


def test_lex_build_holds_one_table_at_a_time(tmp_path, monkeypatch, capsys):
    from versemt import alignment

    languages = ("fr", "ru", "sw")
    _write(tmp_path / "aligned" / "en.tsv", "".join(f"v{i}\tNoah saw house {i}\n" for i in range(6)))
    for lang in languages:
        _write(tmp_path / "aligned" / f"{lang}.tsv",
               "".join(f"v{i}\tNoa-{lang} x{i} y{i}\n" for i in range(6)))
        bitext = [(["Noah", "saw", "house"], [f"Noa-{lang}", "x", "y"])] * 3
        alignment.save_table(alignment.train_em(bitext, 2), tmp_path / "aligners" / f"{lang}.tsv")
    _write(tmp_path / "seeds.txt", "Noah\n")

    real_load = alignment.load_table
    refs, live_at_load = [], []

    def counting_load(path):
        live_at_load.append(sum(ref() is not None for ref in refs))
        table = real_load(path)
        refs.append(weakref.ref(table))
        return table

    monkeypatch.setattr(alignment, "load_table", counting_load)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    status = cli.main(["lex-build", "--seed-list", str(tmp_path / "seeds.txt"),
                       "--corpus", str(tmp_path / "aligned"), "--aligners", str(tmp_path / "aligners"),
                       "--out", str(tmp_path / "lex.tsv")])
    assert status == cli.EXIT_OK, capsys.readouterr().err
    assert live_at_load == [0, 0, 0]  # one read per language, none alive at the next read
    assert (tmp_path / "lex.tsv").read_text(encoding="utf-8").split("\n")[0] == "id\ten\tsw\tru\tfr"


def _three_aligners(root: Path) -> list[str]:
    """A corpus of English and three target languages, a table for each in
    `aligners/` and a seed list; the lex-build command over them."""
    from versemt import alignment

    _write(root / "aligned" / "en.tsv", "".join(f"v{i}\tNoah saw house {i}\n" for i in range(6)))
    for lang in ("fr", "ru", "sw"):
        _write(root / "aligned" / f"{lang}.tsv",
               "".join(f"v{i}\tNoa-{lang} x{i} y{i}\n" for i in range(6)))
        bitext = [(["Noah", "saw", "house"], [f"Noa-{lang}", "x", "y"])] * 3
        alignment.save_table(alignment.train_em(bitext, 2), root / "aligners" / f"{lang}.tsv")
    _write(root / "seeds.txt", "Noah\n")
    return ["lex-build", "--seed-list", str(root / "seeds.txt"), "--corpus", str(root / "aligned"),
            "--aligners", str(root / "aligners"), "--out", str(root / "lex.tsv")]


def _no_fork():
    raise AssertionError("lex-build forked")


_RESERVED = "the source word '<NULL>' is reserved for NULL alignment"


def test_align_train_refuses_a_source_word_spelled_null(tmp_path, capsys):
    src, tgt, out = tmp_path / "bitext.en", tmp_path / "bitext.sw", tmp_path / "t.tsv"
    _write(src, "the man\nsee <NULL> here\n")
    _write(tgt, "mannen\nse x hit\n")
    status = cli.main(["align-train", "--src", str(src), "--tgt", str(tgt), "--out", str(out)])
    assert status == cli.EXIT_DATA
    assert capsys.readouterr().err == f"error: ReservedToken: {src}, {tgt}: {_RESERVED}\n"
    assert not out.exists()


def test_lex_build_refuses_a_source_word_spelled_null(tmp_path, capsys):
    command = _three_aligners(tmp_path)
    _write(tmp_path / "aligned" / "en.tsv",
           "".join(f"v{i}\tNoah saw <NULL> {i}\n" for i in range(6)))
    assert cli.main(command) == cli.EXIT_DATA
    assert capsys.readouterr().err == (
        f"error: ReservedToken: {tmp_path / 'aligned'}: {_RESERVED}\n")
    assert not (tmp_path / "lex.tsv").exists()


@pytest.mark.parametrize("broken", [(1,), (1, 2), (0, 1)], ids=["second", "last-two", "first-two"])
def test_lex_build_names_the_first_malformed_table_as_on_one_cpu(tmp_path, monkeypatch, capsys,
                                                                 broken):
    # The target languages come in corpus (registry) order, sw ru fr. Each
    # broken table has a bad probability on line 3.
    command = _three_aligners(tmp_path)
    targets = [lang for lang in cli.corpus.read_corpus_dir(tmp_path / "aligned").languages
               if lang != "en"]
    assert targets == ["sw", "ru", "fr"]
    for index in broken:
        table = tmp_path / "aligners" / f"{targets[index]}.tsv"
        lines = table.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = lines[2].rsplit("\t", 1)[0] + "\tlots\n"
        table.write_text("".join(lines), encoding="utf-8")
    errors = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        with monkeypatch.context() as patch:
            if len(cpus) == 1:
                patch.setattr(os, "fork", _no_fork)
            assert cli.main(command) == cli.EXIT_DATA
        errors.append(capsys.readouterr().err)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    first = tmp_path / "aligners" / f"{targets[broken[0]]}.tsv"
    assert errors[0] == errors[1] == (
        f"error: MalformedLine: {first}:3: probability 'lots' is not in [0, 1]\n")
    assert not (tmp_path / "lex.tsv").exists()


def test_lex_build_on_two_cpus_forks_nothing_and_writes_what_one_cpu_does(tmp_path, monkeypatch,
                                                                          capsys):
    command = _three_aligners(tmp_path)
    written = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        monkeypatch.setattr(os, "fork", _no_fork)
        assert cli.main(command) == cli.EXIT_OK, capsys.readouterr().err
        written.append((tmp_path / "lex.tsv").read_bytes())
    assert written[0] == written[1]
    assert written[0].startswith(b"id\ten\tsw\tru\tfr\nne0001\tNoah\t")


def test_a_lex_build_stage_in_a_worker_forks_no_helper(tmp_path, monkeypatch, capsys):
    # a-config runs in the runner and b-lex-build beside it in the worker, which
    # decodes the languages one after another: a run forks two workers at most,
    # and only the runner forks.
    command = _three_aligners(tmp_path)
    stages = [
        {"name": "a-config", "command": ["emit-config", "--profile", "multilingual",
                                         "--out", str(tmp_path / "a.cfg")],
         "inputs": [], "outputs": [str(tmp_path / "a.cfg")]},
        {"name": "b-lex-build", "command": command, "inputs": [],
         "outputs": [str(tmp_path / "lex.tsv")]},
    ]
    _write(tmp_path / "pipeline.json", json.dumps({"stages": stages}))
    runner, real_fork = os.getpid(), os.fork

    def runner_only_fork():
        if os.getpid() != runner:
            raise AssertionError(f"process {os.getpid()} forked")
        return real_fork()

    monkeypatch.setattr(os, "fork", runner_only_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert cli.main(["run", "--manifest", str(tmp_path / "pipeline.json")]) == cli.EXIT_OK, \
        capsys.readouterr().err
    assert (tmp_path / "lex.tsv").read_text(encoding="utf-8").startswith("id\ten\tsw\tru\tfr\n")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_gl_monitor_names_an_undecodable_line(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scores.tsv").write_bytes(b"1\t40\n2\t\xff\n3\t41\n")
    assert cli.main(["gl-monitor", "--in", "scores.tsv"]) == cli.EXIT_DATA
    assert "MalformedLine: scores.tsv:2: not UTF-8" in capsys.readouterr().err


def test_gl_monitor_reads_scores_piped_through_dev_stdin():
    # Live use: a trainer's scores piped in through /dev/stdin.
    env = dict(os.environ)
    src = str(Path(versemt.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "versemt.cli", "gl-monitor", "--in",
                           "/dev/stdin"], input=b"1\t40\n2\t44\n3\t30\n4\t50\n",
                          capture_output=True, env=env, timeout=60)
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    lines = proc.stdout.decode("utf-8").splitlines()
    assert len(lines) == 3
    assert lines[-1].endswith("stop")


def test_an_undecodable_pipe_is_named_without_a_line_and_read_once(tmp_path):
    # A pipe cannot be read again to count the lines before the bad byte: what is
    # left of it holds none of them, so a line number would be wrong.
    env = dict(os.environ)
    src = str(Path(versemt.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "versemt.cli", "bpe-revert", "--in",
                           "/dev/stdin", "--out", str(tmp_path / "out")],
                          input=b"a b\n\xff c\n", capture_output=True, env=env, timeout=60)
    assert proc.returncode == cli.EXIT_DATA
    assert proc.stderr == b"error: MalformedLine: /dev/stdin: not UTF-8 (invalid start byte)\n"
    assert not (tmp_path / "out").exists()


def test_sample_rejects_a_duplicate_verse_id(tmp_path, capsys):
    verses = tmp_path / "verses.tsv"
    _write(verses, "v1\tone\nv2\ttwo\nv1\tuno\n")
    out = tmp_path / "sample.tsv"
    status = cli.main(["sample", "--in", str(verses), "--fraction", "1", "--out", str(out)])
    assert status == cli.EXIT_DATA
    assert f"{verses}:3: duplicate verse id 'v1'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("total, message", [
    (["--total", "5"], "fraction 0.1 of 5 sentences draws nothing"),
    ([], "{verses}: fraction 0.1 of 5 sentences draws nothing"),  # known once --in is read
], ids=["total", "input-size"])
def test_sample_refuses_a_fraction_that_draws_nothing(tmp_path, capsys, total, message):
    verses = tmp_path / "verses.tsv"
    _write(verses, "".join(f"v{i}\tword{i}\n" for i in range(5)))
    out = tmp_path / "sample.tsv"
    argv = ["sample", "--in", str(verses), "--fraction", "0.1", *total, "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_DATA
    assert capsys.readouterr().err == f"error: BadFraction: {message.format(verses=verses)}\n"
    assert not out.exists()


@pytest.mark.parametrize("min_votes", ["0", "-3"])
def test_lex_build_refuses_min_votes_below_one_before_reading_input(tmp_path, capsys, min_votes):
    out = tmp_path / "lexicon.tsv"
    argv = ["lex-build", "--seed-list", str(tmp_path / "absent.txt"), "--corpus", str(tmp_path),
            "--aligners", str(tmp_path), "--min-votes", min_votes, "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_DATA
    assert capsys.readouterr().err == f"error: BadParameter: min_votes must be >= 1, got {min_votes}\n"
    assert not out.exists()


@pytest.mark.parametrize("tgt, message", [
    ("xx", "UnknownLanguage: unknown language code 'xx'"),
    ("fr", "UnknownLanguage: language 'fr' not in lexicon table"),
], ids=["unregistered", "not-a-column"])
def test_tag_refuses_a_target_language_the_lexicon_lacks(tmp_path, capsys, tgt, message):
    _write(tmp_path / "lex.tsv", "id\ten\tsw\nne1\tNoah\tNoa\n")
    _write(tmp_path / "test.en", "Noah slept .\n")
    status = cli.main(["tag", "--lexicon", str(tmp_path / "lex.tsv"), "--src", "en",
                       "--tgt", tgt, "--in", str(tmp_path / "test.en"),
                       "--out", str(tmp_path / "out")])
    assert status == cli.EXIT_DATA
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("lexicon, where", [
    ("id\ten\ten\nne1\tPaul\tPaulus\n", "lex.tsv:1: language 'en' names two columns"),
    ("id\ten\tsw\nne1\tPaul\tPaulus\nne1\tNoah\tNoa\n", "lex.tsv:3: entry id 'ne1' is repeated"),
], ids=["language-twice", "id-twice"])
def test_tag_refuses_an_ambiguous_lexicon(tmp_path, capsys, lexicon, where):
    _write(tmp_path / "lex.tsv", lexicon)
    _write(tmp_path / "test.en", "Paul said .\n")
    status = cli.main(["tag", "--lexicon", str(tmp_path / "lex.tsv"), "--src", "en",
                       "--tgt", "sw", "--in", str(tmp_path / "test.en"),
                       "--out", str(tmp_path / "out")])
    assert status == cli.EXIT_DATA
    assert f"MalformedLine: {tmp_path / where}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ["", "Noah slept .\n"], ids=["empty", "one-line"])
@pytest.mark.parametrize("src, tgt, missing", [("en", "fr", "fr"), ("fr", "sw", "fr")],
                         ids=["target", "source"])
def test_tag_checks_both_languages_before_reading_a_line(tmp_path, capsys, text, src, tgt,
                                                         missing):
    _write(tmp_path / "lex.tsv", "id\ten\tsw\nne1\tNoah\tNoa\n")
    _write(tmp_path / "test.txt", text)
    status = cli.main(["tag", "--lexicon", str(tmp_path / "lex.tsv"), "--src", src,
                       "--tgt", tgt, "--in", str(tmp_path / "test.txt"),
                       "--out", str(tmp_path / "out")])
    assert status == cli.EXIT_DATA
    assert (f"UnknownLanguage: language {missing!r} not in lexicon table"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "out.decode.jsonl").exists()


@pytest.mark.parametrize("flag", ["--tgt-in", "--tgt-out"])
def test_tag_needs_tgt_in_and_tgt_out_together(tmp_path, capsys, flag):
    # No input file exists: the usage error comes before any read.
    argv = ["tag", "--lexicon", str(tmp_path / "lex.tsv"), "--src", "en", "--tgt", "sw",
            "--in", str(tmp_path / "test.en"), "--out", str(tmp_path / "out"),
            flag, str(tmp_path / "side")]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert "--tgt-in and --tgt-out" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class TestOneReaderPerFormat:
    """Word lists, line-aligned file sets and verse files each have one reader."""

    def test_seed_list_lines_are_stripped(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        _valid_inputs(tmp_path)
        _write(tmp_path / "seeds.txt", "Noah\nNoah \n  \n")
        status = cli.main(["lex-build", "--seed-list", "seeds.txt", "--corpus", "aligned",
                           "--aligners", "aligners", "--out", "lex.tsv"])
        assert status == cli.EXIT_OK, capsys.readouterr().err
        lex = (tmp_path / "lex.tsv").read_text(encoding="utf-8")
        assert lex == "id\ten\tsw\nne0001\tNoah\tNoa\n"

    def test_stoplist_and_reserved_lines_are_stripped(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        _write(tmp_path / "names.txt", "Noah\nThe\n")
        _write(tmp_path / "stop.txt", "the \n")
        assert cli.main(["lex-filter", "--in", "names.txt", "--stoplist", "stop.txt",
                         "--out", "seed.txt"]) == cli.EXIT_OK
        assert (tmp_path / "seed.txt").read_text(encoding="utf-8") == "Noah\n"
        _write(tmp_path / "text.txt", "ab ab ab __opt\n")
        _write(tmp_path / "reserved.txt", "__opt \n")
        assert cli.main(["bpe-learn", "--in", "text.txt", "--merges", "5", "--reserved",
                         "reserved.txt", "--out", "model.bpe"]) == cli.EXIT_OK
        model = (tmp_path / "model.bpe").read_text(encoding="utf-8")
        assert model.endswith("#reserved\n__opt\n"), capsys.readouterr().err

    @pytest.mark.parametrize("argv, counts", [
        (["align-train", "--src", "short.txt", "--tgt", "text.txt", "--out", "out"],
         ["short.txt has 2", "text.txt has 3"]),
        (["tag", "--lexicon", "lexicon.tsv", "--src", "en", "--tgt", "sw", "--in", "text.txt",
          "--tgt-in", "short.txt", "--tgt-out", "out2", "--out", "out"],
         ["text.txt has 3", "short.txt has 2"]),
        (["restore", "--in", "short.txt", "--decode", "decode.jsonl", "--out", "out"],
         ["short.txt has 2", "decode.jsonl has 3"]),
        (["bleu", "--hyp", "text.txt", "--ref", "short.txt"],
         ["text.txt has 3", "short.txt has 2"]),
        (["rubric", "--hyp", "text.txt", "--ref", "text.txt", "--decode", "short.jsonl",
          "--out", "out"],
         ["text.txt has 3, text.txt has 3, short.jsonl has 2"]),
    ], ids=["align-train", "tag", "restore", "bleu", "rubric"])
    def test_a_line_count_mismatch_names_every_file(self, tmp_path, monkeypatch, capsys,
                                                     argv, counts):
        monkeypatch.chdir(tmp_path)
        _valid_inputs(tmp_path)
        _write(tmp_path / "short.txt", "Noah slept\nShem woke\n")
        _write(tmp_path / "short.jsonl", '{"line": 1, "map": {}}\n{"line": 2, "map": {}}\n')
        status = cli.main(argv)
        err = capsys.readouterr().err
        assert status == cli.EXIT_DATA, err
        assert "LengthMismatch: line counts differ: " in err
        for count in counts:
            assert count in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("files, argv, message", [
        ({"hyp": "", "ref": ""}, ["bleu", "--hyp", "hyp", "--ref", "ref"],
         "EmptyCorpus: hyp, ref: no sentences to score"),
        ({"src": "", "tgt": ""}, ["align-train", "--src", "src", "--tgt", "tgt", "--out", "out"],
         "EmptyBitext: src, tgt: bitext is empty"),
        ({"j.jsonl": '{"meaning": null, "order_correct": true, "set_correct": true}\n'},
         ["rubric", "--in", "j.jsonl", "--out", "out"],
         "UnresolvedJudgments: j.jsonl: 1 judgment(s) still pending the human meaning pass"),
        ({"j.jsonl": '{"meaning": 1, "order_correct": true, "set_correct": true}\n'},
         ["rubric", "--in", "j.jsonl", "--out", "out"],
         "MalformedLine: j.jsonl:1: `meaning` must be true, false or null"),
    ], ids=["bleu", "align-train", "rubric-pending", "rubric-line"])
    def test_an_input_error_names_its_files_once(self, tmp_path, monkeypatch, capsys, files,
                                                  argv, message):
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            _write(tmp_path / name, text)
        assert cli.main(argv) == cli.EXIT_DATA
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sample_names_an_empty_file(self, tmp_path, capsys):
        verses = tmp_path / "verses.tsv"
        _write(verses, "")
        out = tmp_path / "sample.tsv"
        status = cli.main(["sample", "--in", str(verses), "--fraction", "1", "--out", str(out)])
        assert status == cli.EXIT_DATA
        assert f"EmptyFile: {verses}: no records" in capsys.readouterr().err
        assert not out.exists()

    def test_sample_reads_under_ingest_rules(self, tmp_path, capsys):
        verses = tmp_path / "verses.tsv"
        _write(verses, " v1 \tCafe\u0301 \n")
        out = tmp_path / "sample.tsv"
        status = cli.main(["sample", "--in", str(verses), "--fraction", "1", "--out", str(out)])
        assert status == cli.EXIT_OK, capsys.readouterr().err
        assert out.read_text(encoding="utf-8") == "v1\tCaf\u00e9\n"

    def test_manual_file_without_its_policy_is_usage_error(self, tmp_path, capsys):
        lex = tmp_path / "lex.tsv"
        _write(lex, "id\ten\tsw\nne1\tNoah\tNoa\nne2\tShem\tSem\n")
        keep = tmp_path / "keep.txt"
        _write(keep, "Shem\n")
        out = tmp_path / "out.tsv"
        status = cli.main(["lex-trim", "--in", str(lex), "--manual-file", str(keep),
                           "--out", str(out)])
        assert status == cli.EXIT_USAGE
        assert "--manual-file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("policy", ["none", "manual-selection"])
    def test_corpus_without_the_frequency_policy_is_usage_error(self, tmp_path, capsys, policy):
        # Neither the lexicon, the selection file nor the corpus exists: none is read.
        out = tmp_path / "out.tsv"
        keep = ["--manual-file", str(tmp_path / "keep.txt")] if policy == "manual-selection" else []
        status = cli.main(["lex-trim", "--in", str(tmp_path / "lex.tsv"), "--policy", policy,
                           *keep, "--corpus", str(tmp_path / "aligned"), "--out", str(out)])
        assert status == cli.EXIT_USAGE
        assert "--corpus goes with policy frequency-equals-one" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--hyp", "--ref", "--decode"])
    def test_rubric_in_with_a_judging_flag_is_usage_error(self, tmp_path, capsys, flag):
        judgments = tmp_path / "judgments.jsonl"
        _write(judgments, '{"meaning": true, "order_correct": true, "set_correct": true}\n')
        out = tmp_path / "out.tsv"
        status = cli.main(["rubric", "--in", str(judgments), flag, str(tmp_path / "missing"),
                           "--out", str(out)])
        assert status == cli.EXIT_USAGE
        assert "rubric needs either --in" in capsys.readouterr().err
        assert not out.exists()

    def test_over_long_json_integer_names_its_line(self, tmp_path, capsys):
        decode = tmp_path / "decode.jsonl"
        _write(decode, '{"line": 1, "map": {}}\n{"line": ' + "9" * 5000 + "}\n")
        text = tmp_path / "mt.txt"
        _write(text, "a\nb\n")
        status = cli.main(["restore", "--in", str(text), "--decode", str(decode),
                           "--out", str(tmp_path / "out")])
        assert status == cli.EXIT_DATA
        assert f"{decode}:2: not readable JSON" in capsys.readouterr().err

    def test_a_repeated_json_key_names_its_line(self, tmp_path, capsys):
        decode = tmp_path / "decode.jsonl"
        _write(decode, '{"line": 1, "map": {}}\n{"line": 2, "map": {}, "map": {"1": {}}}\n')
        text, out = tmp_path / "mt.txt", tmp_path / "out"
        _write(text, "a\nb\n")
        status = cli.main(["restore", "--in", str(text), "--decode", str(decode), "--out", str(out)])
        assert status == cli.EXIT_DATA
        assert capsys.readouterr().err == (f"error: MalformedLine: {decode}:2: not readable JSON "
                                           "(key 'map' is repeated)\n")
        assert not out.exists()


class TestExitCodeMeaning:
    """2 is bad input or a bad parameter; 3 is a bug, never bad input."""

    def test_fit_overflow_is_data_error(self, tmp_path, capsys):
        points = tmp_path / "pts.tsv"
        _write(points, "10\t1e300\n100\t-1e300\n1000\t3\n")
        status = cli.main(["fit", "--in", str(points)])
        assert status == cli.EXIT_DATA
        assert "DegenerateInput" in capsys.readouterr().err

    def test_fit_counts_with_one_float_log10_are_data_error(self, tmp_path, capsys):
        points = tmp_path / "pts.tsv"
        _write(points, "1e300\t1\n1.0000000000000002e300\t2\n")
        status = cli.main(["fit", "--in", str(points)])
        assert status == cli.EXIT_DATA
        assert "distinct word counts" in capsys.readouterr().err

    def test_a_plain_value_error_is_internal(self, tmp_path, monkeypatch, capsys):
        def broken(points):
            raise ValueError("a bug")

        monkeypatch.setattr(harness, "fit_power_law", broken)
        points = tmp_path / "pts.tsv"
        _write(points, "10\t1\n100\t2\n")
        assert cli.main(["fit", "--in", str(points)]) == cli.EXIT_INTERNAL
        assert "internal error: ValueError: a bug" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["bpe-learn", "--in", "text.txt", "--merges", "-1", "--out", "out"],
        ["align-train", "--src", "text.txt", "--tgt", "text.txt", "--iterations", "-1",
         "--out", "out"],
        ["align-train", "--src", "text.txt", "--tgt", "text.txt", "--null-prob", "1",
         "--out", "out"],
        ["bleu", "--hyp", "text.txt", "--ref", "text.txt", "--max-n", "0"],
        ["sample", "--in", "sample.tsv", "--fraction", "1", "--total", "0", "--out", "out"],
    ], ids=["merges", "iterations", "null-prob", "max-n", "total"])
    def test_an_out_of_range_flag_is_data_error(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        _valid_inputs(tmp_path)
        status = cli.main(argv)
        assert status == cli.EXIT_DATA
        assert "error: BadParameter: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path", ["aligned", "text.txt/x", "absent.txt"])
    def test_an_input_path_that_is_no_file_is_data_error(self, tmp_path, monkeypatch, capsys,
                                                          path):
        monkeypatch.chdir(tmp_path)
        _valid_inputs(tmp_path)
        assert cli.main(["bleu", "--hyp", path, "--ref", "text.txt"]) == cli.EXIT_DATA
        assert f": {path}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, where", [
        (["emit-config", "--profile", "multilingual", "--out", "x" * 300], "x" * 300),
        (["label", "--corpus", "aligned", "--split", "splits.tsv", "--schedule", "long.tsv",
          "--out-prefix", "out"], "long.tsv:1: step"),
    ], ids=["output-name", "schedule-step"])
    def test_a_name_too_long_for_the_file_system_is_data_error(self, tmp_path, monkeypatch,
                                                                capsys, argv, where):
        monkeypatch.chdir(tmp_path)
        _valid_inputs(tmp_path)
        _write(tmp_path / "long.tsv", "1" * 300 + "\ten,sw\n")
        assert cli.main(argv) == cli.EXIT_DATA
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["text.txt/out", "."])
    def test_an_output_path_through_a_file_or_onto_a_directory_is_data_error(
            self, tmp_path, monkeypatch, capsys, out):
        monkeypatch.chdir(tmp_path)
        _valid_inputs(tmp_path)
        assert cli.main(["emit-config", "--profile", "multilingual", "--out", out]) == cli.EXIT_DATA
        assert "error: PipelineError: " in capsys.readouterr().err

    @pytest.mark.parametrize("ratios", ["nan,0.5,0.5", "0.5,inf,0.5", "0.5,0.5,-inf"])
    def test_a_non_finite_split_ratio_is_data_error(self, tmp_path, monkeypatch, capsys, ratios):
        monkeypatch.chdir(tmp_path)
        _valid_inputs(tmp_path)
        status = cli.main(["split", "--corpus", "aligned", "--ratios", ratios, "--out", "out"])
        assert status == cli.EXIT_DATA
        assert "error: BadRatios: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-0.5"])
    def test_a_gl_monitor_alpha_that_is_not_finite_and_at_least_0_is_data_error(
            self, tmp_path, monkeypatch, capsys, alpha):
        monkeypatch.chdir(tmp_path)
        _write(tmp_path / "scores.tsv", "1\t30.0\n2\t20.0\n")  # GL 33.3
        assert cli.main(["gl-monitor", "--in", "scores.tsv", "--alpha", alpha]) == cli.EXIT_DATA
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: BadParameter: alpha must be finite and >= 0, got {float(alpha)}" in err

    def test_gl_monitor_bad_score_is_malformed_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        _write(tmp_path / "scores.tsv", "1\t40.0\n2\tnan\n")
        assert cli.main(["gl-monitor", "--in", "scores.tsv"]) == cli.EXIT_DATA
        assert "MalformedLine: scores.tsv:2:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["split", "--corpus", "aligned", "--out", "out"],
        ["schedule", "--anchor", "sw", "--mode", "sparse-addition", "--out", "out"],
        ["sample", "--in", "sample.tsv", "--fraction", "0.5", "--total", "6", "--out", "out"],
    ], ids=["split", "schedule", "sample"])
    def test_a_seeded_subcommand_without_seed_uses_seed_0_whatever_the_environment(
            self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        _valid_inputs(tmp_path)
        assert cli.main([*argv[:-1], "seed0", "--seed", "0"]) == cli.EXIT_OK
        monkeypatch.setenv("VERSEMT_SEED", "seven")
        assert cli.main(argv) == cli.EXIT_OK, capsys.readouterr().err
        assert (tmp_path / "out").read_bytes() == (tmp_path / "seed0").read_bytes()


_MIXED_OUTPUTS = "must be separate paths, not one inside another"
_TAG = ["tag", "--lexicon", "lexicon.tsv", "--src", "en", "--tgt", "sw", "--in", "text.txt"]


class TestFlagRules:
    """The rules on a subcommand's flags, each run alone on valid inputs: a usage error
    (exit 1) that writes nothing."""

    def _refused(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        _valid_inputs(tmp_path)
        argv = [arg.replace("CWD", os.getcwd()) for arg in argv]  # an absolute spelling
        before = sorted(tmp_path.rglob("*"))
        assert cli.main(argv) == cli.EXIT_USAGE
        assert f"usage error: {message}\n" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("argv, message", [
        (["lex-trim", "--in", "lexicon.tsv", "--policy", "manual-selection", "--out", "out"],
         "--manual-file goes with policy manual-selection, and only with it"),
        (["split", "--corpus", "aligned", "--ratios", "0.5,0.5", "--out", "out"],
         "--ratios expects three comma-separated fractions, got '0.5,0.5'"),
        (["split", "--corpus", "aligned", "--ratios", "a,b,c", "--out", "out"],
         "bad ratio in 'a,b,c': could not convert string to float: 'a'"),
        (["rubric", "--hyp", "text.txt", "--ref", "text.txt", "--decode", "decode.jsonl"],
         "rubric needs either --in and an optional --out, or all of --hyp/--ref/--decode/--out"),
        (["rubric"],
         "rubric needs either --in and an optional --out, or all of --hyp/--ref/--decode/--out"),
    ], ids=["manual-selection-without-file", "ratio-count", "ratio-number", "rubric-no-out",
            "rubric-nothing"])
    def test_a_broken_flag_rule_is_usage_error(self, tmp_path, monkeypatch, capsys, argv,
                                               message):
        self._refused(tmp_path, monkeypatch, capsys, argv, message)

    @pytest.mark.parametrize("argv, message", [
        ([*_TAG, "--out", "o.txt", "--decode", "o.txt"],
         f"--out, --tgt-out and the decode sidecar {_MIXED_OUTPUTS}"),
        ([*_TAG, "--out", "o.txt", "--tgt-in", "text.txt", "--tgt-out", "./o.txt"],
         f"--out, --tgt-out and the decode sidecar {_MIXED_OUTPUTS}"),
        ([*_TAG, "--out", "o.txt", "--tgt-in", "text.txt", "--tgt-out", "o.txt.decode.jsonl"],
         f"--out, --tgt-out and the decode sidecar {_MIXED_OUTPUTS}"),
        (["lex-build", "--seed-list", "seeds.txt", "--corpus", "aligned", "--aligners",
          "aligners", "--out", "l.tsv", "--freq-out", "l.tsv"],
         f"--out and --freq-out {_MIXED_OUTPUTS}"),
        (["lex-trim", "--in", "lexicon.tsv", "--out", "t.tsv", "--freq-out", "d/../t.tsv"],
         f"--out and --freq-out {_MIXED_OUTPUTS}"),
        (["sample", "--in", "sample.tsv", "--fraction", "1", "--out", "s.tsv",
          "--manifest", "s.tsv"], f"--out and --manifest {_MIXED_OUTPUTS}"),
        (["align", "--in", "aligned", "--out", "store", "--stats", "store/en.tsv"],
         f"--out and --stats {_MIXED_OUTPUTS}"),
        (["align", "--in", "aligned", "--out", "store", "--stats", "store"],
         f"--out and --stats {_MIXED_OUTPUTS}"),
        ([*_TAG, "--out", "o.txt", "--decode", "CWD/o.txt"],
         f"--out, --tgt-out and the decode sidecar {_MIXED_OUTPUTS}"),
        (["lex-build", "--seed-list", "seeds.txt", "--corpus", "aligned", "--aligners",
          "aligners", "--out", "l.tsv", "--freq-out", "CWD/l.tsv"],
         f"--out and --freq-out {_MIXED_OUTPUTS}"),
        (["lex-trim", "--in", "lexicon.tsv", "--out", "t.tsv", "--freq-out", "CWD/d/../t.tsv"],
         f"--out and --freq-out {_MIXED_OUTPUTS}"),
        (["sample", "--in", "sample.tsv", "--fraction", "1", "--out", "s.tsv",
          "--manifest", "CWD/s.tsv"], f"--out and --manifest {_MIXED_OUTPUTS}"),
        (["align", "--in", "aligned", "--out", "store", "--stats", "CWD/store/en.tsv"],
         f"--out and --stats {_MIXED_OUTPUTS}"),
    ], ids=["tag-decode", "tag-tgt-out", "tag-default-decode", "lex-build", "lex-trim",
            "sample", "align-below", "align-at", "tag-decode-absolute", "lex-build-absolute",
            "lex-trim-absolute", "sample-absolute", "align-absolute"])
    def test_two_outputs_on_one_path_are_usage_error(self, tmp_path, monkeypatch, capsys,
                                                     argv, message):
        self._refused(tmp_path, monkeypatch, capsys, argv, message)

    @pytest.mark.parametrize("argv", [
        ["align", "--in", "aligned", "--out", "store", "--stats", "store.tsv"],
        ["sample", "--in", "sample.tsv", "--fraction", "1", "--out", "s", "--manifest", "s.tsv"],
    ], ids=["align", "sample"])
    def test_outputs_that_share_only_a_name_prefix_are_fine(self, tmp_path, monkeypatch, capsys,
                                                            argv):
        monkeypatch.chdir(tmp_path)
        _valid_inputs(tmp_path)
        assert cli.main(argv) == cli.EXIT_OK, capsys.readouterr().err


_TAG_VALID = ["tag", "--lexicon", "lexicon.tsv", "--in", "text.txt", "--out", "out"]
_ALIGN_TRAIN = ["align-train", "--src", "text.txt", "--tgt", "text.txt", "--out", "out"]


@pytest.mark.parametrize("argv, error", [
    (["ingest", "--lang", "xx", "--in", "raw.txt", "--out", "out"],
     "UnknownLanguage: unknown language code 'xx'"),
    (["schedule", "--anchor", "xx", "--mode", "family-addition", "--out", "out"],
     "UnknownLanguage: unknown language code 'xx'"),
    ([*_TAG_VALID, "--src", "xx", "--tgt", "sw"], "UnknownLanguage: unknown language code 'xx'"),
    ([*_TAG_VALID, "--src", "en", "--tgt", "po"],
     "UnknownLanguage: language code 'po' is ambiguous; use pl or pt"),
    (["label", "--corpus", "aligned", "--split", "splits.tsv", "--langs", "en,xx",
      "--out-prefix", "out"], "UnknownLanguage: unknown language code 'xx'"),
    (["split", "--corpus", "aligned", "--ratios", "0.5,0.5,0.5", "--out", "out"],
     "BadRatios: ratios must be three positive fractions summing to 1.0, got (0.5, 0.5, 0.5)"),
    ([*_ALIGN_TRAIN, "--iterations", "-1"], "BadParameter: iterations must be >= 0"),
    ([*_ALIGN_TRAIN, "--tension", "nan"], "BadParameter: tension must be finite and >= 0, got nan"),
    ([*_ALIGN_TRAIN, "--null-prob", "1"], "BadParameter: null_prob must be in [0, 1), got 1.0"),
    (["bpe-learn", "--in", "text.txt", "--merges", "-1", "--out", "out"],
     "BadParameter: num_merges must be >= 0"),
    (["bleu", "--hyp", "text.txt", "--ref", "text.txt", "--max-n", "0"],
     "BadParameter: max_n must be >= 1"),
    # A bad range now comes before an unreadable input.
    (["bleu", "--hyp", "absent", "--ref", "absent", "--max-n", "0"],
     "BadParameter: max_n must be >= 1"),
], ids=["ingest-lang", "schedule-anchor", "tag-src", "tag-tgt-po", "label-langs", "split-ratios",
        "iterations", "tension", "null-prob", "merges", "max-n", "max-n-before-hyp"])
def test_a_bad_code_or_ratio_alone_is_the_layers_data_error(tmp_path, monkeypatch, capsys, argv,
                                                            error):
    monkeypatch.chdir(tmp_path)
    _valid_inputs(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    assert cli.main(argv) == cli.EXIT_DATA
    assert capsys.readouterr().err == f"error: {error}\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_a_missing_flag_or_help_comes_before_a_bad_value(capsys):
    assert cli.main(["split", "--ratios", "0.5,0.5,0.5", "--out", "out"]) == cli.EXIT_USAGE
    assert "the following arguments are required: --corpus" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exit_:
        cli.main(["ingest", "--lang", "xx", "--in", "raw.txt", "--out", "out", "--help"])
    assert exit_.value.code == 0
    assert "usage: versemt ingest" in capsys.readouterr().out


def _handlers_raising_usage_errors(source: str) -> list[str]:
    raising = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_"):
            for raised in ast.walk(node):
                if isinstance(raised, ast.Raise) and raised.exc is not None:
                    exc = raised.exc.func if isinstance(raised.exc, ast.Call) else raised.exc
                    if getattr(exc, "id", getattr(exc, "attr", None)) == "UsageError":
                        raising.append(node.name)
    return raising


def test_no_stage_handler_raises_a_usage_error():
    # A flag rule checked in a handler would fail a manifest run only at its stage's
    # turn; the rules belong in the subcommand table, which the parse checks.
    assert _handlers_raising_usage_errors("def _cmd_x(args):\n    raise UsageError('x')\n"
                                          "def _cmd_y(args):\n    raise errors.UsageError\n"
                                          "def _cmd_z(args):\n    raise ValueError('z')\n"
                                          ) == ["_cmd_x", "_cmd_y"]
    assert _handlers_raising_usage_errors(Path(cli.__file__).read_text(encoding="utf-8")) == []


# Every corrupted input: the file each `_READERS` command reads, each `_LINE_INPUTS`
# slot, and the word lists that neither names.
_FUZZED = [
    *((name, argv) for name, argv in sorted(_READERS.items())),
    *(("bad.txt", [arg.replace("BAD", "bad.txt") for arg in argv]) for argv in _LINE_INPUTS),
    ("bad.txt", ["lex-build", "--seed-list", "bad.txt", "--corpus", "aligned",
                 "--aligners", "aligners", "--out", "out"]),
    ("bad.txt", ["lex-trim", "--in", "lexicon.tsv", "--policy", "manual-selection",
                 "--manual-file", "bad.txt", "--out", "out"]),
]
_TEXTY = st.text(st.sampled_from("\t\n\r \x00,.:$-{}[]\"\\01eNviaéΣ\u2028"), max_size=40)


@pytest.mark.parametrize("name, argv", _FUZZED, ids=[f"{n}-{a[0]}" for n, a in _FUZZED])
@settings(max_examples=12, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.one_of(st.binary(max_size=48), _TEXTY.map(lambda text: text.encode("utf-8"))))
def test_corrupted_input_never_exits_3(tmp_path_factory, name, argv, data):
    root = tmp_path_factory.mktemp("fuzz")
    _valid_inputs(root)
    (root / name).write_bytes(data)
    with contextlib.chdir(root), contextlib.redirect_stderr(io.StringIO()) as err:
        status = cli.main(argv)
    assert status in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DATA), err.getvalue()
    assert status != cli.EXIT_DATA or name in err.getvalue(), err.getvalue()


# Commands that parse and run on `_valid_inputs`, to be broken at random.
_STAGE_COMMANDS = [
    *(argv for argv in _READERS.values() if argv[0] != "run"),
    *([arg.replace("BAD", "text.txt") for arg in argv] for argv in _LINE_INPUTS),
    ["emit-config", "--profile", "multilingual", "--out", "out"],
    ["schedule", "--anchor", "sw", "--mode", "family-addition", "--out", "out"],
    ["split", "--corpus", "aligned", "--out", "out"],
    ["align", "--in", "aligned", "--out", "d"],
]
_JUNK_WORDS = st.sampled_from([
    "out", "out2", "d", "d/out", "text.txt", "text.txt/out", "aligned", "store", "absent", ".",
    "x" * 300, "en", "sw", "0", "1", "-1", "2.5", "nan", "--out", "--in", "--help", "run", "",
])
_PATHS = st.sampled_from(["out", "out2", "d", "d/out", "text.txt", "aligned", "aligned/en.tsv"])


def _nested(a: str, b: str) -> bool:
    a_parts, b_parts = Path(os.path.abspath(a)).parts, Path(os.path.abspath(b)).parts
    return a_parts[: len(b_parts)] == b_parts or b_parts[: len(a_parts)] == a_parts


@st.composite
def _junk_manifests(draw):
    """Valid manifests (unique names; no output at, inside or above another
    stage's output) of broken commands."""
    stages, written = [], set()
    for index in range(draw(st.integers(1, 4))):
        command = list(draw(st.sampled_from(_STAGE_COMMANDS)))
        for position, word in draw(st.lists(st.tuples(st.integers(0, 20), _JUNK_WORDS),
                                            max_size=2)):
            command[position % len(command)] = word
        if draw(st.booleans()) and draw(st.booleans()):
            del command[draw(st.integers(1, len(command))):]
        outputs = [value for flag, value in zip(command, command[1:]) if flag == "--out"]
        outputs = [path for path in outputs + draw(st.lists(_PATHS, max_size=1))
                   if not any(_nested(path, other) for other in written)]
        written.update(outputs)
        stages.append({"name": f"s{index}", "command": command,
                       "inputs": draw(st.lists(_PATHS, max_size=2)), "outputs": outputs})
    return {"stages": stages}


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(manifest=_junk_manifests())
def test_junk_stage_commands_run_on_two_cpus_never_exit_3(tmp_path_factory, monkeypatch, manifest):
    root = tmp_path_factory.mktemp("junk")
    _valid_inputs(root)
    (root / "pipeline.json.state.json").unlink()
    (root / "pipeline.json").write_text(json.dumps(manifest), encoding="utf-8")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with contextlib.chdir(root), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        status = cli.main(["run", "--manifest", "pipeline.json"])
    assert status in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DATA), err.getvalue()
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)
