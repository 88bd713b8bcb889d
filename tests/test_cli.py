from __future__ import annotations

import io
import json
import logging
import re

import pytest

from versemt import cli
from versemt.errors import CycleDetected, StageFailed, UsageError
from versemt.fileio import atomic_write_text


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

    def test_gl_monitor(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("1\t40.0\n2\t44.5\n3\t44.4\n4\t44.4\n"))
        assert cli.dispatch(["gl-monitor", "--alpha", "0.1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3  # stops after the first stop decision
        assert lines[-1].endswith("stop")
        assert lines[0].endswith("continue")


class TestSeedEnv:
    def test_env_seed_used(self, tmp_path, corpus_dir, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "77")
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        cli.dispatch(["split", "--corpus", str(corpus_dir), "--out", str(a)])
        cli.dispatch(["split", "--corpus", str(corpus_dir), "--seed", "77", "--out", str(b)])
        assert a.read_text() == b.read_text()


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
        built = []
        build_parser = cli.build_parser

        def counting_build_parser():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "_parser", None)
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
        assert len(built) == 1

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

    @pytest.mark.parametrize("line", ["x\ten,sw", "1\t", "1\ten,,sw"])
    def test_malformed_schedule_line(self, tmp_path, corpus_dir, capsys, line):
        splits = self._valid_split(tmp_path, corpus_dir)
        schedule = tmp_path / "sched.tsv"
        _write(schedule, line + "\n")
        err = self._label(tmp_path, corpus_dir, capsys, splits, schedule)
        assert f"{schedule}:1" in err

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
        "stdin, lineno",
        [("1\t40.0\n2\tnan\n", 2), ("1\tinf\n", 1), ("1\t40.0\n\n2.5\t41.0\n", 3)],
        ids=["nan-score", "inf-score", "fractional-epoch"],
    )
    def test_gl_monitor_rejects_bad_line(self, monkeypatch, capsys, stdin, lineno):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        status, err = self._main(["gl-monitor"], capsys)
        assert status == cli.EXIT_DATA
        assert f"<stdin>:{lineno}:" in err

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
