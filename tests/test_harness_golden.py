"""Exact output bytes of the experiment-control subcommands on fixed inputs.

No benchmark workload runs emit-config, sample --manifest, fit or gl-monitor,
so these pins are what holds their output still when the records behind them
change shape.
"""

from __future__ import annotations

import io

import pytest

from versemt import cli, harness

TRAINER_CONFIGS = {
    "multilingual": (
        "profile: multilingual\nminibatch_size: 64\ndropout: 0.3\nrnn_layers: 4\n"
        "rnn_size: 1000\nword_vec_size: 600\nlearning_rate: 0.8\ndecay_rate: 0.7\n"
        "decay_start_epoch: 9\noptimizer: sgd\n"
    ),
    "single-pair": (
        "profile: single-pair\nminibatch_size: 64\ndropout: 0.3\nrnn_layers: 2\n"
        "rnn_size: 500\nword_vec_size: 500\nlearning_rate: 1.0\ndecay_rate: 0.7\n"
        "decay_start_epoch: 9\noptimizer: sgd\n"
    ),
}


def test_every_profile_is_pinned():
    assert sorted(harness._PROFILES) == sorted(TRAINER_CONFIGS)


@pytest.mark.parametrize("profile", sorted(TRAINER_CONFIGS))
def test_emit_config_bytes(tmp_path, profile):
    out = tmp_path / "train.cfg"
    assert cli.main(["emit-config", "--profile", profile, "--out", str(out)]) == cli.EXIT_OK
    assert out.read_bytes() == TRAINER_CONFIGS[profile].encode("utf-8")


def test_sample_and_manifest_bytes(tmp_path):
    words = ["alpha", "beta", "gamma", "delta", "eps"]
    text = {f"GEN.1.{i}": f"{' '.join(words[: 1 + i % 5])} w{i}" for i in range(1, 31)}
    verses = tmp_path / "verses.tsv"
    verses.write_text("".join(f"{vid}\t{t}\n" for vid, t in text.items()), encoding="utf-8")
    out, manifest = tmp_path / "sampled.tsv", tmp_path / "ablation.tsv"
    assert cli.main([
        "sample", "--in", str(verses), "--fraction", "0.3", "--seed", "7",
        "--out", str(out), "--manifest", str(manifest),
    ]) == cli.EXIT_OK
    assert manifest.read_bytes() == (
        b"fraction\tseed\ttotal\tdistinct\tunique_words\tlog10_words\n"
        b"0.3\t7\t30\t8\t25\t1.40\n"
    )
    draws = [10, 5, 20, 3, 17, 11, 2, 16, 2]
    ids = [f"GEN.1.{i}" for i in (draws * 4)[:30]]
    assert out.read_bytes() == "".join(f"{vid}\t{text[vid]}\n" for vid in ids).encode("utf-8")


def test_fit_stdout_and_file_bytes(tmp_path, capsys):
    points, out = tmp_path / "points.tsv", tmp_path / "fit.tsv"
    points.write_text("120\t4.5\n1500\t9.25\n20000\t13.0\n250000\t15.5\n", encoding="utf-8")
    assert cli.main(["fit", "--in", str(points), "--out", str(out)]) == cli.EXIT_OK
    expected = "slope\t3.316452585\nintercept\t-1.836259055\nr_squared\t0.981600467\n"
    assert capsys.readouterr().out == expected
    assert out.read_bytes() == expected.encode("utf-8")


def test_gl_monitor_stdout_bytes(monkeypatch, capsys):
    scores = "1\t12.5\n2\t20.25\n3\t21.0\n4\t20.995\n5\t20.9\n6\t18.0\n7\t30.0\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(scores))
    assert cli.main(["gl-monitor", "--alpha", "0.5"]) == cli.EXIT_OK
    assert capsys.readouterr().out == (
        "1\t12.5\t0.0000\tcontinue\n"
        "2\t20.25\t0.0000\tcontinue\n"
        "3\t21.0\t0.0000\tcontinue\n"
        "4\t20.995\t0.0238\tcontinue\n"
        "5\t20.9\t0.4762\tcontinue\n"
        "6\t18.0\t14.2857\tstop\n"
    )
