"""Smoke run of the benchmark at its tiny size: every stage passes its checks."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tiny_run(workload: str, results: Path, trace: str = "0") -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--size", "tiny",
         "--seed", "1", "--seconds", "1", "--trace", trace, "--results", str(results)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_tag_eval_tiny_run_is_correct(tmp_path):
    result = _tiny_run("tag-eval", tmp_path)
    assert result["correct"] is True
    assert result["failed"] == 0


def test_ne_lexicon_tiny_run_is_correct(tmp_path):
    result = _tiny_run("ne-lexicon", tmp_path)
    assert result["correct"] is True
    assert result["failed"] == 0


def test_multiway_label_tiny_run_is_correct(tmp_path):
    result = _tiny_run("multiway-label", tmp_path)
    assert result["correct"] is True
    assert result["failed"] == 0


def test_ne_lexicon_tiny_traced_run_times_table_io_and_assembly(tmp_path):
    # bench/tracing.py wraps layer functions by name and binds train_em's
    # arguments, so a renamed or re-signed layer function fails this run.
    result = _tiny_run("ne-lexicon", tmp_path, trace="1")
    assert result["correct"] is True
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["alignment.table_io_s"]["value"] > 0
    assert metrics["lexicon.assemble_s"]["value"] > 0


def test_multiway_label_tiny_traced_run_times_and_counts_labeling(tmp_path):
    # `label` is the only ready stage when it starts, so the runner's own
    # process runs it and the tracer sees both labeling functions.
    result = _tiny_run("multiway-label", tmp_path, trace="1")
    assert result["correct"] is True
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["labeling.expand_s"]["value"] > 0
    assert metrics["labeling.write_s"]["value"] > 0
    # A correct run's bitext/run.step*.src files hold exactly labeled_lines lines.
    record = json.loads((tmp_path / "multiway-label.seed1.trace1.json").read_text())
    assert metrics["labeling.lines"]["value"] == record["input_sizes"]["labeled_lines"] > 0
