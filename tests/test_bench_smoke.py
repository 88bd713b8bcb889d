"""Runs of the benchmark: at its tiny size every stage passes its checks, and at
full size seed 1 writes the bytes that `bench/golden.json` records."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(workload: str, results: Path, *flags: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--results", str(results), *flags],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _tiny_run(workload: str, results: Path, trace: str = "0") -> dict:
    return _run(workload, results, "--size", "tiny", "--seconds", "1", "--trace", trace)


@pytest.mark.parametrize("workload", ["multiway-label", "ne-lexicon", "tag-eval"])
def test_full_size_seed_1_outputs_match_the_golden_digests(tmp_path, workload):
    # bench/run.py only prints a digest that differs, so the test compares them.
    assert _run(workload, tmp_path, "--seconds", "0.5", "--trace", "0")["failed"] == 0
    record = json.loads((tmp_path / f"{workload}.seed1.trace0.json").read_text())
    golden = json.loads((ROOT / "bench" / "golden.json").read_text())
    assert record["output_digests"] == golden["full"][workload]["1"]


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
