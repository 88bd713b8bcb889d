"""Smoke run of the benchmark at its tiny size: every stage passes its checks."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tag_eval_tiny_run_is_correct(tmp_path):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tag-eval", "--size", "tiny",
         "--seed", "1", "--seconds", "1", "--results", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
