"""The pipeline writes the same bytes on every supported Python: each pyenv
interpreter >= 3.10 other than the running one runs the benchmark at full size,
seed 1, and its outputs must match `bench/golden.json`. ne-lexicon and tag-eval
are run because their bytes hang on the order of float sums (`_sum_ltr`), which
the builtin `sum` changed in 3.12. Other interpreters need only the standard
library; the test skips when none is installed."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
VERSIONS = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"


def _other_interpreters() -> list[tuple[str, Path]]:
    """(version, python3) of each pyenv interpreter >= 3.10 but the running one."""
    found = []
    for directory in sorted(VERSIONS.glob("*")) if VERSIONS.is_dir() else ():
        match = re.fullmatch(r"(\d+)\.(\d+)\.(\d+)", directory.name)
        python = directory / "bin" / "python3"
        if match and python.is_file():
            version = tuple(map(int, match.groups()))
            if version >= (3, 10) and version != sys.version_info[:3]:
                found.append((directory.name, python))
    return found


INTERPRETERS = _other_interpreters()


@pytest.mark.skipif(not INTERPRETERS, reason="no other pyenv interpreter >= 3.10")
@pytest.mark.parametrize("workload", ["ne-lexicon", "tag-eval"])
@pytest.mark.parametrize("python", [python for _, python in INTERPRETERS],
                         ids=[version for version, _ in INTERPRETERS])
def test_full_size_outputs_match_the_golden_digests(tmp_path, python, workload):
    proc = subprocess.run(
        [str(python), "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", "0", "--results", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["failed"] == 0
    record = json.loads((tmp_path / f"{workload}.seed1.trace0.json").read_text())
    golden = json.loads((ROOT / "bench" / "golden.json").read_text())
    assert record["output_digests"] == golden["full"][workload]["1"]
