"""Tiny-size self-check of the benchmark itself.

    python3 bench/selfcheck.py

Checks that the generator is deterministic (the same seed gives
byte-identical files, another seed gives different files of the same
sizes), then runs every workload at the tiny size, traced and untraced, and
checks that each run passes its correctness checks and prints every metric
named in BENCHMARK.json with its unit. Takes well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads

# Inputs that do not depend on the seed: the manifest and fixed token lists.
SEED_INDEPENDENT = {"pipeline.json", "reserved.txt", "stop.txt"}


def line_counts(directory: Path) -> dict[str, int]:
    return {path.relative_to(directory).as_posix(): len(path.read_bytes().splitlines())
            for path in sorted(directory.rglob("*")) if path.is_file()}


def check_generator(scratch: Path) -> None:
    for name, workload in workloads.WORKLOADS.items():
        first, again, other = (scratch / f"{name}-{k}" for k in ("a", "b", "c"))
        for directory, seed in ((first, 1), (again, 1), (other, 2)):
            directory.mkdir(parents=True)
            workload.prepare(seed, "tiny", directory)
        assert run.tree_digests(first) == run.tree_digests(again), f"{name}: seed 1 not reproducible"
        a, c = run.tree_digests(first), run.tree_digests(other)
        same = [p for p in a if a[p] == c.get(p) and p not in SEED_INDEPENDENT]
        assert set(a) == set(c) and not same, f"{name}: seed 2 repeats files {same}"
        assert line_counts(first) == line_counts(other), f"{name}: seed 2 changes file sizes"


def check_runs(scratch: Path) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for name in workloads.WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            argv = [sys.executable, str(run.BENCH / "run.py"), "--workload", name, "--seed", "1",
                    "--seconds", "0", "--trace", str(trace), "--size", "tiny",
                    "--results", str(scratch / "results")]
            proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, timeout=170)
            assert proc.returncode == 0, f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, f"{name} trace {trace}: {proc.stdout}"
            units = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == units, f"{name} trace {trace}: metrics {sorted(got)} != {sorted(units)}"
            print(f"ok {name} trace {trace}: {len(got)} metrics, {result['attempted']} operations")


def main() -> int:
    scratch = run.WORK / "selfcheck"
    shutil.rmtree(scratch, ignore_errors=True)
    sys.path.insert(0, str(run.SRC))
    try:
        check_generator(scratch)
        print("ok generator: same seed identical, other seed different with the same sizes")
        check_runs(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
