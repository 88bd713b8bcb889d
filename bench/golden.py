"""Rebuild ``bench/golden.json`` from run records.

    python3 bench/golden.py RESULTS_DIR [RESULTS_DIR ...]

Collects the output digests of every record written by ``bench/run.py
--results DIR`` into ``golden.json``, keyed by size, workload and seed. Run
it only when a change is meant to alter outputs, and say why in the change.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden.json"


def main(directories: list[str]) -> int:
    golden: dict = defaultdict(lambda: defaultdict(dict))
    for directory in directories:
        for path in sorted(Path(directory).glob("*.json")):
            record = json.loads(path.read_text())
            digests = record["output_digests"]
            if record["failed"] or digests is None:
                raise SystemExit(f"{path}: a run with failures cannot be golden")
            seeds = golden[record["size"]][record["workload"]]
            if seeds.setdefault(str(record["seed"]), digests) != digests:
                raise SystemExit(f"{path}: outputs differ from another record of the same seed")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
