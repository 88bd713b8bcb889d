"""Compare two result sets of the benchmark, metric by metric.

    python3 bench/compare.py BASE_RESULTS NEW_RESULTS

Each argument is a directory of run records written by ``bench/run.py
--results DIR``. Runs of the two sides are paired by workload and seed. For
every workload and every metric in ``BENCHMARK.json`` (end-to-end metrics
from ``--trace 0`` records, per-layer metrics from ``--trace 1`` records) it
prints each side's median and quartiles and a verdict:

- ``improved``: the new side wins at least nine tenths of the pairs (ties
  count for neither) and the medians differ, in its favour, by more than the
  base side's interquartile range;
- ``worse``: the new median is worse than the base median by more than the
  metric's bound (per-layer metrics have no bound: by more than the base
  interquartile range, losing nine tenths of the pairs);
- ``unresolved``: not worse, but the base side's own spread is wider than
  the bound and not every new run reads better than every base run;
- ``unchanged``: none of the above.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> dict[tuple[str, int], dict[int, dict]]:
    """(workload, trace) -> seed -> record."""
    records: dict = defaultdict(dict)
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        records[(record["workload"], record["trace"])][record["seed"]] = record
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], new: list[float], better: str, bound: float | None) -> str:
    """One metric's verdict from paired runs of the two sides (see the module docstring)."""
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for a, b in zip(base, new) if sign * (b - a) > 0)
    losses = sum(1 for a, b in zip(base, new) if sign * (b - a) < 0)
    pairs = min(len(base), len(new))
    q1, base_median, q3 = quartiles(base)
    spread = q3 - q1
    gain = sign * (statistics.median(new) - base_median)
    if pairs and wins >= 0.9 * pairs and gain > spread:
        return "improved"
    if bound is None:
        if pairs and losses >= 0.9 * pairs and -gain > spread:
            return "worse"
        return "unchanged"
    if -gain > bound * abs(base_median):
        return "worse"
    every_new_better = all(sign * (b - a) > 0 for a in base for b in new)
    if base_median and spread / abs(base_median) > bound and not every_new_better:
        return "unresolved"
    return "unchanged"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(args.base), load(args.new)
    print(f"{'workload':15} {'metric':26} {'base median [q1, q3] n':38} "
          f"{'new median [q1, q3] n':38} verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            b_runs, n_runs = base.get((workload, trace), {}), new.get((workload, trace), {})
            seeds = sorted(set(b_runs) & set(n_runs))
            if not seeds:
                continue
            for metric in metrics:
                name = metric["name"]
                b = [b_runs[s]["metrics"][name]["value"] for s in seeds]
                n = [n_runs[s]["metrics"][name]["value"] for s in seeds]
                cells = []
                for values in (b, n):
                    q1, med, q3 = quartiles(values)
                    cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}")
                result = verdict(b, n, metric["better"], metric.get("bound"))
                print(f"{workload:15} {name:26} {cells[0]:38} {cells[1]:38} {result}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
