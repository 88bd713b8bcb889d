"""A fixed pure-Python workload that measures how fast the machine runs now.

The benchmark times this loop right before and right after every pipeline
run and divides the run's wall time by it, so that a slow spell of a shared
machine, which slows both alike, cancels out of the reported times. The loop
does the same kinds of work as the pipeline (splitting lines, counting in
dicts, comparing token tuples, floating-point weights, buffering and joining
many small lines) and does not touch the code under test. Its inputs are
fixed: change nothing here without re-measuring the baseline, because every
reported time scales with it.
"""

from __future__ import annotations

import math
import random
from time import perf_counter

# The time of ``REPEATS`` passes of ``work`` on the 2-vCPU Xeon VM the
# benchmark was tuned on, in a fast spell. A reported time is a wall time
# scaled by REFERENCE_S / (the loop's time now).
REFERENCE_S = 0.9
REPEATS = 6


def _corpus() -> list[str]:
    rng = random.Random(1804)
    vocab = ["".join(rng.choice("abdeghiklmnoprstu") for _ in range(rng.randint(2, 8)))
             for _ in range(1500)]
    vocab[:40] = [word.capitalize() for word in vocab[:40]]
    return [" ".join(rng.choice(vocab) for _ in range(rng.randint(6, 22))) for _ in range(1500)]


_LINES = _corpus()
_NAMES = [tuple(line.split()[:2]) for line in _LINES[:150]]


def work() -> int:
    """One pass over the fixed corpus; returns a checksum so nothing is skipped."""
    bigrams: dict[tuple[str, str], int] = {}
    tokenized = []
    for line in _LINES:
        tokens = [token.strip(".,;") for token in line.split()]
        tokenized.append(tokens)
        for pair in zip(tokens, tokens[1:]):
            bigrams[pair] = bigrams.get(pair, 0) + 1
    hits = 0
    for name in _NAMES:
        width = len(name)
        for tokens in tokenized[:300]:
            for i in range(len(tokens) - width + 1):
                if tuple(tokens[i : i + width]) == name:
                    hits += 1
    weight = 0.0
    for tokens in tokenized[:400]:
        n = len(tokens)
        for j in range(n):
            row = [math.exp(-4.0 * abs(i / n - j / n)) for i in range(n)]
            weight += row[j] / sum(row)
    labels = ("__opt_src_a", "__opt_tgt_b")
    buffered = [labels + tuple(tokens) for _ in range(6) for tokens in tokenized]
    text = "\n".join(" ".join(line) for line in buffered)
    return len(bigrams) + hits + int(weight) + len(text)


def measure() -> float:
    """Seconds for ``REPEATS`` passes of the reference work."""
    start = perf_counter()
    for _ in range(REPEATS):
        work()
    return perf_counter() - start


if __name__ == "__main__":
    print(f"{measure():.4f} s (REFERENCE_S = {REFERENCE_S})")
