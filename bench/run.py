"""Benchmark runner: one workload, one seed, for a fixed measuring time.

    python3 bench/run.py --workload ne-lexicon --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout. It generates the workload's inputs
from the seed (set-up, repeated and timed), then runs the generated
``pipeline.json`` cold through ``versemt run`` in a fresh child process, again
and again until the measuring time is used up, checking every run's outputs.

With ``--trace 0`` it reports the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` it alternates untraced runs with runs
traced by ``bench/tracing.py`` and reports the per-layer metrics. The last
line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
A record of the run (git sha, Python version, nproc, seed, input sizes, every
sample and every output digest) goes to ``--results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import itertools
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import reference
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 5
# Every run ends well inside the three minutes a run may take.
RUN_LIMIT_S = 150.0


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def tree_digests(directory: Path, skip: set[str] = frozenset()) -> dict[str, str]:
    """sha256 of every file under ``directory``, keyed by relative path."""
    digests = {}
    for path in sorted(directory.rglob("*")):
        rel = path.relative_to(directory).as_posix()
        if path.is_file() and rel not in skip:
            digests[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def run_child(argv: list[str], cwd: Path, log: Path, timeout: float) -> tuple[int, float, float]:
    """Run one child process; return (exit code, wall seconds, peak RSS in MiB).

    The child is reaped with ``wait4`` so its own peak RSS is read, not the
    maximum over every child so far. A child still running at ``timeout``
    is killed and reaped.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    reaped = {}
    with log.open("wb") as out:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT)

        def reap() -> None:
            _, status, usage = os.wait4(proc.pid, 0)
            reaped.update(end=perf_counter(), status=status, usage=usage)

        waiter = threading.Thread(target=reap)
        waiter.start()
        waiter.join(max(timeout, 0.0))
        if waiter.is_alive():
            proc.kill()
            waiter.join()
    proc.returncode = os.waitstatus_to_exitcode(reaped["status"])
    return proc.returncode, reaped["end"] - start, reaped["usage"].ru_maxrss / 1024.0


def git_sha() -> str:
    """The checked-out commit, or "unknown" when the checkout has no ``.git``."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Bench:
    """One benchmark invocation: set-up, measured samples, checks, report.

    Every time is scaled by ``reference.REFERENCE_S / r``, where ``r`` is the
    mean of the reference loop's times measured right before and right
    after the timed work, so that the machine's slow and fast spells cancel.
    The raw wall times are kept in the run record.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.workload = workloads.WORKLOADS[args.workload]
        self.started = perf_counter()
        self.base = WORK / f"{args.workload}-{args.seed}-t{args.trace}"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] | None = None
        self.samples: dict[str, list[float]] = defaultdict(list)

    def setup(self) -> None:
        """Generate the inputs several times; time each, and require identical files."""
        shutil.rmtree(self.base, ignore_errors=True)
        before = reference.measure()
        first = None
        for k in range(SETUP_REPEATS):
            directory = self.base / f"inputs{k}"
            directory.mkdir(parents=True)
            start = perf_counter()
            prepared = self.workload.prepare(self.args.seed, self.args.size, directory)
            self.samples["setup_wall_s"].append(perf_counter() - start)
            digests = tree_digests(directory)
            if k == 0:
                self.inputs, self.prepared, first = directory, prepared, digests
                self.input_files = set(digests)
            else:
                shutil.rmtree(directory)
                if digests != first:
                    self.failures.append("setup: the same seed generated different files")
        self.last_reference = reference.measure()
        scale = reference.REFERENCE_S / ((before + self.last_reference) / 2)
        self.samples["setup_s"] = [t * scale for t in self.samples["setup_wall_s"]]
        self.attempted += 1
        self.failed += bool(self.failures)

    def sample(self, index: int, traced: bool) -> tuple[float, float, dict | None]:
        """One cold run of the manifest; returns (wall s, peak RSS MiB, layer metrics)."""
        run = self.base / "run"
        shutil.rmtree(run, ignore_errors=True)
        shutil.copytree(self.inputs, run)
        run_id = f"{self.args.workload}-{self.args.seed}-{index}"
        spans = self.base / "spans.json"
        if traced:
            argv = [sys.executable, str(BENCH / "tracing.py"), "--manifest", "pipeline.json",
                    "--spans", str(spans), "--run-id", run_id]
        else:
            argv = [sys.executable, "-m", "versemt.cli", "run", "--manifest", "pipeline.json"]
        remaining = RUN_LIMIT_S - (perf_counter() - self.started)
        status, wall, rss = run_child(argv, run, self.base / "child.log", remaining)
        self.verify(run, status)
        layers = None
        if traced and status == 0:
            layers = tracing.layer_metrics(json.loads(spans.read_text()))
            layers.update(dict.fromkeys(workloads.VALUE_METRICS, 0.0))
            layers.update(self.workload.values(run, self.prepared))
        return wall, rss, layers

    def verify(self, run: Path, status: int) -> None:
        """Count stages run, and stages that exited non-zero or failed a check."""
        names = [stage["name"] for stage in self.prepared.stages]
        self.attempted += len(names)
        bad: dict[str, str] = {}
        if status != 0:
            state_path = run / "pipeline.json.state.json"
            done = json.loads(state_path.read_text()) if state_path.exists() else {}
            log = (self.base / "child.log").read_text(errors="replace").strip().splitlines()
            for name in names:
                if name not in done:
                    bad[name] = f"did not complete (exit {status}): {log[-1] if log else ''}"
        else:
            try:
                for stage, message in self.workload.check(run, self.prepared):
                    bad.setdefault(stage, message)
            except (OSError, ValueError, IndexError, KeyError) as exc:
                bad["check"] = f"outputs unreadable: {exc!r}"
            digests = tree_digests(run, skip=self.input_files)
            if self.digests is None:
                self.digests = digests
            elif digests != self.digests:
                bad["determinism"] = "outputs differ between runs of the same inputs"
        self.failed += len(bad)
        self.failures += [f"{stage}: {message}" for stage, message in bad.items()]

    def measure(self) -> dict[str, float]:
        """Samples until the measuring time is used up (at least one of each kind);
        a sample that would end after the measuring time is not started."""
        deadline = perf_counter() + self.args.seconds
        kinds = (False, True) if self.args.trace else (False,)
        walls: dict[bool, list[float]] = {False: [], True: []}
        layers: list[dict] = []
        costs: list[float] = []
        before = self.last_reference
        for index in itertools.count():
            traced = kinds[index % len(kinds)]
            now = perf_counter()
            if all(walls[k] for k in kinds) and now + median(costs) > deadline:
                break
            if RUN_LIMIT_S - (now - self.started) < 2 * max(costs or [1.0]):
                break
            wall, peak, layer = self.sample(index, traced)
            after = reference.measure()
            scale = reference.REFERENCE_S / ((before + after) / 2)
            before = after
            costs.append(perf_counter() - now)
            walls[traced].append(wall * scale)
            self.samples["reference_s"].append(after)
            self.samples["traced_wall_s" if traced else "pipeline_wall_s"].append(wall)
            if not traced:
                self.samples["peak_rss_mb"].append(peak)
            if layer is not None:
                layers.append({name: value * scale if tracing.is_time(name) else value
                               for name, value in layer.items()})
        self.samples["pipeline_s"], self.samples["traced_s"] = walls[False], walls[True]
        if not self.args.trace:
            return {"pipeline_s": median(walls[False]),
                    "peak_rss_mb": median(self.samples["peak_rss_mb"]),
                    "setup_s": median(self.samples["setup_s"])}
        names = sorted({name for layer in layers for name in layer})
        out = {name: median([layer[name] for layer in layers]) for name in names}
        out["trace.overhead_s"] = median(walls[True]) - median(walls[False])
        return out

    def report(self, values: dict[str, float]) -> dict:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = spec["per_layer" if self.args.trace else "end_to_end"]
        if self.failed:  # a run that failed every sample measured nothing
            values = {m["name"]: values.get(m["name"], 0.0) for m in declared}
        missing = [m["name"] for m in declared if m["name"] not in values]
        extra = sorted(set(values) - {m["name"] for m in declared})
        if missing or extra:
            raise SystemExit(f"metrics out of step with BENCHMARK.json: missing {missing}, extra {extra}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
        a = self.args
        print(f"workload {a.workload}  seed {a.seed}  trace {a.trace}  size {a.size}  "
              f"inputs {json.dumps(self.prepared.sizes)}")
        for kind in ("pipeline_s", "traced_s", "setup_s", "pipeline_wall_s", "traced_wall_s",
                     "setup_wall_s", "reference_s"):
            samples = self.samples[kind]
            if samples:
                print(f"  {kind}: median {median(samples):.4f} s over n={len(samples)}; "
                      f"{tail_note(samples)}")
        for name, metric in metrics.items():
            print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
        print(f"  failed_frac = {self.failed}/{self.attempted} = {self.failed / self.attempted:.4f}")
        for failure in self.failures[:20]:
            print(f"  FAILED {failure}")
        golden_note(a, self.digests)
        record = {
            "workload": a.workload, "seed": a.seed, "trace": a.trace, "seconds": a.seconds,
            "size": a.size, "git_sha": git_sha(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "input_sizes": self.prepared.sizes, "samples": self.samples,
            "attempted": self.attempted, "failed": self.failed,
            "failed_frac": self.failed / self.attempted, "failures": self.failures,
            "metrics": metrics, "output_digests": self.digests,
        }
        results = Path(a.results)
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{a.workload}.seed{a.seed}.trace{a.trace}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True) + "\n")
        return {"correct": self.failed == 0, "attempted": self.attempted, "failed": self.failed,
                "metrics": metrics}


def tail_note(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n < 20:
        return "no tail percentile (fewer than 20 samples)"
    pct = int(100 * (n - 10) / n)
    return f"p{pct} {tracing.nearest_rank(sorted(samples), pct / 100):.4f} s"


def golden_note(args: argparse.Namespace, digests: dict[str, str] | None) -> None:
    """Print every output file whose sha256 differs from bench/golden.json."""
    golden_path = BENCH / "golden.json"
    golden = json.loads(golden_path.read_text()) if golden_path.exists() else {}
    expected = golden.get(args.size, {}).get(args.workload, {}).get(str(args.seed))
    if expected is None or digests is None:
        print(f"  golden digests: none recorded for seed {args.seed}")
        return
    differ = sorted(name for name in set(expected) | set(digests)
                    if expected.get(name) != digests.get(name))
    print(f"  golden digests: {len(expected) - len(differ)}/{len(expected)} output files match")
    for name in differ:
        print(f"  DIGEST DIFFERS {name}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--results", default=str(WORK / "results"))
    args = parser.parse_args()
    if not (SRC / "versemt" / "cli.py").is_file():
        print(f"error: no versemt sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bench = Bench(args)
    bench.setup()
    result = bench.report(bench.measure())
    shutil.rmtree(bench.base, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
