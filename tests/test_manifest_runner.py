"""The manifest runner: two ready stages run at the same time, one in a forked
worker, and a run prints and records exactly what a run on one CPU does."""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import logging
import os
import subprocess
import sys
import time
import tracemalloc
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from versemt import cli, harness, manifest
from versemt.errors import MalformedLine, UnknownProfile

FORMAT = "%(levelname)s %(name)s: %(message)s"
REAL_FORK = os.fork


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _stage(name, command, inputs, outputs):
    return {"name": name, "command": command, "inputs": inputs, "outputs": outputs}


def _slots(monkeypatch, cpus: int) -> list[int]:
    """Let the runner see ``cpus`` CPUs; returns the list of pids os.fork returned."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    forks = []

    def counting_fork():
        pid = REAL_FORK()
        forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def _run(manifest: Path = Path("pipeline.json")) -> tuple[int, str]:
    """``versemt run`` with stdout, stderr and the log in one stream."""
    out = io.StringIO()
    handler = logging.StreamHandler(out)
    handler.setFormatter(logging.Formatter(FORMAT))
    logger = logging.getLogger("versemt")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            status = cli.main(["run", "--manifest", str(manifest)])
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    return status, out.getvalue()


def _assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _chain(root: Path) -> None:
    """Independent ingests, align-trains, a config and a bleu, and stages that
    wait for them, one through a directory input."""
    _write(root / "raw/en.txt", "".join(f"v{i}\tthe man saw house {i}\n" for i in range(12)))
    _write(root / "raw/sw.txt", "".join(f"v{i}\tmannen sag huset {i}\n" for i in range(12)))
    _write(root / "hyp.txt", "the man saw\nthe house\n")
    _write(root / "ref.txt", "the man saw it\nthe house\n")
    bitext = ["raw/en.txt", "raw/sw.txt"]
    stages = [
        *(_stage(f"ingest-{lang}", ["ingest", "--lang", lang, "--in", f"raw/{lang}.txt",
                                    "--out", "store"], [f"raw/{lang}.txt"], [f"store/{lang}.tsv"])
          for lang in ("en", "sw")),
        _stage("align", ["align", "--in", "store", "--out", "aligned"], ["store"],
               ["aligned/en.tsv", "aligned/sw.tsv"]),
        *(_stage(f"align-train-{k}", ["align-train", "--src", bitext[0], "--tgt", bitext[1],
                                      "--iterations", str(k), "--out", f"aligners/t{k}.tsv"],
                 bitext, [f"aligners/t{k}.tsv"])
          for k in (2, 3)),
        _stage("bleu", ["bleu", "--hyp", "hyp.txt", "--ref", "ref.txt", "--report", "bleu.tsv"],
               ["hyp.txt", "ref.txt"], ["bleu.tsv"]),
        _stage("config", ["emit-config", "--profile", "multilingual", "--out", "train.cfg"],
               [], ["train.cfg"]),
        _stage("split", ["split", "--corpus", "aligned", "--seed", "1", "--out", "splits.tsv"],
               ["aligned"], ["splits.tsv"]),
    ]
    _write(root / "pipeline.json", json.dumps({"stages": stages}))


def _tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def test_a_worker_prints_and_writes_what_one_cpu_does(tmp_path, monkeypatch):
    runs = {}
    for cpus in (1, 2, 8):
        root = tmp_path / f"cpus{cpus}"
        _chain(root)
        monkeypatch.chdir(root)
        forks = _slots(monkeypatch, cpus)
        status, output = _run()
        assert status == cli.EXIT_OK, output
        runs[cpus] = _tree(root), output, forks
        _assert_no_child_left()
    (tree1, output1, forks1), (tree2, output2, forks2), (tree8, output8, forks8) = runs.values()
    assert forks1 == [] and len(forks2) == len(forks8) == 2  # two workers whatever the CPU count
    assert tree1 == tree2 == tree8
    assert json.loads(tree2["pipeline.json.state.json"]).keys() == {
        "ingest-en", "ingest-sw", "align", "align-train-2", "align-train-3", "bleu", "config",
        "split"}
    assert output1 == output2 == output8
    # Each stage's lines form one block, in the one-CPU order; bleu's score line
    # (stdout) stays right after its stage line.
    starts = [line.split()[3].rstrip(":") for line in output2.splitlines()
              if line.startswith("INFO versemt: stage ")]
    assert starts == ["align-train-2", "align-train-3", "bleu", "config", "ingest-en",
                      "ingest-sw", "align", "split"]
    lines = output2.splitlines()
    bleu_at = lines.index(next(line for line in lines if "stage bleu:" in line))
    assert lines[bleu_at + 1].startswith("BLEU = ")


def test_an_up_to_date_rerun_forks_nothing(tmp_path, monkeypatch):
    _chain(tmp_path)
    monkeypatch.chdir(tmp_path)
    forks = _slots(monkeypatch, 2)
    assert _run()[0] == cli.EXIT_OK
    del forks[:]
    status, output = _run()
    assert status == cli.EXIT_OK
    assert output.count("up to date, skipping") == 8
    assert forks == []


def test_a_directory_input_waits_for_every_file_declared_inside_it(tmp_path, monkeypatch):
    # `align` sorts first by name; it must still run after both ingests.
    for cpus in (1, 2):
        root = tmp_path / f"cpus{cpus}"
        _write(root / "raw/en.txt", "v1\thello world\nv2\tmore text\n")
        _write(root / "raw/sw.txt", "v1\tjambo dunia\nv2\tzaidi\n")
        stages = [
            _stage("align", ["align", "--in", "store", "--out", "aligned"], ["store"],
                   ["aligned/en.tsv", "aligned/sw.tsv"]),
            *(_stage(f"ingest-{lang}", ["ingest", "--lang", lang, "--in", f"raw/{lang}.txt",
                                        "--out", "store"], [f"raw/{lang}.txt"],
                     [f"store/{lang}.tsv"])
              for lang in ("en", "sw")),
        ]
        _write(root / "pipeline.json", json.dumps({"stages": stages}))
        monkeypatch.chdir(root)
        _slots(monkeypatch, cpus)
        status, output = _run()
        assert status == cli.EXIT_OK, output
        assert (root / "aligned/sw.tsv").read_text() == "v1\tjambo dunia\nv2\tzaidi\n"


def test_one_slot_never_forks(tmp_path, monkeypatch):
    _chain(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})

    def no_fork():
        raise AssertionError("forked on one CPU")

    monkeypatch.setattr(os, "fork", no_fork)
    assert _run()[0] == cli.EXIT_OK


def _failing_in_a_worker(tmp_path, monkeypatch, error):
    """`a-ok` runs in this process; `b-broken`, whose handler raises ``error(pid)``,
    runs beside it in the worker."""
    real_emit = harness.emit_trainer_config

    def emit(profile):
        if profile == "broken":
            raise error(f"raised in process {os.getpid()}")
        return real_emit(profile)

    monkeypatch.setattr(harness, "emit_trainer_config", emit)
    stages = [
        _stage("a-ok", ["emit-config", "--profile", "multilingual", "--out", "a.cfg"], [],
               ["a.cfg"]),
        _stage("b-broken", ["emit-config", "--profile", "broken", "--out", "b.cfg"], [],
               ["b.cfg"]),
    ]
    _write(tmp_path / "pipeline.json", json.dumps({"stages": stages}))
    monkeypatch.chdir(tmp_path)
    _slots(monkeypatch, 2)
    return _run()


def test_a_data_error_in_a_worker_exits_2_and_records_only_what_succeeded(tmp_path, monkeypatch):
    status, output = _failing_in_a_worker(tmp_path, monkeypatch, UnknownProfile)
    assert status == cli.EXIT_DATA
    error = output.splitlines()[-1]
    assert error.startswith("error: StageFailed: stage b-broken: raised in process ")
    assert int(error.rsplit(" ", 1)[1]) != os.getpid()
    state = json.loads((tmp_path / "pipeline.json.state.json").read_text())
    assert set(state) == {"a-ok"}
    _assert_no_child_left()


def test_an_internal_error_in_a_worker_exits_3(tmp_path, monkeypatch):
    status, output = _failing_in_a_worker(tmp_path, monkeypatch, ValueError)
    assert status == cli.EXIT_INTERNAL
    assert output.splitlines()[-1].startswith("internal error: ValueError: raised in process ")
    _assert_no_child_left()


def test_a_worker_that_ends_without_a_reply_exits_3(tmp_path, monkeypatch):
    runner = os.getpid()

    def end_the_worker(message):
        assert os.getpid() != runner, "b-broken ran in the runner"
        os._exit(9)

    status, output = _failing_in_a_worker(tmp_path, monkeypatch, end_the_worker)
    assert status == cli.EXIT_INTERNAL
    error = output.splitlines()[-1]
    assert error.startswith("internal error: RuntimeError: worker process ")
    assert error.endswith(" ended without a reply")
    assert int(error.split()[5]) != runner
    state = json.loads((tmp_path / "pipeline.json.state.json").read_text())
    assert set(state) == {"a-ok"}
    _assert_no_child_left()


def test_a_data_error_in_one_worker_lets_the_other_and_the_runner_finish(tmp_path, monkeypatch):
    # a-slow runs in this process, b-broken and c-slow in the two workers; both
    # slow stages are still running when b-broken fails, and d-never, ready from
    # the start, waits for a free process until the failure stops the run.
    real_emit = harness.emit_trainer_config
    failed = tmp_path / "b-failed"

    def emit(profile):
        if profile == "broken":
            failed.touch()
            raise UnknownProfile(f"raised in process {os.getpid()}")
        if profile == "slow":
            deadline = time.monotonic() + 10
            while not failed.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.5)  # time for b-broken's reply to reach the runner
            profile = "multilingual"
        return real_emit(profile)

    monkeypatch.setattr(harness, "emit_trainer_config", emit)
    stages = [_stage(name, ["emit-config", "--profile", profile, "--out", f"{name}.cfg"], [],
                     [f"{name}.cfg"])
              for name, profile in [("a-slow", "slow"), ("b-broken", "broken"),
                                    ("c-slow", "slow"), ("d-never", "multilingual")]]
    _write(tmp_path / "pipeline.json", json.dumps({"stages": stages}))
    monkeypatch.chdir(tmp_path)
    forks = _slots(monkeypatch, 2)
    status, output = _run()
    assert status == cli.EXIT_DATA
    assert len(forks) == 2
    assert output.splitlines()[-1].startswith("error: StageFailed: stage b-broken: raised in ")
    state = json.loads((tmp_path / "pipeline.json.state.json").read_text())
    assert set(state) == {"a-slow", "c-slow"}
    assert (tmp_path / "c-slow.cfg").exists() and not (tmp_path / "d-never.cfg").exists()
    _assert_no_child_left()


@pytest.mark.parametrize("interrupt", [KeyboardInterrupt, RuntimeError])
def test_no_worker_outlives_an_exception_in_the_runner(tmp_path, monkeypatch, interrupt):
    runner = os.getpid()
    real_emit = harness.emit_trainer_config

    def emit(profile):
        if os.getpid() == runner:
            raise interrupt("stop")
        time.sleep(0.2)  # the worker is still busy when the runner stops
        return real_emit(profile)

    monkeypatch.setattr(harness, "emit_trainer_config", emit)
    stages = [_stage(f"config-{i}", ["emit-config", "--profile", "multilingual",
                                     "--out", f"{i}.cfg"], [], [f"{i}.cfg"]) for i in range(2)]
    _write(tmp_path / "pipeline.json", json.dumps({"stages": stages}))
    monkeypatch.chdir(tmp_path)
    _slots(monkeypatch, 2)
    with pytest.raises(interrupt):
        manifest.run_manifest("pipeline.json", cli.dispatch, cli._check_command)
    _assert_no_child_left()


def _wait_exited(pid: int, seconds: float = 10.0) -> bool:
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if os.waitpid(pid, os.WNOHANG)[0] == pid:
            return True
        time.sleep(0.01)
    return False


def test_a_worker_exits_when_its_command_pipe_closes(monkeypatch, caplog):
    monkeypatch.setattr(cli, "_parser", None)
    cli._get_parser()
    with caplog.at_level(logging.INFO, logger="versemt"):
        worker = manifest._Worker(functools.partial(manifest._run_stage, cli.dispatch))
    try:
        worker.start("config", ["emit-config", "--profile", "nope", "--out", "x"])
        outcome = worker.receive()
        assert isinstance(outcome.error, UnknownProfile)
        assert [kind for kind, _ in outcome.events] == ["log"]
        worker.commands.close()
        assert _wait_exited(worker.pid)
    finally:
        with contextlib.suppress(OSError):
            worker.commands.close()
        worker.replies.close()
    _assert_no_child_left()


def test_the_first_worker_exits_on_eof_after_a_second_is_forked(monkeypatch):
    monkeypatch.setattr(cli, "_parser", None)
    cli._get_parser()
    run_stage = functools.partial(manifest._run_stage, cli.dispatch)
    first = manifest._Worker(run_stage)
    second = manifest._Worker(run_stage, [first])  # holds no copy of the first one's pipes
    try:
        first.commands.close()
        assert _wait_exited(first.pid)
        second.commands.close()
        assert _wait_exited(second.pid)
    finally:
        for worker in (first, second):
            with contextlib.suppress(OSError):
                worker.commands.close()
            worker.replies.close()
    _assert_no_child_left()


@pytest.mark.parametrize("outputs", [("x.cfg", "./x.cfg"), ("aligned", "aligned/en.tsv"),
                                     ("d/x/y", "d")])
def test_two_writers_of_one_output_are_rejected(tmp_path, monkeypatch, capsys, outputs):
    stages = [_stage(name, ["emit-config", "--profile", "multilingual", "--out", "x.cfg"], [],
                     [out, f"{name}.cfg"]) for name, out in zip(("one", "two"), outputs)]
    _write(tmp_path / "pipeline.json", json.dumps({"stages": stages}))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", "--manifest", "pipeline.json"]) == cli.EXIT_DATA
    assert (f"pipeline.json: stages[1]: stage 'two' declares the output {outputs[1]!r}, "
            f"at, inside or above {outputs[0]!r} of stage 'one'\n") in capsys.readouterr().err
    assert not (tmp_path / "x.cfg").exists()


# Spellings of one path, paths nested in others, siblings that share a prefix,
# and paths that leave the working directory.
_PATH_POOL = ["a", "./a", "a/", "a/b", "a/./b", "a//b/c", "a/../b", "b", "ab", "ab/c",
              ".", "./", "..", "../a", "c/d/../e", "c/e"]


def _at_inside_or_above(a: str, b: str) -> bool:
    """The oracle, on normalized path strings: a path holds those that start with
    it and `/`, and `.` counts as nested with every path (`../a` included)."""
    a, b = os.path.normpath(a), os.path.normpath(b)
    return a == b or "." in (a, b) or a.startswith(b + "/") or b.startswith(a + "/")


@settings(max_examples=400, derandomize=True, deadline=None)
@given(outputs=st.lists(st.lists(st.sampled_from(_PATH_POOL), max_size=3), min_size=1,
                        max_size=5))
def test_a_manifest_is_valid_unless_outputs_of_two_stages_nest(outputs):
    stages = {"stages": [{"name": f"s{i}", "outputs": paths} for i, paths in enumerate(outputs)]}
    clash = any(_at_inside_or_above(a, b) for one, two in combinations(outputs, 2)
                for a in one for b in two)
    try:
        manifest._validated_stages(stages, Path("pipeline.json"))
    except MalformedLine as exc:
        assert clash, exc
    else:
        assert not clash


def test_one_cpu_runs_the_stages_in_topological_order(tmp_path, monkeypatch):
    # `z-first` is ready before `a-last`, which waits for it; `b-after-m` becomes
    # ready only after `m-free` and still runs before `z-first`.
    def config(name, inputs):
        return _stage(name, ["emit-config", "--profile", "multilingual", "--out", f"{name}.cfg"],
                      inputs, [f"{name}.cfg"])

    stages = [config("a-last", ["z-first.cfg"]), config("b-after-m", ["m-free.cfg"]),
              config("m-free", []), config("z-first", [])]
    _write(tmp_path / "pipeline.json", json.dumps({"stages": stages}))
    monkeypatch.chdir(tmp_path)
    _slots(monkeypatch, 1)
    ran = []
    real_dispatch = cli.dispatch

    def recording_dispatch(argv):
        ran.append(list(argv))
        return real_dispatch(argv)

    monkeypatch.setattr(cli, "dispatch", recording_dispatch)  # as bench/tracing.py does
    assert _run()[0] == cli.EXIT_OK
    order = manifest._topological_order(manifest._stage_graph(stages))
    assert order == ["m-free", "b-after-m", "z-first", "a-last"]
    command = {stage["name"]: stage["command"] for stage in stages}
    assert ran == [["run", "--manifest", "pipeline.json"], *(command[name] for name in order)]


def test_outputs_of_one_stage_may_nest(tmp_path, monkeypatch):
    stages = [_stage("config", ["emit-config", "--profile", "multilingual", "--out", "d/x.cfg"],
                     [], ["d", "d/x.cfg"]),
              _stage("other", ["emit-config", "--profile", "multilingual", "--out", "dx.cfg"],
                     [], ["dx.cfg"])]
    _write(tmp_path / "pipeline.json", json.dumps({"stages": stages}))
    monkeypatch.chdir(tmp_path)
    assert _run()[0] == cli.EXIT_OK


def test_a_stage_cannot_run_a_manifest(tmp_path, capsys):
    manifest = tmp_path / "pipeline.json"
    _write(manifest, json.dumps({"stages": [
        _stage("again", ["run", "--manifest", str(manifest)], [], [])]}))
    assert cli.main(["run", "--manifest", str(manifest)]) == cli.EXIT_DATA
    assert "stages[0]: a stage cannot run a manifest" in capsys.readouterr().err


def test_a_help_stage_is_an_exit_status_not_the_end_of_the_run(tmp_path, monkeypatch):
    stages = [
        _stage("a-help", ["emit-config", "--help"], [], []),
        _stage("b-config", ["emit-config", "--profile", "multilingual", "--out", "b.cfg"], [],
               ["b.cfg"]),
    ]
    _write(tmp_path / "pipeline.json", json.dumps({"stages": stages}))
    monkeypatch.chdir(tmp_path)
    _slots(monkeypatch, 1)
    status, output = _run()
    assert status == cli.EXIT_OK
    assert "usage: versemt emit-config" in output
    assert (tmp_path / "b.cfg").exists()


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_stage_reading_stdin_is_refused_before_any_stage_runs(tmp_path, monkeypatch, cpus):
    # The state file fingerprints a stage's command and inputs, not its stdin, so a
    # rerun on other scores would be skipped as up to date.
    stages = [
        _stage("a-config", ["emit-config", "--profile", "multilingual", "--out", "a.cfg"], [],
               ["a.cfg"]),
        _stage("b-monitor", ["gl-monitor", "--alpha", "5"], [], []),
    ]
    _write(tmp_path / "pipeline.json", json.dumps({"stages": stages}))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "stdin", io.StringIO("1\t8\n2\t9\n"))
    forks = _slots(monkeypatch, cpus)
    status, output = _run()
    assert status == cli.EXIT_DATA
    assert output == ("error: MalformedLine: pipeline.json: stages[1]: a gl-monitor stage would "
                      "read stdin; run it on its own\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["pipeline.json"]
    assert forks == []


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_seeded_stage_reads_no_seed_from_the_environment(tmp_path, monkeypatch, cpus):
    # The state file does not fingerprint the environment: a stage without --seed
    # must write the --seed 0 bytes whatever the environment holds.
    raw = "".join(f"v{i:02d}\tthe man saw house {i}\n" for i in range(40))
    _write(tmp_path / "raw/en.txt", raw)
    monkeypatch.chdir(tmp_path)
    assert cli.dispatch(["ingest", "--lang", "en", "--in", "raw/en.txt", "--out", "store"]) == 0
    assert cli.dispatch(["align", "--in", "store", "--out", "aligned"]) == 0
    assert cli.dispatch(["split", "--corpus", "aligned", "--seed", "0", "--out", "seed0.tsv"]) == 0
    stages = [_stage("split", ["split", "--corpus", "aligned", "--out", "splits.tsv"],
                     ["aligned"], ["splits.tsv"])]
    _write(tmp_path / "pipeline.json", json.dumps({"stages": stages}))
    forks = _slots(monkeypatch, cpus)
    for seed in ("1", "2"):
        monkeypatch.setenv("VERSEMT_SEED", seed)
        status, output = _run()
        assert status == cli.EXIT_OK, output
        assert (tmp_path / "splits.tsv").read_bytes() == (tmp_path / "seed0.tsv").read_bytes()
    assert forks == []


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_bad_stage_flag_fails_the_run_before_any_stage_runs(tmp_path, monkeypatch, cpus):
    stages = [
        _stage("a", ["lex-filter", "--in", "raw.txt", "--out", "names.txt"], ["raw.txt"],
               ["names.txt"]),
        _stage("b", ["lex-filter", "--in", "names.txt", "--out", "clean.txt", "--bogus"],
               ["names.txt"], ["clean.txt"]),
    ]
    _write(tmp_path / "raw.txt", "Noah\nShem\n")
    _write(tmp_path / "pipeline.json", json.dumps({"stages": stages}))
    monkeypatch.chdir(tmp_path)
    forks = _slots(monkeypatch, cpus)
    status, output = _run()
    assert status == cli.EXIT_DATA
    assert output == "error: StageFailed: stage b: unrecognized arguments: --bogus\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["pipeline.json", "raw.txt"]
    assert forks == []


_MIXED_OUTPUTS = "must be separate paths, not one inside another"
_TAG = ["tag", "--lexicon", "lex.tsv", "--src", "en", "--tgt", "sw", "--in", "names.txt"]
_LABEL = ["label", "--corpus", "aligned", "--split", "splits.tsv", "--out-prefix", "bitext"]
_TRIM = ["lex-trim", "--in", "lex.tsv", "--out", "trimmed.tsv"]
_RUBRIC = "rubric needs either --in and an optional --out, or all of --hyp/--ref/--decode/--out"
_UNKNOWN_XX = "unknown language code 'xx'"
_ALIGN_TRAIN = ["align-train", "--src", "names.txt", "--tgt", "names.txt", "--out", "t"]
# rule: (a stage command that breaks the rule, the message the command fails with
# when it runs alone).
_BROKEN_RULES = {
    "label-mode": ([*_LABEL, "--langs", "en,sw", "--mode", "tribe"],
                   "unknown label mode 'tribe'"),
    "label-neither": (_LABEL, "exactly one of --langs / --schedule is required"),
    "label-both": ([*_LABEL, "--langs", "en,sw", "--schedule", "sched.tsv"],
                   "exactly one of --langs / --schedule is required"),
    "split-ratios": (["split", "--corpus", "aligned", "--ratios", "0.5,0.5", "--out", "s"],
                     "--ratios expects three comma-separated fractions, got '0.5,0.5'"),
    "split-ratio": (["split", "--corpus", "aligned", "--ratios", "a,b,c", "--out", "s"],
                    "bad ratio in 'a,b,c': could not convert string to float: 'a'"),
    "tag-tgt-in": ([*_TAG, "--out", "t", "--tgt-in", "names.txt"],
                   "--tgt-in and --tgt-out must be given together"),
    "tag-tgt-out": ([*_TAG, "--out", "t", "--tgt-out", "t.sw"],
                    "--tgt-in and --tgt-out must be given together"),
    "rubric-in-hyp": (["rubric", "--in", "j.jsonl", "--hyp", "names.txt"], _RUBRIC),
    "rubric-no-out": (["rubric", "--hyp", "h", "--ref", "r", "--decode", "d"], _RUBRIC),
    "trim-manual-file": ([*_TRIM, "--manual-file", "keep.txt"],
                         "--manual-file goes with policy manual-selection, and only with it"),
    "trim-frequency": ([*_TRIM, "--policy", "frequency-equals-one"],
                       "policy frequency-equals-one needs --corpus or --freq"),
    "trim-corpus": ([*_TRIM, "--corpus", "aligned"],
                    "--corpus goes with policy frequency-equals-one only"),
    "tag-out-decode": ([*_TAG, "--out", "t", "--decode", "./t"],
                       f"--out, --tgt-out and the decode sidecar {_MIXED_OUTPUTS}"),
    "tag-tgt-out-decode": ([*_TAG, "--out", "t", "--tgt-in", "names.txt", "--tgt-out",
                            "t.decode.jsonl"],
                           f"--out, --tgt-out and the decode sidecar {_MIXED_OUTPUTS}"),
    "lex-build-freq-out": (["lex-build", "--seed-list", "names.txt", "--corpus", "aligned",
                            "--aligners", "aligners", "--out", "l", "--freq-out", "l"],
                           f"--out and --freq-out {_MIXED_OUTPUTS}"),
    "lex-trim-freq-out": ([*_TRIM, "--freq-out", "trimmed.tsv"],
                          f"--out and --freq-out {_MIXED_OUTPUTS}"),
    "sample-manifest": (["sample", "--in", "names.txt", "--fraction", "1", "--out", "s",
                         "--manifest", "s"], f"--out and --manifest {_MIXED_OUTPUTS}"),
    "align-stats": (["align", "--in", "store", "--out", "aligned", "--stats",
                     "aligned/en.tsv"], f"--out and --stats {_MIXED_OUTPUTS}"),
    # Values the layer behind a flag refuses, with its data error.
    "ingest-lang": (["ingest", "--lang", "xx", "--in", "names.txt", "--out", "store"],
                    _UNKNOWN_XX),
    "schedule-anchor": (["schedule", "--anchor", "xx", "--mode", "family-addition",
                         "--out", "s"], _UNKNOWN_XX),
    "tag-src": ([*_TAG[:4], "xx", *_TAG[5:], "--out", "t"], _UNKNOWN_XX),
    "tag-tgt": ([*_TAG[:6], "xx", *_TAG[7:], "--out", "t"], _UNKNOWN_XX),
    "tag-tgt-po": ([*_TAG[:6], "po", *_TAG[7:], "--out", "t"],
                   "language code 'po' is ambiguous; use pl or pt"),
    "label-langs": ([*_LABEL, "--langs", "en,xx,sw"], _UNKNOWN_XX),
    "split-ratio-sum": (["split", "--corpus", "aligned", "--ratios", "0.5,0.5,0.5",
                         "--out", "s"],
                        "ratios must be three positive fractions summing to 1.0, "
                        "got (0.5, 0.5, 0.5)"),
    "align-train-iterations": ([*_ALIGN_TRAIN, "--iterations", "-1"],
                               "iterations must be >= 0"),
    "align-train-tension": ([*_ALIGN_TRAIN, "--tension", "nan"],
                            "tension must be finite and >= 0, got nan"),
    "align-train-null-prob": ([*_ALIGN_TRAIN, "--null-prob", "1"],
                              "null_prob must be in [0, 1), got 1.0"),
    "bpe-learn-merges": (["bpe-learn", "--in", "names.txt", "--merges", "-1", "--out", "m"],
                         "num_merges must be >= 0"),
    "bleu-max-n": (["bleu", "--hyp", "names.txt", "--ref", "names.txt", "--max-n", "0"],
                   "max_n must be >= 1"),
    "sample-fraction": (["sample", "--in", "names.txt", "--fraction", "0", "--out", "s"],
                        "fraction must be in (0, 1], got 0.0"),
    "sample-total": (["sample", "--in", "names.txt", "--fraction", "1", "--total", "0",
                      "--out", "s"], "total must be >= 1, got 0"),
}


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("rule", list(_BROKEN_RULES))
def test_a_broken_flag_rule_fails_the_run_before_any_stage_runs(tmp_path, monkeypatch, rule,
                                                                 cpus):
    command, message = _BROKEN_RULES[rule]
    stages = [
        _stage("a", ["lex-filter", "--in", "raw.txt", "--out", "names.txt"], ["raw.txt"],
               ["names.txt"]),
        _stage("b", command, ["names.txt"], ["b-out"]),
    ]
    _write(tmp_path / "raw.txt", "Noah\nShem\n")
    _write(tmp_path / "pipeline.json", json.dumps({"stages": stages}))
    monkeypatch.chdir(tmp_path)
    forks = _slots(monkeypatch, cpus)
    status, output = _run()
    assert status == cli.EXIT_DATA
    assert output == f"error: StageFailed: stage b: {message}\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["pipeline.json", "raw.txt"]
    assert forks == []


def test_a_real_workload_prints_and_writes_the_same_on_one_and_two_cpus(tmp_path, monkeypatch):
    # The benchmark's ne-lexicon workload at its tiny size: three align-trains
    # ready together, so two workers, and lex-build's three target languages,
    # so one helper on two CPUs.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    runs = []
    for cpus in (1, 2):
        root = tmp_path / f"cpus{cpus}"
        root.mkdir()
        workloads.prepare_lexicon(1, "tiny", root)
        monkeypatch.chdir(root)
        forks = _slots(monkeypatch, cpus)
        status, output = _run()
        assert status == cli.EXIT_OK, output
        _assert_no_child_left()
        runs.append((_tree(root), output, len(forks)))
    (tree1, output1, forks1), (tree2, output2, forks2) = runs
    assert (forks1, forks2) == (0, 3)
    assert "pipeline.json.state.json" in tree1 and "lexicon.tsv" in tree1
    assert tree1 == tree2
    assert output1 == output2


def _loaded_by_importing(module: str) -> set[str]:
    """The modules a fresh interpreter holds once it has imported ``module``."""
    code = f"import json, sys, {module}; print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


_PROCESS_MACHINERY = {"multiprocessing", "concurrent", "subprocess"}


def test_importing_the_cli_starts_no_process_machinery():
    assert not {m.split(".")[0] for m in _loaded_by_importing("versemt.cli")} & _PROCESS_MACHINERY


def test_the_runner_module_loads_no_stage_layer_and_no_process_machinery():
    loaded = _loaded_by_importing("versemt.manifest")
    assert {m for m in loaded if m.split(".")[0] == "versemt"} == {
        "versemt", "versemt.errors", "versemt.fileio", "versemt.manifest"}
    assert not {m.split(".")[0] for m in loaded} & _PROCESS_MACHINERY


def test_the_helper_is_killed_at_its_first_failure_not_waited_for(monkeypatch):
    # The helper gets every other item: "fail", then "slow", queued behind it.
    def call(item):
        if item == "fail":
            raise ValueError("the helper's first item")
        time.sleep(5 if item == "slow" else 0)
        return item

    forks = _slots(monkeypatch, 2)
    started = time.monotonic()
    with pytest.raises(ValueError, match="the helper's first item"):
        manifest._fork_join_map(call, ["a", "fail", "b", "slow"])
    assert time.monotonic() - started < 2
    assert len(forks) == 1
    _assert_no_child_left()


def test_a_digest_reads_files_in_chunks_and_keeps_the_whole_file_formula(tmp_path):
    files = {"big.bin": bytes(range(256)) * (1 << 15), "empty": b"", "sub/small.txt": b"abc\n"}
    for name, data in files.items():
        path = tmp_path / "d" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    whole = hashlib.sha256()  # the formula of reading each file whole, as state files hold it
    for name, data in sorted(files.items()):
        whole.update(f"{name}\0{len(data)}\0".encode("utf-8"))
        whole.update(data)
    tracemalloc.start()
    try:
        digests = [manifest._file_digest(tmp_path / "d" / "big.bin"),
                   manifest._file_digest(tmp_path / "d")]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(files["big.bin"]) == 8 << 20 and peak < 1 << 20
    assert digests == [hashlib.sha256(files["big.bin"]).hexdigest(), whole.hexdigest()]
    assert manifest._file_digest(tmp_path / "absent") == "missing"
