"""The manifest runner, and the forked worker processes that run calls beside it:
the runner's stage workers and lex-build's helper."""

from __future__ import annotations

import contextlib
import functools
import graphlib
import hashlib
import io
import json
import logging
import os
import pickle
import select
import signal
import sys
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import CycleDetected, MalformedLine, PipelineError, StageFailed, UsageError
from .fileio import atomic_write_text, read_binary, read_json

log = logging.getLogger("versemt")


def _file_digest(path: Path) -> str:
    """sha256 of a file; of a directory, over its files' sorted relative paths,
    sizes and bytes, recursively. Files are read in chunks, never held whole."""
    if not path.exists():
        return "missing"
    digest = hashlib.sha256()
    files = [(None, path)] if not path.is_dir() else sorted(
        (p.relative_to(path).as_posix(), p) for p in path.rglob("*") if p.is_file())
    for name, file in files:
        with read_binary(file) as (size, chunks):
            if name is not None:  # a file in a directory
                digest.update(f"{name}\0{size}\0".encode("utf-8"))
            for chunk in chunks:
                digest.update(chunk)
    return digest.hexdigest()


def _validated_stages(manifest: object, where: Path) -> list[dict]:
    """The manifest's stages, once every field a run reads has its type, no
    output path is at, inside or above another stage's output, and no stage
    reads stdin."""
    if not isinstance(manifest, dict):
        raise MalformedLine(f"{where}: the top level must be a JSON object")
    stages = manifest.get("stages", [])
    if not isinstance(stages, list):
        raise MalformedLine(f"{where}: `stages` must be a list")
    names: set[str] = set()
    declared: list[tuple[str, tuple[str, ...], str]] = []  # (stage, parts, output as declared)
    for index, stage in enumerate(stages):
        at = f"{where}: stages[{index}]"
        if not isinstance(stage, dict):
            raise MalformedLine(f"{at}: a stage must be a JSON object")
        name = stage.get("name")
        if not (isinstance(name, str) and name) or name in names:
            raise MalformedLine(f"{at}: `name` must be a non-empty string unique across stages")
        names.add(name)
        for key in ("command", "inputs", "outputs"):
            value = stage.get(key, [])
            if not (isinstance(value, list) and all(isinstance(item, str) for item in value)):
                raise MalformedLine(f"{at}: `{key}` must be a list of strings")
        if stage.get("command", [])[:1] == ["run"]:
            # A nested run would recurse on its own manifest, forking workers each time.
            raise MalformedLine(f"{at}: a stage cannot run a manifest")
        if stage.get("command", [])[:1] == ["gl-monitor"]:
            # Stdin is not fingerprinted, so a rerun on other scores would be skipped.
            raise MalformedLine(f"{at}: a gl-monitor stage would read stdin; run it on its own")
        outputs = [(name, _path_parts(output), output) for output in stage.get("outputs", [])]
        for _, parts, output in outputs:
            # Stages with nested outputs would race on the same files.
            for other, other_parts, other_output in declared:
                if _nested(parts, other_parts):
                    raise MalformedLine(f"{at}: stage {name!r} declares the output {output!r}, "
                                        f"at, inside or above {other_output!r} of stage {other!r}")
        declared += outputs
    return stages


def _stage_fingerprint(stage: dict) -> str:
    payload = {
        "command": stage.get("command", []),
        "inputs": {name: _file_digest(Path(name)) for name in sorted(stage.get("inputs", []))},
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def _path_parts(path: str) -> tuple[str, ...]:
    return Path(os.path.normpath(path)).parts


def _nested(a: tuple[str, ...], b: tuple[str, ...]) -> bool:
    """Whether the path with parts ``a`` is at, inside or above the one with parts ``b``."""
    return a[: len(b)] == b or b[: len(a)] == a


def _stage_graph(stages: list[dict]) -> dict[str, set[str]]:
    """Each stage's name -> the stages it follows: every other stage that declares
    an output at, inside or above one of its inputs, so a directory input waits
    for every file declared inside it."""
    outputs = [(stage["name"], _path_parts(out)) for stage in stages
               for out in stage.get("outputs", [])]
    graph = {}
    for stage in stages:
        inputs = [_path_parts(i) for i in stage.get("inputs", [])]
        graph[stage["name"]] = {
            name for name, out in outputs for inp in inputs if _nested(out, inp)
        } - {stage["name"]}
    return graph


def _topological_order(graph: dict[str, set[str]]) -> list[str]:
    """Stage names in dependency order; among ready stages, the least name first.
    Every run starts the stages in this order, as far as they are ready, and
    prints their output in it."""
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        raise CycleDetected(f"manifest stages form a cycle: {exc.args[1]}") from None
    ordered: list[str] = []
    while len(ordered) < len(graph):  # acyclic, so some stage is always ready
        done = set(ordered)
        ordered.append(min(n for n, before in graph.items() if n not in done and before <= done))
    return ordered


class _HeldStream(io.TextIOBase):
    """Stands in for stdout or stderr while a stage runs; each write is an event."""

    def __init__(self, events: list, name: str) -> None:
        self._events, self._name = events, name

    def write(self, text: str) -> int:
        self._events.append((self._name, text))
        return len(text)


class _HeldRecords(logging.Handler):
    def __init__(self, events: list) -> None:
        super().__init__()
        self._events = events

    def emit(self, record: logging.LogRecord) -> None:
        record.msg, record.args = record.getMessage(), None  # the text alone pickles
        self._events.append(("log", record))


@contextlib.contextmanager
def _held_output() -> Iterator[list]:
    """Hold back what is logged through the ``versemt`` loggers and written to
    stdout and stderr, as ``(kind, record or text)`` events in the order they
    happen, so that a stage's output can be printed later as one block."""
    events: list = []
    saved = sys.stdout, sys.stderr, log.handlers, log.propagate
    sys.stdout, sys.stderr = _HeldStream(events, "stdout"), _HeldStream(events, "stderr")
    log.handlers, log.propagate = [_HeldRecords(events)], False
    try:
        yield events
    finally:
        sys.stdout, sys.stderr, log.handlers, log.propagate = saved


def _print_events(events: list) -> None:
    for kind, item in events:
        if kind == "log":
            logging.getLogger(item.name).handle(item)
        else:
            getattr(sys, kind).write(item)


class _Outcome(NamedTuple):
    events: list  # the call's held output
    error: Exception | None  # what it raised, None if it returned
    value: object = None  # what it returned


def _held_call(fn: Callable, *args: object) -> _Outcome:
    """Call ``fn(*args)`` in this process with its output held back."""
    with _held_output() as events:
        try:
            return _Outcome(events, None, fn(*args))
        except Exception as exc:
            return _Outcome(events, exc)


def _run_stage(dispatch: Callable, name: str, argv: list[str]) -> _Outcome:
    """Run one stage command through ``dispatch`` in this process with its output
    held back."""

    def stage() -> None:
        log.info("stage %s: %s", name, " ".join(argv))
        with contextlib.suppress(SystemExit):  # argparse's --help, its only exit
            dispatch(argv)

    return _held_call(stage)


# The process that imported this module. Only it forks, so a run has two
# workers at most and one lex-build helper: those fork nothing themselves.
_FORKING_PID = os.getpid()


def _may_fork_a_worker() -> bool:
    """Whether this process may fork workers: where it can fork, may use more
    than one CPU and is not itself a forked worker. It is two stage workers at
    most whatever the CPU count, the one configuration the benchmark has
    measured (on two CPUs)."""
    if not hasattr(os, "fork") or os.getpid() != _FORKING_PID:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


class _Worker:
    """A forked process that makes the call ``call(*args)`` for each ``args`` sent
    over its pipe, one at a time, and sends back each outcome; it exits when the
    pipe closes, so also after the current call when its parent is gone. It
    closes its copies of the ``earlier`` workers' pipes, or those would never
    see their pipes close."""

    def __init__(self, call: Callable[..., _Outcome], earlier: Iterable[_Worker] = ()) -> None:
        command_r, command_w = os.pipe()
        reply_r, reply_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            status = 1
            try:
                for other in earlier:
                    other.commands.close()
                    other.replies.close()
                os.close(command_w)
                os.close(reply_r)
                with os.fdopen(command_r, "rb") as commands, os.fdopen(reply_w, "wb") as replies:
                    with contextlib.suppress(EOFError):
                        while True:
                            replies.write(pickle.dumps(call(*pickle.load(commands))))
                            replies.flush()
                status = 0
            finally:
                os._exit(status)  # never return into the parent's stack
        os.close(command_r)
        os.close(reply_w)
        self.commands = os.fdopen(command_w, "wb")
        self.replies = os.fdopen(reply_r, "rb")

    def fileno(self) -> int:
        """Its reply pipe, for ``select``: readable once its call has ended."""
        return self.replies.fileno()

    def start(self, *args: object) -> None:
        """Queue the call ``call(*args)``."""
        self.commands.write(pickle.dumps(args))
        self.commands.flush()

    def receive(self) -> _Outcome:
        """The outcome of its first call not yet received, once that call ends."""
        try:
            return pickle.load(self.replies)
        except EOFError:
            return _Outcome([], RuntimeError(f"worker process {self.pid} ended without a reply"))

    def __enter__(self) -> _Worker:
        return self

    def __exit__(self, error_type: type | None, *_: object) -> None:
        """Close its pipes and wait for it to exit; after an exception, kill it first."""
        if error_type is not None:
            os.kill(self.pid, signal.SIGKILL)
        with contextlib.suppress(OSError):
            self.commands.close()
        os.waitpid(self.pid, 0)
        self.replies.close()


def _fork_join_map(fn: Callable, items: Iterable) -> list:
    """``list(map(fn, items))``, with a forked helper calling ``fn`` on every
    other item where a worker may fork. Each call's output is held and printed
    in item order, up to the first call that fails, whose error is raised, so
    the output and the error are those of the builtin ``map``. The helper gets
    its items up front, so they must be small (they wait in its pipe), and is
    killed at the first failure. Its results come back pickled; ``fn`` itself
    is never pickled."""
    items = list(items)
    if len(items) < 2 or not _may_fork_a_worker():
        return list(map(fn, items))
    with _Worker(functools.partial(_held_call, fn)) as helper:
        for item in items[1::2]:
            helper.start(item)
        mine: list[_Outcome] = []
        for item in items[0::2]:
            mine.append(_held_call(fn, item))
            if mine[-1].error is not None:
                break
        results = []
        for k in range(len(items)):  # mine end at their first failure, and so does this loop
            events, error, value = helper.receive() if k % 2 else mine[k // 2]
            _print_events(events)
            if error is not None:
                raise error  # and the helper is killed
            results.append(value)
    return results


# Workers a run forks at most. Two keep two CPUs busy while the runner's own
# stage shares one of them; more have not been measured on more CPUs.
_MAX_WORKERS = 2


class _ManifestRun:
    """One run of a manifest's stages in ``_topological_order``. The next stage is
    the first in that order that has not started and whose predecessors are done:
    this process runs it, after giving each idle worker, where workers may run,
    the next one. Each stage's output is printed as one block in that order, and
    the state file is written with sorted keys, so a run prints and records what
    a one-CPU run does."""

    def __init__(self, stages: list[dict], state: dict, state_path: Path,
                 dispatch: Callable) -> None:
        self.by_name = {stage["name"]: stage for stage in stages}
        self.graph = _stage_graph(stages)
        self.waiting = _topological_order(self.graph)  # the stages not started, in order
        self.position = {name: index for index, name in enumerate(self.waiting)}
        self.done: set[str] = set()
        self.state, self.state_path = state, state_path
        self.run_stage = functools.partial(_run_stage, dispatch)
        self.blocks: dict[int, list] = {}
        self.printed = 0
        self.failures: dict[int, Exception] = {}

    def run(self, with_workers: bool) -> None:
        workers: list[_Worker] = []
        busy: dict[_Worker, tuple[str, str]] = {}  # a worker -> its stage and fingerprint
        with contextlib.ExitStack() as stack:  # on an exception, each worker is killed
            while True:
                mine = self._next_stage()
                while mine and with_workers:
                    idle = next((worker for worker in workers if worker not in busy), None)
                    if idle is None and len(workers) == _MAX_WORKERS:
                        break
                    theirs = self._next_stage()
                    if theirs is None:
                        break
                    if idle is None:  # forked the first time a ready stage finds no idle worker
                        idle = stack.enter_context(_Worker(self.run_stage, workers))
                        workers.append(idle)
                    idle.start(theirs[0], self.command(theirs[0]))
                    busy[idle] = theirs
                if mine:
                    self._finish(*mine, self.run_stage(mine[0], self.command(mine[0])))
                elif not busy:
                    break
                # Collect every worker that is done; wait for one only with nothing to run.
                for worker in select.select(list(busy), [], [], 0 if mine else None)[0]:
                    self._finish(*busy.pop(worker), worker.receive())
        for index in sorted(self.blocks):  # those after a failed stage
            _print_events(self.blocks.pop(index))
        if self.failures:
            raise self.failures[min(self.failures)]

    def _next_stage(self) -> tuple[str, str] | None:
        """The first stage not started whose predecessors are done and that is not
        up to date, with its fingerprint; None once a stage has failed or none is
        ready."""
        while not self.failures:
            name = next((name for name in self.waiting if self.graph[name] <= self.done), None)
            if name is None:
                return None
            self.waiting.remove(name)
            fingerprint = self._fingerprint_unless_current(name)
            if fingerprint is not None:
                return name, fingerprint
        return None

    def command(self, name: str) -> list[str]:
        return self.by_name[name].get("command", [])

    def _print_in_turn(self, name: str, events: list) -> None:
        self.blocks[self.position[name]] = events
        while self.printed in self.blocks:
            _print_events(self.blocks.pop(self.printed))
            self.printed += 1

    def _fingerprint_unless_current(self, name: str) -> str | None:
        """The stage's fingerprint; None, once it is marked done, if the state file
        holds that fingerprint and every declared output exists."""
        stage = self.by_name[name]
        fingerprint = _stage_fingerprint(stage)
        if self.state.get(name) != fingerprint or not all(
            Path(o).exists() for o in stage.get("outputs", [])
        ):
            return fingerprint
        with _held_output() as events:
            log.info("stage %s up to date, skipping", name)
        self._print_in_turn(name, events)
        self.done.add(name)
        return None

    def _finish(self, name: str, fingerprint: str, outcome: _Outcome) -> None:
        """Print the stage's output in its turn; record the stage as done, or its failure."""
        events, error, _ = outcome
        self._print_in_turn(name, events)
        failure = error
        if isinstance(error, (PipelineError, UsageError)):
            failure = StageFailed(f"stage {name}: {error}")
            failure.__cause__ = error
        elif error is None:
            outputs = [Path(o) for o in self.by_name[name].get("outputs", [])]
            missing = [str(o) for o in outputs if not o.exists()]
            if missing:
                failure = StageFailed(
                    f"stage {name} did not write declared output(s): {', '.join(missing)}"
                )
        if failure is not None:
            self.failures[self.position[name]] = failure
            return
        self.state[name] = fingerprint
        atomic_write_text(self.state_path, json.dumps(self.state, indent=2, sort_keys=True) + "\n")
        self.done.add(name)


def run_manifest(manifest_path: str | Path, dispatch: Callable, check: Callable) -> None:
    """Run manifest stages in dependency order, skipping up-to-date ones; each
    stage's command goes to ``dispatch``. Before any stage starts, every stage's
    command, in that order, goes to ``check``; its first usage or data error
    fails the run, naming the stage. Up to three stages whose inputs are ready
    run at once where the process may use more than one CPU. After a failed
    stage no stage starts; those running finish and are recorded if they succeed."""
    manifest_path = Path(manifest_path)
    stages = _validated_stages(read_json(manifest_path), manifest_path)

    state_path = manifest_path.with_suffix(manifest_path.suffix + ".state.json")
    state = read_json(state_path) if state_path.exists() else {}
    if not isinstance(state, dict):
        raise MalformedLine(f"{state_path}: the top level must be a JSON object")

    run = _ManifestRun(stages, state, state_path, dispatch)
    for name in run.waiting:  # all of them: a stage is found up to date only at its turn
        try:
            check(run.command(name))
        except (PipelineError, UsageError) as error:
            raise StageFailed(f"stage {name}: {error}") from error
    run.run(_may_fork_a_worker())
