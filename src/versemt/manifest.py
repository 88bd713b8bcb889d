"""The manifest runner: it checks the manifest and parses every stage's command
before the first stage starts, then runs the stages, some in forked stage
workers beside it, the only processes ``versemt`` forks."""

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
import stat
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


def _validated_stages(manifest: object, where: Path, state_path: Path) -> list[dict]:
    """The manifest's stages, once every field a run reads has its type (a missing
    list is set empty), no output path is at, inside or above another stage's
    output, the manifest at ``where`` or its state file, and every declared input
    that exists is a regular file or a directory."""
    if not isinstance(manifest, dict):
        raise MalformedLine(f"{where}: the top level must be a JSON object")
    stages = manifest.get("stages", [])
    if not isinstance(stages, list):
        raise MalformedLine(f"{where}: `stages` must be a list")
    names: set[str] = set()
    # Each path no output may be at, inside or above, with how a message names it: the
    # run reads the manifest and rewrites the state file after each stage, and stages
    # with nested outputs would race on the same files.
    taken = [(_path_parts(own), f"the run's own {str(own)!r}") for own in (where, state_path)]
    for index, stage in enumerate(stages):
        at = f"{where}: stages[{index}]"
        if not isinstance(stage, dict):
            raise MalformedLine(f"{at}: a stage must be a JSON object")
        name = stage.get("name")
        if not (isinstance(name, str) and name) or name in names:
            raise MalformedLine(f"{at}: `name` must be a non-empty string unique across stages")
        names.add(name)
        for key in ("command", "inputs", "outputs"):
            value = stage.setdefault(key, [])
            if not (isinstance(value, list) and all(isinstance(item, str) for item in value)):
                raise MalformedLine(f"{at}: `{key}` must be a list of strings")
        if stage["command"][:1] == ["run"]:
            # A nested run would recurse on its own manifest, forking workers each time.
            raise MalformedLine(f"{at}: a stage cannot run a manifest")
        for path in stage["inputs"]:
            # Hashing a pipe or a device would block the run before any stage starts.
            with contextlib.suppress(OSError):  # absent, or unreadable: left to the digest
                if stat.S_IFMT(os.stat(path).st_mode) not in (stat.S_IFREG, stat.S_IFDIR):
                    raise MalformedLine(f"{at}: stage {name!r} declares the input {path!r}, "
                                        "neither a regular file nor a directory")
        outputs = [(_path_parts(output), output) for output in stage["outputs"]]
        for parts, output in outputs:
            for other_parts, other in taken:
                if _nested(parts, other_parts):
                    raise MalformedLine(f"{at}: stage {name!r} declares the output {output!r}, "
                                        f"at, inside or above {other}")
        taken += [(parts, f"{output!r} of stage {name!r}") for parts, output in outputs]
    return stages


def _stage_fingerprint(stage: dict) -> str:
    payload = {
        "command": stage["command"],
        "inputs": {name: _file_digest(Path(name)) for name in sorted(stage["inputs"])},
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def _path_parts(path: str | Path) -> tuple[str, ...]:
    """The one identity of a path: its absolute, normalized parts, so that ``x``,
    ``./x``, ``/w/x`` and ``../w/x`` (from ``/w``) are one path."""
    return Path(os.path.abspath(path)).parts


def _nested(a: tuple[str, ...], b: tuple[str, ...]) -> bool:
    """Whether the path with parts ``a`` is at, inside or above the one with parts ``b``."""
    return a[: len(b)] == b or b[: len(a)] == a


def _stage_graph(stages: list[dict]) -> dict[str, set[str]]:
    """Each stage's name -> the stages it follows: every other stage that declares
    an output at, inside or above one of its inputs, so a directory input waits
    for every file declared inside it."""
    outputs = [(stage["name"], _path_parts(out)) for stage in stages
               for out in stage["outputs"]]
    graph = {}
    for stage in stages:
        inputs = [_path_parts(i) for i in stage["inputs"]]
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
    events: list  # the stage's held output
    error: Exception | None  # what it raised, None if it returned


def _run_stage(dispatch: Callable, name: str, argv: list[str]) -> _Outcome:
    """Run one stage command through ``dispatch`` in this process with its output
    held back."""
    with _held_output() as events:
        log.info("stage %s: %s", name, " ".join(argv))
        try:
            with contextlib.suppress(SystemExit):  # argparse's --help, its only exit
                dispatch(argv)
        except Exception as exc:
            return _Outcome(events, exc)
    return _Outcome(events, None)


def _may_fork_a_worker() -> bool:
    """Whether this process may fork workers: where it can fork and may use more
    than one CPU. It is two stage workers at most whatever the CPU count, the
    one configuration the benchmark has measured (on two CPUs)."""
    if not hasattr(os, "fork"):
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


class _Worker:
    """One of the runner's stage workers: a forked process that makes the call
    ``call(*args)`` for each stage's ``args`` sent over its pipe, one at a time,
    and sends back each outcome; it exits when the pipe closes, so also after
    the current stage when its parent is gone. It closes its copies of the
    ``earlier`` workers' pipes, or those would never see their pipes close."""

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

    def run(self, slots: int) -> None:
        workers: list[_Worker] = []
        busy: dict[_Worker, tuple[str, str]] = {}  # a worker -> its stage and fingerprint
        with contextlib.ExitStack() as stack:  # on an exception, each worker is killed
            while True:
                mine = self._next_stage()
                while mine and len(busy) < slots and (theirs := self._next_stage()):
                    idle = next((worker for worker in workers if worker not in busy), None)
                    if idle is None:  # forked the first time a ready stage finds no idle worker
                        idle = stack.enter_context(_Worker(self.run_stage, workers))
                        workers.append(idle)
                    idle.start(theirs[0], self.by_name[theirs[0]]["command"])
                    busy[idle] = theirs
                if mine:
                    self._finish(*mine, self.run_stage(mine[0], self.by_name[mine[0]]["command"]))
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
            Path(o).exists() for o in stage["outputs"]
        ):
            return fingerprint
        with _held_output() as events:
            log.info("stage %s up to date, skipping", name)
        self._print_in_turn(name, events)
        self.done.add(name)
        return None

    def _finish(self, name: str, fingerprint: str, outcome: _Outcome) -> None:
        """Print the stage's output in its turn; record the stage as done, or its failure."""
        events, error = outcome
        self._print_in_turn(name, events)
        failure = error
        if isinstance(error, (PipelineError, UsageError)):
            failure = StageFailed(f"stage {name}: {error}")
            failure.__cause__ = error
        elif error is None:
            outputs = [Path(o) for o in self.by_name[name]["outputs"]]
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
    command, in that order, goes to ``check`` with its output held back; its
    first usage or data error fails the run, naming the stage. Up to three stages
    whose inputs are ready run at once where the process may use more than one
    CPU. After a failed stage no stage starts; those running finish and are
    recorded if they succeed."""
    manifest_path = Path(manifest_path)
    state_path = manifest_path.with_suffix(manifest_path.suffix + ".state.json")
    stages = _validated_stages(read_json(manifest_path), manifest_path, state_path)
    state = read_json(state_path) if state_path.exists() else {}
    if not isinstance(state, dict):
        raise MalformedLine(f"{state_path}: the top level must be a JSON object")

    run = _ManifestRun(stages, state, state_path, dispatch)
    for name in run.waiting:  # all of them: a stage is found up to date only at its turn
        try:
            with _held_output(), contextlib.suppress(SystemExit):  # --help prints at its turn
                check(run.by_name[name]["command"])
        except (PipelineError, UsageError) as error:
            raise StageFailed(f"stage {name}: {error}") from error
    run.run(_MAX_WORKERS if _may_fork_a_worker() else 0)
