"""Subcommand front end wiring the pipeline stages, plus manifest-driven runs."""

from __future__ import annotations

import argparse
import contextlib
import errno
import graphlib
import hashlib
import heapq
import io
import json
import logging
import math
import os
import pickle
import select
import signal
import sys
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from . import alignment, corpus, evaluation, harness, labeling, lexicon, netag, subword
from .errors import CycleDetected, MalformedLine, PipelineError, StageFailed, UnknownLanguage
from .errors import UsageError
from .fileio import atomic_write_lines, atomic_write_text, read_json, read_lines, read_rows
from .fileio import read_parallel_lines, read_word_list

log = logging.getLogger("versemt")

SEED_ENV_VAR = "VERSEMT_SEED"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _default_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get(SEED_ENV_VAR)
    try:
        return int(env) if env else 0
    except ValueError:
        raise UsageError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None


def _parse_ratios(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"--ratios expects three comma-separated fractions, got {text!r}")
    try:
        r = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"bad ratio in {text!r}: {exc}") from exc
    return r  # type: ignore[return-value]


def _label_mode(text: str) -> labeling.LabelMode:
    aliases = {
        "language": labeling.LabelMode.LANGUAGE_ONLY,
        "language-only": labeling.LabelMode.LANGUAGE_ONLY,
        "family": labeling.LabelMode.WITH_FAMILY,
        "language-plus-family": labeling.LabelMode.WITH_FAMILY,
    }
    if text not in aliases:
        raise UsageError(f"unknown label mode {text!r}")
    return aliases[text]


# ---------------------------------------------------------------------------
# Stage handlers.
# ---------------------------------------------------------------------------


def _cmd_ingest(args: argparse.Namespace) -> None:
    lang = corpus.get_language(args.lang).code
    verse_map = corpus.ingest_language_file(args.infile, lang)
    corpus.write_language_file(verse_map, Path(args.out) / f"{lang}.tsv")
    log.info("ingest lang=%s records=%d out=%s", lang, len(verse_map), args.out)


def _cmd_align(args: argparse.Namespace) -> None:
    aligned = corpus.read_corpus_dir(args.infile)
    corpus.write_corpus_dir(aligned, args.out)
    if args.stats:
        corpus.write_stats_report(aligned, args.stats)
    log.info("align verses=%d languages=%s", len(aligned), ",".join(aligned.languages))


def _cmd_split(args: argparse.Namespace) -> None:
    parallel = corpus.read_corpus_dir(args.corpus)
    ratios = _parse_ratios(args.ratios)
    seed = _default_seed(args.seed)
    assignment = corpus.split_corpus(parallel, ratios, seed)
    corpus.write_split(assignment, args.out)
    log.info(
        "split seed=%d sizes=%d/%d/%d",
        seed,
        len(assignment.train),
        len(assignment.val),
        len(assignment.test),
    )


def _cmd_label(args: argparse.Namespace) -> None:
    parallel = corpus.read_corpus_dir(args.corpus)
    split = corpus.read_split(args.split)
    mode = _label_mode(args.mode)
    if bool(args.langs) == bool(args.schedule):
        raise UsageError("exactly one of --langs / --schedule is required")
    if args.langs:
        examples = labeling.expand_multiway_pairs(args.langs.split(","), parallel, split, mode)
        count = labeling.write_labeled_bitext(
            examples, f"{args.out_prefix}.src", f"{args.out_prefix}.tgt"
        )
        log.info("label pairs=%s lines=%d", args.langs, count)
        return
    for step, langs in labeling.read_schedule_steps(args.schedule):
        examples = labeling.expand_multiway_pairs(langs, parallel, split, mode)
        count = labeling.write_labeled_bitext(
            examples, f"{args.out_prefix}.step{step}.src", f"{args.out_prefix}.step{step}.tgt"
        )
        log.info("label step=%d langs=%d lines=%d", step, len(langs), count)


def _cmd_schedule(args: argparse.Namespace) -> None:
    mode = labeling.ScheduleMode(args.mode)
    schedule = labeling.build_addition_schedule(args.anchor, mode, _default_seed(args.seed))
    labeling.write_schedule(schedule, args.out)
    log.info("schedule anchor=%s mode=%s steps=%d", args.anchor, args.mode, len(schedule.steps))


def _cmd_bpe_learn(args: argparse.Namespace) -> None:
    reserved = set(read_word_list(args.reserved)) if args.reserved else set()
    tokens = (token for _, line in read_lines(args.infile) for token in line.split())
    model = subword.learn_bpe(tokens, args.merges, reserved, vocab_side=args.side)
    subword.save_model(model, args.out)
    log.info("bpe-learn side=%s merges=%d", args.side, len(model.merges))


def _cmd_bpe_apply(args: argparse.Namespace) -> None:
    model = subword.load_model(args.model)
    out_lines = [
        " ".join(subword.apply_bpe(model, line.split())) for _, line in read_lines(args.infile)
    ]
    atomic_write_lines(args.out, out_lines)


def _cmd_align_train(args: argparse.Namespace) -> None:
    src_lines, tgt_lines = read_parallel_lines(args.src, args.tgt)
    bitext = [(corpus.tokenize(s), corpus.tokenize(t)) for s, t in zip(src_lines, tgt_lines)]
    params = alignment.DiagonalParams(tension=args.tension, null_prob=args.null_prob)
    table = alignment.train_em(bitext, args.iterations, params)
    alignment.save_table(table, args.out, args.iterations)
    log.info(
        "align-train pairs=%d iterations=%d ll=%s",
        len(bitext),
        args.iterations,
        ",".join(f"{ll:.1f}" for ll in table.log_likelihood_history),
    )


def _cmd_lex_filter(args: argparse.Namespace) -> None:
    stoplist = read_word_list(args.stoplist) if args.stoplist else []
    cleaned = lexicon.filter_seed_list(read_word_list(args.infile), stoplist)
    atomic_write_lines(args.out, cleaned)
    log.info("lex-filter kept=%d", len(cleaned))


class _TableFiles(Mapping[str, alignment.TranslationTable]):
    """A directory's ``<lang>.tsv`` tables, keyed by registry code as in the corpus
    store; each is read on lookup and not kept."""

    def __init__(self, directory: str | Path) -> None:
        self._paths = corpus.language_files(directory)

    def __getitem__(self, lang: str) -> alignment.TranslationTable:
        return alignment.load_table(self._paths[lang])

    def __contains__(self, lang: object) -> bool:  # Mapping's default would read the table
        return lang in self._paths

    def __iter__(self) -> Iterator[str]:
        return iter(self._paths)

    def __len__(self) -> int:
        return len(self._paths)


def _cmd_lex_build(args: argparse.Namespace) -> None:
    seed_list = read_word_list(args.seed_list)
    parallel = corpus.read_corpus_dir(args.corpus)
    aligners = _TableFiles(args.aligners)
    table = lexicon.assemble_table(
        seed_list, parallel, aligners, min_votes=args.min_votes, map_languages=_fork_join_map
    )
    lexicon.save_lexicon(table, args.out, args.freq_out)
    log.info("lex-build entries=%d languages=%d", len(table), len(table.languages))


def _cmd_lex_trim(args: argparse.Namespace) -> None:
    if (args.policy == "manual-selection") != bool(args.manual_file):
        raise UsageError("--manual-file goes with policy manual-selection, and only with it")
    if args.policy == "frequency-equals-one" and not (args.corpus or args.freq):
        raise UsageError("policy frequency-equals-one needs --corpus or --freq")
    table = lexicon.load_lexicon(args.infile, args.freq)
    parallel = corpus.read_corpus_dir(args.corpus) if args.corpus else None
    trimmed = lexicon.trim_table(table, args.policy, parallel, args.manual_file)
    lexicon.save_lexicon(trimmed, args.out, args.freq_out)
    log.info("lex-trim policy=%s kept=%d/%d", args.policy, len(trimmed), len(table))


def _cmd_tag(args: argparse.Namespace) -> None:
    if bool(args.tgt_in) != bool(args.tgt_out):
        raise UsageError("--tgt-in and --tgt-out must be given together")
    src_lang, tgt_lang = corpus.get_language(args.src).code, corpus.get_language(args.tgt).code
    table = lexicon.load_lexicon(args.lexicon)
    for lang in (src_lang, tgt_lang):
        if lang not in table.languages:  # checked before any line, so also on an empty input
            raise UnknownLanguage(f"language {lang!r} not in lexicon table")
    files = read_parallel_lines(args.infile, *([args.tgt_in] if args.tgt_in else []))
    decode_path = args.decode or f"{args.out}.decode.jsonl"
    tagged_src, tagged_tgt, decodes = [], [], []
    for src, *tgt in zip(*([corpus.tokenize(line) for line in lines] for lines in files)):
        if tgt:
            ts, tt, decode = netag.tag_training_pair(src, tgt[0], table, src_lang, tgt_lang)
            tagged_tgt.append(tt.text)
        else:
            ts, decode = netag.tag_source(src, table, src_lang, tgt_lang)
        tagged_src.append(ts.text)
        decodes.append(decode)
    atomic_write_lines(args.out, tagged_src)
    if args.tgt_out:
        atomic_write_lines(args.tgt_out, tagged_tgt)
    netag.write_decode_sidecar(decodes, decode_path)
    log.info("tag lines=%d decode=%s", len(decodes), decode_path)


def _cmd_restore(args: argparse.Namespace) -> None:
    decodes = netag.read_decode_sidecar(args.decode)
    [lines] = read_parallel_lines(args.infile, records=(args.decode, len(decodes)))
    restored = [
        " ".join(netag.restore_placeholders(line.split(), decode))
        for line, decode in zip(lines, decodes)
    ]
    atomic_write_lines(args.out, restored)


def _cmd_sample(args: argparse.Namespace) -> None:
    text_by_id = corpus.read_verse_file(args.infile)
    total = args.total if args.total is not None else len(text_by_id)
    plan = harness.AblationPlan(fraction=args.fraction, seed=_default_seed(args.seed), total=total)
    result = harness.sample_low_resource(list(text_by_id.items()), plan)
    atomic_write_lines(args.out, [f"{vid}\t{text_by_id[vid]}" for vid in result.ids])
    if args.manifest:
        harness.write_ablation_manifest([(plan, result)], args.manifest)
    log.info(
        "sample fraction=%s total=%d distinct=%d unique_words=%d",
        plan.fraction,
        plan.total,
        result.distinct_count,
        result.unique_word_count,
    )


def _cmd_gl_monitor(args: argparse.Namespace) -> None:
    state = harness.GlState(alpha=args.alpha)
    if hasattr(sys.stdin, "reconfigure"):
        # Undecodable bytes surface as lone surrogates in their own line, so the
        # lines before it are still processed and the error can name its line.
        sys.stdin.reconfigure(errors="surrogateescape")
    for lineno, raw in enumerate(sys.stdin, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise MalformedLine(f"<stdin>:{lineno}: not valid UTF-8") from None
        try:
            epoch, score = line.split("\t")
            state, gl, decision = harness.gl_update(state, int(epoch), float(score))
        except ValueError:  # a field count, a number, or gl_update's BadParameter
            raise MalformedLine(
                f"<stdin>:{lineno}: expected `integer epoch<TAB>finite score >= 0`, got {line!r}"
            ) from None
        except PipelineError as exc:  # an epoch that does not follow the last
            raise type(exc)(f"<stdin>:{lineno}: {exc}") from None
        print(f"{epoch}\t{score}\t{gl:.4f}\t{decision}", flush=True)
        if decision == "stop":
            break


def _cmd_fit(args: argparse.Namespace) -> None:
    points = []
    for lineno, fields in read_rows(args.infile, 2, "word_count<TAB>score"):
        try:
            point = (float(fields[0]), float(fields[1]))
        except ValueError:
            point = (math.nan, math.nan)
        if not all(map(math.isfinite, point)):
            raise MalformedLine(f"{args.infile}:{lineno}: expected two finite numbers, got {fields}")
        points.append(point)
    fit = harness.fit_power_law(points)
    line = f"slope\t{fit.slope:.9f}\nintercept\t{fit.intercept:.9f}\nr_squared\t{fit.r_squared:.9f}"
    print(line)
    if args.out:
        atomic_write_text(args.out, line + "\n")


def _cmd_bleu(args: argparse.Namespace) -> None:
    hyp_lines, ref_lines = read_parallel_lines(args.hyp, args.ref)
    refs = [corpus.tokenize(line) for line in ref_lines]
    report = evaluation.corpus_bleu(hyp_lines, refs, max_n=args.max_n)
    print(evaluation.format_bleu_summary(report))
    if args.report:
        evaluation.write_bleu_report(report, args.report)


def _cmd_rubric(args: argparse.Namespace) -> None:
    if args.infile:
        percentages = evaluation.aggregate_rubric(evaluation.read_judgments(args.infile))
        lines = [f"{category}\t{pct:.1f}" for category, pct in percentages.items()]
        print("\n".join(lines))
        if args.out:
            atomic_write_lines(args.out, lines)
        return
    if not (args.hyp and args.ref and args.decode and args.out):
        raise UsageError("rubric needs either --in, or --hyp/--ref/--decode/--out")
    decodes = netag.read_decode_sidecar(args.decode)
    hyp_lines, ref_lines = read_parallel_lines(
        args.hyp, args.ref, records=(args.decode, len(decodes))
    )
    judgments = [
        evaluation.judge_sentence(h, corpus.tokenize(r), d)
        for h, r, d in zip(hyp_lines, ref_lines, decodes)
    ]
    evaluation.write_judgments(judgments, args.out)
    log.info("rubric judged=%d (meaning pending)", len(judgments))


def _cmd_emit_config(args: argparse.Namespace) -> None:
    config = harness.emit_trainer_config(args.profile)
    harness.write_trainer_config(config, args.out)
    log.info("emit-config profile=%s out=%s", args.profile, args.out)


# ---------------------------------------------------------------------------
# Manifest runner.
# ---------------------------------------------------------------------------


def _file_digest(path: Path) -> str:
    """sha256 of a file; of a directory, over its files' sorted relative paths
    and bytes, recursively."""
    if not path.exists():
        return "missing"
    if not path.is_dir():
        return hashlib.sha256(path.read_bytes()).hexdigest()
    digest = hashlib.sha256()
    files = sorted((p.relative_to(path).as_posix(), p) for p in path.rglob("*") if p.is_file())
    for name, file in files:
        data = file.read_bytes()
        digest.update(f"{name}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


def _validated_stages(manifest: object, where: Path) -> list[dict]:
    """The manifest's stages, once every field a run reads has its type, no
    output path is at, inside or above another stage's output, and one stage
    at most reads stdin."""
    if not isinstance(manifest, dict):
        raise MalformedLine(f"{where}: the top level must be a JSON object")
    stages = manifest.get("stages", [])
    if not isinstance(stages, list):
        raise MalformedLine(f"{where}: `stages` must be a list")
    names: set[str] = set()
    stdin_reader: str | None = None
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
            # The only stage that reads the run's stdin; two at once would split it.
            if stdin_reader is not None:
                raise MalformedLine(f"{at}: stages {stdin_reader!r} and {name!r} both read "
                                    "stdin; give it to one stage at most")
            stdin_reader = name
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
    sorter = graphlib.TopologicalSorter(graph)
    try:
        sorter.prepare()
    except graphlib.CycleError as exc:
        raise CycleDetected(f"manifest stages form a cycle: {exc.args[1]}") from None
    ordered, ready = [], sorted(sorter.get_ready())  # a sorted list is a heap
    while ready:
        name = heapq.heappop(ready)
        ordered.append(name)
        sorter.done(name)
        for other in sorter.get_ready():
            heapq.heappush(ready, other)
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


def _run_stage(name: str, argv: list[str]) -> _Outcome:
    """Run one stage command in this process with its output held back."""

    def stage() -> None:
        log.info("stage %s: %s", name, " ".join(argv))
        with contextlib.suppress(SystemExit):  # argparse's --help, its only exit
            dispatch(argv)

    return _held_call(stage)


# The process that imported this module. Only it forks, so a run has two
# workers at most and one lex-build helper: those fork nothing themselves.
_FORKING_PID = os.getpid()


def _may_fork_a_worker() -> bool:
    """Whether this process may fork workers, or a lex-build helper: where it can
    fork, may use more than one CPU and is not itself a forked worker or helper.
    It is two workers at most whatever the CPU count, the one configuration the
    benchmark has measured (on two CPUs)."""
    if not hasattr(os, "fork") or os.getpid() != _FORKING_PID:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


class _Worker:
    """A forked process that runs the stage commands sent over its pipe, one at a
    time, and sends back each outcome; it exits when the pipe closes, so also
    after the current stage when the runner is gone. It closes its copies of the
    ``earlier`` workers' pipes, or those would never see their pipes close."""

    def __init__(self, earlier: list[_Worker]) -> None:
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
                            replies.write(pickle.dumps(_run_stage(*pickle.load(commands))))
                            replies.flush()
                status = 0
            finally:
                os._exit(status)  # never return into the runner's stack
        os.close(command_r)
        os.close(reply_w)
        self.commands = os.fdopen(command_w, "wb")
        self.replies = os.fdopen(reply_r, "rb")

    def fileno(self) -> int:
        """Its reply pipe, for ``select``: readable once its stage has ended."""
        return self.replies.fileno()

    def start(self, name: str, argv: list[str]) -> None:
        self.commands.write(pickle.dumps((name, argv)))
        self.commands.flush()

    def receive(self) -> _Outcome:
        """The outcome of the stage it runs, once that stage ends."""
        try:
            return pickle.load(self.replies)
        except EOFError:
            error = RuntimeError(f"worker process {self.pid} ended without a reply")
            return _Outcome([], error)

    def close(self) -> None:
        """Close its pipes and wait for it to exit."""
        with contextlib.suppress(OSError):
            self.commands.close()
        os.waitpid(self.pid, 0)
        self.replies.close()


def _held_calls(fn: Callable, items: list) -> list[_Outcome]:
    """``_held_call(fn, item)`` for each item, up to the first that fails."""
    outcomes = []
    for item in items:
        outcomes.append(_held_call(fn, item))
        if outcomes[-1].error is not None:
            break
    return outcomes


def _fork_join_map(fn: Callable, items: Iterable) -> list:
    """``list(map(fn, items))``, with a forked helper calling ``fn`` on every
    other item where a worker may fork. Each call's output is held and printed
    in item order, up to the first call that fails, whose error is raised, so
    the output and the error are those of the builtin ``map``. The helper's
    results come back pickled; ``fn`` itself is never pickled."""
    items = list(items)
    if len(items) < 2 or not _may_fork_a_worker():
        return list(map(fn, items))
    reply_r, reply_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(reply_r)
            with os.fdopen(reply_w, "wb") as replies:
                replies.write(pickle.dumps(_held_calls(fn, items[1::2])))
            status = 0
        finally:
            os._exit(status)  # never return into the caller's stack
    os.close(reply_w)
    try:
        with os.fdopen(reply_r, "rb") as replies:
            mine = _held_calls(fn, items[0::2])
            try:
                theirs = pickle.load(replies)
            except EOFError:
                theirs = [_Outcome([], RuntimeError(f"helper process {pid} ended without a reply"))]
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.waitpid(pid, 0)
    results = []
    for k in range(len(items)):  # each process stops at its first failure, so k exists up to it
        events, error, value = (mine, theirs)[k % 2][k // 2]
        _print_events(events)
        if error is not None:
            raise error
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

    def __init__(self, stages: list[dict], state: dict, state_path: Path) -> None:
        self.by_name = {stage["name"]: stage for stage in stages}
        self.graph = _stage_graph(stages)
        self.waiting = _topological_order(self.graph)  # the stages not started, in order
        self.position = {name: index for index, name in enumerate(self.waiting)}
        self.done: set[str] = set()
        self.state, self.state_path = state, state_path
        self.blocks: dict[int, list] = {}
        self.printed = 0
        self.failures: dict[int, Exception] = {}

    def run(self, with_workers: bool) -> None:
        workers: list[_Worker] = []
        busy: dict[_Worker, tuple[str, str]] = {}  # a worker -> its stage and fingerprint
        try:
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
                        _get_parser()  # built once, before the fork
                        idle = _Worker(workers)
                        workers.append(idle)
                    idle.start(theirs[0], self._command(theirs[0]))
                    busy[idle] = theirs
                if mine:
                    self._finish(*mine, _run_stage(mine[0], self._command(mine[0])))
                elif not busy:
                    break
                # Collect every worker that is done; wait for one only with nothing to run.
                for worker in select.select(list(busy), [], [], 0 if mine else None)[0]:
                    self._finish(*busy.pop(worker), worker.receive())
        except BaseException:
            for worker in workers:
                os.kill(worker.pid, signal.SIGKILL)
            raise
        finally:
            for worker in workers:
                worker.close()
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

    def _command(self, name: str) -> list[str]:
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


def run_manifest(manifest_path: str | Path) -> int:
    """Run manifest stages in dependency order, skipping up-to-date ones. Up to
    three stages whose inputs are ready run at the same time where the process
    may use more than one CPU.
    After a failed stage no stage starts; those running finish and are recorded
    if they succeed."""
    manifest_path = Path(manifest_path)
    stages = _validated_stages(read_json(manifest_path), manifest_path)

    state_path = manifest_path.with_suffix(manifest_path.suffix + ".state.json")
    state = read_json(state_path) if state_path.exists() else {}
    if not isinstance(state, dict):
        raise MalformedLine(f"{state_path}: the top level must be a JSON object")

    _ManifestRun(stages, state, state_path).run(_may_fork_a_worker())
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> None:
    run_manifest(args.manifest)


# ---------------------------------------------------------------------------
# Parser assembly and dispatch.
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="versemt", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="subcommand")

    p = sub.add_parser("ingest", help="normalize one language file into a corpus directory")
    p.add_argument("--lang", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("align", help="intersect per-language files on shared verse ids")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stats", default=None, help="optional stats TSV report")
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("split", help="deterministic train/val/test split")
    p.add_argument("--corpus", required=True)
    p.add_argument("--ratios", default="0.75,0.15,0.10")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("label", help="emit labeled multiway bitext")
    p.add_argument("--corpus", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--mode", default="language-plus-family")
    p.add_argument("--langs", default=None, help="comma-separated language codes")
    p.add_argument("--schedule", default=None, help="schedule TSV (one bitext per step)")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("schedule", help="build a family/sparse addition schedule")
    p.add_argument("--anchor", required=True)
    p.add_argument("--mode", choices=["family-addition", "sparse-addition"], required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("bpe-learn", help="learn a BPE model from tokenized text")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--merges", type=int, default=subword.DEFAULT_NUM_MERGES)
    p.add_argument("--side", choices=["source", "target"], default="source")
    p.add_argument("--reserved", default=None, help="file of reserved tokens, one per line")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bpe_learn)

    p = sub.add_parser("bpe-apply", help="apply a BPE model to tokenized text")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bpe_apply)

    p = sub.add_parser("align-train", help="train a lexical translation table by EM")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--iterations", type=int, default=5)
    p.add_argument("--tension", type=float, default=4.0)
    p.add_argument("--null-prob", type=float, default=0.08)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_align_train)

    p = sub.add_parser("lex-filter", help="clean a raw named-entity candidate list")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--stoplist", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_lex_filter)

    p = sub.add_parser("lex-build", help="project a seed list into a parallel lexicon table")
    p.add_argument("--seed-list", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--aligners", required=True, help="directory of <lang>.tsv tables")
    p.add_argument("--min-votes", type=int, default=lexicon.DEFAULT_MIN_VOTES)
    p.add_argument("--out", required=True)
    p.add_argument("--freq-out", default=None)
    p.set_defaults(func=_cmd_lex_build)

    p = sub.add_parser("lex-trim", help="trim a lexicon table by policy")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--freq", default=None)
    p.add_argument(
        "--policy",
        choices=["none", "frequency-equals-one", "manual-selection"],
        default="none",
    )
    p.add_argument("--manual-file", default=None)
    p.add_argument("--corpus", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--freq-out", default=None)
    p.set_defaults(func=_cmd_lex_trim)

    p = sub.add_parser("tag", help="replace named entities with ordered placeholders")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--src", required=True, help="source language code")
    p.add_argument("--tgt", required=True, help="target language code")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tgt-in", default=None, help="target side for training-pair tagging")
    p.add_argument("--tgt-out", default=None)
    p.add_argument("--decode", default=None, help="decode sidecar path (default <out>.decode.jsonl)")
    p.set_defaults(func=_cmd_tag)

    p = sub.add_parser("restore", help="replace placeholders using a decode sidecar")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--decode", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_restore)

    p = sub.add_parser("sample", help="ablation-sample low-resource verses with duplication")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--fraction", type=float, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--total", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("gl-monitor", help="early-stopping monitor over stdin `epoch<TAB>score`")
    p.add_argument("--alpha", type=float, default=0.1)
    p.set_defaults(func=_cmd_gl_monitor)

    p = sub.add_parser("fit", help="fit score against log10 word count")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("bleu", help="corpus BLEU of hypothesis vs reference file")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_bleu)

    p = sub.add_parser("rubric", help="judge sentences or aggregate a judgments file")
    p.add_argument("--in", dest="infile", default=None, help="judgments JSONL to aggregate")
    p.add_argument("--hyp", default=None)
    p.add_argument("--ref", default=None)
    p.add_argument("--decode", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_rubric)

    p = sub.add_parser("emit-config", help="write trainer hyperparameters for a profile")
    p.add_argument("--profile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_emit_config)

    p = sub.add_parser("run", help="run a pipeline manifest")
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=_cmd_run)

    return parser


# Built by the first dispatch, or before a manifest run forks its worker, and
# reused by the rest: a manifest run parses one command line per stage, and
# parse_args keeps no state between calls.
_parser: _Parser | None = None

# A path that is missing, a directory (`.` is busy), below a file or too long:
# bad input, not a bug.
_PATH_ERRNOS = {
    errno.ENOENT, errno.EISDIR, errno.EBUSY, errno.ENOTDIR, errno.EEXIST, errno.ENAMETOOLONG
}


def _get_parser() -> _Parser:
    global _parser
    if _parser is None:
        _parser = build_parser()
    return _parser


def dispatch(argv: Sequence[str]) -> int:
    """Parse argv and execute exactly one pipeline stage."""
    args = _get_parser().parse_args(list(argv))
    if not getattr(args, "command", None):
        raise UsageError("a subcommand is required (see --help)")
    try:
        args.func(args)
    except OSError as exc:
        if exc.errno not in _PATH_ERRNOS:
            raise
        # os.replace names the output second, after its temporary file.
        raise PipelineError(f"{exc.strerror}: {exc.filename2 or exc.filename}") from exc
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        return dispatch(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PipelineError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
