"""Subcommand front end wiring the pipeline stages, plus manifest-driven runs."""

from __future__ import annotations

import argparse
import graphlib
import hashlib
import heapq
import json
import logging
import math
import os
import sys
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from . import alignment, corpus, evaluation, harness, labeling, lexicon, netag, subword
from .errors import CycleDetected, DuplicateVerseId, MalformedLine, PipelineError, StageFailed, UsageError
from .fileio import atomic_write_lines, atomic_write_text, read_json, read_lines, read_rows

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
    return int(env) if env else 0


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


def _cmd_ingest(args: argparse.Namespace) -> int:
    verse_map = corpus.ingest_language_file(args.infile, args.lang)
    corpus.write_language_file(verse_map, Path(args.out) / f"{args.lang}.tsv")
    log.info("ingest lang=%s records=%d out=%s", args.lang, len(verse_map), args.out)
    return EXIT_OK


def _cmd_align(args: argparse.Namespace) -> int:
    aligned = corpus.read_corpus_dir(args.infile)
    corpus.write_corpus_dir(aligned, args.out)
    if args.stats:
        corpus.write_stats_report(aligned, args.stats)
    log.info("align verses=%d languages=%s", len(aligned), ",".join(aligned.languages))
    return EXIT_OK


def _cmd_split(args: argparse.Namespace) -> int:
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
    return EXIT_OK


def _cmd_label(args: argparse.Namespace) -> int:
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
        return EXIT_OK
    for step, langs in labeling.read_schedule_steps(args.schedule):
        examples = labeling.expand_multiway_pairs(langs, parallel, split, mode)
        count = labeling.write_labeled_bitext(
            examples, f"{args.out_prefix}.step{step}.src", f"{args.out_prefix}.step{step}.tgt"
        )
        log.info("label step=%d langs=%d lines=%d", step, len(langs), count)
    return EXIT_OK


def _cmd_schedule(args: argparse.Namespace) -> int:
    mode = labeling.ScheduleMode(args.mode)
    schedule = labeling.build_addition_schedule(args.anchor, mode, _default_seed(args.seed))
    labeling.write_schedule(schedule, args.out)
    log.info("schedule anchor=%s mode=%s steps=%d", args.anchor, args.mode, len(schedule.steps))
    return EXIT_OK


def _cmd_bpe_learn(args: argparse.Namespace) -> int:
    reserved = {line for _, line in read_lines(args.reserved)} - {""} if args.reserved else set()
    tokens = (token for _, line in read_lines(args.infile) for token in line.split())
    model = subword.learn_bpe(tokens, args.merges, reserved, vocab_side=args.side)
    subword.save_model(model, args.out)
    log.info("bpe-learn side=%s merges=%d", args.side, len(model.merges))
    return EXIT_OK


def _cmd_bpe_apply(args: argparse.Namespace) -> int:
    model = subword.load_model(args.model)
    out_lines = [
        " ".join(subword.apply_bpe(model, line.split())) for _, line in read_lines(args.infile)
    ]
    atomic_write_lines(args.out, out_lines)
    return EXIT_OK


def _cmd_align_train(args: argparse.Namespace) -> int:
    src_lines = [line for _, line in read_lines(args.src)]
    tgt_lines = [line for _, line in read_lines(args.tgt)]
    if len(src_lines) != len(tgt_lines):
        raise PipelineError(
            f"bitext length mismatch: {len(src_lines)} source vs {len(tgt_lines)} target lines"
        )
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
    return EXIT_OK


def _cmd_lex_filter(args: argparse.Namespace) -> int:
    stoplist = {line for _, line in read_lines(args.stoplist)} if args.stoplist else set()
    cleaned = lexicon.filter_seed_list((line for _, line in read_lines(args.infile)), stoplist)
    atomic_write_lines(args.out, cleaned)
    log.info("lex-filter kept=%d", len(cleaned))
    return EXIT_OK


class _TableFiles(Mapping[str, alignment.TranslationTable]):
    """A directory's ``<lang>.tsv`` tables, each read on lookup and not kept."""

    def __init__(self, directory: str | Path) -> None:
        self._paths = {path.stem: path for path in sorted(Path(directory).glob("*.tsv"))}

    def __getitem__(self, lang: str) -> alignment.TranslationTable:
        return alignment.load_table(self._paths[lang])

    def __contains__(self, lang: object) -> bool:  # Mapping's default would read the table
        return lang in self._paths

    def __iter__(self) -> Iterator[str]:
        return iter(self._paths)

    def __len__(self) -> int:
        return len(self._paths)


def _cmd_lex_build(args: argparse.Namespace) -> int:
    seed_list = [line for _, line in read_lines(args.seed_list) if line.strip()]
    parallel = corpus.read_corpus_dir(args.corpus)
    aligners = _TableFiles(args.aligners)
    table = lexicon.assemble_table(seed_list, parallel, aligners, min_votes=args.min_votes)
    lexicon.save_lexicon(table, args.out, args.freq_out)
    log.info("lex-build entries=%d languages=%d", len(table), len(table.languages))
    return EXIT_OK


def _cmd_lex_trim(args: argparse.Namespace) -> int:
    table = lexicon.load_lexicon(args.infile, args.freq)
    if args.policy == "manual-selection" and not args.manual_file:
        raise UsageError("--manual-file is required with policy manual-selection")
    if args.policy == "frequency-equals-one" and not (args.corpus or args.freq):
        raise UsageError("policy frequency-equals-one needs --corpus or --freq")
    parallel = corpus.read_corpus_dir(args.corpus) if args.corpus else None
    trimmed = lexicon.trim_table(table, args.policy, parallel, args.manual_file)
    lexicon.save_lexicon(trimmed, args.out, args.freq_out)
    log.info("lex-trim policy=%s kept=%d/%d", args.policy, len(trimmed), len(table))
    return EXIT_OK


def _cmd_tag(args: argparse.Namespace) -> int:
    if bool(args.tgt_in) != bool(args.tgt_out):
        raise UsageError("--tgt-in and --tgt-out must be given together")
    table = lexicon.load_lexicon(args.lexicon)
    src_lines = [corpus.tokenize(line) for _, line in read_lines(args.infile)]
    decode_path = args.decode or f"{args.out}.decode.jsonl"
    tgt_lines = None
    if args.tgt_in:
        tgt_lines = [corpus.tokenize(line) for _, line in read_lines(args.tgt_in)]
        if len(src_lines) != len(tgt_lines):
            raise PipelineError("source/target line counts differ")
    tagged_src, tagged_tgt, decodes = [], [], []
    for k, src_tokens in enumerate(src_lines):
        if tgt_lines is None:
            ts, decode = netag.tag_source(src_tokens, table, args.src, args.tgt)
        else:
            ts, tt, decode = netag.tag_training_pair(
                src_tokens, tgt_lines[k], table, args.src, args.tgt
            )
            tagged_tgt.append(tt.text)
        tagged_src.append(ts.text)
        decodes.append(decode)
    atomic_write_lines(args.out, tagged_src)
    if args.tgt_out:
        atomic_write_lines(args.tgt_out, tagged_tgt)
    netag.write_decode_sidecar(decodes, decode_path)
    log.info("tag lines=%d decode=%s", len(src_lines), decode_path)
    return EXIT_OK


def _cmd_restore(args: argparse.Namespace) -> int:
    decodes = netag.read_decode_sidecar(args.decode)
    lines = [line for _, line in read_lines(args.infile)]
    if len(lines) != len(decodes):
        raise PipelineError(
            f"line count mismatch: {len(lines)} translations vs {len(decodes)} decode records"
        )
    restored = [
        " ".join(netag.restore_placeholders(line.split(), decode))
        for line, decode in zip(lines, decodes)
    ]
    atomic_write_lines(args.out, restored)
    return EXIT_OK


def _cmd_sample(args: argparse.Namespace) -> int:
    text_by_id: dict[str, str] = {}
    for lineno, (vid, text) in read_rows(args.infile, 2, "verse_id<TAB>text"):
        if vid in text_by_id:
            raise DuplicateVerseId(f"{args.infile}:{lineno}: duplicate verse id {vid!r}")
        text_by_id[vid] = text
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
    return EXIT_OK


def _cmd_gl_monitor(args: argparse.Namespace) -> int:
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
        fields = line.split("\t")
        try:
            epoch, score = int(fields[0]), float(fields[1])
            if len(fields) != 2 or not (math.isfinite(score) and score >= 0):
                raise ValueError(line)
        except (IndexError, ValueError):
            raise MalformedLine(
                f"<stdin>:{lineno}: expected `integer epoch<TAB>finite score >= 0`, got {line!r}"
            ) from None
        try:
            state, gl, decision = harness.gl_update(state, epoch, score)
        except PipelineError as exc:  # an epoch that does not follow the last
            raise type(exc)(f"<stdin>:{lineno}: {exc}") from None
        print(f"{fields[0]}\t{fields[1]}\t{gl:.4f}\t{decision}", flush=True)
        if decision == "stop":
            break
    return EXIT_OK


def _cmd_fit(args: argparse.Namespace) -> int:
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
    return EXIT_OK


def _cmd_bleu(args: argparse.Namespace) -> int:
    hyp_lines = [line for _, line in read_lines(args.hyp)]
    ref_lines = [corpus.tokenize(line) for _, line in read_lines(args.ref)]
    report = evaluation.corpus_bleu(hyp_lines, ref_lines, max_n=args.max_n)
    print(evaluation.format_bleu_summary(report))
    if args.report:
        evaluation.write_bleu_report(report, args.report)
    return EXIT_OK


def _cmd_rubric(args: argparse.Namespace) -> int:
    if args.infile:
        judgments = evaluation.read_judgments(args.infile)
        percentages = evaluation.aggregate_rubric(judgments)
        for category, pct in percentages.items():
            print(f"{category}\t{pct:.1f}")
        if args.out:
            atomic_write_lines(
                args.out, [f"{category}\t{pct:.1f}" for category, pct in percentages.items()]
            )
        return EXIT_OK
    if not (args.hyp and args.ref and args.decode and args.out):
        raise UsageError("rubric needs either --in, or --hyp/--ref/--decode/--out")
    decodes = netag.read_decode_sidecar(args.decode)
    hyp_lines = [line for _, line in read_lines(args.hyp)]
    ref_lines = [corpus.tokenize(line) for _, line in read_lines(args.ref)]
    if not (len(hyp_lines) == len(ref_lines) == len(decodes)):
        raise PipelineError("hyp/ref/decode line counts differ")
    judgments = [
        evaluation.judge_sentence(h, r, d) for h, r, d in zip(hyp_lines, ref_lines, decodes)
    ]
    evaluation.write_judgments(judgments, args.out)
    log.info("rubric judged=%d (meaning pending)", len(judgments))
    return EXIT_OK


def _cmd_emit_config(args: argparse.Namespace) -> int:
    config = harness.emit_trainer_config(args.profile)
    harness.write_trainer_config(config, args.out)
    log.info("emit-config profile=%s out=%s", args.profile, args.out)
    return EXIT_OK


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
    """The manifest's stages, once every field a run reads has its type."""
    if not isinstance(manifest, dict):
        raise MalformedLine(f"{where}: the top level must be a JSON object")
    stages = manifest.get("stages", [])
    if not isinstance(stages, list):
        raise MalformedLine(f"{where}: `stages` must be a list")
    names: set[str] = set()
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
    return stages


def _stage_fingerprint(stage: dict) -> str:
    payload = {
        "command": stage.get("command", []),
        "inputs": {name: _file_digest(Path(name)) for name in sorted(stage.get("inputs", []))},
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def _topological_stages(stages: list[dict]) -> list[dict]:
    """Stages in dependency order; among ready stages, the least name first."""
    producer_of = {output: stage["name"] for stage in stages for output in stage.get("outputs", [])}
    by_name = {stage["name"]: stage for stage in stages}
    sorter = graphlib.TopologicalSorter(
        {name: {producer_of.get(i, name) for i in stage.get("inputs", [])} - {name}
         for name, stage in by_name.items()}
    )
    try:
        sorter.prepare()
    except graphlib.CycleError as exc:
        raise CycleDetected(f"manifest stages form a cycle: {exc.args[1]}") from None
    ordered, ready = [], sorted(sorter.get_ready())  # a sorted list is a heap
    while ready:
        name = heapq.heappop(ready)
        ordered.append(by_name[name])
        sorter.done(name)
        for other in sorter.get_ready():
            heapq.heappush(ready, other)
    return ordered


def run_manifest(manifest_path: str | Path) -> int:
    """Run manifest stages in dependency order, skipping up-to-date ones."""
    manifest_path = Path(manifest_path)
    stages = _validated_stages(read_json(manifest_path), manifest_path)

    state_path = manifest_path.with_suffix(manifest_path.suffix + ".state.json")
    state = read_json(state_path) if state_path.exists() else {}
    if not isinstance(state, dict):
        raise MalformedLine(f"{state_path}: the top level must be a JSON object")

    for stage in _topological_stages(stages):
        fingerprint = _stage_fingerprint(stage)
        outputs = [Path(o) for o in stage.get("outputs", [])]
        if state.get(stage["name"]) == fingerprint and all(o.exists() for o in outputs):
            log.info("stage %s up to date, skipping", stage["name"])
            continue
        log.info("stage %s: %s", stage["name"], " ".join(stage.get("command", [])))
        try:
            status = dispatch(stage.get("command", []))
        except (PipelineError, UsageError) as exc:
            raise StageFailed(f"stage {stage['name']}: {exc}") from exc
        if status != EXIT_OK:
            raise StageFailed(f"stage {stage['name']} exited with status {status}")
        missing = [str(o) for o in outputs if not o.exists()]
        if missing:
            raise StageFailed(
                f"stage {stage['name']} did not write declared output(s): {', '.join(missing)}"
            )
        state[stage["name"]] = fingerprint
        atomic_write_text(state_path, json.dumps(state, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    return run_manifest(args.manifest)


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


# Built by the first dispatch and reused by the rest: a manifest run parses
# one command line per stage, and parse_args keeps no state between calls.
_parser: _Parser | None = None


def dispatch(argv: Sequence[str]) -> int:
    """Parse argv and execute exactly one pipeline stage."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(list(argv))
    if not getattr(args, "command", None):
        raise UsageError("a subcommand is required (see --help)")
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        raise PipelineError(f"missing file: {exc.filename or exc}") from exc
    except ValueError as exc:
        # Out-of-range flag values land here (e.g. a nan --tension).
        raise PipelineError(str(exc)) from exc


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
