"""Subcommand front end wiring the pipeline stages, plus manifest-driven runs."""

from __future__ import annotations

import argparse
import errno
import logging
import math
import sys
from itertools import chain
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

from . import alignment, corpus, evaluation, harness, labeling, lexicon, netag, subword
from .errors import EmptyBitext, EmptyCorpus, EmptySplit, MalformedLine, MissingFrequency
from .errors import PipelineError, ReservedToken, UnknownLanguage, UnknownVerse, UsageError, located
from .fileio import atomic_write_lines, atomic_write_text, read_lines, read_parallel_lines
from .fileio import read_rows, read_word_list
from .manifest import _nested, _path_parts, run_manifest

log = logging.getLogger("versemt")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _parse_ratios(text: str) -> tuple[float, float, float]:
    if len(parts := text.split(",")) != 3:
        raise UsageError(f"--ratios expects three comma-separated fractions, got {text!r}")
    try:
        return tuple(float(p) for p in parts)  # type: ignore[return-value]
    except ValueError as exc:
        raise UsageError(f"bad ratio in {text!r}: {exc}") from exc


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


def _decode_path(args: argparse.Namespace) -> str:
    return args.decode or f"{args.out}.decode.jsonl"


def _overlapping(*paths: str | None) -> bool:
    """Whether one of the paths given, absent ones aside, is at, inside or above another."""
    parts = [_path_parts(path) for path in paths if path]
    return any(_nested(a, b) for i, a in enumerate(parts) for b in parts[:i])


# ---------------------------------------------------------------------------
# Stage handlers.
# ---------------------------------------------------------------------------


def _cmd_ingest(args: argparse.Namespace) -> None:
    lang = corpus.get_language(args.lang).code
    verse_map = corpus.ingest_language_file(args.infile, lang)
    corpus.write_language_file(sorted(verse_map.items()), Path(args.out) / f"{lang}.tsv")
    log.info("ingest lang=%s records=%d out=%s", lang, len(verse_map), args.out)


def _cmd_align(args: argparse.Namespace) -> None:
    aligned = corpus.read_corpus_dir(args.infile)
    corpus.write_corpus_dir(aligned, args.out)
    if args.stats:
        corpus.write_stats_report(aligned, args.stats)
    log.info("align verses=%d languages=%s", len(aligned), ",".join(aligned.languages))


def _cmd_split(args: argparse.Namespace) -> None:
    parallel = corpus.read_corpus_dir(args.corpus)
    assignment = corpus.split_corpus(parallel, args.ratios, args.seed)
    corpus.write_split(assignment, args.out)
    log.info("split seed=%d sizes=%d/%d/%d", args.seed, *map(len, assignment))


def _cmd_label(args: argparse.Namespace) -> None:
    if args.langs:  # one step, written to the prefix itself
        steps = [(None, args.langs.split(","))]
    else:
        steps = labeling.read_schedule_steps(args.schedule)
    parallel = corpus.read_corpus_dir(args.corpus)
    split = corpus.read_split(args.split)
    with located(args.split, (EmptySplit, UnknownVerse)):
        texts = labeling.train_texts((c for _, langs in steps for c in langs), parallel, split)
    for step, langs in steps:
        prefix = args.out_prefix if step is None else f"{args.out_prefix}.step{step}"
        examples = labeling.expand_multiway_pairs(langs, texts, args.mode)
        count = labeling.write_labeled_bitext(examples, f"{prefix}.src", f"{prefix}.tgt")
        if step is None:
            log.info("label pairs=%s lines=%d", args.langs, count)
        else:
            log.info("label step=%d langs=%d lines=%d", step, len(langs), count)


def _cmd_schedule(args: argparse.Namespace) -> None:
    mode = labeling.ScheduleMode(args.mode)
    steps = labeling.build_addition_schedule(args.anchor, mode, args.seed)
    labeling.write_schedule(steps, args.out)
    log.info("schedule anchor=%s mode=%s steps=%d", args.anchor, args.mode, len(steps))


def _cmd_bpe_learn(args: argparse.Namespace) -> None:
    reserved = set(read_word_list(args.reserved)) if args.reserved else set()
    tokens = chain.from_iterable(line.split() for _, line in read_lines(args.infile))
    with located(args.infile, (EmptyCorpus, MalformedLine)):
        model = subword.learn_bpe(tokens, args.merges, reserved, vocab_side=args.side)
    subword.save_model(model, args.out)
    log.info("bpe-learn side=%s merges=%d", args.side, len(model.merges))


def _cmd_bpe_apply(args: argparse.Namespace) -> None:
    model = subword.load_model(args.model)
    out_lines = [
        " ".join(subword.apply_bpe(model, line.split())) for _, line in read_lines(args.infile)
    ]
    atomic_write_lines(args.out, out_lines)


def _cmd_bpe_revert(args: argparse.Namespace) -> None:
    out_lines = []
    for lineno, line in read_lines(args.infile):
        with located(f"{args.infile}:{lineno}"):
            out_lines.append(" ".join(subword.revert_bpe(line.split())))
    atomic_write_lines(args.out, out_lines)


def _cmd_align_train(args: argparse.Namespace) -> None:
    src_lines, tgt_lines = read_parallel_lines(args.src, args.tgt)
    bitext = [(corpus.tokenize(s), corpus.tokenize(t)) for s, t in zip(src_lines, tgt_lines)]
    params = alignment.DiagonalParams(tension=args.tension, null_prob=args.null_prob)
    with located(f"{args.src}, {args.tgt}", (EmptyBitext, ReservedToken)):
        table = alignment.train_em(bitext, args.iterations, params)
    alignment.save_table(table, args.out)
    log.info(
        "align-train pairs=%d iterations=%d ll=%s",
        len(bitext),
        args.iterations,
        ",".join(f"{ll:.1f}" for ll in table.log_likelihood_history),
    )


def _cmd_lex_filter(args: argparse.Namespace) -> None:
    stoplist = read_word_list(args.stoplist) if args.stoplist else []
    with located(args.infile):
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
    with located(args.corpus, ReservedToken):
        table = lexicon.assemble_table(seed_list, parallel, aligners, min_votes=args.min_votes)
    lexicon.save_lexicon(table, args.out, args.freq_out)
    log.info("lex-build entries=%d languages=%d", len(table), len(table.languages))


def _cmd_lex_trim(args: argparse.Namespace) -> None:
    table = lexicon.load_lexicon(args.infile, args.freq)
    parallel = corpus.read_corpus_dir(args.corpus) if args.corpus else None
    with located(args.freq, MissingFrequency):
        trimmed = lexicon.trim_table(table, args.policy, parallel, args.manual_file)
    lexicon.save_lexicon(trimmed, args.out, args.freq_out)
    log.info("lex-trim policy=%s kept=%d/%d", args.policy, len(trimmed), len(table))


def _cmd_tag(args: argparse.Namespace) -> None:
    src_lang, tgt_lang = corpus.get_language(args.src).code, corpus.get_language(args.tgt).code
    table = lexicon.load_lexicon(args.lexicon)
    for lang in (src_lang, tgt_lang):
        if lang not in table.languages:  # checked before any line, so also on an empty input
            raise UnknownLanguage(f"language {lang!r} not in lexicon table")
    files = read_parallel_lines(args.infile, *([args.tgt_in] if args.tgt_in else []))
    decode_path = _decode_path(args)
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
    restored = []
    for lineno, (line, decode) in enumerate(zip(lines, decodes), start=1):
        with located(f"{args.infile}:{lineno}"):
            restored.append(" ".join(netag.restore_placeholders(line.split(), decode)))
    atomic_write_lines(args.out, restored)


def _cmd_sample(args: argparse.Namespace) -> None:
    text_by_id = corpus.read_verse_file(args.infile)
    with located(args.infile):  # --total defaults to the size of --in
        plan = harness.AblationPlan(args.fraction, args.seed, args.total or len(text_by_id))
        result = harness.sample_low_resource(list(text_by_id.items()), plan)
    corpus.write_language_file(((vid, text_by_id[vid]) for vid in result.ids), args.out)
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
    for lineno, line in read_lines(args.infile):
        if not (line := line.strip()):
            continue
        try:
            epoch, score = line.split("\t")
            with located(f"{args.infile}:{lineno}"):  # an epoch that does not follow the last
                state, gl, decision = harness.gl_update(state, int(epoch), float(score))
        except ValueError:  # a field count, a number, or gl_update's BadParameter
            raise MalformedLine(f"{args.infile}:{lineno}: expected "
                                f"`integer epoch<TAB>finite score >= 0`, got {line!r}") from None
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
    with located(args.infile):
        fit = harness.fit_power_law(points)
    line = f"slope\t{fit.slope:.9f}\nintercept\t{fit.intercept:.9f}\nr_squared\t{fit.r_squared:.9f}"
    print(line)
    if args.out:
        atomic_write_text(args.out, line + "\n")


def _cmd_bleu(args: argparse.Namespace) -> None:
    hyp_lines, ref_lines = read_parallel_lines(args.hyp, args.ref)
    refs = [corpus.tokenize(line) for line in ref_lines]
    with located(f"{args.hyp}, {args.ref}", EmptyCorpus):
        report = evaluation.corpus_bleu(hyp_lines, refs, max_n=args.max_n)
    print(evaluation.format_bleu_summary(report))
    if args.report:
        evaluation.write_bleu_report(report, args.report)


def _cmd_rubric(args: argparse.Namespace) -> None:
    if args.infile:
        with located(args.infile):
            percentages = evaluation.aggregate_rubric(evaluation.read_judgments(args.infile))
        lines = [f"{category}\t{pct:.1f}" for category, pct in percentages.items()]
        print("\n".join(lines))
        if args.out:
            atomic_write_lines(args.out, lines)
        return
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


def _cmd_run(args: argparse.Namespace) -> None:
    # dispatch is looked up now, so a replaced dispatch runs the stages.
    run_manifest(args.manifest, dispatch, _parse)


# ---------------------------------------------------------------------------
# Parser assembly and dispatch.
# ---------------------------------------------------------------------------


def _flag(
    name: str, check: Callable | None = None, **spec: object
) -> tuple[str, dict, Callable | None]:
    """A flag's name, its argparse spec, and a check of its value run after the parse."""
    return name, spec, check


# Flags that several subcommands take.
_IN = _flag("--in", dest="infile", required=True)
_OUT = _flag("--out", required=True)
_SEED = _flag("--seed", type=int, default=0)
_CORPUS = _flag("--corpus", required=True)
_FREQ_OUT = _flag("--freq-out")
_APART = "must be separate paths, not one inside another"
_FREQ_OUT_APART = (lambda a: _overlapping(a.out, a.freq_out), f"--out and --freq-out {_APART}")

# Every subcommand in --help order: name, help, handler, flags, then its rules: a (broken,
# message) pair is a usage error, and a callable is a layer's own check of several flags.
_SUBCOMMANDS = (
    ("ingest", "normalize one language file into a corpus directory", _cmd_ingest,
     [_flag("--lang", corpus.get_language, required=True), _IN, _OUT]),
    ("align", "intersect per-language files on shared verse ids", _cmd_align,
     [_IN, _OUT, _flag("--stats", help="optional stats TSV report")],
     (lambda a: _overlapping(a.out, a.stats), f"--out and --stats {_APART}")),
    ("split", "deterministic train/val/test split", _cmd_split,
     [_CORPUS, _flag("--ratios", corpus.check_ratios, type=_parse_ratios,
                     default="0.75,0.15,0.10"), _SEED, _OUT]),
    ("label", "emit labeled multiway bitext", _cmd_label,
     [_CORPUS, _flag("--split", required=True),
      _flag("--mode", type=_label_mode, default="language-plus-family"),
      _flag("--langs", lambda text: [*map(corpus.get_language, text.split(","))],
            help="comma-separated language codes"),
      _flag("--schedule", help="schedule TSV (one bitext per step)"),
      _flag("--out-prefix", required=True)],
     (lambda a: bool(a.langs) == bool(a.schedule),
      "exactly one of --langs / --schedule is required")),
    ("schedule", "build a family/sparse addition schedule", _cmd_schedule,
     [_flag("--anchor", corpus.get_language, required=True),
      _flag("--mode", choices=["family-addition", "sparse-addition"], required=True),
      _SEED, _OUT]),
    ("bpe-learn", "learn a BPE model from tokenized text", _cmd_bpe_learn,
     [_IN, _flag("--merges", subword.check_merges, type=int, default=subword.DEFAULT_NUM_MERGES),
      _flag("--side", choices=["source", "target"], default="source"),
      _flag("--reserved", help="file of reserved tokens, one per line"), _OUT]),
    ("bpe-apply", "apply a BPE model to tokenized text", _cmd_bpe_apply,
     [_flag("--model", required=True), _IN, _OUT]),
    ("bpe-revert", "join BPE pieces back into tokens", _cmd_bpe_revert, [_IN, _OUT]),
    ("align-train", "train a lexical translation table by EM", _cmd_align_train,
     [_flag("--src", required=True), _flag("--tgt", required=True),
      _flag("--iterations", alignment.check_iterations, type=int, default=5),
      _flag("--tension", lambda v: alignment.DiagonalParams(tension=v), type=float,
            default=alignment.DEFAULT_TENSION),
      _flag("--null-prob", lambda v: alignment.DiagonalParams(null_prob=v), type=float,
            default=alignment.DEFAULT_NULL_PROB), _OUT]),
    ("lex-filter", "clean a raw named-entity candidate list", _cmd_lex_filter,
     [_IN, _flag("--stoplist"), _OUT]),
    ("lex-build", "project a seed list into a parallel lexicon table", _cmd_lex_build,
     [_flag("--seed-list", required=True), _CORPUS,
      _flag("--aligners", required=True, help="directory of <lang>.tsv tables"),
      _flag("--min-votes", lexicon.check_min_votes, type=int, default=lexicon.DEFAULT_MIN_VOTES),
      _OUT, _FREQ_OUT],
     _FREQ_OUT_APART),
    ("lex-trim", "trim a lexicon table by policy", _cmd_lex_trim,
     [_IN, _flag("--freq"),
      _flag("--policy", choices=["none", "frequency-equals-one", "manual-selection"],
            default="none"),
      _flag("--manual-file"), _flag("--corpus"), _OUT, _FREQ_OUT],
     (lambda a: (a.policy == "manual-selection") != bool(a.manual_file),
      "--manual-file goes with policy manual-selection, and only with it"),
     (lambda a: a.policy == "frequency-equals-one" and not (a.corpus or a.freq),
      "policy frequency-equals-one needs --corpus or --freq"),
     (lambda a: a.corpus and a.policy != "frequency-equals-one",
      "--corpus goes with policy frequency-equals-one only"),
     _FREQ_OUT_APART),
    ("tag", "replace named entities with ordered placeholders", _cmd_tag,
     [_flag("--lexicon", required=True),
      _flag("--src", corpus.get_language, required=True, help="source language code"),
      _flag("--tgt", corpus.get_language, required=True, help="target language code"), _IN, _OUT,
      _flag("--tgt-in", help="target side for training-pair tagging"), _flag("--tgt-out"),
      _flag("--decode", help="decode sidecar path (default <out>.decode.jsonl)")],
     (lambda a: bool(a.tgt_in) != bool(a.tgt_out), "--tgt-in and --tgt-out must be given together"),
     (lambda a: _overlapping(a.out, a.tgt_out, _decode_path(a)),
      f"--out, --tgt-out and the decode sidecar {_APART}")),
    ("restore", "replace placeholders using a decode sidecar", _cmd_restore,
     [_IN, _flag("--decode", required=True), _OUT]),
    ("sample", "ablation-sample low-resource verses with duplication", _cmd_sample,
     [_IN, _flag("--fraction", harness.check_fraction, type=float, required=True), _SEED,
      _flag("--total", type=int), _OUT, _flag("--manifest")],
     (lambda a: _overlapping(a.out, a.manifest), f"--out and --manifest {_APART}"),
     lambda a: a.total is None or harness.AblationPlan(a.fraction, a.seed, a.total)),
    ("gl-monitor", "early-stopping monitor over `epoch<TAB>score` lines", _cmd_gl_monitor,
     [_IN, _flag("--alpha", lambda v: harness.GlState(alpha=v), type=float,
                 default=harness.DEFAULT_GL_ALPHA)]),
    ("fit", "fit score against log10 word count", _cmd_fit, [_IN, _flag("--out")]),
    ("bleu", "corpus BLEU of hypothesis vs reference file", _cmd_bleu,
     [_flag("--hyp", required=True), _flag("--ref", required=True),
      _flag("--max-n", evaluation.check_max_n, type=int, default=evaluation.DEFAULT_MAX_N),
      _flag("--report")]),
    ("rubric", "judge sentences or aggregate a judgments file", _cmd_rubric,
     [_flag("--in", dest="infile", help="judgments JSONL to aggregate"), _flag("--hyp"),
      _flag("--ref"), _flag("--decode"), _flag("--out")],
     (lambda a: a.infile and (a.hyp or a.ref or a.decode)
      or not a.infile and not (a.hyp and a.ref and a.decode and a.out),
      "rubric needs either --in and an optional --out, or all of --hyp/--ref/--decode/--out")),
    ("emit-config", "write trainer hyperparameters for a profile", _cmd_emit_config,
     [_flag("--profile", harness.check_profile, required=True), _OUT]),
    ("run", "run a pipeline manifest", _cmd_run, [_flag("--manifest", required=True)]),
)
_RULES = {name: rules for name, _summary, _handler, _flags, *rules in _SUBCOMMANDS}
_CHECKS = {name: [(spec.get("dest", flag[2:].replace("-", "_")), check)
                  for flag, spec, check in flags if check]
           for name, _summary, _handler, flags, *_rules in _SUBCOMMANDS}


def build_parser() -> _Parser:
    parser = _Parser(prog="versemt", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", metavar="subcommand")
    for name, summary, handler, flags, *_rules in _SUBCOMMANDS:
        sub = subparsers.add_parser(name, help=summary)
        for flag, spec, _check in flags:
            sub.add_argument(flag, **spec)
        sub.set_defaults(func=handler)
    return parser


# Built at import, as every entry point parses first; parse_args keeps no state between calls.
_PARSER = build_parser()

# A path that is missing, a directory (`.` is busy), below a file or too long:
# bad input, not a bug.
_PATH_ERRNOS = {
    errno.ENOENT, errno.EISDIR, errno.EBUSY, errno.ENOTDIR, errno.EEXIST, errno.ENAMETOOLONG
}


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    args = _PARSER.parse_args(list(argv))
    if not getattr(args, "command", None):
        raise UsageError("a subcommand is required (see --help)")
    for rule in _RULES[args.command]:
        if callable(rule):  # raises the layer's data error
            rule(args)
        elif rule[0](args):
            raise UsageError(rule[1])
    for dest, check in _CHECKS[args.command]:  # a bad value is a data error, as in the layer
        if getattr(args, dest) is not None:
            check(getattr(args, dest))
    return args


def dispatch(argv: Sequence[str]) -> int:
    """Parse argv and execute exactly one pipeline stage."""
    args = _parse(argv)
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
