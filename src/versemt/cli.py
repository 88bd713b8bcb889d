"""Subcommand front end wiring the pipeline stages, plus manifest-driven runs."""

from __future__ import annotations

import argparse
import errno
import logging
import math
import os
import sys
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from . import alignment, corpus, evaluation, harness, labeling, lexicon, netag, subword
from .errors import EmptyBitext, EmptyCorpus, EmptySplit, MalformedLine, PipelineError
from .errors import UnknownLanguage, UnknownVerse, UsageError, located
from .fileio import atomic_write_lines, atomic_write_text, read_lines, read_parallel_lines
from .fileio import read_rows, read_word_list
from .manifest import _fork_join_map, run_manifest

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
    ratios = _parse_ratios(args.ratios)
    seed = _default_seed(args.seed)
    assignment = corpus.split_corpus(parallel, ratios, seed)
    corpus.write_split(assignment, args.out)
    log.info("split seed=%d sizes=%d/%d/%d", seed, *map(len, assignment))


def _cmd_label(args: argparse.Namespace) -> None:
    if bool(args.langs) == bool(args.schedule):
        raise UsageError("exactly one of --langs / --schedule is required")
    mode = _label_mode(args.mode)
    if args.langs:  # one step, written to the prefix itself
        steps = [(None, args.langs.split(","))]
    else:
        steps = labeling.read_schedule_steps(args.schedule)
    parallel = corpus.read_corpus_dir(args.corpus)
    split = corpus.read_split(args.split)
    with located(args.split, (EmptySplit, UnknownVerse)):
        texts = labeling.TrainTexts((c for _, langs in steps for c in langs), parallel, split)
    for step, langs in steps:
        prefix = args.out_prefix if step is None else f"{args.out_prefix}.step{step}"
        examples = labeling.expand_multiway_pairs(langs, texts, mode)
        count = labeling.write_labeled_bitext(examples, f"{prefix}.src", f"{prefix}.tgt")
        if step is None:
            log.info("label pairs=%s lines=%d", args.langs, count)
        else:
            log.info("label step=%d langs=%d lines=%d", step, len(langs), count)


def _cmd_schedule(args: argparse.Namespace) -> None:
    mode = labeling.ScheduleMode(args.mode)
    schedule = labeling.build_addition_schedule(args.anchor, mode, _default_seed(args.seed))
    labeling.write_schedule(schedule, args.out)
    log.info("schedule anchor=%s mode=%s steps=%d", args.anchor, args.mode, len(schedule.steps))


def _cmd_bpe_learn(args: argparse.Namespace) -> None:
    reserved = set(read_word_list(args.reserved)) if args.reserved else set()
    tokens = (token for _, line in read_lines(args.infile) for token in line.split())
    with located(args.infile, EmptyCorpus):
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
    with located(f"{args.src}, {args.tgt}", EmptyBitext):
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
    restored = []
    for lineno, (line, decode) in enumerate(zip(lines, decodes), start=1):
        with located(f"{args.infile}:{lineno}"):
            restored.append(" ".join(netag.restore_placeholders(line.split(), decode)))
    atomic_write_lines(args.out, restored)


def _cmd_sample(args: argparse.Namespace) -> None:
    text_by_id = corpus.read_verse_file(args.infile)
    total = args.total if args.total is not None else len(text_by_id)
    plan = harness.AblationPlan(fraction=args.fraction, seed=_default_seed(args.seed), total=total)
    with located(args.infile):
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
            with located(f"<stdin>:{lineno}"):  # an epoch that does not follow the last
                state, gl, decision = harness.gl_update(state, int(epoch), float(score))
        except ValueError:  # a field count, a number, or gl_update's BadParameter
            raise MalformedLine(
                f"<stdin>:{lineno}: expected `integer epoch<TAB>finite score >= 0`, got {line!r}"
            ) from None
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


def _cmd_run(args: argparse.Namespace) -> None:
    run_manifest(args.manifest, dispatch)  # looked up now, so a replaced dispatch runs the stages


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

    p = sub.add_parser("bpe-revert", help="join BPE pieces back into tokens")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bpe_revert)

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
