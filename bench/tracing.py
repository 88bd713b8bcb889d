"""Layer spans for the traced benchmark run.

Run as a script, this executes one pipeline manifest through ``versemt.cli``
with wrappers installed on each layer's public functions, then writes the
spans it recorded to a JSON file:

    PYTHONPATH=src python3 bench/tracing.py --manifest pipeline.json \\
        --spans spans.json --run-id multiway-label-1-0

A wrapper replaces the function at every ``versemt`` module attribute that
holds it, so calls through an import (``versemt.lexicon.viterbi_align``) are
traced as well as calls through the defining module. Spans stay in memory
until the run ends. Each span is ``[name, start, end, parent]``; ``parent``
is the index of the enclosing span (-1 for the root) and every span in a
file belongs to the file's ``run_id``.

Imported, it turns a spans file into per-layer self times and counts.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import os
import sys
from collections import defaultdict
from time import perf_counter

# Traced function -> the per-layer metric its self time is added to. Public
# functions left out (registry lookups, schedules, trainer configs) are cheap
# and their time stays in the enclosing ``cli`` stage.
LAYER_OF = {
    "corpus.ingest_language_file": "corpus.read_s",
    "corpus.read_corpus_dir": "corpus.read_s",
    "corpus.intersect_alignment": "corpus.read_s",
    "corpus.read_split": "corpus.read_s",
    "corpus.write_language_file": "corpus.write_s",
    "corpus.write_corpus_dir": "corpus.write_s",
    "corpus.write_split": "corpus.write_s",
    "corpus.write_stats_report": "corpus.write_s",
    "corpus.split_corpus": "corpus.split_s",
    "labeling.expand_multiway_pairs": "labeling.expand_s",
    "labeling.write_labeled_bitext": "labeling.write_s",
    "subword.learn_bpe": "subword.learn_s",
    "subword.save_model": "subword.learn_s",
    "subword.load_model": "subword.apply_s",
    "subword.apply_bpe": "subword.apply_s",
    "harness.sample_low_resource": "harness.sample_s",
    "harness.write_ablation_manifest": "harness.sample_s",
    "alignment.train_em": "alignment.train_em_s",
    "alignment.viterbi_align": "alignment.viterbi_s",
    "alignment.save_table": "alignment.table_io_s",
    "alignment.load_table": "alignment.table_io_s",
    "lexicon.assemble_table": "lexicon.assemble_s",
    "lexicon.filter_seed_list": "lexicon.trim_s",
    "lexicon.trim_table": "lexicon.trim_s",
    "lexicon.save_lexicon": "lexicon.io_s",
    "lexicon.load_lexicon": "lexicon.io_s",
    "lexicon.lookup_rows": "lexicon.lookup_s",
    "netag.tag_source": "netag.tag_s",
    "netag.tag_training_pair": "netag.tag_s",
    "netag.restore_placeholders": "netag.restore_s",
    "netag.write_decode_sidecar": "netag.sidecar_io_s",
    "netag.read_decode_sidecar": "netag.sidecar_io_s",
    "evaluation.corpus_bleu": "evaluation.bleu_s",
    "evaluation.write_bleu_report": "evaluation.bleu_s",
    "evaluation.judge_sentence": "evaluation.judge_s",
    "evaluation.write_judgments": "evaluation.judge_s",
    "fileio.atomic_write_text": "fileio.write_s",
    "fileio.atomic_write_lines": "fileio.write_s",
}

# Stage subcommands a manifest of this benchmark can run, one
# ``cli.stage_s.<stage>`` metric each.
STAGES = (
    "ingest", "align", "split", "schedule", "label", "sample", "bpe-learn", "bpe-apply",
    "align-train", "lex-filter", "lex-build", "lex-trim", "tag", "restore", "bleu", "rubric",
)

ROOT_SPAN = "cli.main"
RUN_SPAN = "cli.stage:run"
STAGE_PREFIX = "cli.stage:"
TAG_SPANS = ("netag.tag_source", "netag.tag_training_pair")


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(sid)
        self.spans[sid][1] = perf_counter()
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = perf_counter()
        self.stack.pop()

    def call(self, name: str, fn, args, kwargs):
        sid = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(sid)

    def dump(self, path: str) -> None:
        doc = {"run_id": self.run_id, "spans": self.spans, "counts": self.counts}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def _count_hooks(tracer: Tracer) -> dict:
    """Per traced function: a hook that records counts from its call and result."""
    from versemt.alignment import train_em

    counts = tracer.counts

    def em(args, kwargs, table):
        bound = inspect.signature(train_em).bind(*args, **kwargs).arguments
        cells = sum(len(src) * len(tgt) for src, tgt in bound["bitext"])
        counts["alignment.em_cells"] += cells * bound["iterations"]
        if table.log_likelihood_history:
            counts["alignment.final_ll"] += table.log_likelihood_history[-1]

    def lookup(args, kwargs, rows):
        counts["lexicon.lookup_calls"] += 1
        counts["netag.lexicon_matches"] += len(rows)

    def tagged(args, kwargs, result):
        counts["netag.placeholders"] += result[0].placeholder_count

    def add(name, measure):
        def hook(args, kwargs, result):
            counts[name] += measure(result)
        return hook

    return {
        "corpus.ingest_language_file": add("corpus.verses", len),
        "corpus.tokenize": add("corpus.tokens", len),
        "labeling.write_labeled_bitext": add("labeling.lines", int),
        "subword.learn_bpe": add("subword.merges", lambda model: len(model.merges)),
        "subword.apply_bpe": add("subword.apply_tokens", len),
        "alignment.train_em": em,
        "alignment.viterbi_align": add("alignment.viterbi_calls", lambda links: 1),
        "lexicon.lookup_rows": lookup,
        "netag.tag_source": tagged,
        "netag.tag_training_pair": tagged,
        "fileio.atomic_write_text": add("fileio.bytes_written", os.path.getsize),
    }


def _no_count(args, kwargs, result) -> None:
    pass


def _wrap(tracer: Tracer, name: str, fn, hook=_no_count):
    if inspect.isgeneratorfunction(fn):
        # One span per item, so the time spent producing items is charged
        # to the generator and not to the loop that consumes it.
        @functools.wraps(fn)
        def generator_wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                sid = tracer.open(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    tracer.close(sid)
                yield item

        return generator_wrapper

    if name == "corpus.tokenize":
        # Called once per line by several layers: counted, not spanned, so
        # its time stays with the layer that asked for the tokens.
        @functools.wraps(fn)
        def counting_wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(args, kwargs, result)
            return result

        return counting_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        hook(args, kwargs, result)
        return result

    return wrapper


def _wrap_dispatch(tracer: Tracer, fn):
    @functools.wraps(fn)
    def dispatch(argv):
        argv = list(argv)
        return tracer.call(STAGE_PREFIX + (argv[0] if argv else "?"), fn, (argv,), {})

    return dispatch


def install(tracer: Tracer) -> None:
    """Replace every traced function at every versemt attribute that holds it."""
    import versemt.cli  # noqa: F401  (imports every layer)

    hooks = _count_hooks(tracer)
    wrappers = {}  # id(original) -> (original, wrapper)
    for qualified in [*LAYER_OF, "corpus.tokenize"]:
        module_name, attr = qualified.split(".")
        original = getattr(sys.modules[f"versemt.{module_name}"], attr)
        wrapper = _wrap(tracer, qualified, original, hooks.get(qualified, _no_count))
        wrappers[id(original)] = (original, wrapper)
    dispatch = sys.modules["versemt.cli"].dispatch
    wrappers[id(dispatch)] = (dispatch, _wrap_dispatch(tracer, dispatch))
    for name, module in list(sys.modules.items()):
        if name != "versemt" and not name.startswith("versemt."):
            continue
        for attr, value in list(vars(module).items()):
            original, wrapper = wrappers.get(id(value), (None, None))
            if original is value:
                setattr(module, attr, wrapper)


def layer_metrics(doc: dict) -> dict[str, float]:
    """Self time per layer metric, per-stage times and counts of one traced run.

    A span's self time is its duration minus its children's durations (spans
    of one thread nest, so children never overlap). Every span's self time
    lands in exactly one metric, so the layer metrics, ``cli.handler_s`` and
    ``cli.runner_s`` add up to ``trace.total_s``.
    """
    spans = doc["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {metric: 0.0 for metric in LAYER_OF.values()}
    out.update({f"cli.stage_s.{stage}": 0.0 for stage in STAGES})
    out["cli.handler_s"] = out["cli.runner_s"] = 0.0
    tag_ms = []
    total = None
    for (name, start, end, parent), children in zip(spans, child_time):
        duration = end - start
        self_time = duration - children
        if name == ROOT_SPAN:
            total = duration
            out["cli.runner_s"] += self_time
        elif name == RUN_SPAN:
            out["cli.runner_s"] += self_time
        elif name.startswith(STAGE_PREFIX):
            out["cli.handler_s"] += self_time
            out[f"cli.stage_s.{name[len(STAGE_PREFIX):]}"] += duration
        else:
            out[LAYER_OF[name]] += self_time
        if name in TAG_SPANS:
            tag_ms.append(duration * 1000.0)
    if total is None:
        raise ValueError(f"run {doc['run_id']}: no {ROOT_SPAN} span")
    self_metrics = {*LAYER_OF.values(), "cli.handler_s", "cli.runner_s"}
    accounted = sum(out[metric] for metric in self_metrics)
    if abs(accounted - total) > 1e-6:
        raise ValueError(f"run {doc['run_id']}: self times add up to {accounted}, not {total}")
    counts = doc["counts"]
    for name in ("corpus.verses", "corpus.tokens", "labeling.lines", "subword.merges",
                 "subword.apply_tokens", "alignment.em_cells", "alignment.viterbi_calls",
                 "alignment.final_ll", "lexicon.lookup_calls", "fileio.bytes_written"):
        out[name] = counts.get(name, 0)
    matches = counts.get("netag.lexicon_matches", 0)
    out["netag.tagged_ratio"] = counts.get("netag.placeholders", 0) / matches if matches else 0.0
    tag_ms.sort()
    out["netag.tag_line_p50_ms"] = nearest_rank(tag_ms, 0.50)
    out["netag.tag_line_p99_ms"] = nearest_rank(tag_ms, 0.99)
    out["trace.total_s"] = total
    return out


def is_time(metric: str) -> bool:
    return metric.endswith(("_s", "_ms")) or metric.startswith("cli.stage_s.")


def nearest_rank(ordered: list[float], q: float) -> float:
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--run-id", required=True)
    args = parser.parse_args()
    import versemt.cli

    tracer = Tracer(args.run_id)
    install(tracer)
    sid = tracer.open(ROOT_SPAN)
    try:
        status = versemt.cli.main(["run", "--manifest", args.manifest])
    finally:
        tracer.close(sid)
        tracer.dump(args.spans)
    return status


if __name__ == "__main__":
    sys.exit(main())
