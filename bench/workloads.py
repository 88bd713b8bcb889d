"""The three benchmark workloads: inputs, manifest, and output checks.

Each workload writes its generated inputs and a ``pipeline.json`` into a
directory (``prepare``) and later checks a finished run of that manifest
against what the generator knows (``check``). A check failure names the
manifest stage whose output is wrong.

- ``multiway-label``: all 23 languages through ingest, align, split,
  schedule, label --schedule, sample and BPE. Stresses corpus reads,
  label expansion, file writes and BPE; no alignment, lexicon or netag code.
- ``ne-lexicon``: English plus three languages of other families through
  EM alignment, lex-filter, lex-build and lex-trim: the write path of the
  lexicon. No labeling or subword code.
- ``tag-eval``: a generated lexicon read by tag, tag --tgt-in, restore, bleu
  and rubric: the read path of the lexicon, netag and evaluation. No EM.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from synth import (
    FAMILIES,
    FAMILY_OF,
    LANGUAGES,
    build_corpus,
    make_entities,
    make_vocabulary,
    registry_sorted,
    rng_for,
    verse_concepts,
    write_lines,
    write_raw_files,
    zipf_cum_weights,
)

# Input sizes per workload. "full" is what the benchmark measures; "tiny"
# keeps the self-check to a few seconds.
SIZES = {
    "full": {
        "multiway-label": {"verses": 120, "train_ratio": 0.1, "merges": 2000},
        "ne-lexicon": {"verses": 300, "entities": 120, "singletons": 24, "absent": 20},
        "tag-eval": {"entries": 2000, "test_lines": 600, "train_lines": 600},
    },
    "tiny": {
        "multiway-label": {"verses": 30, "train_ratio": 0.1, "merges": 200},
        "ne-lexicon": {"verses": 80, "entities": 16, "singletons": 4, "absent": 3},
        "tag-eval": {"entries": 60, "test_lines": 40, "train_lines": 40},
    },
}

MULTIWAY_ANCHOR = "sw"
NE_TARGETS = ("ru", "fr", "fn")  # slavic, romance, uralic: none shares English's family
TAG_TEST_TGT = "fr"
TAG_TRAIN_TGT = "ru"
EM_ITERATIONS = 5
TAG_VOCAB = 1500

# Floors on lex-build against the planted entities. Seeds measured while the
# benchmark was written stay well above them; see README.md.
RECALL_FLOOR = 0.85
PRECISION_FLOOR = 0.95


# Behaviour values a workload reads from its outputs for the traced run;
# a workload without such an output reports 0.
VALUE_METRICS = ("lexicon.entries", "lexicon.coverage", "lexicon.recall", "evaluation.bleu_score")


@dataclass
class Prepared:
    """What ``prepare`` wrote, and what the checks compare the outputs with."""

    stages: list[dict]
    sizes: dict[str, int]
    truth: dict = field(default_factory=dict)


def _stage(name: str, command: list[str], inputs: list[str], outputs: list[str]) -> dict:
    return {"name": name, "command": command, "inputs": inputs, "outputs": outputs}


def _write_manifest(directory: Path, stages: list[dict]) -> None:
    text = json.dumps({"stages": stages}, indent=2) + "\n"
    (directory / "pipeline.json").write_text(text, encoding="utf-8")


def _read(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def _tokens(texts) -> int:
    return sum(len(text.split()) for text in texts)


def _corpus_stages(langs: list[str]) -> list[dict]:
    """ingest for every language, then align into ``aligned/``."""
    stages = [
        _stage(f"ingest-{lang}", ["ingest", "--lang", lang, "--in", f"raw/{lang}.txt", "--out", "store"],
               [f"raw/{lang}.txt"], [f"store/{lang}.tsv"])
        for lang in langs
    ]
    stages.append(_stage("align", ["align", "--in", "store", "--out", "aligned"],
                         [f"store/{lang}.tsv" for lang in langs],
                         [f"aligned/{lang}.tsv" for lang in langs]))
    return stages


# ---------------------------------------------------------------------------
# multiway-label
# ---------------------------------------------------------------------------


def _family_steps(anchor: str) -> list[list[str]]:
    """Cumulative family-addition steps: the anchor's family, then the rest."""
    order = [FAMILY_OF[anchor]] + [f for f in FAMILIES if f != FAMILY_OF[anchor]]
    steps, langs = [], []
    for family in order:
        langs = langs + [code for code in LANGUAGES if FAMILY_OF[code] == family]
        steps.append(registry_sorted(langs))
    return steps


def _label_tokens() -> list[str]:
    tokens = []
    for side in ("src", "tgt"):
        tokens += [f"__opt_{side}_{code}" for code in LANGUAGES]
        tokens += [f"__opt_family_{side}_{family}" for family in FAMILIES]
    return sorted(tokens)


def prepare_multiway(seed: int, size: str, directory: Path) -> Prepared:
    p = SIZES[size]["multiway-label"]
    corpus = build_corpus(seed, list(LANGUAGES), p["verses"], (8, 20), 3000, 40, 8)
    write_raw_files(corpus, seed, directory / "raw")
    write_lines(directory / "reserved.txt", _label_tokens())
    steps = _family_steps(MULTIWAY_ANCHOR)
    last = f"bitext/run.step{len(steps)}.src"
    ratios = f"{p['train_ratio']},{p['train_ratio']},{1 - 2 * p['train_ratio']:.2f}"
    aligned = [f"aligned/{lang}.tsv" for lang in corpus.langs]
    stages = _corpus_stages(corpus.langs) + [
        _stage("split", ["split", "--corpus", "aligned", "--ratios", ratios, "--seed", str(seed),
                         "--out", "splits.tsv"], aligned, ["splits.tsv"]),
        _stage("schedule", ["schedule", "--anchor", MULTIWAY_ANCHOR, "--mode", "family-addition",
                            "--seed", str(seed), "--out", "sched.tsv"], [], ["sched.tsv"]),
        _stage("label", ["label", "--corpus", "aligned", "--split", "splits.tsv", "--mode", "family",
                         "--schedule", "sched.tsv", "--out-prefix", "bitext/run"],
               aligned + ["splits.tsv", "sched.tsv"],
               [f"bitext/run.step{k}.{side}" for k in range(1, len(steps) + 1)
                for side in ("src", "tgt")]),
        _stage("sample", ["sample", "--in", f"aligned/{MULTIWAY_ANCHOR}.tsv", "--fraction", "0.2",
                          "--seed", str(seed), "--out", "sampled.tsv", "--manifest", "ablation.tsv"],
               [f"aligned/{MULTIWAY_ANCHOR}.tsv"], ["sampled.tsv", "ablation.tsv"]),
        _stage("bpe-learn", ["bpe-learn", "--in", last, "--merges", str(p["merges"]), "--side",
                             "source", "--reserved", "reserved.txt", "--out", "src.bpe"],
               [last, "reserved.txt"], ["src.bpe"]),
        _stage("bpe-apply", ["bpe-apply", "--model", "src.bpe", "--in", last, "--out", last + ".bpe"],
               ["src.bpe", last], [last + ".bpe"]),
    ]
    _write_manifest(directory, stages)
    train = math.floor(p["train_ratio"] * p["verses"] + 1e-9)
    labeled = sum(train * len(step) * (len(step) - 1) for step in steps)
    return Prepared(
        stages,
        sizes={"verses": p["verses"], "languages": len(corpus.langs), "train_verses": train,
               "tokens": sum(_tokens(texts) for texts in corpus.texts.values()),
               "labeled_lines": labeled},
        truth={"corpus": corpus, "steps": steps, "train": train, "last": last},
    )


def check_multiway(run: Path, prepared: Prepared) -> list[tuple[str, str]]:
    corpus, steps, train = (prepared.truth[k] for k in ("corpus", "steps", "train"))
    failures = []
    for lang in corpus.langs:
        expected = [f"{vid}\t{text}" for vid, text in zip(corpus.ids, corpus.texts[lang])]
        if _read(run / "aligned" / f"{lang}.tsv") != expected:
            failures.append(("align", f"aligned/{lang}.tsv differs from the generated verses"))
    split = [line.split("\t")[1] for line in _read(run / "splits.tsv")]
    if len(split) != len(corpus.ids) or split.count("train") != train:
        failures.append(("split", f"expected {train} train of {len(corpus.ids)} verses"))
    if [line.split("\t")[1].split(",") for line in _read(run / "sched.tsv")] != steps:
        failures.append(("schedule", "sched.tsv is not the family-addition schedule"))
    for k, step in enumerate(steps, start=1):
        want = train * len(step) * (len(step) - 1)
        for side in ("src", "tgt"):
            got = len(_read(run / "bitext" / f"run.step{k}.{side}"))
            if got != want:
                failures.append(("label", f"run.step{k}.{side}: {got} lines, expected {want}"))
    sampled = _read(run / "sampled.tsv")
    ids = set(corpus.ids)
    if len(sampled) != len(corpus.ids) or any(line.split("\t")[0] not in ids for line in sampled):
        failures.append(("sample", "sampled.tsv is not |verses| lines of known verse ids"))
    last = prepared.truth["last"]
    # Undoing the "@@ " continuation marks must give back the BPE input.
    if [line.replace("@@ ", "") for line in _read(run / (last + ".bpe"))] != _read(run / last):
        failures.append(("bpe-apply", "reverting the BPE output does not give its input"))
    return failures


# ---------------------------------------------------------------------------
# ne-lexicon
# ---------------------------------------------------------------------------

STOPWORDS = ("And", "Lord", "The", "Then")


def prepare_lexicon(seed: int, size: str, directory: Path) -> Prepared:
    p = SIZES[size]["ne-lexicon"]
    langs = ["en", *NE_TARGETS]
    corpus = build_corpus(seed, langs, p["verses"], (8, 16), 2000,
                          p["entities"] + p["absent"], p["singletons"], p["absent"])
    write_raw_files(corpus, seed, directory / "raw")
    for lang in corpus.langs:
        write_lines(directory / "bitext" / f"{lang}.txt", corpus.texts[lang])
    # The raw name list repeats some names with punctuation or in lower
    # case and carries stopwords and one-letter words, all of which
    # lex-filter must drop.
    names = [entity.en for entity in corpus.entities]
    shape = rng_for("ne-lexicon-shape", "names", len(names))
    def some(share: int) -> list[str]:
        return [names[i] for i in shape.sample(range(p["entities"]), p["entities"] // share)]

    raw = names + list(STOPWORDS) + ["A", "I"]
    raw += [f"{name}," for name in some(4)] + [f"({name})" for name in some(8)]
    raw += [name.lower() for name in some(4)]
    rng_for(seed, "names").shuffle(raw)
    write_lines(directory / "names.txt", raw)
    write_lines(directory / "stop.txt", [word.lower() for word in STOPWORDS])

    targets = [lang for lang in corpus.langs if lang != "en"]
    aligned = [f"aligned/{lang}.tsv" for lang in corpus.langs]
    tables = [f"aligners/{lang}.tsv" for lang in targets]
    stages = _corpus_stages(corpus.langs) + [
        _stage(f"align-train-{lang}",
               ["align-train", "--src", "bitext/en.txt", "--tgt", f"bitext/{lang}.txt",
                "--iterations", str(EM_ITERATIONS), "--out", f"aligners/{lang}.tsv"],
               ["bitext/en.txt", f"bitext/{lang}.txt"], [f"aligners/{lang}.tsv"])
        for lang in targets
    ]
    stages += [
        _stage("lex-filter", ["lex-filter", "--in", "names.txt", "--stoplist", "stop.txt",
                              "--out", "seed.txt"], ["names.txt", "stop.txt"], ["seed.txt"]),
        _stage("lex-build", ["lex-build", "--seed-list", "seed.txt", "--corpus", "aligned",
                             "--aligners", "aligners", "--out", "lexicon.tsv",
                             "--freq-out", "lexicon.freq.tsv"],
               ["seed.txt", *aligned, *tables], ["lexicon.tsv", "lexicon.freq.tsv"]),
        _stage("lex-trim", ["lex-trim", "--in", "lexicon.tsv", "--freq", "lexicon.freq.tsv",
                            "--policy", "frequency-equals-one", "--corpus", "aligned",
                            "--out", "lexicon.tail.tsv"],
               ["lexicon.tsv", "lexicon.freq.tsv", *aligned], ["lexicon.tail.tsv"]),
    ]
    _write_manifest(directory, stages)
    seeds = sorted(names)
    return Prepared(
        stages,
        sizes={"verses": p["verses"], "languages": len(corpus.langs),
               "tokens": sum(_tokens(texts) for texts in corpus.texts.values()),
               "seeds": len(seeds), "planted": p["entities"],
               "em_pairs": p["verses"] * len(targets)},
        truth={"corpus": corpus, "seeds": seeds, "targets": targets},
    )


def lexicon_scores(run: Path, prepared: Prepared) -> dict[str, float]:
    """Recall and precision of lex-build's target cells on the planted entities,
    and coverage: filled target cells over entries times target languages."""
    corpus, targets = prepared.truth["corpus"], prepared.truth["targets"]
    rows = [line.split("\t") for line in _read(run / "lexicon.tsv")]
    columns = rows[0][1:]
    by_en = {row[1]: dict(zip(columns, row[1:])) for row in rows[1:]}
    correct = filled = 0
    for row in by_en.values():
        filled += sum(1 for lang in targets if row.get(lang))
    planted = [entity for entity, freq in zip(corpus.entities, corpus.frequency) if freq]
    for entity in planted:
        row = by_en.get(entity.en, {})
        correct += sum(1 for lang in targets if row.get(lang) == entity.surfaces[lang])
    planted_cells = len(planted) * len(targets)
    return {
        "entries": len(by_en),
        "recall": correct / planted_cells,
        "precision": correct / filled if filled else 0.0,
        "coverage": filled / (len(by_en) * len(targets)) if by_en else 0.0,
    }


def lexicon_values(run: Path, prepared: Prepared) -> dict[str, float]:
    scores = lexicon_scores(run, prepared)
    return {f"lexicon.{k}": scores[k] for k in ("entries", "coverage", "recall")}


def check_lexicon(run: Path, prepared: Prepared) -> list[tuple[str, str]]:
    corpus, seeds, targets = (prepared.truth[k] for k in ("corpus", "seeds", "targets"))
    failures = []
    if _read(run / "seed.txt") != seeds:
        failures.append(("lex-filter", "seed.txt is not the planted and absent names"))
    for lang in targets:
        table = _read(run / "aligners" / f"{lang}.tsv")
        if not table or not table[0].startswith("#lambda="):
            failures.append((f"align-train-{lang}", f"aligners/{lang}.tsv has no header"))
    header = _read(run / "lexicon.tsv")[0].split("\t")
    if header != ["id", "en", *targets]:
        failures.append(("lex-build", f"lexicon.tsv header {header}"))
    else:
        scores = lexicon_scores(run, prepared)
        if scores["entries"] != len(seeds):
            failures.append(("lex-build", f"{scores['entries']} entries for {len(seeds)} seeds"))
        if scores["recall"] < RECALL_FLOOR or scores["precision"] < PRECISION_FLOOR:
            failures.append(("lex-build", "recall {recall:.3f} / precision {precision:.3f} below "
                             "the floor".format(**scores)))
    singletons = sorted(e.en for e, freq in zip(corpus.entities, corpus.frequency) if freq == 1)
    tail = sorted(line.split("\t")[1] for line in _read(run / "lexicon.tail.tsv")[1:])
    if tail != singletons:
        failures.append(("lex-trim", "lexicon.tail.tsv is not the frequency-1 entities"))
    return failures


# ---------------------------------------------------------------------------
# tag-eval
# ---------------------------------------------------------------------------


def _sentences(seed: int, purpose: str, n: int, n_entries: int) -> list[list[int]]:
    """``n`` sentences as concept lists, each naming up to three distinct
    entries (a negative concept ``-1 - e`` names entry ``e``)."""
    shape = rng_for("tag-eval-shape", purpose, n)
    content = rng_for(seed, "tag-eval", purpose)
    cum = zipf_cum_weights(TAG_VOCAB)
    out = []
    for _ in range(n):
        concepts = verse_concepts(content, cum, shape.randint(6, 18))
        picks = shape.sample(range(n_entries), shape.choice((0, 1, 1, 2, 2, 3)))
        slots = sorted(shape.choices(range(len(concepts) + 1), k=len(picks)))
        for offset, (slot, e) in enumerate(zip(slots, picks)):
            concepts.insert(slot + offset, -1 - e)
        out.append(concepts)
    return out


def prepare_tagging(seed: int, size: str, directory: Path) -> Prepared:
    p = SIZES[size]["tag-eval"]
    langs = registry_sorted(["en", *NE_TARGETS])
    shape = rng_for("tag-eval-shape", "entries", p["entries"])
    entities = make_entities(seed, langs, [shape.choice((1, 1, 1, 2, 2, 3)) for _ in range(p["entries"])])
    # A few cells stay empty, so some source matches have no target surface.
    missing = {(e, lang) for e in range(len(entities)) for lang in langs
               if lang != "en" and shape.random() < 0.08}
    width = max(4, len(str(len(entities))))
    lexicon = ["id\t" + "\t".join(langs)]
    for e, entity in enumerate(entities):
        cells = ["" if (e, lang) in missing else entity.surfaces[lang] for lang in langs]
        lexicon.append(f"ne{e + 1:0{width}d}\t" + "\t".join(cells))
    write_lines(directory / "lexicon.tsv", lexicon)

    words = {lang: make_vocabulary(seed, lang, TAG_VOCAB) for lang in ("en", TAG_TEST_TGT, TAG_TRAIN_TGT)}
    perturb = rng_for("tag-eval-shape", "perturb", p["test_lines"])
    test = {"en": [], "ref": [], "hyp": [], "tagged": [], "restored": [], "judged": []}
    for concepts in _sentences(seed, "test", p["test_lines"], len(entities)):
        src, ref, hyp, tagged, surfaces = [], [], [], [], []
        for c in concepts:
            if c >= 0:
                src.append(words["en"][c])
                ref.append(words[TAG_TEST_TGT][c])
                hyp.append(words[TAG_TEST_TGT][c])
                tagged.append(words["en"][c])
                continue
            entity = entities[-1 - c]
            src.append(entity.en)
            ref.append(entity.surfaces[TAG_TEST_TGT])
            if (-1 - c, TAG_TEST_TGT) in missing:
                hyp.append(entity.surfaces[TAG_TEST_TGT])
                tagged.append(entity.en)
            else:
                surfaces.append(entity.surfaces[TAG_TEST_TGT])
                hyp.append(f"$NE{len(surfaces)}")
                tagged.append(f"$NE{len(surfaces)}")
        # Drop or swap placeholders in some hypotheses so the rubric sees
        # wrong entity sets and wrong orders as well as correct ones.
        roll = perturb.random()
        order = list(range(1, len(surfaces) + 1))
        if roll < 0.12 and len(surfaces) >= 2:
            order[0], order[1] = order[1], order[0]
        elif roll > 0.88 and surfaces:
            order.pop()
        placeholders = iter(order)
        kept = []
        for tok in hyp:
            if not tok.startswith("$NE"):
                kept.append(tok)
            elif (index := next(placeholders, None)) is not None:
                kept.append(f"$NE{index}")
        restored = [surfaces[int(tok[3:]) - 1] if tok.startswith("$NE") else tok for tok in kept]
        hyp_entities = [surfaces[i - 1] for i in order]
        test["en"].append(" ".join(src))
        test["ref"].append(" ".join(ref))
        test["hyp"].append(" ".join(kept))
        test["tagged"].append(" ".join(tagged))
        test["restored"].append(" ".join(restored))
        test["judged"].append({"set_correct": sorted(hyp_entities) == sorted(surfaces),
                               "order_correct": hyp_entities == surfaces, "meaning": None})

    train = {"en": [], "tgt": [], "tagged_en": [], "tagged_tgt": []}
    for concepts in _sentences(seed, "train", p["train_lines"], len(entities)):
        src, tgt, tagged_src, tagged_tgt = [], [], [], []
        k = 0
        for c in concepts:
            if c >= 0:
                for side, lang in ((src, "en"), (tagged_src, "en"), (tgt, TAG_TRAIN_TGT),
                                   (tagged_tgt, TAG_TRAIN_TGT)):
                    side.append(words[lang][c])
                continue
            e = -1 - c
            src.append(entities[e].en)
            if perturb.random() < 0.1:  # the target side leaves the name out
                tgt.append(words[TAG_TRAIN_TGT][0])
                tagged_tgt.append(words[TAG_TRAIN_TGT][0])
                tagged_src.append(entities[e].en)
            elif (e, TAG_TRAIN_TGT) in missing:
                tgt.append(entities[e].surfaces[TAG_TRAIN_TGT])
                tagged_tgt.append(entities[e].surfaces[TAG_TRAIN_TGT])
                tagged_src.append(entities[e].en)
            else:
                k += 1
                tgt.append(entities[e].surfaces[TAG_TRAIN_TGT])
                tagged_tgt.append(f"$NE{k}")
                tagged_src.append(f"$NE{k}")
        train["en"].append(" ".join(src))
        train["tgt"].append(" ".join(tgt))
        train["tagged_en"].append(" ".join(tagged_src))
        train["tagged_tgt"].append(" ".join(tagged_tgt))

    write_lines(directory / "test.en", test["en"])
    write_lines(directory / f"test.{TAG_TEST_TGT}", test["ref"])
    write_lines(directory / f"hyp.{TAG_TEST_TGT}", test["hyp"])
    write_lines(directory / "train.en", train["en"])
    write_lines(directory / f"train.{TAG_TRAIN_TGT}", train["tgt"])
    ref, hyp = f"test.{TAG_TEST_TGT}", f"hyp.{TAG_TEST_TGT}"
    restored, decode = f"restored.{TAG_TEST_TGT}", "test.tagged.en.decode.jsonl"
    train_tgt = f"train.{TAG_TRAIN_TGT}"
    stages = [
        _stage("tag-test", ["tag", "--lexicon", "lexicon.tsv", "--src", "en", "--tgt", TAG_TEST_TGT,
                            "--in", "test.en", "--out", "test.tagged.en"],
               ["lexicon.tsv", "test.en"], ["test.tagged.en", decode]),
        _stage("tag-train", ["tag", "--lexicon", "lexicon.tsv", "--src", "en", "--tgt", TAG_TRAIN_TGT,
                             "--in", "train.en", "--out", "train.tagged.en",
                             "--tgt-in", train_tgt, "--tgt-out", f"train.tagged.{TAG_TRAIN_TGT}",
                             "--decode", "train.decode.jsonl"],
               ["lexicon.tsv", "train.en", train_tgt],
               ["train.tagged.en", f"train.tagged.{TAG_TRAIN_TGT}", "train.decode.jsonl"]),
        _stage("restore", ["restore", "--in", hyp, "--decode", decode, "--out", restored],
               [hyp, decode], [restored]),
        _stage("bleu", ["bleu", "--hyp", restored, "--ref", ref, "--report", "bleu.tsv"],
               [restored, ref], ["bleu.tsv"]),
        _stage("rubric", ["rubric", "--hyp", restored, "--ref", ref, "--decode", decode,
                          "--out", "judgments.jsonl"], [restored, ref, decode], ["judgments.jsonl"]),
    ]
    _write_manifest(directory, stages)
    return Prepared(
        stages,
        sizes={"lexicon_entries": len(entities), "languages": len(langs),
               "test_lines": len(test["en"]), "train_lines": len(train["en"]),
               "tokens": _tokens(test["en"] + test["ref"] + train["en"] + train["tgt"])},
        truth={"test": test, "train": train},
    )


def check_tagging(run: Path, prepared: Prepared) -> list[tuple[str, str]]:
    from versemt.evaluation import corpus_bleu

    test, train = prepared.truth["test"], prepared.truth["train"]
    failures = []
    if _read(run / "test.tagged.en") != test["tagged"]:
        failures.append(("tag-test", "test.tagged.en differs from the planted entities"))
    if (_read(run / "train.tagged.en") != train["tagged_en"]
            or _read(run / f"train.tagged.{TAG_TRAIN_TGT}") != train["tagged_tgt"]):
        failures.append(("tag-train", "tagged training pairs differ from the planted entities"))
    if _read(run / f"restored.{TAG_TEST_TGT}") != test["restored"]:
        failures.append(("restore", "restored hypotheses differ from the expected text"))
    score = tagging_values(run, prepared)["evaluation.bleu_score"]
    if not 0.0 < score < 100.0:
        failures.append(("bleu", f"BLEU {score} of perturbed hypotheses is not in (0, 100)"))
    if corpus_bleu(test["ref"], test["ref"]).score != 100.0:
        failures.append(("bleu", "BLEU of the references against themselves is not 100"))
    if [json.loads(line) for line in _read(run / "judgments.jsonl")] != test["judged"]:
        failures.append(("rubric", "entity set/order judgments differ from the perturbations"))
    return failures


def tagging_values(run: Path, prepared: Prepared) -> dict[str, float]:
    return {"evaluation.bleu_score": float(_read(run / "bleu.tsv")[1].split("\t")[0])}


@dataclass(frozen=True)
class Workload:
    prepare: Callable[[int, str, Path], Prepared]
    check: Callable[[Path, Prepared], list[tuple[str, str]]]
    values: Callable[[Path, Prepared], dict[str, float]] = lambda run, prepared: {}


WORKLOADS = {
    "multiway-label": Workload(prepare_multiway, check_multiway),
    "ne-lexicon": Workload(prepare_lexicon, check_lexicon, lexicon_values),
    "tag-eval": Workload(prepare_tagging, check_tagging, tagging_values),
}
