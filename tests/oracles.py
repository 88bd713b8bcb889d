"""Independent brute-force oracles the implementation is checked against.

These deliberately share no code with the package: dense loops, no pruning,
numpy where a reference algorithm exists.
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter
from typing import NamedTuple, Sequence

import numpy as np


def bleu_oracle(hypotheses: list[list[str]], references: list[list[str]], max_n: int = 4):
    """Corpus BLEU by direct enumeration of every n-gram occurrence."""

    def ngrams(tokens, n):
        out = []
        for i in range(len(tokens)):
            if i + n <= len(tokens):
                out.append(tuple(tokens[i : i + n]))
        return out

    precisions = []
    for n in range(1, max_n + 1):
        matched = 0
        total = 0
        for hyp, ref in zip(hypotheses, references):
            hyp_grams = ngrams(hyp, n)
            ref_grams = ngrams(ref, n)
            total += len(hyp_grams)
            for gram in set(hyp_grams):
                matched += min(hyp_grams.count(gram), ref_grams.count(gram))
        precisions.append(matched / total if total else 0.0)

    c = sum(len(h) for h in hypotheses)
    r = sum(len(t) for t in references)
    if c == 0:
        return precisions, 0.0, 0.0
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    if any(p == 0.0 for p in precisions):
        score = 0.0
    else:
        score = bp * math.exp(sum(math.log(p) for p in precisions) / max_n) * 100.0
    return precisions, bp, score


def pair_count_oracle(word_freq: dict[str, int], end_of_word: str = "</w>") -> Counter:
    """Adjacent-symbol pair frequencies over character-split words."""
    counts: Counter = Counter()
    for word, freq in word_freq.items():
        symbols = list(word) + [end_of_word]
        for left, right in zip(symbols, symbols[1:]):
            counts[(left, right)] += freq
    return counts


def best_pair_oracle(counts: Counter) -> tuple[str, str] | None:
    """Most frequent pair, ties broken lexicographically on (left, right)."""
    if not counts:
        return None
    top = max(counts.values())
    return min(pair for pair, n in counts.items() if n == top)


def model1_em_oracle(bitext: list[tuple[list[str], list[str]]], iterations: int):
    """Dense IBM Model 1 EM (no NULL, no positional prior), uniform init.

    Returns t[source][target] after ``iterations`` EM steps.
    """
    src_vocab = sorted({e for src, _ in bitext for e in src})
    tgt_vocab = sorted({f for _, tgt in bitext for f in tgt})
    t = {}
    for e in src_vocab:
        cooc = sorted({f for src, tgt in bitext if e in src for f in tgt})
        t[e] = {f: 1.0 / len(cooc) for f in cooc}
    for _ in range(iterations):
        counts = {e: {} for e in src_vocab}
        totals = {e: 0.0 for e in src_vocab}
        for src, tgt in bitext:
            for f in tgt:
                z = sum(t[e].get(f, 0.0) for e in src)
                if z == 0.0:
                    continue
                for e in src:
                    post = t[e].get(f, 0.0) / z
                    if post > 0.0:
                        counts[e][f] = counts[e].get(f, 0.0) + post
                        totals[e] += post
        for e in src_vocab:
            if totals[e] > 0.0:
                t[e] = {f: c / totals[e] for f, c in counts[e].items()}
    _ = tgt_vocab
    return t


def least_squares_oracle(xs: list[float], ys: list[float]):
    """(slope, intercept, r^2) for y = a*x + b via numpy lstsq."""
    design = np.column_stack([np.asarray(xs, dtype=float), np.ones(len(xs))])
    y = np.asarray(ys, dtype=float)
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ np.array([slope, intercept])
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r_squared


def lookup_rows_oracle(table, lang, sentence):
    """Surface matching as lookup_rows did it before the token trie: a
    first-token index rebuilt per call, candidates tried longest first."""
    by_first = {}
    for entry in table.entries:
        surface = entry.surface(lang)
        if not surface:
            continue
        surface_tokens = tuple(surface.split())
        by_first.setdefault(surface_tokens[0], []).append((surface_tokens, entry))
    for candidates in by_first.values():
        candidates.sort(key=lambda item: -len(item[0]))

    matches = []
    i = 0
    while i < len(sentence):
        for surface_tokens, entry in by_first.get(sentence[i], ()):
            end = i + len(surface_tokens)
            if end <= len(sentence) and tuple(sentence[i:end]) == surface_tokens:
                matches.append(((i, end), entry))
                i = end
                break
        else:
            i += 1
    return matches


def surface_sequence_oracle(tokens, surfaces):
    """Left-to-right, longest-first scan for decode-table surfaces."""
    ordered = sorted(surfaces, key=len, reverse=True)
    found = []
    i = 0
    while i < len(tokens):
        for surface_tokens in ordered:
            end = i + len(surface_tokens)
            if end <= len(tokens) and tuple(tokens[i:end]) == surface_tokens:
                found.append(" ".join(surface_tokens))
                i = end
                break
        else:
            i += 1
    return found


def entity_order_oracle(hyp, ref, targets):
    """(set_correct, order_correct, missing, spurious) of the target surfaces
    ``targets`` found in hyp vs ref."""
    surfaces = sorted({tuple(tgt.split()) for tgt in targets if tgt})
    hyp_seq = surface_sequence_oracle(hyp, surfaces)
    ref_seq = surface_sequence_oracle(ref, surfaces)

    def surplus(seq, other):
        remaining = Counter(seq) - Counter(other)
        out = []
        for surface in seq:
            if remaining[surface] > 0:
                remaining[surface] -= 1
                out.append(surface)
        return tuple(out)

    return (
        Counter(hyp_seq) == Counter(ref_seq),
        hyp_seq == ref_seq,
        surplus(ref_seq, hyp_seq),
        surplus(hyp_seq, ref_seq),
    )


def count_occurrences_oracle(texts, surface):
    """Non-overlapping occurrences of one surface, scanning leftmost first."""
    surface_tokens = tuple(surface.split())
    if not surface_tokens:
        return 0
    width = len(surface_tokens)
    count = 0
    for tokens in texts:
        i = 0
        while i + width <= len(tokens):
            if tuple(tokens[i : i + width]) == surface_tokens:
                count += 1
                i += width
            else:
                i += 1
    return count



def train_em_oracle(bitext, iterations, params):
    """``alignment.train_em`` as it was before interned slots, with its two
    helpers: dict-of-dicts tables, priors recomputed per sentence, counts
    added only when w > 0. Returns an ``alignment.TranslationTable``."""
    from versemt.alignment import NULL_TOKEN, TranslationTable
    from versemt.errors import EmptyBitext

    def _position_priors(n, m, params):
        priors = []
        for j in range(1, m + 1):
            deltas = [math.exp(-params.tension * abs(i / n - j / m)) for i in range(1, n + 1)]
            z = sum(deltas)
            row = [(1.0 - params.null_prob) * d / z for d in deltas]
            row.append(params.null_prob)
            priors.append(row)
        return priors

    def _uniform_table(bitext):
        support = {}
        for src_tokens, tgt_tokens in bitext:
            for f in tgt_tokens:
                support.setdefault(NULL_TOKEN, set()).add(f)
                for e in src_tokens:
                    support.setdefault(e, set()).add(f)
        return {
            e: {f: 1.0 / len(targets) for f in sorted(targets)}
            for e, targets in sorted(support.items())
        }

    if not bitext:
        raise EmptyBitext("bitext is empty")
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    table = _uniform_table(bitext)
    history = []
    for _ in range(iterations):
        counts = {}
        totals = {}
        log_likelihood = 0.0
        for src_tokens, tgt_tokens in bitext:
            n, m = len(src_tokens), len(tgt_tokens)
            if n == 0 or m == 0:
                continue
            priors = _position_priors(n, m, params)
            sources = list(src_tokens) + [NULL_TOKEN]
            for j, f in enumerate(tgt_tokens):
                weights = [priors[j][i] * table.get(e, {}).get(f, 0.0) for i, e in enumerate(sources)]
                z = sum(weights)
                if z <= 0.0:
                    continue
                log_likelihood += math.log(z)
                for e, w in zip(sources, weights):
                    if w > 0.0:
                        counts.setdefault(e, {})
                        counts[e][f] = counts[e].get(f, 0.0) + w / z
                        totals[e] = totals.get(e, 0.0) + w / z
        for e, target_counts in counts.items():
            total = totals[e]
            table[e] = {f: c / total for f, c in sorted(target_counts.items())}
        history.append(log_likelihood)
    return TranslationTable(probs=table, log_likelihood_history=tuple(history), params=params)


class OracleExample(NamedTuple):
    """One labeled line pair, as ``labeling.LabeledExample`` was before it
    became a block of one direction's lines."""

    source_tokens: tuple[str, ...]
    target_tokens: tuple[str, ...]
    src: str
    tgt: str


def expand_multiway_pairs_oracle(langs, corpus, split, mode):
    """``labeling.expand_multiway_pairs`` as it was before per-call token
    reuse: one example per line, both sides re-tokenized for every direction
    of every verse. Aliases resolve before duplicates are dropped, so `ur`
    beside `uk` is one language (the one deliberate change from that version)."""
    from versemt.corpus import get_language, tokenize
    from versemt.errors import EmptySplit, UnknownLanguage
    from versemt.labeling import label_tokens

    codes = sorted({get_language(c).code for c in langs})
    for code in codes:
        if code not in corpus.languages:
            raise UnknownLanguage(f"language {code!r} not in corpus")
    if not split.train:
        raise EmptySplit("split has no train verses")
    train_ids = sorted(split.train)
    text_of = {lang: dict(zip(corpus.ids, corpus.texts(lang))) for lang in corpus.languages}
    for src in codes:
        for tgt in codes:
            if src == tgt:
                continue
            labels = tuple(label_tokens(src, tgt, mode))
            for vid in train_ids:
                yield OracleExample(
                    source_tokens=labels + tuple(tokenize(text_of[src][vid])),
                    target_tokens=tuple(tokenize(text_of[tgt][vid])),
                    src=src,
                    tgt=tgt,
                )


def write_labeled_bitext_oracle(examples, src_path, tgt_path):
    """``labeling.write_labeled_bitext`` as it was before streaming: both
    files buffered as line lists, then written one after the other."""
    from versemt.fileio import atomic_write_lines

    src_lines = []
    tgt_lines = []
    for example in examples:
        src_lines.append(" ".join(example.source_tokens))
        tgt_lines.append(" ".join(example.target_tokens))
    atomic_write_lines(src_path, src_lines)
    atomic_write_lines(tgt_path, tgt_lines)
    return len(src_lines)


# `subword._pair_counts` and `subword._merge_symbols` as they were before the
# learner counted pairs in plain dicts.
def _pair_counts(symbols: Sequence[str]) -> Counter[tuple[str, str]]:
    return Counter(zip(symbols, symbols[1:]))


def _merge_symbols(symbols: tuple[str, ...], pair: tuple[str, str]) -> tuple[str, ...]:
    merged = pair[0] + pair[1]
    out: list[str] = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and symbols[i] == pair[0] and symbols[i + 1] == pair[1]:
            out.append(merged)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return tuple(out)


def learn_bpe_oracle(tokenized_corpus, num_merges, reserved=(), vocab_side="source"):
    """``subword.learn_bpe`` as it was before per-merge delta batching: one
    heap push per (word, pair) count change. Returns a ``subword.BpeModel``."""
    import heapq

    from versemt.errors import EmptyCorpus
    from versemt.subword import BpeModel

    if num_merges < 0:
        raise ValueError("num_merges must be >= 0")
    reserved_set = frozenset(reserved)
    word_freq = Counter()
    saw_token = False
    for token in tokenized_corpus:
        saw_token = True
        if token not in reserved_set:
            word_freq[token] += 1
    if num_merges > 0 and not saw_token:
        raise EmptyCorpus("cannot learn merges from a corpus with no tokens")

    words = []
    freqs = []
    stats = Counter()
    index = {}
    for word, freq in sorted(word_freq.items()):
        wid = len(words)
        symbols = tuple(word) + ("</w>",)
        words.append(symbols)
        freqs.append(freq)
        for pair, n in _pair_counts(symbols).items():
            stats[pair] += n * freq
            index.setdefault(pair, set()).add(wid)

    heap = [(-count, pair) for pair, count in stats.items()]
    heapq.heapify(heap)

    def pop_best():
        while heap:
            neg_count, pair = heapq.heappop(heap)
            if stats.get(pair, 0) == -neg_count:
                return pair
        return None

    def bump(pair, delta):
        count = stats[pair] + delta
        if count <= 0:
            stats.pop(pair, None)
        else:
            stats[pair] = count
            heapq.heappush(heap, (-count, pair))

    merges = []
    for _ in range(num_merges):
        best = pop_best()
        if best is None:
            break
        merges.append(best)
        for wid in sorted(index.get(best, ())):
            old = words[wid]
            new = _merge_symbols(old, best)
            freq = freqs[wid]
            for pair, n in _pair_counts(old).items():
                bump(pair, -n * freq)
                index[pair].discard(wid)
            for pair, n in _pair_counts(new).items():
                bump(pair, n * freq)
                index.setdefault(pair, set()).add(wid)
            words[wid] = new
    return BpeModel(merges=tuple(merges), vocab_side=vocab_side, reserved=reserved_set)


def _segment_oracle(word, ranks):
    """``subword._segment`` as it was before pair ranks were kept in a list:
    each step ranks the set of the word's pairs and rebuilds the symbols."""
    if not word:
        return []
    symbols = list(tuple(word) + ("</w>",))
    while len(symbols) > 1:
        pairs = set(zip(symbols, symbols[1:]))
        ranked = [(ranks[p], p) for p in pairs if p in ranks]
        if not ranked:
            break
        _, pair = min(ranked)
        symbols = list(_merge_symbols(tuple(symbols), pair))
    # Peel the end-of-word sentinel and mark continuations.
    if symbols[-1] == "</w>":
        symbols = symbols[:-1]
    elif symbols[-1].endswith("</w>"):
        symbols[-1] = symbols[-1][: -len("</w>")]
    return [s + "@@" for s in symbols[:-1]] + [symbols[-1]]


def apply_bpe_oracle(model, sentence):
    """``subword.apply_bpe`` as it was before the memo segmented on a miss:
    ``memo.get`` per token, then ``_segment`` and a store on a miss; the memo
    starts with the reserved tokens, which stay whole."""
    ranks = {pair: rank for rank, pair in enumerate(model.merges)}
    memo = {token: (token,) for token in model.reserved}
    out = []
    for token in sentence:
        pieces = memo.get(token)
        if pieces is None:
            pieces = tuple(_segment_oracle(token, ranks))
            memo[token] = pieces
        out.extend(pieces)
    return out


def table_prob(table, source_word, target_word):
    """t(target | source) read from ``table.probs``; 0.0 for a pair the table lacks."""
    return table.probs.get(source_word, {}).get(target_word, 0.0)


def viterbi_align_oracle(table, pair, prior_cache=None):
    """``alignment.viterbi_align`` as it was before rows were fetched once per
    sentence: ``table_prob(table, e, f)`` for every (source, target) cell, under the
    table's own prior. Returns the alignment vector, -1 for NULL."""
    import logging

    from versemt.alignment import NULL_TOKEN, _position_priors
    from versemt.errors import EmptySentence

    log = logging.getLogger("versemt.alignment")

    src_tokens, tgt_tokens = pair
    if not src_tokens or not tgt_tokens:
        raise EmptySentence("both sentences must be non-empty")
    n, m = len(src_tokens), len(tgt_tokens)
    cache = {} if prior_cache is None else prior_cache
    priors = cache.get((n, m))
    if priors is None:
        priors = cache[n, m] = _position_priors(n, m, table.params)
    links = []
    for j, f in enumerate(tgt_tokens):
        best_i = -1
        best_weight = 0.0
        for i, e in enumerate(src_tokens):
            weight = priors[j][i] * table_prob(table, e, f)
            if weight > best_weight:
                best_weight = weight
                best_i = i
        null_weight = priors[j][n] * table_prob(table, NULL_TOKEN, f)
        if best_i < 0 or null_weight > best_weight:
            log.debug("target token %r at %d aligned to NULL", f, j)
            best_i = -1
        links.append(best_i)
    return links


def load_table_oracle(path):
    """``alignment.load_table`` as it was before each row was unpacked in one split
    and a source's row fetched only when the source changes: every line split
    into a field list, and the row looked up on every line. Only line 1 is the
    header: a later line that begins with ``#`` is a row like any other."""
    from versemt.alignment import TranslationTable, _parse_header
    from versemt.errors import MalformedLine
    from versemt.fileio import read_lines

    probs = {}
    lines = read_lines(path)
    params = _parse_header(next(lines, (1, ""))[1], f"{path}:1")
    for lineno, line in lines:
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise MalformedLine(f"{path}:{lineno}: expected `source<TAB>target<TAB>prob`")
        try:
            prob = float(fields[2])
        except ValueError:
            prob = math.nan
        if not 0.0 <= prob <= 1.0:  # also false for nan
            raise MalformedLine(f"{path}:{lineno}: probability {fields[2]!r} is not in [0, 1]")
        row = probs.setdefault(fields[0], {})
        if fields[1] in row:
            raise MalformedLine(f"{path}:{lineno}: pair {fields[0]!r}, {fields[1]!r} is repeated")
        row[fields[1]] = prob
    return TranslationTable(probs=probs, params=params)


def _count_occurrences_scan(texts, surface):
    """``lexicon._count_occurrences`` as it was before occurrence indexes: one
    single-surface SurfaceIndex scan of every verse."""
    from versemt.corpus import tokenize
    from versemt.lexicon import SurfaceIndex

    surface_tokens = tokenize(surface)
    if not surface_tokens:
        return 0
    index = SurfaceIndex([(surface_tokens, surface)])
    return sum(len(index.scan(tokens)) for tokens in texts)


def assemble_table_oracle(seed, corpus, aligners, min_votes):
    """``lexicon.assemble_table`` as it was before occurrence indexes: one
    single-surface SurfaceIndex scan of the English side per seed and of the
    target side per accepted surface, decoded with ``viterbi_align_oracle``.
    Logs to the ``versemt.lexicon`` logger like the package does."""
    import logging

    from versemt.corpus import tokenize
    from versemt.errors import MissingAligner, UnknownLanguage
    from versemt.lexicon import SEED_LANGUAGE, LexiconEntry, LexiconTable, SurfaceIndex

    log = logging.getLogger("versemt.lexicon")
    viterbi_align = viterbi_align_oracle
    _count_occurrences = _count_occurrences_scan

    if SEED_LANGUAGE not in corpus.languages:
        raise UnknownLanguage(f"corpus has no {SEED_LANGUAGE!r} side")
    target_langs = [lang for lang in corpus.languages if lang != SEED_LANGUAGE]
    missing = [lang for lang in target_langs if lang not in aligners]
    if missing:
        raise MissingAligner(f"no aligner for language(s): {', '.join(missing)}")

    en_tokens = [tokenize(text) for text in corpus.texts(SEED_LANGUAGE)]
    tgt_tokens = {lang: [tokenize(text) for text in corpus.texts(lang)] for lang in target_langs}

    surfaces = [(name, tuple(tokenize(name))) for name in sorted(set(seed))]
    en_spans = []  # per entry: (verse_idx, start, end)
    for name, surface_tokens in surfaces:
        index = SurfaceIndex([(surface_tokens, name)])
        spans = [(v, a, b) for v, tokens in enumerate(en_tokens) for a, b, _ in index.scan(tokens)]
        en_spans.append(spans)
        if not spans:
            log.warning("SeedNotInCorpus: %r has no occurrence in the English side", name)

    # One Viterbi pass per (verse, language), shared by all entries.
    votes = [{lang: Counter() for lang in target_langs} for _ in surfaces]
    wanted_verses = {v for spans in en_spans for v, _, _ in spans}
    for lang in target_langs:
        table = aligners[lang]
        links_by_verse = {}
        tgt = tgt_tokens[lang]
        for v in sorted(wanted_verses, key=lambda v: (len(en_tokens[v]), len(tgt[v]), v)):
            if not en_tokens[v] or not tgt[v]:
                continue
            by_src = {}
            vector = viterbi_align(table, (en_tokens[v], tgt[v]))
            for j, i in enumerate(vector):
                if i >= 0:
                    by_src.setdefault(i, []).append(j)
            links_by_verse[v] = by_src
        for entry_idx, spans in enumerate(en_spans):
            for v, a, b in spans:
                by_src = links_by_verse.get(v, {})
                linked = sorted(j for i in range(a, b) for j in by_src.get(i, []))
                if not linked:
                    continue
                if linked[-1] - linked[0] + 1 != len(set(linked)):
                    continue  # non-contiguous projection, no vote
                candidate = " ".join(tgt_tokens[lang][v][linked[0] : linked[-1] + 1])
                votes[entry_idx][lang][candidate] += 1

    entries = []
    width = max(4, len(str(len(surfaces))))
    for entry_idx, (name, _) in enumerate(surfaces):
        en_freq = len(en_spans[entry_idx])
        entry_surfaces = {SEED_LANGUAGE: name}
        entry_freq = {SEED_LANGUAGE: en_freq}
        required = 1 if en_freq == 1 else min_votes
        for lang in target_langs:
            counter = votes[entry_idx][lang]
            if counter:
                top = max(counter.values())
                best = min(c for c, n in counter.items() if n == top)
                if len(counter) > 1:
                    variants = ", ".join(
                        f"{c}:{n}" for c, n in sorted(counter.items(), key=lambda kv: -kv[1])
                    )
                    log.debug("%s/%s surface variants: %s", name, lang, variants)
                if top >= required:
                    entry_surfaces[lang] = best
                    entry_freq[lang] = _count_occurrences(tgt_tokens[lang], best)
        entries.append(
            LexiconEntry(
                id=f"ne{entry_idx + 1:0{width}d}",
                surfaces=entry_surfaces,
                frequency=entry_freq,
            )
        )
    languages = tuple([SEED_LANGUAGE] + target_langs)
    return LexiconTable(entries=tuple(entries), languages=languages)


def trim_table_oracle(table, policy, corpus=None, selection_file=None):
    """``lexicon.trim_table`` as it was before occurrence indexes: one
    single-surface scan of the English side per entry. The policy is its name,
    and a manual selection comes as ``selection_file``."""
    from pathlib import Path

    from versemt.corpus import tokenize
    from versemt.errors import MissingSelectionFile
    from versemt.lexicon import SEED_LANGUAGE, LexiconTable

    _count_occurrences = _count_occurrences_scan

    if policy == "none":
        return table
    if policy == "frequency-equals-one":
        if corpus is not None:
            en_texts = [tokenize(text) for text in corpus.texts(SEED_LANGUAGE)]
            kept = tuple(
                e for e in table.entries if _count_occurrences(en_texts, e.surface(SEED_LANGUAGE)) == 1
            )
        else:
            kept = tuple(e for e in table.entries if e.frequency.get(SEED_LANGUAGE) == 1)
        return LexiconTable(entries=kept, languages=table.languages)
    if policy == "manual-selection":
        if selection_file is None or not Path(selection_file).exists():
            raise MissingSelectionFile(f"selection file not found: {selection_file}")
        selected = {
            line.strip()
            for line in Path(selection_file).read_text(encoding="utf-8").splitlines()
            if line.strip()
        }
        kept = tuple(e for e in table.entries if e.surface(SEED_LANGUAGE) in selected)
        return LexiconTable(entries=kept, languages=table.languages)
    raise ValueError(f"unknown trim policy {policy!r}")


def _find_unconsumed(tokens, surface_tokens, consumed):
    width = len(surface_tokens)
    for start in range(len(tokens) - width + 1):
        end = start + width
        if any(start < c_end and c_start < end for c_start, c_end in consumed):
            continue
        if tuple(tokens[start:end]) == surface_tokens:
            return (start, end)
    return None


def tag_training_pair_oracle(src, tgt, table, src_lang, tgt_lang):
    """``netag.tag_training_pair`` as it was before the target side was
    matched through ``SurfaceIndex.occurrences``: a sliding window per match."""
    import logging

    from versemt.corpus import tokenize
    from versemt.lexicon import lookup_rows
    from versemt.netag import TaggedSentence, _replace_spans

    log = logging.getLogger("versemt.netag")

    consumed = []
    kept = []
    for span, entry in lookup_rows(table, src_lang, src):
        tgt_surface = entry.surface(tgt_lang)
        if not tgt_surface:
            log.debug("entry %s has no %s surface; left untagged", entry.id, tgt_lang)
            continue
        tgt_span = _find_unconsumed(tgt, tuple(tokenize(tgt_surface)), consumed)
        if tgt_span is None:
            log.debug("surface %r not free in target; left untagged", tgt_surface)
            continue
        consumed.append(tgt_span)
        kept.append((span, tgt_span, " ".join(src[span[0] : span[1]]), tgt_surface))

    mapping = {}
    src_spans = []
    tgt_spans = []
    for index, (src_span, tgt_span, src_surface, tgt_surface) in enumerate(kept, start=1):
        mapping[index] = (src_surface, tgt_surface)
        src_spans.append((src_span, index))
        tgt_spans.append((tgt_span, index))
    tagged_src = TaggedSentence(_replace_spans(src, src_spans), len(kept))
    tagged_tgt = TaggedSentence(_replace_spans(tgt, tgt_spans), len(kept))
    return tagged_src, tagged_tgt, mapping


# `corpus.tokenize` as it was before alphanumeric-edged chunks skipped peeling.
def _is_separable_punct(ch: str) -> bool:
    # Connector punctuation (e.g. "_") stays attached so reserved tokens such
    # as __opt_src_fr survive re-tokenization.
    cat = unicodedata.category(ch)
    return cat.startswith("P") and cat != "Pc"


def tokenize_oracle(text: str) -> list[str]:
    """Split on Unicode whitespace, then peel leading/trailing punctuation
    into standalone tokens ("Noah," -> ["Noah", ","])."""
    tokens: list[str] = []
    for chunk in text.split():
        head: list[str] = []
        tail: list[str] = []
        while chunk and _is_separable_punct(chunk[0]):
            head.append(chunk[0])
            chunk = chunk[1:]
        while chunk and _is_separable_punct(chunk[-1]):
            tail.append(chunk[-1])
            chunk = chunk[:-1]
        tokens.extend(head)
        if chunk:
            tokens.append(chunk)
        tokens.extend(reversed(tail))
    return tokens
