"""Seeded synthetic verse corpora for the benchmark (standard library only).

Everything random comes from ``random.Random`` instances seeded from the
workload seed, so the same seed gives byte-identical files. The *shape* of a
corpus (verse lengths, which verses mention which entity, entity lengths and
frequencies) comes from a fixed shape seed instead, so every seed yields
files of the same sizes: the same verses, tokens per verse and mentions, with
different words and names.

Tokens never carry punctuation, so the stages that split on whitespace and
the stages that use ``versemt.corpus.tokenize`` see the same tokens.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# The 23 registry languages by family, in registry order. Kept here rather
# than imported so that the inputs do not depend on the code under test.
FAMILY_TABLE = (
    ("germanic", ("de", "dn", "dt", "no", "sw", "en")),
    ("slavic", ("cr", "cz", "pl", "ru", "uk", "bg")),
    ("romance", ("es", "fr", "it", "pt", "ro")),
    ("albanian", ("ab",)),
    ("hellenic", ("gk",)),
    ("italic", ("ln",)),
    ("uralic", ("fn", "hg")),
    ("celtic", ("ws",)),
)
FAMILIES = tuple(family for family, _ in FAMILY_TABLE)
LANGUAGES = tuple(code for _, codes in FAMILY_TABLE for code in codes)
FAMILY_OF = {code: family for family, codes in FAMILY_TABLE for code in codes}

SHAPE_SEED = 1804_07878

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiouy"


def rng_for(seed: int | str, *purpose: object) -> random.Random:
    """An independent generator per (seed, purpose); string seeds hash stably."""
    return random.Random(":".join(str(part) for part in (seed, *purpose)))


def registry_sorted(codes) -> list[str]:
    order = {code: i for i, code in enumerate(LANGUAGES)}
    return sorted(codes, key=order.__getitem__)


def _syllables(rng: random.Random) -> list[str]:
    consonants = rng.sample(_CONSONANTS, 11)
    vowels = rng.sample(_VOWELS, 4)
    return [c + v for c in consonants for v in vowels]


def make_vocabulary(seed: int, lang: str, size: int) -> list[str]:
    """``size`` distinct lowercase words; low ranks (frequent words) are short.

    A word's length depends only on its rank, so every seed gives words of
    the same lengths.
    """
    rng = rng_for(seed, "vocab", lang)
    syllables = _syllables(rng)
    words: list[str] = []
    seen: set[str] = set()
    for rank in range(size):
        n_syll = 1 if rank < 30 else 2 if rank < 600 else 3
        while True:
            word = "".join(rng.choice(syllables) for _ in range(n_syll))
            if rank % 3 == 0:
                word += rng.choice("nrst")
            if word not in seen:
                break
        seen.add(word)
        words.append(word)
    return words


def zipf_cum_weights(size: int, exponent: float = 1.0) -> list[float]:
    total = 0.0
    cum = []
    for rank in range(size):
        total += 1.0 / (rank + 1) ** exponent
        cum.append(total)
    return cum


@dataclass(frozen=True)
class Entity:
    """One planted name: its English tokens and its surface per language."""

    surfaces: dict[str, str]

    @property
    def en(self) -> str:
        return self.surfaces["en"]


def _variant(token: str, lang: str, roll: float) -> str:
    """A per-language spelling of a name token (unchanged for a low ``roll``).

    Name tokens end in a vowel; the spelling depends on the language family.
    """
    if roll < 0.35:
        return token
    endings = {"romance": "o", "slavic": "ov", "uralic": "nen", "hellenic": "os", "italic": "us"}
    ending = endings.get(FAMILY_OF[lang], "e")
    if roll < 0.7:
        return token[:-1] + ending
    return token + ending[-1] + lang[0]


def make_entities(seed: int, langs: list[str], lengths: list[int]) -> list[Entity]:
    """Entities with the given token counts, every token unique per language.

    Names are capitalized, so they never collide with the lowercase
    vocabulary; each token belongs to one entity only. Syllable counts and
    spelling rules come from the shape seed, the syllables from ``seed``.
    """
    shape = rng_for(SHAPE_SEED, "entity-shape", len(lengths))
    rng = rng_for(seed, "entities")
    syllables = _syllables(rng_for(seed, "entity-syllables"))
    used: dict[str, set[str]] = {lang: set() for lang in langs}
    entities: list[Entity] = []
    for length in lengths:
        n_syll = [shape.choice((2, 3)) for _ in range(length)]
        rolls = {lang: [shape.random() for _ in range(length)] for lang in langs}
        while True:
            en_tokens = ["".join(rng.choice(syllables) for _ in range(n)).capitalize()
                         for n in n_syll]
            if len(set(en_tokens)) == length and not used["en"] & set(en_tokens):
                break
        surfaces = {}
        for lang in langs:
            tokens = [tok if lang == "en" else _variant(tok, lang, roll)
                      for tok, roll in zip(en_tokens, rolls[lang])]
            for k, tok in enumerate(tokens):
                while tok in used[lang] or tok in tokens[:k]:
                    tok += rng.choice(_VOWELS)
                tokens[k] = tok
            used[lang].update(tokens)
            surfaces[lang] = " ".join(tokens)
        entities.append(Entity(surfaces))
    return entities


@dataclass
class Corpus:
    """A parallel corpus plus what the generator knows about it."""

    ids: list[str]
    langs: list[str]
    texts: dict[str, list[str]]
    entities: list[Entity]
    frequency: list[int]  # English occurrences per entity (0: a seed absent from the corpus)
    extra: dict[str, list[tuple[str, str]]]  # per-language verses outside the intersection


def _render(concepts: list[int], words: list[str], entities: list[Entity], lang: str) -> list[str]:
    """Word-by-word rendering; a negative concept ``-1 - e`` names entity ``e``.

    Some languages drop a function word or render one as two words, so the
    two sides of a verse usually differ in length.
    """
    li = LANGUAGES.index(lang)
    out: list[str] = []
    for c in concepts:
        if c < 0:
            out.extend(entities[-1 - c].surfaces[lang].split())
        elif c == li % 3 and li % 2:
            continue
        elif c == 3 + li % 4 and li % 3 == 0:
            out.extend((words[c], words[7 + li % 5]))
        else:
            out.append(words[c])
    return out


def verse_concepts(rng: random.Random, cum: list[float], length: int) -> list[int]:
    return rng.choices(range(len(cum)), cum_weights=cum, k=length)


def build_corpus(
    seed: int,
    langs: list[str],
    n_verses: int,
    length_range: tuple[int, int],
    vocab_size: int,
    n_entities: int,
    n_singletons: int,
    n_absent: int = 0,
    extra_per_lang: int = 3,
) -> Corpus:
    """A verse-aligned corpus with planted entities.

    ``n_singletons`` of the entities occur exactly once in the corpus, the
    last ``n_absent`` never, and the others between 2 and ~40 times. Each
    verse names an entity at most once.
    """
    langs = registry_sorted(langs)
    shape = rng_for(SHAPE_SEED, "shape", n_verses, n_entities)
    lengths = [shape.randint(*length_range) for _ in range(n_verses)]
    ent_lengths = [shape.choice((1, 1, 1, 2, 2, 3)) for _ in range(n_entities)]
    frequency = [1 if e < n_singletons else 0 if e >= n_entities - n_absent
                 else min(n_verses, 2 + int(38 * shape.random() ** 3))
                 for e in range(n_entities)]
    mentions: list[list[int]] = [[] for _ in range(n_verses)]
    for e, freq in enumerate(frequency):
        for v in shape.sample(range(n_verses), freq):
            mentions[v].append(e)
    slots = [sorted(shape.choices(range(lengths[v] + 1), k=len(mentions[v])))
             for v in range(n_verses)]
    for v in range(n_verses):
        shape.shuffle(mentions[v])

    entities = make_entities(seed, langs, ent_lengths)
    cum = zipf_cum_weights(vocab_size)
    vocab = {lang: make_vocabulary(seed, lang, vocab_size) for lang in langs}
    content = rng_for(seed, "verses")
    ids = [f"v{v + 1:05d}" for v in range(n_verses)]
    texts: dict[str, list[str]] = {lang: [] for lang in langs}
    for v in range(n_verses):
        concepts = verse_concepts(content, cum, lengths[v])
        for offset, (slot, e) in enumerate(zip(slots[v], mentions[v])):
            concepts.insert(slot + offset, -1 - e)
        for lang in langs:
            texts[lang].append(" ".join(_render(concepts, vocab[lang], entities, lang)))
    extra = {}
    for lang in langs:
        extra_rng = rng_for(seed, "extra", lang)
        extra[lang] = [
            (f"x{lang}{k:03d}", " ".join(vocab[lang][c] for c in verse_concepts(extra_rng, cum, 6)))
            for k in range(extra_per_lang)
        ]
    return Corpus(ids, langs, texts, entities, frequency, extra)


def write_lines(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        handle.write("".join(line + "\n" for line in lines))


def write_raw_files(corpus: Corpus, seed: int, directory: Path) -> None:
    """One ``verse_id<TAB>text`` file per language, in a seeded shuffled order,
    including a few verses that only that language has."""
    for lang in corpus.langs:
        records = list(zip(corpus.ids, corpus.texts[lang])) + corpus.extra[lang]
        rng_for(seed, "raw-order", lang).shuffle(records)
        write_lines(directory / f"{lang}.txt", [f"{vid}\t{text}" for vid, text in records])
