"""Experiment control: ablation sampling, generalization-loss stopping, power-law fits, trainer configs."""

from __future__ import annotations

import math
import random
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .alignment import _sum_ltr
from .corpus import tokenize
from .errors import BadFraction, BadParameter, DegenerateInput, NonMonotoneEpoch, UnknownProfile
from .fileio import atomic_write_lines


def check_fraction(fraction: float) -> None:
    if not 0 < fraction <= 1:
        raise BadFraction(f"fraction must be in (0, 1], got {fraction}")


class AblationPlan:
    def __init__(self, fraction: float, seed: int, total: int) -> None:
        check_fraction(fraction)
        if total < 1:
            raise BadParameter(f"total must be >= 1, got {total}")
        if math.floor(fraction * total) < 1:
            raise BadFraction(f"fraction {fraction} of {total} sentences draws nothing")
        self.fraction = fraction
        self.seed = seed
        self.total = total


class SampleResult(NamedTuple):
    ids: tuple[str, ...]
    distinct_count: int
    unique_word_count: int
    log10_word_count: float | None


def sample_low_resource(
    verses: Sequence[tuple[str, str]], plan: AblationPlan
) -> SampleResult:
    """Sample a fraction of the low-resource verses, duplicated back to full size.

    Draws floor(fraction * total) ids uniformly with replacement, then cycles
    the drawn multiset until exactly ``plan.total`` lines. The word count
    covers the distinct sampled sentences only (duplicates add no new words).
    """
    if not verses:
        raise BadParameter("verses must be non-empty")
    k = math.floor(plan.fraction * plan.total)
    ids = [vid for vid, _ in verses]
    rng = random.Random(plan.seed)
    draws = rng.choices(ids, k=k)
    repeats = -(-plan.total // k)  # ceil
    sampled = tuple((draws * repeats)[: plan.total])

    distinct = set(draws)
    text_by_id = dict(verses)
    word_count = sum(len(tokenize(text_by_id[vid])) for vid in distinct)
    log10 = round(math.log10(word_count), 2) if word_count > 0 else None
    return SampleResult(
        ids=sampled,
        distinct_count=len(distinct),
        unique_word_count=word_count,
        log10_word_count=log10,
    )


DEFAULT_GL_ALPHA = 0.1  # the generalization loss above which the monitor says "stop"


class GlState:
    """Early-stopping monitor for scores where higher is better."""

    def __init__(self, best: float | None = None, last_epoch: int | None = None,
                 alpha: float = DEFAULT_GL_ALPHA) -> None:
        if not (math.isfinite(alpha) and alpha >= 0):
            raise BadParameter(f"alpha must be finite and >= 0, got {alpha}")
        self.best = best
        self.last_epoch = last_epoch
        self.alpha = alpha


def gl_update(state: GlState, epoch: int, val_score: float) -> tuple[GlState, float, str]:
    """Fold one validation score into the monitor.

    The generalization loss is 100 * (1 - score / best-so-far), with the best
    including the current epoch, so a new best always yields 0. Returns the
    new state, the loss, and "stop" or "continue".
    """
    if not (math.isfinite(val_score) and val_score >= 0):
        raise BadParameter(f"val_score must be finite and >= 0, got {val_score}")
    if state.last_epoch is not None and epoch <= state.last_epoch:
        raise NonMonotoneEpoch(f"epoch {epoch} does not follow epoch {state.last_epoch}")
    best = val_score if state.best is None else max(state.best, val_score)
    gl = 0.0 if best == 0 else 100.0 * (1.0 - val_score / best)
    new_state = GlState(best, epoch, state.alpha)
    return new_state, gl, "stop" if gl > state.alpha else "continue"


class PowerLawFit(NamedTuple):
    slope: float
    intercept: float
    r_squared: float


def fit_power_law(points: Sequence[tuple[float, float]]) -> PowerLawFit:
    """Ordinary least squares of score against log10(word count)."""
    if any(wc <= 0 for wc, _ in points):
        raise DegenerateInput("word counts must be positive")
    xs = [math.log10(wc) for wc, _ in points]
    if len(set(xs)) < 2:  # distinct counts that share a float log10 included
        raise DegenerateInput("need at least 2 points with distinct word counts")
    ys = [score for _, score in points]
    n = len(points)
    x_mean = _sum_ltr(xs) / n
    y_mean = _sum_ltr(ys) / n
    sxx = _sum_ltr((x - x_mean) ** 2 for x in xs)
    sxy = _sum_ltr((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    try:
        ss_res = _sum_ltr((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
        ss_tot = _sum_ltr((y - y_mean) ** 2 for y in ys)
    except OverflowError:  # float ** raises where * and / give inf
        ss_res = ss_tot = math.inf
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    if not all(map(math.isfinite, (slope, intercept, r_squared))):
        raise DegenerateInput("scores too large in magnitude to fit")
    return PowerLawFit(slope=slope, intercept=intercept, r_squared=r_squared)


class TrainerConfig(NamedTuple):
    profile: str
    minibatch_size: int
    dropout: float
    rnn_layers: int
    rnn_size: int
    word_vec_size: int
    learning_rate: float
    decay_rate: float = 0.7
    decay_start_epoch: int = 9
    optimizer: str = "sgd"


_PROFILES = {
    "multilingual": TrainerConfig(
        profile="multilingual",
        minibatch_size=64,
        dropout=0.3,
        rnn_layers=4,
        rnn_size=1000,
        word_vec_size=600,
        learning_rate=0.8,
    ),
    "single-pair": TrainerConfig(
        profile="single-pair",
        minibatch_size=64,
        dropout=0.3,
        rnn_layers=2,
        rnn_size=500,
        word_vec_size=500,
        learning_rate=1.0,
    ),
}


def check_profile(profile: str) -> None:
    if profile not in _PROFILES:
        raise UnknownProfile(f"unknown profile {profile!r}; choose from {sorted(_PROFILES)}")


def emit_trainer_config(profile: str) -> TrainerConfig:
    check_profile(profile)
    return _PROFILES[profile]


def write_trainer_config(config: TrainerConfig, path: str | Path) -> None:
    """Flat ``key: value`` file consumable by common seq2seq trainers."""
    lines = [f"{name}: {value}" for name, value in zip(config._fields, config)]
    atomic_write_lines(path, lines)


def write_ablation_manifest(results: Iterable[tuple[AblationPlan, SampleResult]], path: str | Path) -> None:
    lines = ["fraction\tseed\ttotal\tdistinct\tunique_words\tlog10_words"]
    for plan, result in results:
        log10 = "" if result.log10_word_count is None else f"{result.log10_word_count:.2f}"
        lines.append(
            f"{plan.fraction}\t{plan.seed}\t{plan.total}\t{result.distinct_count}"
            f"\t{result.unique_word_count}\t{log10}"
        )
    atomic_write_lines(path, lines)
