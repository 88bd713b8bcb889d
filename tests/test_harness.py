from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from versemt.errors import BadFraction, DegenerateInput, NonMonotoneEpoch, UnknownProfile
from versemt.harness import (
    AblationPlan,
    GlState,
    emit_trainer_config,
    fit_power_law,
    gl_update,
    sample_low_resource,
    write_ablation_manifest,
    write_trainer_config,
)

from oracles import least_squares_oracle


def _verses(n: int, words_per_verse: int = 3):
    return [(f"v{i:05d}", " ".join(f"w{i}x{j}" for j in range(words_per_verse))) for i in range(n)]


class TestSampler:
    def test_full_fraction(self):
        verses = _verses(50)
        result = sample_low_resource(verses, AblationPlan(fraction=1.0, seed=0, total=50))
        assert len(result.ids) == 50
        assert set(result.ids) <= {vid for vid, _ in verses}

    def test_fifth_of_23000(self):
        verses = _verses(23_000)
        plan = AblationPlan(fraction=0.2, seed=7, total=23_000)
        result = sample_low_resource(verses, plan)
        assert len(result.ids) == 23_000
        assert result.distinct_count <= 4_600

    def test_deterministic(self):
        verses = _verses(400)
        plan = AblationPlan(fraction=0.3, seed=11, total=400)
        assert sample_low_resource(verses, plan) == sample_low_resource(verses, plan)

    def test_distinct_bound_and_exact_size(self):
        verses = _verses(100)
        for fraction in (0.1, 0.33, 0.77):
            plan = AblationPlan(fraction=fraction, seed=5, total=100)
            result = sample_low_resource(verses, plan)
            assert len(result.ids) == 100
            assert result.distinct_count <= math.floor(fraction * 100)

    def test_word_count_covers_distinct_sentences(self):
        verses = _verses(40, words_per_verse=5)
        plan = AblationPlan(fraction=0.5, seed=3, total=40)
        result = sample_low_resource(verses, plan)
        assert result.unique_word_count == 5 * result.distinct_count
        assert result.log10_word_count == round(math.log10(result.unique_word_count), 2)

    def test_bad_fraction(self):
        with pytest.raises(BadFraction):
            AblationPlan(fraction=0.0, seed=0, total=10)
        with pytest.raises(BadFraction):
            AblationPlan(fraction=1.5, seed=0, total=10)

    def test_fraction_drawing_nothing(self):
        # The plan refuses it, before any verse is seen.
        with pytest.raises(BadFraction, match="fraction 0.01 of 10 sentences draws nothing"):
            AblationPlan(fraction=0.01, seed=0, total=10)

    def test_empty_verses(self):
        with pytest.raises(ValueError):
            sample_low_resource([], AblationPlan(fraction=0.5, seed=0, total=10))


class TestGl:
    def test_spec_arithmetic(self):
        state = GlState()
        state, gl, decision = gl_update(state, 1, 40.0)
        assert (gl, decision) == (0.0, "continue")
        state, gl, decision = gl_update(state, 2, 44.5)
        assert (gl, decision) == (0.0, "continue")
        state, gl, decision = gl_update(state, 3, 44.4)
        assert gl == pytest.approx(0.2247, abs=1e-4)
        assert decision == "stop"

    def test_improving_never_stops(self):
        state = GlState()
        for epoch, score in enumerate([10.0, 11.0, 12.5, 30.0], start=1):
            state, gl, decision = gl_update(state, epoch, score)
            assert gl == 0.0
            assert decision == "continue"

    def test_first_epoch(self):
        _, gl, decision = gl_update(GlState(), 1, 5.0)
        assert (gl, decision) == (0.0, "continue")

    def test_non_monotone_epoch(self):
        state, _, _ = gl_update(GlState(), 3, 5.0)
        with pytest.raises(NonMonotoneEpoch):
            gl_update(state, 3, 6.0)

    def test_negative_score(self):
        with pytest.raises(ValueError):
            gl_update(GlState(), 1, -1.0)

    @pytest.mark.parametrize("score", [float("nan"), float("inf")])
    def test_non_finite_score(self, score):
        with pytest.raises(ValueError, match="finite"):
            gl_update(GlState(), 1, score)

    def test_zero_scores(self):
        state, gl, decision = gl_update(GlState(), 1, 0.0)
        assert (gl, decision) == (0.0, "continue")

    @given(
        scores=st.lists(st.floats(0.1, 100.0), min_size=2, max_size=12),
        alphas=st.tuples(st.floats(0.01, 5.0), st.floats(0.01, 5.0)),
    )
    @settings(max_examples=60)
    def test_stop_monotone_in_alpha(self, scores, alphas):
        low, high = min(alphas), max(alphas)

        def stop_epoch(alpha: float):
            state = GlState(alpha=alpha)
            for epoch, score in enumerate(scores, start=1):
                state, gl, decision = gl_update(state, epoch, score)
                assert gl >= 0.0
                if decision == "stop":
                    return epoch
            return len(scores) + 1

        assert stop_epoch(high) >= stop_epoch(low)


TABLE4_WORDS = [53589, 107262, 161332, 214185, 268228, 322116, 375439, 429470, 483440, 538030]
TABLE4_EN2SW = [25.2, 30.6, 32.9, 32.7, 34.2, 34.2, 33.8, 33.6, 34.3, 34.9]


class TestFit:
    def test_exact_line(self):
        points = [(10.0**x, 2.0 * x + 1.0) for x in (1.0, 2.0, 3.0, 4.5)]
        fit = fit_power_law(points)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_en2sw_series_matches_oracle(self):
        points = list(zip(TABLE4_WORDS, TABLE4_EN2SW))
        fit = fit_power_law(points)
        slope, intercept, r_squared = least_squares_oracle(
            [math.log10(w) for w in TABLE4_WORDS], TABLE4_EN2SW
        )
        assert fit.slope > 0
        assert fit.slope == pytest.approx(slope, abs=1e-9)
        assert fit.intercept == pytest.approx(intercept, abs=1e-9)
        assert fit.r_squared == pytest.approx(r_squared, abs=1e-9)

    def test_single_point(self):
        with pytest.raises(DegenerateInput):
            fit_power_law([(100.0, 10.0)])

    def test_identical_word_counts(self):
        with pytest.raises(DegenerateInput):
            fit_power_law([(100.0, 10.0), (100.0, 12.0)])

    def test_word_counts_with_one_float_log10(self):
        with pytest.raises(DegenerateInput):
            fit_power_law([(1e300, 1.0), (1.0000000000000002e300, 2.0)])

    @pytest.mark.parametrize("scores", [(1e300, -1e300, 3.0), (1e308, 1e308, -1e308)])
    def test_scores_too_large_to_fit(self, scores):
        with pytest.raises(DegenerateInput, match="too large"):
            fit_power_law(list(zip((10.0, 100.0, 1000.0), scores)))

    def test_nonpositive_word_count(self):
        with pytest.raises(DegenerateInput):
            fit_power_law([(0.0, 1.0), (10.0, 2.0)])

    def test_residuals_orthogonal(self):
        points = list(zip(TABLE4_WORDS, TABLE4_EN2SW))
        fit = fit_power_law(points)
        xs = [math.log10(w) for w, _ in points]
        residuals = [y - (fit.slope * x + fit.intercept) for x, (_, y) in zip(xs, points)]
        assert abs(sum(residuals)) < 1e-9
        assert abs(sum(r * x for r, x in zip(residuals, xs))) < 1e-9


class TestTrainerConfig:
    def test_multilingual_profile(self):
        config = emit_trainer_config("multilingual")
        assert config.minibatch_size == 64
        assert config.dropout == 0.3
        assert (config.rnn_layers, config.rnn_size) == (4, 1000)
        assert config.word_vec_size == 600
        assert config.learning_rate == 0.8
        assert config.decay_rate == 0.7
        assert config.decay_start_epoch == 9
        assert config.optimizer == "sgd"

    def test_single_pair_profile(self):
        config = emit_trainer_config("single-pair")
        assert (config.rnn_layers, config.rnn_size) == (2, 500)
        assert config.word_vec_size == 500
        assert config.learning_rate == 1.0

    def test_unknown_profile(self):
        with pytest.raises(UnknownProfile):
            emit_trainer_config("transformer")

    def test_config_file_parses_back(self, tmp_path):
        config = emit_trainer_config("multilingual")
        write_trainer_config(config, tmp_path / "train.cfg")
        parsed = dict(
            line.split(": ", 1)
            for line in (tmp_path / "train.cfg").read_text().splitlines()
        )
        assert parsed["minibatch_size"] == "64"
        assert parsed["rnn_size"] == "1000"
        assert parsed["optimizer"] == "sgd"

    @pytest.mark.parametrize(
        "profile, layers, size, vec, rate",
        [("multilingual", 4, 1000, 600, 0.8), ("single-pair", 2, 500, 500, 1.0)],
    )
    def test_config_file_bytes(self, tmp_path, profile, layers, size, vec, rate):
        write_trainer_config(emit_trainer_config(profile), tmp_path / "train.cfg")
        assert (tmp_path / "train.cfg").read_bytes() == (
            f"profile: {profile}\nminibatch_size: 64\ndropout: 0.3\nrnn_layers: {layers}\n"
            f"rnn_size: {size}\nword_vec_size: {vec}\nlearning_rate: {rate}\n"
            "decay_rate: 0.7\ndecay_start_epoch: 9\noptimizer: sgd\n"
        ).encode()


class TestManifestIo:
    def test_tsv_columns(self, tmp_path):
        verses = _verses(20)
        plan = AblationPlan(fraction=0.5, seed=1, total=20)
        result = sample_low_resource(verses, plan)
        write_ablation_manifest([(plan, result)], tmp_path / "manifest.tsv")
        lines = (tmp_path / "manifest.tsv").read_text().splitlines()
        assert lines[0] == "fraction\tseed\ttotal\tdistinct\tunique_words\tlog10_words"
        fields = lines[1].split("\t")
        assert fields[0] == "0.5"
        assert int(fields[3]) == result.distinct_count
