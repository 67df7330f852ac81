"""Tests for accuracy, label flipping, ablation wiring, fits, levels, histograms."""

import math

import numpy as np
import pytest

from poprank import evaluate
from poprank.evaluate import (
    POPULARITY_LEVELS,
    fit_gaussian,
    flip_labels,
    histogram,
    noise_ablation,
    pairwise_accuracy,
    popularity_levels,
    read_scores_csv,
    rescale_for_display,
    write_scores_csv,
)
from poprank.mining import PDIP
from poprank.ranker import TrainConfig


def _pairs(n, user="u"):
    return [PDIP(id_a=f"a{i}", id_b=f"b{i}", user_id=user, prob=0.99, delta_s=1.0 + i) for i in range(n)]


class TestPairwiseAccuracy:
    def test_perfect_ranker(self):
        pairs = _pairs(4)
        scores = {}
        for p in pairs:
            scores[p.id_a] = p.delta_s
            scores[p.id_b] = 0.0
        result = pairwise_accuracy(scores, pairs)
        assert result.accuracy == 1.0 and result.n_ties == 0

    def test_all_ties_count_incorrect(self):
        pairs = _pairs(5)
        scores = {pid: 0.0 for p in pairs for pid in (p.id_a, p.id_b)}
        result = pairwise_accuracy(scores, pairs)
        assert result.accuracy == 0.0 and result.n_ties == 5

    def test_manual_enumeration(self):
        pairs = _pairs(3)
        scores = {"a0": 1.0, "b0": 0.0, "a1": 2.0, "b1": 1.0, "a2": 0.0, "b2": 5.0}
        result = pairwise_accuracy(scores, pairs)
        assert result.accuracy == pytest.approx(0.6667, abs=1e-4)
        assert result.n_pairs == 3

    def test_empty_pairs_error(self):
        with pytest.raises(ValueError):
            pairwise_accuracy({}, [])

    def test_missing_score_error(self):
        pairs = _pairs(1)
        with pytest.raises(ValueError, match="b0"):
            pairwise_accuracy({"a0": 1.0}, pairs)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(10)
        pairs = _pairs(40)
        scores = {pid: float(rng.normal()) for p in pairs for pid in (p.id_a, p.id_b)}
        base = pairwise_accuracy(scores, pairs)
        for transform in (lambda s: 3.0 * s + 10.0, math.exp, lambda s: s**3):
            mapped = {k: transform(v) for k, v in scores.items()}
            assert pairwise_accuracy(mapped, pairs).accuracy == base.accuracy

    def test_swap_complement_without_ties(self):
        rng = np.random.default_rng(11)
        pairs = _pairs(30)
        scores = {pid: float(rng.normal()) for p in pairs for pid in (p.id_a, p.id_b)}
        forward = pairwise_accuracy(scores, pairs)
        swapped = pairwise_accuracy(scores, flip_labels(pairs, 1.0, seed=0))
        assert forward.n_ties == 0
        assert forward.accuracy + swapped.accuracy == pytest.approx(1.0, abs=1e-12)


class TestFlipLabels:
    def test_identity_at_zero(self):
        pairs = _pairs(10)
        assert flip_labels(pairs, 0.0, seed=1) == pairs

    def test_involution_at_one(self):
        pairs = _pairs(10)
        flipped = flip_labels(pairs, 1.0, seed=1)
        assert flipped != pairs
        assert all(f.id_a == p.id_b and f.delta_s == -p.delta_s for f, p in zip(flipped, pairs))
        assert flip_labels(flipped, 1.0, seed=2) == pairs

    def test_exact_count(self):
        pairs = _pairs(1000)
        flipped = flip_labels(pairs, 0.3, seed=7)
        n_swapped = sum(1 for f, p in zip(flipped, pairs) if f.id_a == p.id_b)
        assert n_swapped == 300

    def test_floor_semantics(self):
        pairs = _pairs(7)
        flipped = flip_labels(pairs, 0.5, seed=3)
        assert sum(1 for f, p in zip(flipped, pairs) if f.id_a == p.id_b) == 3

    def test_deterministic(self):
        pairs = _pairs(50)
        assert flip_labels(pairs, 0.4, seed=9) == flip_labels(pairs, 0.4, seed=9)

    def test_does_not_mutate_input(self):
        pairs = _pairs(5)
        snapshot = list(pairs)
        flip_labels(pairs, 1.0, seed=0)
        assert pairs == snapshot

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            flip_labels(_pairs(3), 1.5, seed=0)


class TestNoiseAblation:
    def test_empty_levels(self):
        assert noise_ablation([], {}, TrainConfig(), []) == []

    def test_levels_out_of_range(self):
        with pytest.raises(ValueError):
            noise_ablation(_pairs(4), {}, TrainConfig(), [0.6])

    def test_toy_run_shapes_and_determinism(self):
        rng = np.random.default_rng(0)
        pairs = _pairs(60)
        features = {pid: rng.normal(size=4) for p in pairs for pid in (p.id_a, p.id_b)}
        for p in pairs:
            features[p.id_a][0] += 2.0  # plant signal in dim 0
        config = TrainConfig(learning_rate=1e-2, epochs=3, batch_size=16, seed=5)
        t1 = noise_ablation(pairs, features, config, [0.0, 0.4], hidden_dims=[4])
        t2 = noise_ablation(pairs, features, config, [0.0, 0.4], hidden_dims=[4])
        assert t1 == t2
        assert [q for q, _ in t1] == [0.0, 0.4]
        assert all(0.0 <= acc <= 1.0 for _, acc in t1)


class TestFitGaussian:
    def test_hand_arithmetic(self):
        fit = fit_gaussian([1.0, 2.0, 3.0])
        assert fit.mean == pytest.approx(2.0)
        assert fit.std == pytest.approx(1.0)  # n-1 denominator

    def test_constant_list_gives_zero_std(self):
        fit = fit_gaussian([4.2, 4.2, 4.2])
        assert fit.mean == pytest.approx(4.2) and fit.std == 0.0

    def test_too_short(self):
        with pytest.raises(ValueError):
            fit_gaussian([1.0])

    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(6)
        xs = rng.normal(3, 2, size=500)
        fit = fit_gaussian(list(xs))
        assert fit.mean == pytest.approx(float(np.mean(xs)), abs=1e-12)
        assert fit.std == pytest.approx(float(np.std(xs, ddof=1)), abs=1e-12)


class TestPopularityLevels:
    def test_single_score_is_excellent(self):
        assert popularity_levels({"p": 1.23}) == {"p": "excellent"}

    def test_hand_binning(self):
        scores = {f"p{v}": float(v) for v in range(6)}
        scores["q"] = 4.2
        levels = popularity_levels(scores)
        assert levels["q"] == "excellent"
        assert levels["p0"] == "poor"
        assert levels["p1"] == "bad"
        assert levels["p2"] == "fair"
        assert levels["p3"] == "good"
        assert levels["p4"] == "excellent"
        assert levels["p5"] == "excellent"

    def test_monotone_in_score(self):
        rng = np.random.default_rng(14)
        scores = {f"p{i}": float(rng.normal()) for i in range(100)}
        levels = popularity_levels(scores)
        rank = {name: i for i, name in enumerate(POPULARITY_LEVELS)}
        ordered = sorted(scores.items(), key=lambda kv: kv[1])
        ranks = [rank[levels[k]] for k, _ in ordered]
        assert all(b >= a for a, b in zip(ranks[:-1], ranks[1:]))

    def test_empty_error(self):
        with pytest.raises(ValueError):
            popularity_levels({})


class TestRescaleForDisplay:
    def test_two_point(self):
        assert rescale_for_display({"a": 0.0, "b": 5.0}, 100.0) == {"a": 0.0, "b": 100.0}

    def test_hand_arithmetic(self):
        out = rescale_for_display({"a": 2.0, "b": 3.0, "c": 4.0}, 100.0)
        assert out == {"a": 0.0, "b": 50.0, "c": 100.0}

    def test_max_is_exact(self):
        rng = np.random.default_rng(15)
        scores = {f"p{i}": float(rng.normal()) for i in range(50)}
        out = rescale_for_display(scores, 100.0)
        assert max(out.values()) == 100.0
        assert min(out.values()) == 0.0

    def test_order_preserved(self):
        rng = np.random.default_rng(16)
        scores = {f"p{i}": float(rng.normal()) for i in range(50)}
        out = rescale_for_display(scores, 10.0)
        order_in = sorted(scores, key=scores.get)
        order_out = sorted(out, key=out.get)
        assert order_in == order_out

    def test_degenerate_range(self):
        assert rescale_for_display({"a": 3.0, "b": 3.0}, 7.0) == {"a": 7.0, "b": 7.0}


class TestHistogram:
    def test_single_bin_all_equal(self):
        hist = histogram([2.0, 2.0, 2.0], 1)
        assert hist.masses.tolist() == [1.0]
        assert hist.densities.tolist() == [1.0]

    def test_uniform_grid(self):
        # exactly 100 points per bin over [0, 1], endpoints included
        scores = [0.0, 1.0] + [0.05 + 0.1 * i for i in range(10) for _ in range(99 if i in (0, 9) else 100)]
        hist = histogram(scores, 10)
        assert np.allclose(hist.masses, 0.1)
        assert np.allclose(hist.densities, 1.0)

    def test_density_normalization(self):
        rng = np.random.default_rng(18)
        scores = list(rng.normal(size=400))
        hist = histogram(scores, 17)
        widths = np.diff(hist.edges)
        assert float(np.sum(hist.densities * widths)) == pytest.approx(1.0, abs=1e-9)
        assert float(np.sum(hist.masses)) == pytest.approx(1.0, abs=1e-12)

    def test_max_lands_in_last_bin(self):
        hist = histogram([0.0, 0.5, 1.0], 2)
        assert hist.masses.tolist() == [pytest.approx(1 / 3), pytest.approx(2 / 3)]

    def test_empty_error(self):
        with pytest.raises(ValueError):
            histogram([], 3)

    def test_csv(self, tmp_path):
        hist = histogram([0.0, 1.0, 2.0, 3.0], 2)
        path = tmp_path / "hist.csv"
        evaluate.write_histogram_csv(path, hist)
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_left,bin_right,density"
        assert len(lines) == 3


class TestScoresFile:
    def test_round_trip(self, tmp_path):
        scores = {"p1": 0.25, "p2": -1.5}
        path = tmp_path / "scores.csv"
        write_scores_csv(path, scores)
        assert read_scores_csv(path) == scores

    @pytest.mark.parametrize(
        "body, message",
        [
            ("p1,0.5\np2,1.0\np1,2.0\n", "line 4: duplicate post_id 'p1'"),
            ("p1,0.5\np2,1.0,3.0\n", "line 3: expected 2 fields, got 3"),
            ("p1\n", "line 2: expected 2 fields, got 1"),
            ("p1,high\n", "line 2:"),
        ],
    )
    def test_malformed_rows_name_the_line(self, tmp_path, body, message):
        path = tmp_path / "scores.csv"
        path.write_text("post_id,score\n" + body)
        with pytest.raises(ValueError, match=message):
            read_scores_csv(path)
