"""Tests for accuracy, label flipping, ablation wiring, display rescaling, the scores file."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poprank.evaluate import (
    flip_labels,
    noise_ablation,
    pairwise_accuracy,
    rescale_for_display,
    write_scores_csv,
)
from poprank.features import FeatureSet
from poprank.mining import PDIP
from poprank.ranker import TrainConfig

from conftest import legal_ids, read_id_values


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
        features = FeatureSet.of(features)
        t1 = noise_ablation(pairs, features, config, [0.0, 0.4], hidden_dims=[4])
        t2 = noise_ablation(pairs, features, config, [0.0, 0.4], hidden_dims=[4])
        assert t1 == t2
        assert [q for q, _ in t1] == [0.0, 0.4]
        assert all(0.0 <= acc <= 1.0 for _, acc in t1)


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

    def test_span_past_the_float_range(self):
        out = rescale_for_display({"a": 1.5e308, "b": -1.5e308, "c": 0.0}, 100.0)
        assert out == {"a": 100.0, "b": 0.0, "c": 50.0}

    def test_degenerate_range(self):
        assert rescale_for_display({"a": 3.0, "b": 3.0}, 7.0) == {"a": 7.0, "b": 7.0}

    @pytest.mark.parametrize("new_max", [0.0, -1.0, math.nan, math.inf])
    def test_bad_new_max(self, new_max):
        with pytest.raises(ValueError, match="new_max"):
            rescale_for_display({"a": 2.0, "b": 3.0}, new_max)


class TestScoresFile:
    def test_round_trip(self, tmp_path):
        scores = {"p1": 0.25, "p2": -1.5}
        path = tmp_path / "scores.csv"
        write_scores_csv(path, scores)
        assert read_id_values(path, "post_id,score") == scores

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.dictionaries(legal_ids, st.floats(allow_nan=False, allow_infinity=False), max_size=12))
    def test_round_trip_is_bitwise(self, tmp_path_factory, scores):
        path = tmp_path_factory.mktemp("scores") / "scores.csv"
        write_scores_csv(path, scores)
        loaded = read_id_values(path, "post_id,score")
        assert {pid: s.hex() for pid, s in loaded.items()} == {pid: s.hex() for pid, s in scores.items()}
