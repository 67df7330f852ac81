"""Tests for pairwise ranking: logits, loss, gradients, training, scoring."""

import math
import tracemalloc

import numpy as np
import pytest

from poprank import mlp, ranker
from poprank.features import FeatureSet
from poprank.mining import PDIP
from poprank.mlp import init_model
from poprank.ranker import (
    TrainConfig,
    pair_grad,
    pair_logit,
    pair_loss,
    score_batch,
    train,
)
from poprank.util import seeded_rng, split_indices

from conftest import logistic, reference_train, row_forward


def _flatten(grads):
    return np.concatenate([g.ravel() for g in grads.weights] + [g.ravel() for g in grads.biases])


def _perturbed_loss(model, x_a, x_b, label, layer, row, col, h, bias=False):
    target = model.biases[layer] if bias else model.weights[layer]
    original = target[row] if bias else target[row, col]
    if bias:
        target[row] = original + h
    else:
        target[row, col] = original + h
    loss = pair_loss(pair_logit(model, x_a, x_b), label)
    if bias:
        target[row] = original
    else:
        target[row, col] = original
    return loss


def finite_difference_grad(model, x_a, x_b, label, h=1e-5):
    """Central-difference oracle for every parameter of the shared scorer."""
    parts = []
    for l in range(model.n_layers()):
        g = np.zeros_like(model.weights[l])
        for r in range(g.shape[0]):
            for c in range(g.shape[1]):
                up = _perturbed_loss(model, x_a, x_b, label, l, r, c, +h)
                dn = _perturbed_loss(model, x_a, x_b, label, l, r, c, -h)
                g[r, c] = (up - dn) / (2 * h)
        parts.append(g.ravel())
    for l in range(model.n_layers()):
        g = np.zeros_like(model.biases[l])
        for r in range(g.shape[0]):
            up = _perturbed_loss(model, x_a, x_b, label, l, r, 0, +h, bias=True)
            dn = _perturbed_loss(model, x_a, x_b, label, l, r, 0, -h, bias=True)
            g[r] = (up - dn) / (2 * h)
        parts.append(g.ravel())
    return np.concatenate(parts)


class TestPairLogit:
    def test_identical_inputs(self):
        model = init_model([4, 3, 1], seed=0)
        x = np.array([0.3, -1.2, 0.8, 2.0])
        assert pair_logit(model, x, x) == 0.0

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(17)
        model = init_model([5, 4, 1], seed=2)
        for _ in range(50):
            a, b = rng.normal(size=5), rng.normal(size=5)
            assert pair_logit(model, a, b) == -pair_logit(model, b, a)

    def test_matches_forward_difference(self):
        model = init_model([3, 2, 1], seed=4)
        a, b = np.array([1.0, 2.0, 3.0]), np.array([-1.0, 0.5, 0.0])
        assert pair_logit(model, a, b) == row_forward(model, a) - row_forward(model, b)


class TestPairLoss:
    def test_uninformative_logit(self):
        assert pair_loss(0.0, 1) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_confident_correct(self):
        assert pair_loss(10.0, 1) == pytest.approx(math.log1p(math.exp(-10.0)), abs=1e-18)
        assert pair_loss(10.0, 1) == pytest.approx(4.54e-5, abs=1e-7)

    def test_label_symmetry(self):
        rng = np.random.default_rng(23)
        for o in rng.normal(0, 5, size=200):
            assert pair_loss(float(o), 1) == pytest.approx(pair_loss(float(-o), 0), abs=1e-12)

    def test_nonnegative_and_stable(self):
        for o in (-800.0, -10.0, 0.0, 10.0, 800.0):
            for label in (0, 1):
                loss = pair_loss(o, label)
                assert loss >= 0.0 and math.isfinite(loss)

    @pytest.mark.parametrize("o", [0.0, 1e-300, -1e-300, 30.0, -30.0, 700.0, -700.0, 1e5, -1e5])
    @pytest.mark.parametrize("label", [0.0, 1.0])
    def test_is_the_training_steps_loss_bitwise(self, o, label):
        model = init_model([1, 1], seed=0)
        model.weights[0][:] = 1.0  # f(x) = x, so the pair ([o], [0]) has the logit o exactly
        x_ab, labels = np.array([[[o]], [[0.0]]]), np.array([label])
        loss, _ = ranker._step(model, x_ab, labels, ranker._StepBuffers(model, 1))
        assert np.float64(pair_loss(o, label)).tobytes() == np.float64(loss).tobytes()

    def test_matches_naive_formula_in_safe_range(self):
        rng = np.random.default_rng(31)
        for o in rng.normal(0, 3, size=100):
            for label in (0, 1):
                naive = -label * o + math.log1p(math.exp(o))
                assert pair_loss(float(o), label) == pytest.approx(naive, rel=1e-12)


class TestPairGrad:
    def test_identical_inputs_cancel(self):
        model = init_model([4, 3, 1], seed=6)
        x = np.array([0.5, 1.5, -0.5, 2.5])
        grads = pair_grad(model, x, x, label=0)
        assert all(np.all(g == 0.0) for g in grads.weights)
        assert all(np.all(g == 0.0) for g in grads.biases)

    def test_loss_derivative_identity(self):
        # d(loss)/d(logit) equals probability - label
        h = 1e-6
        rng = np.random.default_rng(41)
        for o in rng.normal(0, 4, size=50):
            for label in (0, 1):
                fd = (pair_loss(float(o) + h, label) - pair_loss(float(o) - h, label)) / (2 * h)
                assert fd == pytest.approx(logistic(float(o)) - label, abs=1e-7)

    def test_saturated_gradient_vanishes(self):
        model = init_model([2, 1], seed=1)
        model.weights[0][:] = np.array([[100.0, 0.0]])
        a, b = np.array([1.0, 0.0]), np.array([-1.0, 0.0])  # logit = 200
        grads = pair_grad(model, a, b, label=1)
        assert np.linalg.norm(_flatten(grads)) < 1e-10

    def test_matches_finite_differences_many_models(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(100):
            d = int(rng.integers(2, 9))
            hidden = int(rng.integers(2, 9))
            model = init_model([d, hidden, 1], seed=int(rng.integers(1 << 30)))
            for b in model.biases:
                b[:] = rng.normal(0, 0.3, size=b.shape)
            x_a, x_b = rng.normal(size=d), rng.normal(size=d)
            label = int(rng.integers(0, 2))
            analytic = _flatten(pair_grad(model, x_a, x_b, label))
            numeric = finite_difference_grad(model, x_a, x_b, label)
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
            worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
        assert worst < 1e-4

    def test_batch_gradient_equals_mean_of_singles(self):
        rng = np.random.default_rng(55)
        model = init_model([6, 4, 1], seed=8)
        xa = rng.normal(size=(5, 6))
        xb = rng.normal(size=(5, 6))
        labels = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        _, batch = ranker._step(model, np.stack([xa, xb]), labels, ranker._StepBuffers(model, 5))
        singles = [pair_grad(model, xa[i], xb[i], labels[i]) for i in range(5)]
        mean = _flatten(singles[0])
        for s in singles[1:]:
            mean = mean + _flatten(s)
        mean /= 5
        assert np.allclose(batch, mean, atol=1e-12)

    def test_unbuffered_results_are_fresh_arrays(self):
        # `pair_grad` makes its own buffers: no gradient it returns aliases another call's, so a caller may keep each
        rng = np.random.default_rng(56)
        model = init_model([6, 4, 3, 1], seed=8)
        xa, xb = rng.normal(size=(2, 5, 6))
        one, two = pair_grad(model, xa[0], xb[0], 1.0), pair_grad(model, xa[1], xb[1], 0.0)
        assert not np.shares_memory(one.params, two.params)
        assert not np.shares_memory(one.params, model.params)


def _toy_training_setup(n_pairs=200, dim=6, seed=0):
    """Linearly separable pair problem: score is the first feature."""
    rng = np.random.default_rng(seed)
    features = {}
    pairs = []
    for i in range(n_pairs):
        qa, qb = sorted(rng.normal(0, 2, size=2), reverse=True)
        id_a, id_b = f"a{i}", f"b{i}"
        features[id_a] = np.concatenate([[qa], rng.normal(size=dim - 1)])
        features[id_b] = np.concatenate([[qb], rng.normal(size=dim - 1)])
        pairs.append(PDIP(id_a=id_a, id_b=id_b, user_id=f"u{i}", prob=0.99, delta_s=qa - qb))
    split = split_indices(n_pairs, 0.2, seeded_rng(seed, "toy-split"))
    return pairs, FeatureSet.of(features), split


class TestTrain:
    def test_learns_separable_problem(self):
        pairs, features, split = _toy_training_setup()
        model = init_model([6, 8, 1], seed=3)
        config = TrainConfig(learning_rate=1e-2, epochs=30, batch_size=32, seed=3)
        report = train(model, pairs, features, split, config)
        assert max(report.val_accuracy) >= 0.90
        assert report.val_accuracy[report.selected_epoch] == max(report.val_accuracy)

    def test_zero_learning_rate_is_noop(self):
        pairs, features, split = _toy_training_setup(n_pairs=50)
        model = init_model([6, 4, 1], seed=5)
        before = [w.copy() for w in model.weights]
        config = TrainConfig(learning_rate=0.0, epochs=3, seed=5)
        report = train(model, pairs, features, split, config)
        for w0, w1 in zip(before, model.weights):
            assert np.array_equal(w0, w1)
        assert report.train_loss[0] == pytest.approx(report.train_loss[-1], abs=1e-12)

    def test_deterministic_given_seed(self):
        pairs, features, split = _toy_training_setup(n_pairs=60)
        config = TrainConfig(learning_rate=1e-3, epochs=4, seed=11)
        reports = []
        for _ in range(2):
            model = init_model([6, 4, 1], seed=11)
            reports.append(train(model, pairs, features, split, config))
        assert reports[0].train_loss == reports[1].train_loss
        assert reports[0].val_accuracy == reports[1].val_accuracy
        assert reports[0].selected_epoch == reports[1].selected_epoch
        for wa, wb in zip(reports[0].model.weights, reports[1].model.weights):
            assert np.array_equal(wa, wb)

    def test_first_step_decreases_fixed_batch_loss(self):
        pairs, features, _ = _toy_training_setup(n_pairs=16)
        model = init_model([6, 4, 1], seed=7)
        xa = features.matrix[features.rows([p.id_a for p in pairs])]
        xb = features.matrix[features.rows([p.id_b for p in pairs])]
        labels = np.ones(len(pairs))
        buffers = ranker._StepBuffers(model, len(pairs))
        loss0, grad = ranker._step(model, np.stack([xa, xb]), labels, buffers)
        state = mlp.AdamState(model.params)
        mlp.adam_step(state, model.params, grad, effective_lr=1e-6, l2_penalty=0.0)
        loss1, _ = ranker._step(model, np.stack([xa, xb]), labels, buffers)
        assert loss1 < loss0

    @pytest.mark.parametrize("n_pairs, batch_size", [(101, 16), (60, 10**9), (30, 1)])
    def test_buffered_loop_takes_the_allocating_step_bitwise(self, n_pairs, batch_size):
        # a short last batch (81 train pairs, 81 % 16 == 1), one batch larger than the split, single-pair batches
        pairs, features, split = _toy_training_setup(n_pairs=n_pairs, seed=4)
        config = TrainConfig(learning_rate=3e-2, l2_penalty=1e-3, batch_size=batch_size, epochs=4, seed=4)
        model = init_model([6, 8, 4, 1], seed=4)
        oracle = mlp.MlpModel(model.layer_dims, model.params.copy())
        losses, accs, best_epoch, best = reference_train(oracle, pairs, features, split, config)
        tracemalloc.start()
        try:
            report = train(model, pairs, features, split, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.train_loss, report.val_accuracy, report.selected_epoch) == (losses, accs, best_epoch)
        assert np.array_equal(model.params, oracle.params) and np.array_equal(report.model.params, best)
        assert peak < 1_000_000  # buffers sized by the rows a batch has, not by `batch_size`

    def test_batches_are_gathered_without_copying_the_feature_matrix(self):
        pairs, features, split = _toy_training_setup(n_pairs=1000, dim=256)
        model = init_model([256, 64, 32, 1], seed=1)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            train(model, pairs, features, split, TrainConfig(epochs=2, seed=1))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < features.matrix.nbytes / 2  # a copy of both members of every pair is the whole matrix

    def test_validation_does_not_use_the_fixed_order_scorer(self, monkeypatch):
        """Validation writes no score, so it runs through the training pass; `forward_batch` is for written ones."""

        def refuse(*args, **kwargs):
            raise AssertionError("mlp.forward_batch called during a fit")

        monkeypatch.setattr(mlp, "forward_batch", refuse)
        pairs, features, split = _toy_training_setup(n_pairs=101, seed=4)
        report = train(init_model([6, 8, 4, 1], seed=4), pairs, features, split, TrainConfig(batch_size=16, epochs=3))
        assert len(report.val_accuracy) == 3

    def test_ties_on_validation_count_as_incorrect(self):
        """A first layer of zeros scores every post alike: every validation pair is a tie, so accuracy is 0.0."""
        pairs, features, split = _toy_training_setup(n_pairs=60, seed=2)
        model = init_model([6, 8, 4, 1], seed=2)
        model.weights[0][:] = 0.0
        report = train(model, pairs, features, split, TrainConfig(learning_rate=0.0, batch_size=16, epochs=3))
        assert report.val_accuracy == [0.0, 0.0, 0.0] and report.selected_epoch == 0

    def test_the_report_model_shares_no_memory_with_the_fitted_vector(self):
        pairs, features, split = _toy_training_setup(n_pairs=40, seed=1)
        model = init_model([6, 4, 1], seed=1)
        report = train(model, pairs, features, split, TrainConfig(learning_rate=1e-2, epochs=2, seed=1))
        assert not np.shares_memory(report.model.params, model.params)

    def test_missing_feature_fails_before_training(self):
        pairs, features, split = _toy_training_setup(n_pairs=20)
        features = FeatureSet.of({pid: features[pid] for pid in features if pid != "a3"})
        model = init_model([6, 4, 1], seed=0)
        before = [w.copy() for w in model.weights]
        with pytest.raises(ValueError, match="a3"):
            train(model, pairs, features, split, TrainConfig(epochs=1))
        for w0, w1 in zip(before, model.weights):
            assert np.array_equal(w0, w1)

    def test_empty_split_rejected(self):
        pairs, features, _ = _toy_training_setup(n_pairs=10)
        model = init_model([6, 4, 1], seed=0)
        with pytest.raises(ValueError):
            train(model, pairs, features, (np.arange(10), np.array([], dtype=int)), TrainConfig(epochs=1))

    def test_overlapping_split_rejected(self):
        pairs, features, _ = _toy_training_setup(n_pairs=10)
        model = init_model([6, 4, 1], seed=0)
        with pytest.raises(ValueError):
            train(model, pairs, features, (np.arange(8), np.array([7, 8, 9])), TrainConfig(epochs=1))


class TestScoreBatch:
    def test_empty(self):
        model = init_model([4, 1], seed=0)
        assert score_batch(model, {}) == {}

    def test_singleton_matches_forward(self):
        model = init_model([4, 2, 1], seed=9)
        x = np.array([0.1, 0.2, 0.3, 0.4])
        assert score_batch(model, {"p": x}) == {"p": row_forward(model, x)}

    def test_mismatch_names_offender(self):
        model = init_model([4, 1], seed=0)
        with pytest.raises(ValueError, match="bad"):
            score_batch(model, {"ok": np.zeros(4), "bad": np.zeros(3)})

    def test_checkpoint_round_trip_preserves_scores(self, tmp_path):
        rng = np.random.default_rng(77)
        model = init_model([8, 5, 1], seed=13)
        features = {f"p{i}": rng.normal(size=8) for i in range(25)}
        path = tmp_path / "ckpt.txt"
        mlp.save_checkpoint(path, {"scorer": model})
        loaded = mlp.load_checkpoint(path)["scorer"]
        a = score_batch(model, features)
        b = score_batch(loaded, features)
        assert all(abs(a[k] - b[k]) <= 1e-12 for k in features)
