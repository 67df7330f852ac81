"""Tests for the absolute-popularity baseline and its use as an intrinsic ranker."""

import numpy as np
import pytest

from poprank import baseline as bl
from poprank import mlp, synthgen
from poprank.baseline import (
    AbsolutePopModel,
    BaselineSample,
    NonVisualFeatures,
    baseline_loss_and_grad,
    eval_baseline_as_intrinsic,
    init_baseline,
    load_baseline,
    load_nonvisual,
    mse_loss,
    pearson,
    save_baseline,
    save_nonvisual,
    train_baseline,
)
from poprank.corpus import log_likes
from poprank.mining import PDIP
from poprank.ranker import TrainConfig
from poprank.util import seeded_rng, split_indices

from conftest import add_user_engagement, baseline_forward


def _nv(**overrides):
    values = dict(followers=100, followings=50, n_posts=20, n_hashtags=1, n_mentions=0, caption_length=3)
    values.update(overrides)
    return NonVisualFeatures(**{k: float(v) for k, v in values.items()})


class TestBaselineForward:
    def test_zero_parameters_give_zero(self):
        model = init_baseline([4, 3, 1], seed=0)
        for net in (model.visual_scorer, model.head):
            for w in net.weights:
                w[:] = 0.0
        assert baseline_forward(model, np.ones(4), _nv()) == 0.0

    def test_matches_matrix_oracle(self):
        model = init_baseline([3, 2, 1], seed=1)
        x = np.array([0.4, -1.0, 2.0])
        nv = _nv()
        q_vis = mlp.forward(model.visual_scorer, x)
        head_in = np.concatenate([[q_vis], np.log1p([100.0, 50.0, 20.0, 1.0, 0.0, 3.0])])
        expected = mlp.forward(model.head, head_in)
        assert baseline_forward(model, x, nv) == pytest.approx(expected, abs=1e-12)

    def test_head_dim_enforced(self):
        with pytest.raises(ValueError):
            AbsolutePopModel(
                visual_scorer=mlp.init_model([4, 1], seed=0),
                head=mlp.init_model([6, 4, 1], seed=0),
            )

    def test_negative_counts_rejected(self):
        model = init_baseline([3, 1], seed=0)
        with pytest.raises(ValueError):
            baseline_forward(model, np.zeros(3), _nv(followers=-1))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        model = AbsolutePopModel(
            visual_scorer=mlp.init_model([3, 2, 1], seed=4),
            head=mlp.MlpModel(
                layer_dims=[7, 3, 1],
                weights=[rng.normal(0, 0.5, size=(3, 7)), rng.normal(0, 0.5, size=(1, 3))],
                biases=[rng.normal(0, 0.1, size=3), rng.normal(0, 0.1, size=1)],
            ),
        )
        xv = rng.normal(size=(4, 3))
        nv_log = np.abs(rng.normal(size=(4, 6)))
        targets = rng.normal(size=4)
        _, grad = baseline_loss_and_grad(model, xv, nv_log, targets)

        def loss():
            q = mlp.forward_batch(model.visual_scorer, xv)
            preds = mlp.forward_batch(model.head, np.column_stack([q, nv_log]))
            return float(np.mean((preds - targets) ** 2))

        h = 1e-5
        worst = 0.0
        for i in range(model.params.size):  # the sub-networks' weights and biases are views into params
            orig = model.params[i]
            model.params[i] = orig + h
            up = loss()
            model.params[i] = orig - h
            dn = loss()
            model.params[i] = orig
            fd = (up - dn) / (2 * h)
            worst = max(worst, abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-6))
        assert worst < 1e-4


class TestMseLoss:
    def test_identical(self):
        assert mse_loss([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_arithmetic(self):
        assert mse_loss([0.0, 0.0], [1.0, 3.0]) == pytest.approx(5.0)

    def test_quadratic_homogeneity(self):
        preds = np.array([1.0, -2.0, 0.5])
        targets = np.zeros(3)
        base = mse_loss(preds, targets)
        for c in (2.0, 10.0, 0.3):
            assert mse_loss(c * preds, targets) == pytest.approx(c * c * base)

    def test_errors(self):
        with pytest.raises(ValueError):
            mse_loss([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            mse_loss([], [])


class TestPearson:
    def test_perfect_positive(self):
        xs = [1.0, 2.0, 5.0, 9.0]
        assert pearson(xs, xs) == pytest.approx(1.0)

    def test_perfect_negative(self):
        xs = np.array([1.0, 2.0, 5.0, 9.0])
        assert pearson(xs, -xs) == pytest.approx(-1.0)

    def test_affine_invariance(self):
        rng = np.random.default_rng(12)
        a, b = rng.normal(size=100), rng.normal(size=100)
        base = pearson(a, b)
        assert pearson(3.0 * a + 5.0, b) == pytest.approx(base, abs=1e-12)
        assert pearson(a, 0.1 * b - 2.0) == pytest.approx(base, abs=1e-12)

    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(13)
        a, b = rng.normal(size=200), rng.normal(size=200)
        assert pearson(a, b) == pytest.approx(float(np.corrcoef(a, b)[0, 1]), abs=1e-12)

    def test_zero_variance_error(self):
        with pytest.raises(ValueError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_short(self):
        with pytest.raises(ValueError):
            pearson([1.0], [2.0])


def _engagement_dataset(seed=314):
    """Corpus whose likes are driven by followers plus the per-post latent."""
    cfg = synthgen.SynthConfig(n_users=150, posts_per_user=8, time_span_days=60, seed=seed)
    syn = synthgen.generate_corpus(cfg)
    posts, nonvisual = add_user_engagement(syn, beta=1.0, seed=seed + 1)
    samples = [
        BaselineSample(
            post_id=p.post_id,
            visual=syn.features[p.post_id],
            nonvisual=nonvisual[p.post_id],
            target=log_likes(p.likes),
        )
        for p in posts
    ]
    return syn, posts, nonvisual, samples


class TestTrainBaseline:
    def test_zero_learning_rate_constant_loss(self):
        _, _, _, samples = _engagement_dataset()
        samples = samples[:100]
        model = init_baseline([16, 8, 1], seed=0)
        split = split_indices(len(samples), 0.2, seeded_rng(0, "s"))
        report = train_baseline(model, samples, split, TrainConfig(learning_rate=0.0, epochs=3, seed=0))
        assert report.train_loss[0] == pytest.approx(report.train_loss[-1], abs=1e-12)

    def test_deterministic(self):
        _, _, _, samples = _engagement_dataset()
        samples = samples[:120]
        split = split_indices(len(samples), 0.2, seeded_rng(1, "s"))
        config = TrainConfig(learning_rate=1e-3, epochs=2, seed=4)
        reports = []
        for _ in range(2):
            model = init_baseline([16, 8, 1], seed=4)
            reports.append(train_baseline(model, samples, split, config))
        assert reports[0].train_loss == reports[1].train_loss
        assert reports[0].val_mse == reports[1].val_mse

    def test_planted_signal_gives_high_pearson(self):
        _, _, _, samples = _engagement_dataset()
        model = init_baseline([16, 16, 8, 1], seed=7)
        split = split_indices(len(samples), 0.1, seeded_rng(7, "s"))
        config = TrainConfig(learning_rate=1e-3, epochs=40, seed=7)
        report = train_baseline(model, samples, split, config)
        train_ids = split[0]
        preds = [
            baseline_forward(report.model, samples[i].visual, samples[i].nonvisual) for i in train_ids
        ]
        targets = [samples[i].target for i in train_ids]
        assert pearson(preds, targets) >= 0.9

    def test_monotone_in_followers_after_training(self):
        _, _, _, samples = _engagement_dataset()
        model = init_baseline([16, 16, 8, 1], seed=7)
        split = split_indices(len(samples), 0.1, seeded_rng(7, "s"))
        report = train_baseline(model, samples, split, TrainConfig(learning_rate=1e-3, epochs=40, seed=7))
        rng = np.random.default_rng(3)
        test_samples = [samples[i] for i in rng.choice(len(samples), size=80, replace=False)]
        deltas = []
        for s in test_samples:
            lo = baseline_forward(report.model, s.visual, s.nonvisual)
            boosted = NonVisualFeatures(
                followers=s.nonvisual.followers * 10.0,
                followings=s.nonvisual.followings,
                n_posts=s.nonvisual.n_posts,
                n_hashtags=s.nonvisual.n_hashtags,
                n_mentions=s.nonvisual.n_mentions,
                caption_length=s.nonvisual.caption_length,
            )
            deltas.append(baseline_forward(report.model, s.visual, boosted) - lo)
        assert float(np.mean(deltas)) > 0.0


class TestEvalAsIntrinsic:
    def _pairs_and_features(self):
        rng = np.random.default_rng(21)
        pairs = [PDIP(id_a=f"a{i}", id_b=f"b{i}", user_id="u", prob=0.99, delta_s=1.0) for i in range(10)]
        features = {pid: rng.normal(size=4) for p in pairs for pid in (p.id_a, p.id_b)}
        return pairs, features

    def test_zero_model_is_all_ties(self):
        pairs, features = self._pairs_and_features()
        model = init_baseline([4, 2, 1], seed=0)
        for w in model.visual_scorer.weights:
            w[:] = 0.0
        result = eval_baseline_as_intrinsic(model, pairs, features)
        assert result.accuracy == 0.0 and result.n_ties == len(pairs)

    def test_perfect_visual_scorer(self):
        pairs, features = self._pairs_and_features()
        for p in pairs:
            features[p.id_a] = np.array([5.0, 0.0, 0.0, 0.0])
            features[p.id_b] = np.array([1.0, 0.0, 0.0, 0.0])
        model = init_baseline([4, 1], seed=0)
        model.visual_scorer.weights[0][:] = np.array([[1.0, 0.0, 0.0, 0.0]])
        result = eval_baseline_as_intrinsic(model, pairs, features)
        assert result.accuracy == 1.0

    def test_missing_features_error(self):
        pairs, features = self._pairs_and_features()
        del features["a0"]
        model = init_baseline([4, 2, 1], seed=0)
        with pytest.raises(ValueError, match="a0"):
            eval_baseline_as_intrinsic(model, pairs, features)


class TestBaselineIo:
    def test_checkpoint_round_trip(self, tmp_path):
        model = init_baseline([5, 3, 1], seed=11)
        path = tmp_path / "baseline.txt"
        save_baseline(path, model)
        loaded = load_baseline(path)
        for wa, wb in zip(loaded.visual_scorer.weights, model.visual_scorer.weights):
            assert np.array_equal(wa, wb)
        assert loaded.head.layer_dims == bl.HEAD_DIMS

    def test_nonvisual_round_trip(self, tmp_path):
        nonvisual = {"p1": _nv(), "p2": _nv(followers=7, caption_length=0)}
        path = tmp_path / "nv.csv"
        save_nonvisual(path, nonvisual)
        assert load_nonvisual(path) == nonvisual

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["p1,1,2,3,4,5,6", "p1,1,2,3,4,5,6"], "line 3: duplicate post_id 'p1'"),
            (["p1,1,2,3,4,5,6", "p2,1,2,3,4,5"], "line 3: expected 7 fields, got 6"),
        ],
    )
    def test_nonvisual_malformed_rows_name_the_line(self, tmp_path, rows, message):
        path = tmp_path / "nv.csv"
        path.write_text("post_id," + ",".join(bl.NONVISUAL_FIELDS) + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=message):
            load_nonvisual(path)
