"""Absolute-popularity baseline: predict log-likes from a visual score plus
six non-visual count features, trained end-to-end with MSE.

The visual scorer summarizes the per-post feature vector into one scalar; the
head is a 7-256-128-64-1 network over that scalar concatenated with the six
ln(1+count)-transformed non-visual features. Both are views into one
parameter vector, visual scorer first, which `mlp.fit` trains end-to-end with
a single Adam state. As an intrinsic-popularity ranker the baseline is scored
by the visual branch alone, since both members of a mined pair share the same
user statistics by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import evaluate, mlp, ranker
from .features import FeatureSet
from .mining import PDIP
from .mlp import MlpModel, TrainConfig
from .util import seeded_rng

HEAD_DIMS = [7, 256, 128, 64, 1]


@dataclass(frozen=True)
class NonVisualFeatures:
    """Six nonnegative counts describing the post's social/textual context."""

    followers: float
    followings: float
    n_posts: float
    n_hashtags: float
    n_mentions: float
    caption_length: float

    def transformed(self) -> np.ndarray:
        """ln(1+count) for each field, the form fed to the model."""
        values = np.array([getattr(self, f) for f in NONVISUAL_FIELDS], dtype=np.float64)
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise ValueError(f"non-visual counts must be finite and >= 0, got {values}")
        return np.log1p(values)


NONVISUAL_FIELDS = tuple(f.name for f in fields(NonVisualFeatures))


class AbsolutePopModel:
    """Visual scorer and head over the vector `params` itself (no copy): the visual scorer's parameters first."""

    def __init__(self, visual_dims: list[int], head_dims: list[int], params: np.ndarray):
        if head_dims[0] != 1 + len(NONVISUAL_FIELDS):
            raise ValueError(f"head input dim must be {1 + len(NONVISUAL_FIELDS)}, got {head_dims[0]}")
        k = mlp.n_params(visual_dims)
        self.params = params
        self.visual_scorer, self.head = MlpModel(visual_dims, params[:k]), MlpModel(head_dims, params[k:])

    def over(self, params: np.ndarray) -> "AbsolutePopModel":
        """A model of this model's dims over `params` itself (no copy)."""
        return AbsolutePopModel(self.visual_scorer.layer_dims, self.head.layer_dims, params)


@dataclass(frozen=True)
class BaselineSample:
    post_id: str
    visual: np.ndarray
    nonvisual: NonVisualFeatures
    target: float  # log-likes


@dataclass
class BaselineReport:
    """Training curve with validation MSE model selection (lower is better)."""

    train_loss: list[float]
    val_mse: list[float]
    selected_epoch: int
    model: AbsolutePopModel


def init_baseline(visual_dims: list[int], seed: int) -> AbsolutePopModel:
    rng = seeded_rng(seed, "baseline-init")
    params = np.concatenate([mlp.init_model(visual_dims, rng).params, mlp.init_model(HEAD_DIMS, rng).params])
    return AbsolutePopModel(visual_dims, HEAD_DIMS, params)


def baseline_loss_and_grad(
    model: AbsolutePopModel, xv: np.ndarray, nv_log: np.ndarray, targets: np.ndarray, grad: AbsolutePopModel
) -> tuple[float, np.ndarray]:
    """Mean squared error and its exact gradient with respect to `model.params`.

    `nv_log` is the already ln(1+.)-transformed (n, 6) matrix; the head input
    gradient's first column backpropagates into the visual scorer. Both
    sub-networks' gradients are written into the views of `grad` (a model in
    `model`'s layout, as `model.over` makes), and its joint vector is returned.
    """
    q_vis, cache_vis = mlp.forward_cached(model.visual_scorer, xv)
    head_in = np.column_stack([q_vis, nv_log])
    preds, cache_head = mlp.forward_cached(model.head, head_in)
    residuals = preds - targets
    loss = float(np.mean(residuals**2))
    g_out = 2.0 * residuals / len(targets)
    _, delta = mlp.backward(model.head, cache_head, g_out, grad.head)
    mlp.backward(model.visual_scorer, cache_vis, (delta @ model.head.weights[0])[:, 0], grad.visual_scorer)
    return loss, grad.params


def mse_loss(preds, targets) -> float:
    """Mean of squared differences; lengths must match and be >= 1."""
    preds = np.asarray(preds, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if preds.shape != targets.shape:
        raise ValueError(f"length mismatch: {preds.shape} vs {targets.shape}")
    if preds.size == 0:
        raise ValueError("mse_loss requires at least one element")
    return float(np.mean((preds - targets) ** 2))


def train_baseline(
    model: AbsolutePopModel,
    samples: list[BaselineSample],
    split: tuple[np.ndarray, np.ndarray],
    config: TrainConfig,
) -> BaselineReport:
    """End-to-end MSE training on log-likes targets; selects min-val-MSE epoch.

    Same schedule as the pairwise ranker (`mlp.fit`): seeded shuffle,
    minibatches, Adam with coupled l2 over the joint parameter vector,
    multiplicative per-epoch learning-rate decay. The validation MSE is
    computed by the training pass (`mlp.forward_cached`, through BLAS), as
    in `ranker.train`.
    """
    train_idx, val_idx = (np.asarray(ix, dtype=int) for ix in split)
    xv = np.stack([s.visual for s in samples])
    nv_log = np.stack([s.nonvisual.transformed() for s in samples])
    targets = np.array([s.target for s in samples], dtype=np.float64)
    grad = model.over(np.empty_like(model.params))  # every step's gradient, made once per fit

    def loss_and_grad(batch: np.ndarray) -> tuple[float, np.ndarray]:
        rows = train_idx[batch]
        return baseline_loss_and_grad(model, xv[rows], nv_log[rows], targets[rows], grad)

    def neg_val_mse() -> float:
        q_vis = mlp.forward_cached(model.visual_scorer, xv[val_idx])[0]
        return -mse_loss(mlp.forward_cached(model.head, np.column_stack([q_vis, nv_log[val_idx]]))[0], targets[val_idx])

    losses, scores, best_epoch, best_params = mlp.fit(
        model.params, split, lambda rng: loss_and_grad, neg_val_mse, config, seeded_rng(config.seed, "train-baseline")
    )
    return BaselineReport(losses, [-score for score in scores], best_epoch, model.over(best_params))


def eval_baseline_as_intrinsic(model: AbsolutePopModel, pairs: list[PDIP], features: FeatureSet) -> evaluate.EvalResult:
    """Pairwise accuracy of the visual branch alone on a mined pair list, scoring every feature row."""
    return evaluate.pairwise_accuracy(ranker.score_batch(model.visual_scorer, features), pairs)
