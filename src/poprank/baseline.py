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

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import evaluate, mlp
from .features import FeatureSet
from .mining import PDIP
from .mlp import MlpModel, TrainConfig
from .util import read_keyed_floats, seeded_rng

HEAD_DIMS = [7, 256, 128, 64, 1]

NONVISUAL_FIELDS = ("followers", "followings", "n_posts", "n_hashtags", "n_mentions", "caption_length")


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


@dataclass
class AbsolutePopModel:
    """Visual scorer and head; construction copies both into one vector `params`."""

    visual_scorer: MlpModel
    head: MlpModel
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.head.layer_dims[0] != 1 + len(NONVISUAL_FIELDS):
            raise ValueError(f"head input dim must be {1 + len(NONVISUAL_FIELDS)}, got {self.head.layer_dims[0]}")
        self.params = np.concatenate([self.visual_scorer.params, self.head.params])
        k = self.visual_scorer.params.size
        self.visual_scorer = MlpModel.over(self.visual_scorer.layer_dims, self.params[:k])
        self.head = MlpModel.over(self.head.layer_dims, self.params[k:])


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
    return AbsolutePopModel(visual_scorer=mlp.init_model(visual_dims, rng), head=mlp.init_model(HEAD_DIMS, rng))


def baseline_loss_and_grad(
    model: AbsolutePopModel, xv: np.ndarray, nv_log: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean squared error and its exact gradient with respect to `model.params`.

    `nv_log` is the already ln(1+.)-transformed (n, 6) matrix; the head input
    gradient's first column backpropagates into the visual scorer.
    """
    q_vis, cache_vis = mlp.forward_cached(model.visual_scorer, xv)
    head_in = np.column_stack([q_vis, nv_log])
    preds, cache_head = mlp.forward_cached(model.head, head_in)
    residuals = preds - targets
    loss = float(np.mean(residuals**2))
    g_out = 2.0 * residuals / len(targets)
    grads_head = mlp.backward(model.head, cache_head, g_out)
    grads_vis = mlp.backward(model.visual_scorer, cache_vis, grads_head.inputs[:, 0])
    return loss, np.concatenate([grads_vis.params, grads_head.params])


def mse_loss(preds, targets) -> float:
    """Mean of squared differences; lengths must match and be >= 1."""
    preds = np.asarray(preds, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if preds.shape != targets.shape:
        raise ValueError(f"length mismatch: {preds.shape} vs {targets.shape}")
    if preds.size == 0:
        raise ValueError("mse_loss requires at least one element")
    return float(np.mean((preds - targets) ** 2))


def pearson(preds, targets) -> float:
    """Sample Pearson correlation coefficient in [-1, 1]."""
    preds = np.asarray(preds, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if preds.shape != targets.shape or preds.size < 2:
        raise ValueError("pearson requires two equal-length vectors of size >= 2")
    dp = preds - preds.mean()
    dt = targets - targets.mean()
    denom = np.sqrt(np.sum(dp**2) * np.sum(dt**2))
    if denom == 0.0:
        raise ValueError("pearson is undefined for zero-variance input")
    return float(np.clip(np.sum(dp * dt) / denom, -1.0, 1.0))


def train_baseline(
    model: AbsolutePopModel,
    samples: list[BaselineSample],
    split: tuple[np.ndarray, np.ndarray],
    config: TrainConfig,
) -> BaselineReport:
    """End-to-end MSE training on log-likes targets; selects min-val-MSE epoch.

    Same schedule as the pairwise ranker (`mlp.fit`): seeded shuffle,
    minibatches, Adam with coupled l2 over the joint parameter vector,
    multiplicative per-epoch learning-rate decay.
    """
    train_idx, val_idx = (np.asarray(ix, dtype=int) for ix in split)
    xv = np.stack([s.visual for s in samples])
    nv_log = np.stack([s.nonvisual.transformed() for s in samples])
    targets = np.array([s.target for s in samples], dtype=np.float64)

    def loss_and_grad(batch: np.ndarray) -> tuple[float, np.ndarray]:
        rows = train_idx[batch]
        return baseline_loss_and_grad(model, xv[rows], nv_log[rows], targets[rows])

    def neg_val_mse() -> float:
        q_vis = mlp.forward_batch(model.visual_scorer, xv[val_idx])
        return -mse_loss(mlp.forward_batch(model.head, np.column_stack([q_vis, nv_log[val_idx]])), targets[val_idx])

    losses, scores, best_epoch, best_params = mlp.fit(
        model.params, split, lambda rng: loss_and_grad, neg_val_mse, config, seeded_rng(config.seed, "train-baseline")
    )
    best = AbsolutePopModel(model.visual_scorer, model.head)  # construction copies into a new vector
    best.params[:] = best_params
    return BaselineReport(losses, [-score for score in scores], best_epoch, best)


def eval_baseline_as_intrinsic(model: AbsolutePopModel, pairs: list[PDIP], features: FeatureSet) -> evaluate.EvalResult:
    """Pairwise accuracy of the visual branch alone on a mined pair list."""
    ids = {pid for p in pairs for pid in (p.id_a, p.id_b)}
    missing = sorted(pid for pid in ids if pid not in features)
    if missing:
        raise ValueError(f"pairs reference post_ids without features: {missing[:5]}" + (" ..." if len(missing) > 5 else ""))
    scores = {pid: mlp.forward(model.visual_scorer, features[pid]) for pid in ids}
    return evaluate.pairwise_accuracy(scores, pairs)


def save_baseline(path: str | Path, model: AbsolutePopModel) -> None:
    mlp.save_checkpoint(path, {"visual": model.visual_scorer, "head": model.head})


def load_baseline(path: str | Path) -> AbsolutePopModel:
    models = mlp.load_checkpoint(path)
    if set(models) != {"visual", "head"}:
        raise ValueError(f"baseline checkpoint must contain 'visual' and 'head' sections, got {sorted(models)}")
    return AbsolutePopModel(visual_scorer=models["visual"], head=models["head"])


def save_nonvisual(path: str | Path, nonvisual: dict[str, NonVisualFeatures]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("post_id," + ",".join(NONVISUAL_FIELDS) + "\n")
        for post_id, nv in nonvisual.items():
            f.write(post_id + "," + ",".join(repr(float(getattr(nv, k))) for k in NONVISUAL_FIELDS) + "\n")


def load_nonvisual(path: str | Path) -> dict[str, NonVisualFeatures]:
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip()
        if header != "post_id," + ",".join(NONVISUAL_FIELDS):
            raise ValueError(f"unexpected non-visual header: {header!r}")
        return {
            post_id: NonVisualFeatures(*values)
            for post_id, values in read_keyed_floats(f, len(NONVISUAL_FIELDS))
        }
