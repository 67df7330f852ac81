"""Pairwise learning-to-rank of a shared-weight scorer.

Both posts of a pair are scored by the same network f; the score difference
O = f(A) - f(B) is squashed by a logistic into the probability that A ranks
above B, and training minimizes the binary cross entropy against the pair
label. In closed form the per-pair loss is

    loss = -label * O + ln(1 + exp(O))

evaluated in an overflow-safe arrangement. Pairs are stored canonically
(id_a more popular, label 1); each epoch re-balances the two orientations by
swapping A/B with seeded probability 0.5 and using label 0 for the swapped
copies, which is exact because loss(O, label) = loss(-O, 1 - label).

After every epoch of `mlp.fit` the learning rate is multiplied by a decay
factor and pairwise accuracy is measured on the validation split; the
snapshot from the best-validation epoch is the trained model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mlp
from .features import FeatureSet
from .mining import PDIP
from .mlp import Gradients, MlpModel, TrainConfig
from .util import seeded_rng

DEFAULT_HIDDEN_DIMS = [64, 32]


@dataclass
class TrainReport:
    """Per-epoch training curve and the best-validation model snapshot."""

    train_loss: list[float]
    val_accuracy: list[float]
    selected_epoch: int  # 0-based index of the epoch with max validation accuracy
    model: MlpModel


def pair_logit(model: MlpModel, x_a: np.ndarray, x_b: np.ndarray) -> float:
    """Score difference O = f(A) - f(B); exactly antisymmetric under swap."""
    return mlp.forward(model, x_a) - mlp.forward(model, x_b)


def pair_probability(o: float) -> float:
    """Logistic exp(o)/(1+exp(o)) in overflow-safe form; range (0, 1)."""
    if o >= 0:
        return 1.0 / (1.0 + math.exp(-o))
    e = math.exp(o)
    return e / (1.0 + e)


def pair_loss(o: float, label: float) -> float:
    """Binary cross entropy of a pair logit: -label*o + ln(1+exp(o)), stable."""
    if o > 0:
        return (1.0 - label) * o + math.log1p(math.exp(-o))
    return -label * o + math.log1p(math.exp(o))


def pair_grad(model: MlpModel, x_a: np.ndarray, x_b: np.ndarray, label: float) -> Gradients:
    """Exact gradient of pair_loss(pair_logit(...)) w.r.t. the shared parameters."""
    return _batch_loss_and_grad(model, np.atleast_2d(x_a), np.atleast_2d(x_b), np.array([float(label)]))[1]


def _batch_loss_and_grad(model: MlpModel, xa: np.ndarray, xb: np.ndarray, labels: np.ndarray) -> tuple[float, Gradients]:
    """Mean pair loss and mean gradient over a batch, fully vectorized.

    Uses dloss/dO = P - label and sums the two streams' contributions.
    """
    q_a, cache_a = mlp.forward_cached(model, xa)
    q_b, cache_b = mlp.forward_cached(model, xb)
    o = q_a - q_b
    p = np.where(o >= 0, 1.0 / (1.0 + np.exp(-np.abs(o))), np.exp(-np.abs(o)) / (1.0 + np.exp(-np.abs(o))))
    loss = float(np.mean(np.where(o > 0, (1.0 - labels) * o, -labels * o) + np.log1p(np.exp(-np.abs(o)))))
    g = (p - labels) / len(labels)
    grads = mlp.backward(model, cache_a, g)
    grads.params += mlp.backward(model, cache_b, -g).params
    return loss, grads


def resolve_pair_features(pairs: list[PDIP], features: FeatureSet) -> tuple[np.ndarray, np.ndarray]:
    """Stack (XA, XB) matrices for a pair list; missing ids are an error."""
    missing = sorted({pid for p in pairs for pid in (p.id_a, p.id_b) if pid not in features})
    if missing:
        raise ValueError(f"pairs reference post_ids without features: {missing[:5]}" + (" ..." if len(missing) > 5 else ""))
    xa = np.stack([features[p.id_a] for p in pairs]) if pairs else np.zeros((0, 0))
    xb = np.stack([features[p.id_b] for p in pairs]) if pairs else np.zeros((0, 0))
    return xa, xb


def train(
    model: MlpModel,
    pairs: list[PDIP],
    features: FeatureSet,
    split: tuple[np.ndarray, np.ndarray],
    config: TrainConfig,
) -> TrainReport:
    """Train `model` in place on the train split, select by validation accuracy.

    `split` is a (train_indices, val_indices) pair over `pairs`; the two sets
    must be disjoint and non-empty. The returned report holds a snapshot of
    the best-validation epoch; ties keep the earliest epoch. Deterministic
    given config.seed.
    """
    train_idx, val_idx = (np.asarray(ix, dtype=int) for ix in split)
    xa, xb = resolve_pair_features(pairs, features)

    def epoch_batches(rng: np.random.Generator):
        swap = rng.random(len(train_idx)) < 0.5

        def loss_and_grad(batch: np.ndarray) -> tuple[float, np.ndarray]:
            rows, s = train_idx[batch], swap[batch]
            a = np.where(s[:, None], xb[rows], xa[rows])
            b = np.where(s[:, None], xa[rows], xb[rows])
            loss, grads = _batch_loss_and_grad(model, a, b, np.where(s, 0.0, 1.0))
            return loss, grads.params

        return loss_and_grad

    def val_accuracy() -> float:  # share of validation pairs with f(A) > f(B); ties count as incorrect
        return float(np.mean(mlp.forward_batch(model, xa[val_idx]) > mlp.forward_batch(model, xb[val_idx])))

    losses, accs, best_epoch, best = mlp.fit(
        model.params, split, epoch_batches, val_accuracy, config, seeded_rng(config.seed, "train")
    )
    return TrainReport(losses, accs, best_epoch, MlpModel.over(model.layer_dims, best))


def score_batch(model: MlpModel, features: FeatureSet) -> dict[str, float]:
    """Score every feature vector; order-independent result keyed by post_id."""
    scores: dict[str, float] = {}
    for post_id, values in features.items():
        if len(values) != model.layer_dims[0]:
            raise ValueError(
                f"feature vector for {post_id!r} has dim {len(values)}, model expects {model.layer_dims[0]}"
            )
        scores[post_id] = mlp.forward(model, values)
    return scores


def write_train_report_csv(path, report: TrainReport) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("epoch,train_loss,val_accuracy,selected\n")
        for e, (loss, acc) in enumerate(zip(report.train_loss, report.val_accuracy)):
            f.write(f"{e},{loss!r},{acc!r},{int(e == report.selected_epoch)}\n")
