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

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from . import mlp
from .features import FeatureSet
from .mining import PDIP
from .mlp import MlpModel, TrainConfig
from .util import open_csv, seeded_rng

DEFAULT_HIDDEN_DIMS = [64, 32]
DEFAULT_VAL_FRACTION = 0.1  # share of the training pairs held out to select the epoch


@dataclass
class TrainReport:
    """Per-epoch training curve and the best-validation model snapshot."""

    train_loss: list[float]
    val_accuracy: list[float]
    selected_epoch: int  # 0-based index of the epoch with max validation accuracy
    model: MlpModel


def pair_logit(model: MlpModel, x_a: np.ndarray, x_b: np.ndarray) -> float:
    """O = f(A) - f(B) by the stacked pass `_step` runs; exactly antisymmetric under swap."""
    q = mlp.forward_cached(model, np.stack([np.atleast_2d(x_a), np.atleast_2d(x_b)]))[0]
    return float(q[0, 0] - q[1, 0])


def pair_loss(o: float, label: float) -> float:
    """Binary cross entropy of a pair logit: -label*o + ln(1+exp(o)), by `_step`'s expression."""
    o = np.array([o], dtype=np.float64)
    return float(_losses(o, np.array([label], dtype=np.float64), np.exp(-np.abs(o)))[0])


def _losses(o: np.ndarray, labels: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Per-pair loss of the logits `o`, given e = exp(-|o|): ln(1 + exp(o)) never overflows in this arrangement."""
    return np.where(o > 0, (1.0 - labels) * o, -labels * o) + np.log1p(e)


def pair_grad(model: MlpModel, x_a: np.ndarray, x_b: np.ndarray, label: float) -> MlpModel:
    """Exact gradient of pair_loss(pair_logit(...)) w.r.t. the shared parameters, in the model's layout."""
    x_ab = np.stack([np.atleast_2d(x_a), np.atleast_2d(x_b)])
    _, grad = _step(model, x_ab, np.array([float(label)]), _StepBuffers(model, 1))
    return MlpModel(model.layer_dims, grad)


class _StepBuffers:
    """The arrays one training step writes, made once per fit for batches of up to `rows` pairs.

    One stacked set for both members of a pair, member A at index 0 and B at
    1: the gathered inputs, up to (2, rows, dims[0]); the layer outputs,
    (2, rows, dims[l+1]) each; the hidden layers' deltas, (2, rows, dims[l])
    each; a model over the (2, P) gradient, one row per member; and the
    (2, rows) upstream gradient. A batch of fewer pairs hands the passes the
    buffers whole, and they write the leading rows. Gathered into one buffer,
    a step frees no input array: a fresh gather per step (256 KiB at 256-d)
    read about 0.1 MB more peak RSS for `train` on the bench's `embed`.
    """

    def __init__(self, model: MlpModel, rows: int):
        dims = model.layer_dims
        self.n_rows = rows
        self.outs = [np.empty((2, rows, d)) for d in dims[1:]]
        self.deltas = [np.empty((2, rows, d)) for d in dims[1:-1]]
        self.grad = MlpModel(dims, np.empty((2, model.params.size)))
        self.upstream = np.empty((2, rows))
        self.inputs = np.empty(2 * rows * dims[0])

    def gather(self, x: np.ndarray, ab: np.ndarray) -> np.ndarray:
        """The rows of `x` that the (2, n) indices `ab` name, as a (2, n, D) stack in the inputs buffer."""
        out = self.inputs[: ab.size * x.shape[1]].reshape(*ab.shape, x.shape[1])
        return np.take(x, ab, axis=0, out=out, mode="clip")  # row indices, all valid; "raise" would copy `out`


def _step(model: MlpModel, x_ab: np.ndarray, labels: np.ndarray, buffers: _StepBuffers) -> tuple[float, np.ndarray]:
    """Mean pair loss and mean flat gradient over a batch whose (2, n, D) `x_ab` stacks members A and B.

    Uses dloss/dO = P - label: one stacked forward and backward pass with
    upstream g for A and -g for B, then the two members' gradient rows summed
    into A's. The step writes its activations, deltas and gradient into
    `buffers`, of at least n rows, and the returned gradient is a buffer the
    next call overwrites.
    """
    n = len(labels)
    upstream = buffers.upstream[:, :n]
    q, cache = mlp.forward_cached(model, x_ab, buffers.outs)
    o = q[0] - q[1]
    e = np.exp(-np.abs(o))
    p = np.where(o >= 0, 1.0, e) / (1.0 + e)
    loss = float(np.add.reduce(_losses(o, labels, e)) / n)
    g = np.divide(p - labels, n, out=upstream[0])
    np.negative(g, out=upstream[1])
    grads = mlp.backward(model, cache, upstream, buffers.grad, buffers.deltas)[0]
    return loss, np.add(grads[0], grads[1], out=grads[0])


def train(
    model: MlpModel,
    pairs: list[PDIP],
    features: FeatureSet,
    split: tuple[np.ndarray, np.ndarray],
    config: TrainConfig,
) -> TrainReport:
    """Train `model` in place on the train split, select by validation accuracy.

    `split` is a (train_indices, val_indices) pair over `pairs`; the two sets
    must be disjoint and non-empty. Each batch gathers both members' rows of
    `features.matrix` by index, never copying the matrix, as one (2, n, D)
    stack that one stacked pass runs, and every step writes its inputs,
    activations, deltas and gradients into one set of buffers made for the
    fit, with rows for min(batch_size, train pairs) pairs. The validation
    pairs are scored by the training pass (`mlp.forward_cached`, through
    BLAS) in slices of as many rows, into the same input and layer-output
    buffers: validation writes no score, it only selects the epoch, whose
    parameters already depend on the BLAS kernel. Each epoch's swap draw
    keeps its place in the `train` stream, after the shuffle. The report
    holds a snapshot of the best-validation epoch; ties keep the earliest
    epoch. Deterministic given config.seed.
    """
    train_idx, val_idx = (np.asarray(ix, dtype=int) for ix in split)
    x = features.matrix
    ab = features.rows([pid for p in pairs for pid in (p.id_a, p.id_b)]).reshape(-1, 2)
    buffers = _StepBuffers(model, min(config.batch_size, len(train_idx)))

    def epoch_batches(rng: np.random.Generator):
        swap = rng.random(len(train_idx)) < 0.5
        ab_epoch = np.where(swap, ab[train_idx, ::-1].T, ab[train_idx].T)  # (2, pairs): members A and B
        labels = np.where(swap, 0.0, 1.0)
        return lambda batch: _step(model, buffers.gather(x, ab_epoch[:, batch]), labels[batch], buffers)

    def val_accuracy() -> float:  # share of validation pairs with f(A) > f(B); ties count as incorrect
        correct = 0
        for start in range(0, len(val_idx), buffers.n_rows):  # in slices of a batch's rows, into the step's buffers
            ab_val = ab[val_idx[start : start + buffers.n_rows]].T
            q = mlp.forward_cached(model, buffers.gather(x, ab_val), buffers.outs)[0]
            correct += int(np.count_nonzero(q[0] > q[1]))
        return correct / len(val_idx)

    losses, accs, best_epoch, best = mlp.fit(
        model.params, split, epoch_batches, val_accuracy, config, seeded_rng(config.seed, "train")
    )
    return TrainReport(losses, accs, best_epoch, MlpModel(model.layer_dims, best))


def score_blocks(model: MlpModel, blocks: Iterable[tuple[Sequence[str], np.ndarray]]) -> dict[str, float]:
    """Scores keyed by post_id of the rows of every (ids, matrix) block, one `mlp.forward_batch` per block.

    A row scores the same bits in any block, so a file scored one block at a
    time gives the scores of its whole matrix. A block the model does not take,
    and a score that is not finite (weights whose sums overflow), are a
    ValueError only once every block is read, so that a bad row in a later
    block is the error reported, as when the file is read whole first.
    """
    scores, fault = {}, None
    for ids, matrix in blocks:
        if fault is None:
            try:
                with np.errstate(over="ignore", invalid="ignore"):  # an overflow is the ValueError below
                    block_scores = mlp.forward_batch(model, matrix)
                if not np.isfinite(block_scores).all():
                    raise ValueError(f"non-finite score for post_id {ids[np.argmin(np.isfinite(block_scores))]!r}")
                scores.update(zip(ids, block_scores.tolist()))
            except ValueError as exc:  # rows of another width than the model's input, or a non-finite score
                fault = exc
    if fault is not None:
        raise fault
    return scores


def score_batch(model: MlpModel, features: FeatureSet | dict[str, np.ndarray]) -> dict[str, float]:
    """Score every feature vector: `score_blocks` of the feature matrix as one block."""
    if not features:
        return {}
    features = FeatureSet.of(features)
    return score_blocks(model, [(features.ids, features.matrix)])


def write_train_report_csv(path, report: TrainReport) -> None:
    with open_csv(path, "epoch,train_loss,val_accuracy,selected") as f:
        for e, (loss, acc) in enumerate(zip(report.train_loss, report.val_accuracy)):
            f.write(f"{e},{loss!r},{acc!r},{int(e == report.selected_epoch)}\n")
