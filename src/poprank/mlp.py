"""Small fully-connected scorer networks, trained from scratch.

A model is a stack of affine layers with ReLU on the hidden layers and an
identity scalar output. Weights are stored as (fan_out, fan_in) matrices so a
batch forward pass is ``Z = H @ W.T + b``: through BLAS in training and in
its validation (`forward_cached`), and through numpy's fixed-order einsum loop
wherever a score is written or compared with a written one (`forward_batch`),
so that a row scores the same bits in any batch. The backward pass returns
the exact gradient of every parameter as one flat vector, and the gradient
with respect to the first layer's output; times ``weights[0]`` it is a chained
input's gradient.

A model is its layer dims over one contiguous float64 vector, all weights in
layer order then all biases; ``weights[l]``/``biases[l]`` are views into it.
Gradients and Adam moments share the layout, and ``MlpModel(dims, grad)`` gives
a gradient the same per-layer views. `fit` is the one training loop. The
ranker's step arrays (layer outputs, deltas, the gradient, Adam's scratch) are
made once per fit: `forward_cached`, `backward` and `adam_step` write into the
buffers they are given (the leading rows of a layer-output or delta buffer with
more rows than the batch). The training passes also take a stack of batches
on a leading axis, as the pairwise ranker runs both members of its pairs:
numpy's matmul makes one BLAS call per stacked batch with that batch's own
shapes, so each batch gets the bits of its own pass, in about half the numpy
calls of two passes.

Checkpoints are a self-describing text format: a version tag, then one or more
named model sections with layer dims and row-major weights/biases printed with
17 significant digits, which round-trips float64 exactly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

CHECKPOINT_TAG = "poprank-checkpoint-v1"
SCORE_ROWS = 4096  # rows per pass in `forward_batch`: bounds the memory its activations take
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # moment decay rates and denominator floor of `adam_step`


def n_params(layer_dims: list[int]) -> int:
    """Length of the flat parameter vector of a model with these layer dims: every weight, then every bias."""
    return sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(layer_dims, layer_dims[1:]))


class MlpModel:
    """Layered scorer over the flat vector `params` itself (no copy): weights[l] is a (dims[l+1], dims[l]) view.

    Over a (k, P) `params`, as `backward` writes one gradient per stacked member, ``weights[l]`` is a
    (k, dims[l+1], dims[l]) view and ``biases[l]`` a (k, dims[l+1]) one.
    """

    def __init__(self, layer_dims: list[int], params: np.ndarray):
        self.layer_dims, self.params = list(layer_dims), params
        shapes = list(zip(self.layer_dims[1:], self.layer_dims[:-1]))
        sizes = [fan_out * fan_in for fan_out, fan_in in shapes] + [fan_out for fan_out, _ in shapes]
        if sum(sizes) != params.shape[-1]:
            raise ValueError(f"parameter vector has {params.shape[-1]} entries, dims {layer_dims} need {sum(sizes)}")
        pos, lead = 0, params.shape[:-1]
        parts = [params[..., pos : (pos := pos + size)] for size in sizes]
        self.weights = [part.reshape(*lead, *shape) for part, shape in zip(parts, shapes)]
        self.biases = parts[len(shapes) :]

    def n_layers(self) -> int:
        return len(self.weights)


def init_model(layer_dims: list[int], seed: int | np.random.Generator) -> MlpModel:
    """He-initialized model: N(0, 2/fan_in) weights, zero biases, deterministic."""
    if len(layer_dims) < 2:
        raise ValueError(f"need at least input and output dims, got {layer_dims}")
    if layer_dims[-1] != 1:
        raise ValueError(f"output dim must be 1, got {layer_dims[-1]}")
    if any(d < 1 for d in layer_dims):
        raise ValueError(f"all dims must be positive, got {layer_dims}")
    if n_params(layer_dims) > sys.maxsize // 8:
        raise ValueError(f"dims {layer_dims} need more parameters than one float64 array holds")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    model = MlpModel(layer_dims, np.zeros(n_params(layer_dims)))
    for w in model.weights:  # (fan_out, fan_in), layer by layer
        w[...] = rng.normal(0.0, np.sqrt(2.0 / w.shape[1]), size=w.shape)
    return model


def forward_batch(model: MlpModel, xs: np.ndarray) -> np.ndarray:
    """Scores of a (n, D) batch or of one D-vector, shape (n,); a row's score is the same bits in any batch.

    Each layer is numpy's own einsum loop, which sums every output over its
    inputs in one fixed order, where BLAS picks its order by the batch's
    shape, its alignment and the thread count.
    """
    xs = np.ascontiguousarray(np.atleast_2d(xs), dtype=np.float64)  # einsum's loop order follows the strides
    starts = range(0, len(xs), SCORE_ROWS) or [0]  # an empty batch makes one empty pass
    return np.concatenate([_layers(model, xs[i : i + SCORE_ROWS], fixed_order=True)[0] for i in starts])


def forward_cached(
    model: MlpModel, xs: np.ndarray, cache: list[np.ndarray] | None = None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Batch forward through BLAS keeping post-activation layer inputs for the backward pass.

    `cache`, when given, holds one buffer per layer for the layer outputs, of
    at least the batch's n rows: this pass writes their leading rows,
    ``cache[l][..., :n, :]``, instead of allocating the outputs, and returns
    ``[xs, *those rows]`` as the cache. A (k, n, D) `xs` is a stack of k
    batches, each multiplied as its own (n, D) batch: the scores are (k, n)
    and each buffer is (k, m, dims[l+1]) with m >= n.
    """
    return _layers(model, xs, fixed_order=False, outs=cache)


def _layers(
    model: MlpModel, xs: np.ndarray, fixed_order: bool, outs: list[np.ndarray] | None = None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Scores of the rows of `xs` and every layer's input; each ``h @ w.T`` by einsum if `fixed_order`, else BLAS.

    Layer l's output goes into the leading rows of ``outs[l]``, allocated here when `outs` is None.
    """
    h = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    if h.shape[-1] != model.layer_dims[0]:
        raise ValueError(f"input dim {h.shape[-1]} does not match model input dim {model.layer_dims[0]}")
    if outs is None:
        outs = [np.empty((*h.shape[:-1], d)) for d in model.layer_dims[1:]]
    cache, n = [h], h.shape[-2]
    last = model.n_layers() - 1
    for l, (w, b, out) in enumerate(zip(model.weights, model.biases, outs)):
        out = out[..., :n, :]
        if fixed_order:
            np.einsum("nk,ok->no", h, w, out=out)
        else:
            np.matmul(h, w.T, out=out)
        out += b
        if l != last:
            np.maximum(out, 0.0, out=out)
        cache.append(h := out)
    return h[..., 0], cache


def backward(
    model: MlpModel,
    cache: list[np.ndarray],
    upstream: np.ndarray,
    grad: MlpModel,
    deltas: list[np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Backpropagate per-sample output gradients `upstream`, of shape (n,) or (..., n).

    Returns the parameter gradient summed over the batch, one vector in the
    model's flat layout, and `delta`, the (n, dims[1]) gradient with respect to
    the first layer's output; ``delta @ model.weights[0]`` is the input
    gradient. ReLU uses the zero subgradient at the kink. `cache` must come
    from `forward_cached` on the same model. The gradient is written into
    `grad`, a model of this model's dims over the caller's vector, and the
    deltas into the leading rows of `deltas`, one buffer of at least n rows for
    each hidden layer's output l = 1 .. L-1, allocated when not given.

    Leading axes are a stack of independent batches, as `forward_cached`
    takes them: with `upstream` (k, n) and a cache of (k, n, dims[l]) arrays,
    the gradient is (k, P), one row per batch (`grad` over a (k, P) array),
    and `delta` is (k, n, dims[1]). Each batch's matmuls and sums have the
    shapes and order of its own 2-D pass, so each row is that pass's bits.
    """
    delta = np.asarray(upstream, dtype=np.float64)[..., None]
    n = delta.shape[-2]
    if deltas is None:
        deltas = [np.empty((*delta.shape[:-1], d)) for d in model.layer_dims[1:-1]]
    for l in range(model.n_layers() - 1, -1, -1):
        np.matmul(delta.swapaxes(-1, -2), cache[l], out=grad.weights[l])
        np.add.reduce(delta, axis=-2, out=grad.biases[l])
        if l > 0:
            delta = np.matmul(delta, model.weights[l], out=deltas[l - 1][..., :n, :])
            delta *= cache[l] > 0.0  # cache[l] is the ReLU output of layer l-1
    return grad.params, delta


class AdamState:
    """First/second moment accumulators over a flat parameter vector, and two scratch vectors for `adam_step`."""

    def __init__(self, params: np.ndarray):
        self.m, self.v, self.step = np.zeros_like(params), np.zeros_like(params), 0
        self.scratch = (np.empty_like(params), np.empty_like(params))


def adam_step(state: AdamState, params: np.ndarray, grad: np.ndarray, effective_lr: float, l2_penalty: float) -> None:
    """One bias-corrected Adam update of the flat vector `params`, in place.

    The l2 penalty is coupled: l2_penalty * theta is added to the gradient
    before the moment updates (not decoupled weight decay). The update is

        g = grad + l2_penalty * params
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        params -= effective_lr * (m / c1) / (sqrt(v / c2) + eps)

    with each operation, in this order, written into `state.scratch`, so a
    step allocates no parameter-sized array and leaves `grad` unchanged.
    """
    if grad.shape != params.shape or state.m.shape != params.shape:
        raise ValueError(f"gradient/moment lengths {grad.shape}/{state.m.shape} do not match parameters {params.shape}")
    state.step += 1
    c1 = 1.0 - ADAM_BETA1**state.step
    c2 = 1.0 - ADAM_BETA2**state.step
    g, tmp = state.scratch
    np.multiply(params, l2_penalty, out=g)
    g += grad
    state.m *= ADAM_BETA1
    state.m += np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
    state.v *= ADAM_BETA2
    np.multiply(g, 1.0 - ADAM_BETA2, out=tmp)
    tmp *= g
    state.v += tmp
    update = np.divide(state.m, c1, out=g)
    update *= effective_lr
    denom = np.divide(state.v, c2, out=tmp)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    update /= denom
    params -= update


@dataclass(frozen=True)
class TrainConfig:
    """Schedule of `fit`, shared by the pairwise ranker and the baseline."""

    learning_rate: float = 1e-4
    l2_penalty: float = 1e-4
    batch_size: int = 64
    epochs: int = 30
    lr_decay_per_epoch: float = 0.95
    seed: int = 0

    def __post_init__(self):
        for name in ("learning_rate", "l2_penalty"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0.0 < self.lr_decay_per_epoch <= 1.0:
            raise ValueError("lr_decay_per_epoch must be in (0, 1]")


def fit(
    params: np.ndarray,
    split: tuple[np.ndarray, np.ndarray],
    loss_and_grad: Callable[[np.random.Generator], Callable[[np.ndarray], tuple[float, np.ndarray]]],
    validate: Callable[[], float],
    config: TrainConfig,
    rng: np.random.Generator,
) -> tuple[list[float], list[float], int, np.ndarray]:
    """Minibatch Adam on the flat vector `params` (in place), keeping the best epoch.

    `split` is (train_indices, val_indices), both non-empty and disjoint. Each
    epoch shuffles the train positions with `rng`, then ``loss_and_grad(rng)``
    returns the epoch's batch function (positions into the train split -> mean
    loss, flat gradient), so per-epoch augmentation draws from the same stream.
    ``validate()`` (higher is better) scores each epoch after the learning-rate
    decay. Returns (losses, scores, best epoch, copy of the best parameters);
    ties keep the earliest epoch. A batch loss, end-of-epoch parameters or an
    end-of-epoch Adam second moment that is not finite is a ValueError naming
    the epoch: training diverged. The batch function's gradient is read before
    its next call, so it may return the same buffer every time.
    """
    train_idx, val_idx = (np.asarray(ix, dtype=int) for ix in split)
    if len(train_idx) == 0 or len(val_idx) == 0:
        raise ValueError("train and validation splits must both be non-empty")
    if set(train_idx.tolist()) & set(val_idx.tolist()):
        raise ValueError("train and validation splits overlap")

    state = AdamState(params)
    lr = config.learning_rate
    losses, scores = [], []
    best, best_epoch, best_params = -np.inf, 0, params.copy()
    n = len(train_idx)
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is the ValueError below, not a numpy warning
        for epoch in range(config.epochs):
            order = rng.permutation(n)
            batch_loss_and_grad = loss_and_grad(rng)
            epoch_loss = 0.0
            for start in range(0, n, config.batch_size):
                batch = order[start : start + config.batch_size]
                loss, grad = batch_loss_and_grad(batch)
                if not math.isfinite(loss):
                    raise ValueError(f"training diverged in epoch {epoch}: non-finite loss; try a lower learning rate")
                adam_step(state, params, grad, lr, config.l2_penalty)
                epoch_loss += loss * len(batch)
            if not np.isfinite(params).all():
                raise ValueError(f"training diverged in epoch {epoch}: non-finite parameters; "
                                 "try a lower learning rate")
            if not np.isfinite(state.v).all():  # an overflowed second moment stops the weights it divides
                raise ValueError(f"training diverged in epoch {epoch}: non-finite Adam second moment; "
                                 "try a lower learning rate or l2 penalty")
            losses.append(epoch_loss / n)
            lr *= config.lr_decay_per_epoch
            scores.append(validate())
            if scores[-1] > best:
                best, best_epoch, best_params = scores[-1], epoch, params.copy()
    return losses, scores, best_epoch, best_params


def save_checkpoint(path: str | Path, models: dict[str, MlpModel]) -> None:
    """Write named model sections in the versioned text format."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(CHECKPOINT_TAG + "\n")
        for name, model in models.items():
            f.write(f"model {name}\n")
            f.write("dims " + " ".join(str(d) for d in model.layer_dims) + "\n")
            for l in range(model.n_layers()):
                for row in [*model.weights[l], model.biases[l]]:  # one row's floats at a time; %.17g round-trips
                    f.write(" ".join(["%.17g"] * len(row)) % tuple(row.tolist()) + "\n")


def load_checkpoint(path: str | Path) -> dict[str, MlpModel]:
    """Read named model sections; a malformed or cut-short file is a ValueError naming the line."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or lines[0] != CHECKPOINT_TAG:
        raise ValueError(f"line 1: not a recognized checkpoint file: {path}")
    if not text.endswith("\n"):
        raise ValueError(f"line {len(lines)}: checkpoint is cut off mid-line")

    def values(i: int, width: int) -> list[float]:
        fields = lines[i].split() if i < len(lines) else []
        if len(fields) != width:
            end = " (the checkpoint ends inside a model section)" if i >= len(lines) else ""
            raise ValueError(f"line {i + 1}: expected {width} values, got {len(fields)}{end}")
        try:
            row = [float(x) for x in fields]
        except ValueError as exc:
            raise ValueError(f"line {i + 1}: {exc}") from None
        if not all(map(math.isfinite, row)):
            raise ValueError(f"line {i + 1}: non-finite value")
        return row

    models: dict[str, MlpModel] = {}
    pos = 1
    while pos < len(lines) or not models:
        header = lines[pos : pos + 2]
        if len(header) < 2 or not header[0].startswith("model ") or not header[1].startswith("dims "):
            raise ValueError(f"line {pos + 1}: expected a 'model NAME' line followed by a 'dims' line")
        dims = header[1].split()[1:]
        if len(dims) < 2 or not all(d.isdecimal() and int(d) > 0 for d in dims):
            raise ValueError(f"line {pos + 2}: model dims must be at least two positive integers")
        if int(dims[-1]) != 1:
            raise ValueError(f"line {pos + 2}: output dim must be 1, got {dims[-1]}")
        name, dims = header[0][len("model ") :], [int(d) for d in dims]
        if name in models:
            raise ValueError(f"line {pos + 1}: a second model section named {name!r}")
        pos += 2
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            weights.append(np.array([values(pos + r, fan_in) for r in range(fan_out)]))
            biases.append(np.array(values(pos + fan_out, fan_out)))
            pos += fan_out + 1
        models[name] = MlpModel(dims, np.concatenate([w.ravel() for w in weights] + biases))
    return models
