"""Small fully-connected scorer networks, trained from scratch.

A model is a stack of affine layers with ReLU on the hidden layers and an
identity scalar output. Weights are stored as (fan_out, fan_in) matrices so a
batch forward pass is ``Z = H @ W.T + b``: through BLAS in training
(`forward_cached`), and through numpy's fixed-order einsum loop in scoring
(`forward_batch`), so that a row scores the same bits in any batch. The
backward pass returns the exact gradient of every parameter as one flat
vector, and the gradient with respect to the first layer's output; times
``weights[0]`` it is a chained input's gradient.

A model's parameters are one contiguous float64 vector, all weights in layer
order then all biases; ``weights[l]``/``biases[l]`` are views into it. Gradients
and Adam moments share the layout, and `MlpModel.over` gives a gradient the same
per-layer views. `fit` is the one training loop.

Checkpoints are a self-describing text format: a version tag, then one or more
named model sections with layer dims and row-major weights/biases printed with
17 significant digits, which round-trips float64 exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

CHECKPOINT_TAG = "poprank-checkpoint-v1"
SCORE_ROWS = 4096  # rows per pass in `forward_batch`: bounds the memory its activations take
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # moment decay rates and denominator floor of `adam_step`


def _layer_views(layer_dims: list[int], flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight and bias views into `flat` (all weights, then all biases)."""
    shapes = list(zip(layer_dims[1:], layer_dims[:-1]))
    sizes = [fan_out * fan_in for fan_out, fan_in in shapes] + [fan_out for fan_out, _ in shapes]
    if sum(sizes) != flat.size:
        raise ValueError(f"parameter vector has {flat.size} entries, dims {layer_dims} need {sum(sizes)}")
    pos = 0
    parts = [flat[pos : (pos := pos + size)] for size in sizes]
    return [part.reshape(shape) for part, shape in zip(parts, shapes)], parts[len(shapes) :]


class MlpModel:
    """Layered scorer: weights[l] is a (dims[l+1], dims[l]) view into `params`, or into a gradient via `over`."""

    def __init__(self, layer_dims: list[int], weights: list[np.ndarray], biases: list[np.ndarray]):
        shapes = list(zip(layer_dims[1:], layer_dims[:-1]))
        if [np.shape(w) for w in weights] != shapes or [np.shape(b) for b in biases] != [(o,) for o, _ in shapes]:
            raise ValueError(f"weight/bias shapes do not match layer dims {layer_dims}")
        self.layer_dims = list(layer_dims)
        self.params = np.concatenate([np.ravel(w) for w in weights] + [np.ravel(b) for b in biases], dtype=np.float64)
        self.weights, self.biases = _layer_views(self.layer_dims, self.params)

    @classmethod
    def over(cls, layer_dims: list[int], params: np.ndarray) -> "MlpModel":
        """A model whose parameters are `params` itself (no copy)."""
        model = cls.__new__(cls)
        model.layer_dims, model.params = list(layer_dims), params
        model.weights, model.biases = _layer_views(model.layer_dims, params)
        return model

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
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        std = np.sqrt(2.0 / fan_in)
        weights.append(rng.normal(0.0, std, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(layer_dims=list(layer_dims), weights=weights, biases=biases)


def forward_batch(model: MlpModel, xs: np.ndarray) -> np.ndarray:
    """Scores of a (n, D) batch or of one D-vector, shape (n,); a row's score is the same bits in any batch.

    Each layer is numpy's own einsum loop, which sums every output over its
    inputs in one fixed order, where BLAS picks its order by the batch's
    shape, its alignment and the thread count.
    """
    xs = np.ascontiguousarray(np.atleast_2d(xs), dtype=np.float64)  # einsum's loop order follows the strides
    starts = range(0, len(xs), SCORE_ROWS) or [0]  # an empty batch makes one empty pass
    return np.concatenate([_layers(model, xs[i : i + SCORE_ROWS], fixed_order=True)[0] for i in starts])


def forward_cached(model: MlpModel, xs: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Batch forward through BLAS keeping post-activation layer inputs for the backward pass."""
    return _layers(model, xs, fixed_order=False)


def _layers(model: MlpModel, xs: np.ndarray, fixed_order: bool) -> tuple[np.ndarray, list[np.ndarray]]:
    """Scores of the rows of `xs` and every layer's input; each ``h @ w.T`` by einsum if `fixed_order`, else BLAS."""
    h = np.atleast_2d(np.asarray(xs, dtype=np.float64))
    if h.shape[-1] != model.layer_dims[0]:
        raise ValueError(f"input dim {h.shape[-1]} does not match model input dim {model.layer_dims[0]}")
    cache = [h]
    last = model.n_layers() - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = (np.einsum("nk,ok->no", h, w) if fixed_order else h @ w.T) + b
        if l != last:
            h = np.maximum(h, 0.0)
        cache.append(h)
    return h[:, 0], cache


def backward(model: MlpModel, cache: list[np.ndarray], upstream: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Backpropagate per-sample output gradients `upstream` (shape (n,)).

    Returns the parameter gradient summed over the batch, one vector in the
    model's flat layout, and `delta`, the (n, dims[1]) gradient with respect to
    the first layer's output; ``delta @ model.weights[0]`` is the input
    gradient. ReLU uses the zero subgradient at the kink. `cache` must come
    from `forward_cached` on the same model.
    """
    grad = MlpModel.over(model.layer_dims, np.empty_like(model.params))
    delta = np.asarray(upstream, dtype=np.float64).reshape(-1, 1)
    for l in range(model.n_layers() - 1, -1, -1):
        np.matmul(delta.T, cache[l], out=grad.weights[l])
        grad.biases[l][...] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ model.weights[l]) * (cache[l] > 0.0)  # cache[l] is the ReLU output of layer l-1
    return grad.params, delta


@dataclass
class AdamState:
    """First/second moment accumulators over a flat parameter vector."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def for_params(cls, params: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params))


def adam_step(state: AdamState, params: np.ndarray, grad: np.ndarray, effective_lr: float, l2_penalty: float) -> None:
    """One bias-corrected Adam update of the flat vector `params`, in place.

    The l2 penalty is coupled: l2_penalty * theta is added to the gradient
    before the moment updates (not decoupled weight decay).
    """
    if grad.shape != params.shape or state.m.shape != params.shape:
        raise ValueError(f"gradient/moment lengths {grad.shape}/{state.m.shape} do not match parameters {params.shape}")
    state.step += 1
    c1 = 1.0 - ADAM_BETA1**state.step
    c2 = 1.0 - ADAM_BETA2**state.step
    g = grad + l2_penalty * params
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * g
    state.v *= ADAM_BETA2
    state.v += (1.0 - ADAM_BETA2) * g * g
    params -= effective_lr * (state.m / c1) / (np.sqrt(state.v / c2) + ADAM_EPS)


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
    ties keep the earliest epoch. A batch loss or end-of-epoch parameters that
    are not finite are a ValueError naming the epoch: training diverged.
    """
    train_idx, val_idx = (np.asarray(ix, dtype=int) for ix in split)
    if len(train_idx) == 0 or len(val_idx) == 0:
        raise ValueError("train and validation splits must both be non-empty")
    if set(train_idx.tolist()) & set(val_idx.tolist()):
        raise ValueError("train and validation splits overlap")

    state = AdamState.for_params(params)
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
                for row in [*model.weights[l].tolist(), model.biases[l].tolist()]:  # %.17g round-trips float64
                    f.write(" ".join(["%.17g"] * len(row)) % tuple(row) + "\n")


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
        name, dims = header[0][len("model ") :], [int(d) for d in dims]
        pos += 2
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            weights.append(np.array([values(pos + r, fan_in) for r in range(fan_out)]))
            biases.append(np.array(values(pos + fan_out, fan_out)))
            pos += fan_out + 1
        models[name] = MlpModel(layer_dims=dims, weights=weights, biases=biases)
    return models
