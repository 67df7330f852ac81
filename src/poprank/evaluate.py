"""Evaluation protocols: pairwise accuracy, label-noise ablation, display rescaling.

A pair counts as correctly ranked iff the more-popular member scores strictly
higher; exact ties are tallied separately and count as incorrect, so the
reported accuracy is conservative and can be re-derived under the 0.5-credit
convention from (accuracy, n_ties).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

from . import ranker as ranker_mod
from .features import FeatureSet
from .mining import PDIP
from .mlp import init_model
from .util import open_csv, seeded_rng, split_indices

DEFAULT_TEST_FRACTION = 0.2  # share of the pairs held out to measure each noise level's test accuracy


@dataclass(frozen=True)
class EvalResult:
    n_pairs: int
    accuracy: float
    n_ties: int


def pairwise_accuracy(scores: dict[str, float], pairs: list[PDIP]) -> EvalResult:
    """Fraction of pairs with score(id_a) > score(id_b); ties count incorrect."""
    if not pairs:
        raise ValueError("pairwise_accuracy requires a non-empty pair list")
    correct = ties = 0
    for pair in pairs:
        for pid in (pair.id_a, pair.id_b):
            if pid not in scores:
                raise ValueError(f"no score for post_id {pid!r}")
        if scores[pair.id_a] > scores[pair.id_b]:
            correct += 1
        elif scores[pair.id_a] == scores[pair.id_b]:
            ties += 1
    return EvalResult(n_pairs=len(pairs), accuracy=correct / len(pairs), n_ties=ties)


def flip_labels(pairs: list[PDIP], q: float, seed: int) -> list[PDIP]:
    """Swap the orientation of exactly floor(q*n) seeded-uniformly chosen pairs.

    A swapped pair has id_a/id_b exchanged and delta_s negated; the input list
    is not modified. Identity at q=0, involution at q=1.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"noise fraction must be in [0, 1], got {q}")
    n = len(pairs)
    k = math.floor(q * n)
    rng = seeded_rng(seed, "flip-labels")
    chosen = set(rng.choice(n, size=k, replace=False).tolist()) if k else set()
    return [
        replace(p, id_a=p.id_b, id_b=p.id_a, delta_s=-p.delta_s) if i in chosen else p
        for i, p in enumerate(pairs)
    ]


def noise_ablation(
    pairs: list[PDIP],
    features: FeatureSet,
    config: ranker_mod.TrainConfig,
    noise_levels: list[float],
    hidden_dims: list[int] | None = None,
    test_fraction: float = DEFAULT_TEST_FRACTION,
    val_fraction: float = ranker_mod.DEFAULT_VAL_FRACTION,
) -> list[tuple[float, float]]:
    """Retrain at each label-noise level and measure test pairwise accuracy.

    One seeded split is shared across levels; for each q only the training
    partition's labels are flipped (validation stays clean for model
    selection, the test partition is untouched) and the model restarts from
    the same seeded initialization, so label noise is the only varying factor.
    """
    if any(not 0.0 <= q < 0.5 for q in noise_levels):
        raise ValueError(f"noise levels must lie in [0, 0.5), got {noise_levels}")
    if not noise_levels:
        return []
    dims = [features.dim] + list(hidden_dims or ranker_mod.DEFAULT_HIDDEN_DIMS) + [1]
    rest_idx, test_idx = split_indices(len(pairs), test_fraction, seeded_rng(config.seed, "ablation-split"))
    tr_rel, va_rel = split_indices(len(rest_idx), val_fraction, seeded_rng(config.seed, "ablation-val-split"))
    train_idx, val_idx = rest_idx[tr_rel], rest_idx[va_rel]
    test_pairs = [pairs[i] for i in test_idx]

    table: list[tuple[float, float]] = []
    for q in noise_levels:
        noisy = list(pairs)
        flipped = flip_labels([pairs[i] for i in train_idx], q, seed=config.seed)
        for i, pair in zip(train_idx, flipped):
            noisy[i] = pair
        model = init_model(dims, seeded_rng(config.seed, "ablation-init"))
        report = ranker_mod.train(model, noisy, features, (train_idx, val_idx), config)
        table.append((q, pairwise_accuracy(ranker_mod.score_batch(report.model, features), test_pairs).accuracy))
    return table


def rescale_for_display(scores: dict[str, float], new_max: float) -> dict[str, float]:
    """Order-preserving affine map of the scores onto [0, new_max]; display only."""
    if not 0.0 < new_max < math.inf:
        raise ValueError(f"new_max must be positive and finite, got {new_max}")
    if not scores:
        return {}
    values = list(scores.values())
    lo, hi = min(values), max(values)
    if hi == lo:
        return {pid: float(new_max) for pid in scores}
    if math.isinf(hi - lo):  # finite scores spanning more than the float range: map their halves instead
        scores, lo, hi = {pid: s / 2 for pid, s in scores.items()}, lo / 2, hi / 2
    span = hi - lo
    return {pid: new_max * ((s - lo) / span) for pid, s in scores.items()}


def write_eval_csv(path: str | Path, result: EvalResult) -> None:
    with open_csv(path, "n_pairs,accuracy,n_ties") as f:
        f.write(f"{result.n_pairs},{result.accuracy!r},{result.n_ties}\n")


def write_ablation_csv(path: str | Path, table: list[tuple[float, float]]) -> None:
    with open_csv(path, "noise_level,test_accuracy") as f:
        for q, acc in table:
            f.write(f"{q!r},{acc!r}\n")


def write_scores_csv(path: str | Path, scores: dict[str, float]) -> None:
    with open_csv(path, "post_id,score") as f:
        for post_id in sorted(scores):
            f.write(f"{post_id},{scores[post_id]!r}\n")
