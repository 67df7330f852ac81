"""Evaluation protocols: pairwise accuracy, label-noise ablation, score
distribution summaries, popularity levels, display rescaling.

A pair counts as correctly ranked iff the more-popular member scores strictly
higher; exact ties are tallied separately and count as incorrect, so the
reported accuracy is conservative and can be re-derived under the 0.5-credit
convention from (accuracy, n_ties).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import ranker as ranker_mod
from .features import FeatureSet, feature_dim
from .mining import PDIP
from .mlp import init_model
from .util import read_keyed_floats, seeded_rng, split_indices

POPULARITY_LEVELS = ("poor", "bad", "fair", "good", "excellent")  # ascending score order


@dataclass(frozen=True)
class EvalResult:
    n_pairs: int
    accuracy: float
    n_ties: int


@dataclass(frozen=True)
class GaussianFit:
    mean: float
    std: float  # sample std, n-1 denominator


@dataclass(frozen=True)
class Histogram:
    """Equal-width bins over [min, max]; masses sum to 1, density = mass/width."""

    edges: np.ndarray  # length n_bins + 1
    masses: np.ndarray
    densities: np.ndarray


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
    test_fraction: float = 0.2,
    val_fraction: float = 0.1,
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
    dims = [feature_dim(features)] + list(hidden_dims or ranker_mod.DEFAULT_HIDDEN_DIMS) + [1]
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
        ids = {pid for p in test_pairs for pid in (p.id_a, p.id_b)}
        scores = ranker_mod.score_batch(report.model, {pid: features[pid] for pid in ids})
        table.append((q, pairwise_accuracy(scores, test_pairs).accuracy))
    return table


def fit_gaussian(scores: list[float]) -> GaussianFit:
    """Moment-matching normal fit: sample mean and sample std (n-1)."""
    values = np.asarray(scores, dtype=np.float64)
    if values.size < 2:
        raise ValueError("fit_gaussian requires at least 2 scores")
    return GaussianFit(mean=float(values.mean()), std=float(values.std(ddof=1)))


def popularity_levels(scores: dict[str, float]) -> dict[str, str]:
    """Assign each score to one of five equal-width levels over the score range.

    The maximum lands in "excellent"; a degenerate range maps everything to
    "excellent".
    """
    if not scores:
        raise ValueError("popularity_levels requires at least one score")
    values = np.array(list(scores.values()), dtype=np.float64)
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        return {pid: POPULARITY_LEVELS[-1] for pid in scores}
    width = (hi - lo) / len(POPULARITY_LEVELS)
    levels = {}
    for pid, s in scores.items():
        idx = min(int((s - lo) / width), len(POPULARITY_LEVELS) - 1)
        levels[pid] = POPULARITY_LEVELS[idx]
    return levels


def rescale_for_display(scores: dict[str, float], new_max: float) -> dict[str, float]:
    """Order-preserving affine map of the scores onto [0, new_max]; display only."""
    if new_max <= 0:
        raise ValueError(f"new_max must be positive, got {new_max}")
    if not scores:
        return {}
    values = list(scores.values())
    lo, hi = min(values), max(values)
    if hi == lo:
        return {pid: float(new_max) for pid in scores}
    span = hi - lo
    return {pid: new_max * ((s - lo) / span) for pid, s in scores.items()}


def histogram(scores: list[float], n_bins: int) -> Histogram:
    """Normalized histogram with equal-width bins spanning [min, max].

    Masses sum to 1; densities integrate to 1 (for a degenerate range the
    bin width is taken as 1, making mass and density coincide).
    """
    values = np.asarray(scores, dtype=np.float64)
    if values.size == 0:
        raise ValueError("histogram requires at least one score")
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    lo, hi = float(values.min()), float(values.max())
    edges = np.linspace(lo, hi, n_bins + 1)
    if hi == lo:
        masses = np.zeros(n_bins)
        masses[-1] = 1.0
        return Histogram(edges=edges, masses=masses, densities=masses.copy())
    width = (hi - lo) / n_bins
    idx = np.minimum(((values - lo) / width).astype(int), n_bins - 1)
    masses = np.bincount(idx, minlength=n_bins) / values.size
    return Histogram(edges=edges, masses=masses, densities=masses / width)


def write_eval_csv(path: str | Path, result: EvalResult) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("n_pairs,accuracy,n_ties\n")
        f.write(f"{result.n_pairs},{result.accuracy!r},{result.n_ties}\n")


def write_ablation_csv(path: str | Path, table: list[tuple[float, float]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("noise_level,test_accuracy\n")
        for q, acc in table:
            f.write(f"{q!r},{acc!r}\n")


def write_histogram_csv(path: str | Path, hist: Histogram) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("bin_left,bin_right,density\n")
        for i in range(len(hist.masses)):
            f.write(f"{hist.edges[i]!r},{hist.edges[i + 1]!r},{hist.densities[i]!r}\n")


def write_scores_csv(path: str | Path, scores: dict[str, float]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("post_id,score\n")
        for post_id in sorted(scores):
            f.write(f"{post_id},{scores[post_id]!r}\n")


def read_scores_csv(path: str | Path) -> dict[str, float]:
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip()
        if header != "post_id,score":
            raise ValueError(f"unexpected scores header: {header!r}")
        return {post_id: values[0] for post_id, values in read_keyed_floats(f, 1)}
