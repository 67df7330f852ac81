"""Synthetic corpora with known latent intrinsic popularity.

Each post draws a latent mean log-popularity mu from N(mu_mean, mu_std); the
observed log-likes evidence is S ~ N(mu, sigma_true), inverted to a like
count via likes = max(0, round(exp(S) - 1)) so generator and miner share one
scale. Feature vectors carry the latent signal in the first n_informative
dimensions (a_k * mu plus noise, coefficients fixed per corpus); the rest are
pure noise. Captions, upload times and media types are drawn to exercise
every mining constraint, including empty and over-long captions and a natural
low-mu tail that falls under the 50-likes floor. Everything is deterministic
given the seed, with per-user derived streams so users can be generated in
parallel.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import SECONDS_PER_DAY, Post
from .features import FeatureSet
from .mining import PDIP
from .util import fmt_float, open_csv, seeded_rng

BASE_TIME = 1_600_000_000  # fixed epoch origin of synthetic upload times
LOG_FLOAT_MAX = math.log(sys.float_info.max)  # like counts are round(exp(log-likes) - 1)
# A post's hashtag and mention counts: an entry drawn by a uniform index, which gives
# the values and leaves the generator state that rng.choice over the same list does.
_HASHTAG_COUNTS = (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 2, 2, 2)
_MENTION_COUNTS = (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 2, 2)


@dataclass(frozen=True)
class SynthConfig:
    n_users: int = 800
    posts_per_user: int = 12
    mu_mean: float = 6.0
    mu_std: float = 1.0
    sigma_true: float = 0.3  # matches the miner's default sigma
    feature_dim: int = 16
    n_informative: int = 4
    feature_noise_std: float = 0.25
    hashtag_vocab: int = 30
    mention_vocab: int = 20
    time_span_days: int = 90
    seed: int = 0

    def __post_init__(self):
        if self.n_users < 1 or self.posts_per_user < 1:
            raise ValueError("n_users and posts_per_user must be >= 1")
        if self.feature_dim < 1 or not 0 <= self.n_informative <= self.feature_dim:
            raise ValueError("feature_dim must be >= 1 and n_informative in [0, feature_dim]")
        if not all(0.0 <= std < math.inf for std in (self.mu_std, self.sigma_true, self.feature_noise_std)):
            raise ValueError("std parameters must be finite and >= 0")
        if self.time_span_days < 1:
            raise ValueError("time_span_days must be >= 1")
        if self.hashtag_vocab < 1 or self.mention_vocab < 1:
            raise ValueError("hashtag_vocab and mention_vocab must be >= 1")
        # numpy's normal draws stay within about 14 stds; with 40, exp(log-likes) and the features stay finite
        if not abs(self.mu_mean) + 40.0 * (self.mu_std + self.sigma_true) < LOG_FLOAT_MAX:
            raise ValueError(f"mu_mean must be finite, with |mu_mean| + 40 * (mu_std + sigma_true) < {LOG_FLOAT_MAX:.2f}")


@dataclass
class SynthCorpus:
    posts: list[Post]
    features: FeatureSet
    latent_mu: dict[str, float]


def reference_time_for(config: SynthConfig) -> int:
    """Download-time convention for a generated corpus: the end of its span."""
    return BASE_TIME + config.time_span_days * SECONDS_PER_DAY


def generate_corpus(config: SynthConfig) -> SynthCorpus:
    """Generate a deterministic corpus with per-post latent popularity."""
    informative = seeded_rng(config.seed, "informative-coefficients").uniform(
        0.5, 1.5, size=config.n_informative
    )
    span_s = config.time_span_days * SECONDS_PER_DAY
    posts, latent_mu = [], {}
    matrix = np.empty((config.n_users * config.posts_per_user, config.feature_dim))
    for u in range(config.n_users):
        user_id = f"u{u:05d}"
        rng = seeded_rng(config.seed, "user", user_id)
        hash_pool = [f"#tag{k:03d}" for k in rng.integers(0, config.hashtag_vocab, size=2)]
        mention_pool = [f"@user{k:03d}" for k in rng.integers(0, config.mention_vocab, size=2)]
        for i in range(config.posts_per_user):
            post_id = f"{user_id}_p{i:03d}"
            mu = float(rng.normal(config.mu_mean, config.mu_std))
            s = float(rng.normal(mu, config.sigma_true))
            likes = max(0, round(math.exp(s) - 1.0))

            n_hash = _HASHTAG_COUNTS[int(rng.integers(0, len(_HASHTAG_COUNTS)))]
            n_ment = _MENTION_COUNTS[int(rng.integers(0, len(_MENTION_COUNTS)))]
            n_words = 0 if rng.random() < 0.15 else int(rng.geometric(0.4))
            tokens = [f"word{int(k):03d}" for k in rng.integers(0, 50, size=n_words)]
            tokens += [hash_pool[int(k)] for k in rng.integers(0, len(hash_pool), size=n_hash)]
            tokens += [mention_pool[int(k)] for k in rng.integers(0, len(mention_pool), size=n_ment)]
            tokens = [tokens[int(k)] for k in rng.permutation(len(tokens))]

            post = Post(
                post_id=post_id,
                user_id=user_id,
                upload_time=BASE_TIME + int(rng.integers(0, span_s)),
                likes=likes,
                caption=" ".join(tokens),
                media_count=1 if rng.random() < 0.9 else int(rng.integers(2, 5)),
                is_video=bool(rng.random() < 0.08),
            )
            values = rng.normal(0.0, 1.0, size=config.feature_dim)
            values[: config.n_informative] = informative * mu + rng.normal(
                0.0, config.feature_noise_std, size=config.n_informative
            )
            matrix[len(posts)] = values
            posts.append(post)
            latent_mu[post_id] = mu
    return SynthCorpus(posts, FeatureSet([p.post_id for p in posts], matrix), latent_mu)


def oracle_label(pair: PDIP, latent: dict[str, float]) -> bool:
    """True iff the pair's more-popular post is latently more popular (strict)."""
    for pid in (pair.id_a, pair.id_b):
        if pid not in latent:
            raise ValueError(f"no latent value for post_id {pid!r}")
    return latent[pair.id_a] > latent[pair.id_b]


def latent_consistency(pairs: list[PDIP], latent: dict[str, float]) -> float:
    """Fraction of pairs whose orientation matches the latent ground truth."""
    if not pairs:
        raise ValueError("latent_consistency requires a non-empty pair list")
    return sum(oracle_label(p, latent) for p in pairs) / len(pairs)


def save_latents(path: str | Path, latent_mu: dict[str, float]) -> None:
    with open_csv(path, "post_id,mu") as f:
        for post_id, mu in latent_mu.items():
            f.write(f"{post_id},{fmt_float(mu)}\n")
