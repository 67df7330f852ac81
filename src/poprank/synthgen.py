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

The order of the draws on a user's stream is the corpus format: a seed gives
the same bytes only while every draw is made in the same order with the same
arguments, so changing that order changes every synthetic output. A post takes
about twenty tiny draws, so their call overhead is the generator's cost. The
methods are bound once per user, and the token picks are scalar
`integers(0, k)` calls, a quarter of the cost of one `integers(0, k, size=n)`
call at such small n with the same values and the same final state; the
tokens are shuffled in place, which makes the swaps that
`permutation(len(tokens))` would. `tests/test_synthgen.py` checks both
equivalences, and the generator against a reference written the other way.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import INT64_MAX, SECONDS_PER_DAY, Post
from .features import FeatureSet
from .mining import PDIP
from .util import open_csv, seeded_rng

BASE_TIME = 1_600_000_000  # fixed epoch origin of synthetic upload times
MAX_TIME_SPAN_DAYS = (INT64_MAX - BASE_TIME) // SECONDS_PER_DAY  # every upload time and the reference time fit int64
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
        if not 1 <= self.time_span_days <= MAX_TIME_SPAN_DAYS:
            raise ValueError(f"time_span_days must be in [1, {MAX_TIME_SPAN_DAYS}]")
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
    mu_mean, mu_std, sigma_true = config.mu_mean, config.mu_std, config.sigma_true
    feature_dim, n_informative, noise_std = config.feature_dim, config.n_informative, config.feature_noise_std
    span_s = config.time_span_days * SECONDS_PER_DAY
    words = [f"word{k:03d}" for k in range(50)]
    posts, latent_mu = [], {}
    matrix = np.empty((config.n_users * config.posts_per_user, feature_dim))
    row = 0
    for u in range(config.n_users):
        user_id = f"u{u:05d}"
        rng = seeded_rng(config.seed, "user", user_id)
        integers, normal, random, geometric, shuffle = rng.integers, rng.normal, rng.random, rng.geometric, rng.shuffle
        hash_pool = [f"#tag{k:03d}" for k in integers(0, config.hashtag_vocab, size=2)]
        mention_pool = [f"@user{k:03d}" for k in integers(0, config.mention_vocab, size=2)]
        for i in range(config.posts_per_user):
            post_id = f"{user_id}_p{i:03d}"
            mu = normal(mu_mean, mu_std)
            likes = max(0, round(math.exp(normal(mu, sigma_true)) - 1.0))

            n_hash = _HASHTAG_COUNTS[integers(0, len(_HASHTAG_COUNTS))]
            n_ment = _MENTION_COUNTS[integers(0, len(_MENTION_COUNTS))]
            n_words = 0 if random() < 0.15 else geometric(0.4)
            tokens = [words[integers(0, len(words))] for _ in range(n_words)]
            tokens += [hash_pool[integers(0, len(hash_pool))] for _ in range(n_hash)]
            tokens += [mention_pool[integers(0, len(mention_pool))] for _ in range(n_ment)]
            shuffle(tokens)

            post = Post(
                post_id=post_id,
                user_id=user_id,
                upload_time=BASE_TIME + int(integers(0, span_s)),
                likes=likes,
                caption=" ".join(tokens),
                media_count=1 if random() < 0.9 else int(integers(2, 5)),
                is_video=random() < 0.08,
            )
            matrix[row] = normal(0.0, 1.0, size=feature_dim)
            matrix[row, :n_informative] = informative * mu + normal(0.0, noise_std, size=n_informative)
            row += 1
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
            f.write("%s,%.17g\n" % (post_id, mu))
