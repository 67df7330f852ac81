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
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import SECONDS_PER_DAY, Post
from .features import FeatureSet
from .mining import PDIP
from .util import fmt_float, read_keyed_floats, seeded_rng

BASE_TIME = 1_600_000_000  # fixed epoch origin of synthetic upload times


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
        if not 0 <= self.n_informative <= self.feature_dim:
            raise ValueError(f"n_informative must be in [0, feature_dim], got {self.n_informative}")
        if self.mu_std < 0 or self.sigma_true < 0 or self.feature_noise_std < 0:
            raise ValueError("std parameters must be >= 0")
        if self.time_span_days < 1:
            raise ValueError("time_span_days must be >= 1")


@dataclass
class SynthCorpus:
    posts: list[Post] = field(default_factory=list)
    features: FeatureSet = field(default_factory=dict)
    latent_mu: dict[str, float] = field(default_factory=dict)


def reference_time_for(config: SynthConfig) -> int:
    """Download-time convention for a generated corpus: the end of its span."""
    return BASE_TIME + config.time_span_days * SECONDS_PER_DAY


def generate_corpus(config: SynthConfig) -> SynthCorpus:
    """Generate a deterministic corpus with per-post latent popularity."""
    informative = seeded_rng(config.seed, "informative-coefficients").uniform(
        0.5, 1.5, size=config.n_informative
    )
    span_s = config.time_span_days * SECONDS_PER_DAY
    corpus = SynthCorpus()
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

            n_hash = int(rng.choice([0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 2, 2, 2]))
            n_ment = int(rng.choice([0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 2, 2]))
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
            corpus.posts.append(post)
            corpus.features[post_id] = values
            corpus.latent_mu[post_id] = mu
    return corpus


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
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("post_id,mu\n")
        for post_id, mu in latent_mu.items():
            f.write(f"{post_id},{fmt_float(mu)}\n")


def load_latents(path: str | Path) -> dict[str, float]:
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip()
        if header != "post_id,mu":
            raise ValueError(f"unexpected latents header: {header!r}")
        return {post_id: values[0] for post_id, values in read_keyed_floats(f, 1)}
