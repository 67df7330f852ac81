"""Tests for the synthetic corpus generator and its latent-truth oracles."""

import math

import numpy as np
import pytest

from poprank import corpus, mining, synthgen
from poprank.mining import MinerConfig, PDIP
from poprank.synthgen import (
    SynthConfig,
    generate_corpus,
    latent_consistency,
    oracle_label,
    reference_time_for,
)

from poprank.util import seeded_rng

from conftest import (read_id_values, reference_generate_corpus, write_features_file, write_latents_file,
                      write_posts_file)


class TestGenerateCorpus:
    def test_same_seed_identical_corpus(self):
        cfg = SynthConfig(n_users=20, posts_per_user=5, seed=3)
        a, b = generate_corpus(cfg), generate_corpus(cfg)
        assert a.posts == b.posts
        assert a.latent_mu == b.latent_mu
        assert all(np.array_equal(a.features[k], b.features[k]) for k in a.features)

    def test_different_seed_differs(self):
        a = generate_corpus(SynthConfig(n_users=5, posts_per_user=5, seed=1))
        b = generate_corpus(SynthConfig(n_users=5, posts_per_user=5, seed=2))
        assert a.posts != b.posts

    def test_bitwise_identical_files(self, tmp_path):
        cfg = SynthConfig(n_users=15, posts_per_user=6, seed=8)
        for name in ("one", "two"):
            d = tmp_path / name
            d.mkdir()
            c = generate_corpus(cfg)
            write_posts_file(d / "posts.jsonl", c.posts)
            write_features_file(d / "features.csv", c.features)
            write_latents_file(d / "latents.csv", c.latent_mu)
        for fname in ("posts.jsonl", "features.csv", "latents.csv"):
            assert (tmp_path / "one" / fname).read_bytes() == (tmp_path / "two" / fname).read_bytes()

    def test_every_post_has_feature_and_latent(self, default_corpus):
        ids = {p.post_id for p in default_corpus.posts}
        assert set(default_corpus.features) == ids
        assert set(default_corpus.latent_mu) == ids
        assert len(ids) == len(default_corpus.posts)

    def test_log_likes_moment_matches_prior_mean(self, default_corpus):
        values = np.array([math.log1p(p.likes) for p in default_corpus.posts])
        se = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(values.mean() - 6.0) <= 3 * se

    def test_constraint_cases_are_exercised(self, default_corpus):
        posts = default_corpus.posts
        assert any(p.likes < 50 for p in posts), "low-likes tail missing"
        assert any(p.is_video for p in posts)
        assert any(p.media_count > 1 for p in posts)
        assert any(p.caption == "" for p in posts)
        table = corpus.PostTable.of(posts)
        word_counts = table.caption_words[table.caption].tolist()
        assert any(w > 6 for w in word_counts), "over-long captions missing"
        assert any(w == 0 for w in word_counts)

    def test_feature_dimensions(self, default_corpus):
        dims = {len(v) for v in default_corpus.features.values()}
        assert dims == {16}

    def test_informative_dims_track_latent(self, default_corpus):
        """Dimension k is a_k * mu + N(0, noise), so its correlation with mu is a_k / sqrt(a_k^2 + (noise / mu_std)^2);
        each sample correlation lies within four of its standard errors, (1 - rho^2) / sqrt(n), of that."""
        config = SynthConfig(seed=20240501)
        ids = list(default_corpus.features)
        mu = np.array([default_corpus.latent_mu[i] for i in ids])
        matrix = np.stack([default_corpus.features[i] for i in ids])
        coefficients = seeded_rng(config.seed, "informative-coefficients").uniform(0.5, 1.5, size=4)
        for k, a in enumerate(coefficients):
            rho = a / math.sqrt(a**2 + (config.feature_noise_std / config.mu_std) ** 2)
            assert abs(np.corrcoef(mu, matrix[:, k])[0, 1] - rho) <= 4 * (1 - rho**2) / math.sqrt(len(ids))
        for k in range(4, 16):
            assert abs(np.corrcoef(mu, matrix[:, k])[0, 1]) < 0.1

    def test_null_signal_config_has_no_informative_dims(self):
        cfg = SynthConfig(n_users=40, posts_per_user=6, n_informative=0, seed=5)
        c = generate_corpus(cfg)
        ids = list(c.features)
        mu = np.array([c.latent_mu[i] for i in ids])
        matrix = np.stack([c.features[i] for i in ids])
        # no dimension should correlate beyond sampling noise (~1/sqrt(n))
        bound = 4.0 / math.sqrt(len(ids))
        assert all(abs(np.corrcoef(mu, matrix[:, k])[0, 1]) < bound for k in range(16))

    def test_upload_times_within_span(self, default_corpus):
        ref = reference_time_for(SynthConfig())
        for p in default_corpus.posts:
            assert synthgen.BASE_TIME <= p.upload_time < ref

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SynthConfig(n_users=0)
        with pytest.raises(ValueError):
            SynthConfig(n_informative=20, feature_dim=16)
        with pytest.raises(ValueError):
            SynthConfig(feature_dim=0, n_informative=0)
        for std in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError):
                SynthConfig(mu_std=std)
            with pytest.raises(ValueError):
                SynthConfig(feature_noise_std=std)
        for vocab in ("hashtag_vocab", "mention_vocab"):
            with pytest.raises(ValueError, match=vocab):
                SynthConfig(**{vocab: 0})
        for mu_mean in (math.nan, math.inf, -math.inf, 800.0, -800.0):
            with pytest.raises(ValueError, match="mu_mean"):
                SynthConfig(mu_mean=mu_mean)
        with pytest.raises(ValueError, match="mu_mean"):
            SynthConfig(mu_std=1e300)  # a finite mean whose draws overflow a like count
        with pytest.raises(ValueError, match="time_span_days"):
            SynthConfig(time_span_days=106_751_991_148_783)  # the reference time would pass int64


def _bitwise(c: synthgen.SynthCorpus):
    """A corpus as values compared bit for bit: post reprs (types included), latents by `float.hex`, matrix bytes."""
    latents = [(k, type(v), v.hex()) for k, v in c.latent_mu.items()]
    return repr(c.posts), latents, c.features.ids, c.features.matrix.shape, c.features.matrix.tobytes()


class TestGeneratorOracle:
    """`generate_corpus` makes the reference generator's draws, so every corpus is equal to it bit for bit."""

    def test_default_config(self, default_corpus):
        assert _bitwise(default_corpus) == _bitwise(reference_generate_corpus(SynthConfig(seed=20240501)))

    @pytest.mark.parametrize(
        "overrides",
        [dict(posts_per_user=1), dict(feature_dim=1, n_informative=0), dict(feature_dim=1, n_informative=1),
         dict(feature_dim=5, n_informative=5), dict(hashtag_vocab=1, mention_vocab=1),
         dict(mu_std=0.0, sigma_true=0.0), dict(time_span_days=1)],
    )
    def test_corner_configs(self, overrides):
        config = SynthConfig(**{"n_users": 30, "posts_per_user": 10, "seed": 11, **overrides})
        assert _bitwise(generate_corpus(config)) == _bitwise(reference_generate_corpus(config))


class TestOracleLabel:
    def test_basic(self):
        pair = PDIP(id_a="a", id_b="b", user_id="u", prob=0.99, delta_s=1.0)
        assert oracle_label(pair, {"a": 7.0, "b": 5.0}) is True
        assert oracle_label(pair, {"a": 5.0, "b": 7.0}) is False

    def test_tie_is_false(self):
        pair = PDIP(id_a="a", id_b="b", user_id="u", prob=0.99, delta_s=0.0)
        assert oracle_label(pair, {"a": 5.0, "b": 5.0}) is False

    def test_missing_id(self):
        pair = PDIP(id_a="a", id_b="zz", user_id="u", prob=0.99, delta_s=1.0)
        with pytest.raises(ValueError, match="zz"):
            oracle_label(pair, {"a": 5.0})

    def test_matches_sign_audit(self, small_corpus):
        rng = np.random.default_rng(2)
        ids = list(small_corpus.latent_mu)
        for _ in range(100):
            a, b = rng.choice(ids, size=2, replace=False)
            pair = PDIP(id_a=str(a), id_b=str(b), user_id="u", prob=0.99, delta_s=0.0)
            expected = small_corpus.latent_mu[str(a)] - small_corpus.latent_mu[str(b)] > 0
            assert oracle_label(pair, small_corpus.latent_mu) == expected


class TestLatentConsistency:
    def _mined(self, corpus_obj, threshold=0.95, sigma=0.3):
        ref = reference_time_for(SynthConfig())
        config = MinerConfig(threshold=threshold, sigma=sigma, reference_time=ref)
        candidates = corpus.filter_candidates(corpus_obj.posts, ref)
        return mining.mine_pairs(candidates, None, config)

    def test_pairs_from_sorted_mu_are_fully_consistent(self, small_corpus):
        ids = sorted(small_corpus.latent_mu, key=small_corpus.latent_mu.get)
        pairs = [
            PDIP(id_a=ids[i + 1], id_b=ids[i], user_id="u", prob=0.99, delta_s=1.0)
            for i in range(0, len(ids) - 1, 2)
        ]
        assert latent_consistency(pairs, small_corpus.latent_mu) == 1.0

    def test_mined_pairs_clear_threshold(self, default_corpus):
        pairs = self._mined(default_corpus)
        assert len(pairs) >= 100
        assert latent_consistency(pairs, default_corpus.latent_mu) >= 0.93

    def test_nondecreasing_in_threshold(self, default_corpus):
        loose = latent_consistency(self._mined(default_corpus, threshold=0.95), default_corpus.latent_mu)
        strict = latent_consistency(self._mined(default_corpus, threshold=0.99), default_corpus.latent_mu)
        assert strict >= loose - 0.01

    def test_underestimated_sigma_degrades_consistency(self, default_corpus):
        matched = latent_consistency(self._mined(default_corpus, sigma=0.3), default_corpus.latent_mu)
        overconfident = latent_consistency(self._mined(default_corpus, sigma=0.02), default_corpus.latent_mu)
        assert overconfident < matched

    def test_empty_error(self):
        with pytest.raises(ValueError):
            latent_consistency([], {})


class TestLatentsFile:
    def test_round_trip(self, tmp_path):
        latents = {"p1": 6.25, "p2": 4.75, "p3": -0.5}
        path = tmp_path / "latents.csv"
        write_latents_file(path, latents)
        assert read_id_values(path, "post_id,mu") == latents
