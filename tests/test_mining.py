"""Tests for the discriminability probability kernel and the pair miner."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from poprank import corpus, synthgen
from poprank.corpus import analyze_caption
from poprank.mining import (
    BLOCK_POSTS,
    MinerConfig,
    PDIP,
    caption_key,
    mine_pairs,
    normal_cdf,
    pair_stats,
    pdip_probability,
    read_pairs,
    write_pairs,
)

from conftest import (
    BASE,
    DAY,
    audit_pairs,
    exact_normal_cdf,
    legal_ids,
    make_post,
    reference_mine_pairs,
    scalar_normal_cdf,
)


class TestNormalCdf:
    def test_center(self):
        assert normal_cdf(0.0) == 0.5

    def test_against_erf_oracle_on_grid(self):
        zs = np.linspace(-8.0, 8.0, 20001)
        worst = max(abs(normal_cdf(float(z)) - exact_normal_cdf(float(z))) for z in zs)
        assert worst <= 1e-7

    def test_reference_quantile(self):
        assert normal_cdf(1.6449) == pytest.approx(0.9500, abs=1e-4)

    def test_symmetry_identity(self):
        rng = np.random.default_rng(3)
        for z in rng.uniform(-8, 8, size=200):
            assert normal_cdf(float(z)) + normal_cdf(float(-z)) == pytest.approx(1.0, abs=1e-15)

    def test_bounds(self):
        for z in (-50.0, -8.0, 8.0, 50.0):
            assert 0.0 <= normal_cdf(z) <= 1.0

    def test_non_finite_rejected(self):
        for z in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                normal_cdf(z)

    def test_array_equals_scalar_bitwise(self):
        zs = np.append(np.random.default_rng(5).uniform(-8.0, 8.0, size=100_000), 0.0)
        batch = normal_cdf(zs)
        assert batch.shape == zs.shape and batch[-1] == 0.5
        scalar = zs.tolist()
        assert batch.tolist() == [normal_cdf(z) for z in scalar]
        assert batch.tolist() == [scalar_normal_cdf(z) for z in scalar]

    def test_array_keeps_shape(self):
        zs = np.array([[0.0, 1.0], [-1.0, 2.5]])
        assert normal_cdf(zs).tolist() == [[normal_cdf(z) for z in row] for row in zs.tolist()]

    def test_array_non_finite_element_rejected(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                normal_cdf(np.array([0.5, bad, 1.0]))


class TestPdipProbability:
    def test_equal_evidence(self):
        assert pdip_probability(3.3, 3.3, 0.3) == 0.5

    def test_threshold_gap(self):
        # gap derived from the inverse-CDF oracle: sqrt(2)*sigma*ndtri(0.95)
        gap = math.sqrt(2.0) * 0.3 * float(ndtri(0.95))
        assert gap == pytest.approx(0.6979, abs=1e-4)
        assert pdip_probability(gap, 0.0, 0.3) == pytest.approx(0.95, abs=1e-6)
        assert pdip_probability(0.6979, 0.0, 0.3) == pytest.approx(0.95, abs=1e-3)

    def test_thousand_vs_hundred_likes(self):
        delta = math.log(1001.0) - math.log(101.0)
        assert delta == pytest.approx(2.2937, abs=1e-4)
        assert pdip_probability(delta, 0.0, 0.3) >= 0.9999

    def test_complement(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            s_a, s_b = rng.normal(6, 1, size=2)
            total = pdip_probability(s_a, s_b, 0.3) + pdip_probability(s_b, s_a, 0.3)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_monotone_in_gap(self):
        probs = [pdip_probability(d, 0.0, 0.3) for d in np.linspace(0, 3, 50)]
        assert all(b > a for a, b in zip(probs[:-1], probs[1:]))

    def test_larger_sigma_pulls_toward_half(self):
        probs = [pdip_probability(1.0, 0.0, s) for s in (0.1, 0.3, 1.0, 3.0)]
        assert all(b < a for a, b in zip(probs[:-1], probs[1:]))
        assert all(p > 0.5 for p in probs)

    def test_bad_sigma(self):
        for sigma in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                pdip_probability(1.0, 0.0, sigma)

    def test_arrays(self):
        s_a, s_b = np.array([3.3, 1.0, 0.0]), np.array([3.3, 0.0, 1.0])
        assert pdip_probability(s_a, s_b, 0.3).tolist() == [
            pdip_probability(a, b, 0.3) for a, b in zip(s_a.tolist(), s_b.tolist())
        ]


def _key(caption, max_words=6):
    return caption_key(analyze_caption(caption), max_words)


class TestCaptionKey:
    def test_both_empty(self):
        assert _key("") is not None and _key("") == _key("")

    def test_multiset_counts_matter(self):
        assert _key("#a") != _key("#a #a")

    def test_word_limit(self):
        assert _key("one two three four five six seven") is None
        assert _key("one two three four five six") == _key("one two")

    def test_same_tags_different_words_ok(self):
        assert _key("lovely day #sun @kim") == _key("gloomy skies again #sun @kim")

    def test_mention_mismatch(self):
        assert _key("@kim") != _key("@jan")

    def test_tags_and_mentions_kept_apart(self):
        assert _key("#kim") != _key("@kim")

    def test_hashable(self):
        assert len({_key("#a #b @c"), _key("@c #b #a"), _key("#a")}) == 2


def _pair_posts(likes_a=1000, likes_b=100, days_apart=3, caption_a="", caption_b="", user="u1"):
    old = BASE - 60 * DAY
    return [
        make_post(post_id="pa", user_id=user, likes=likes_a, upload_time=old, caption=caption_a),
        make_post(post_id="pb", user_id=user, likes=likes_b, upload_time=old + days_apart * DAY, caption=caption_b),
    ]


class TestMinePairs:
    config = MinerConfig(threshold=0.95, sigma=0.3, reference_time=BASE)

    def test_empty_input(self):
        assert mine_pairs([], None, self.config) == []

    def test_two_post_example(self):
        pairs = mine_pairs(_pair_posts(), None, self.config)
        assert len(pairs) == 1
        pair = pairs[0]
        assert pair.id_a == "pa" and pair.id_b == "pb"
        assert pair.prob >= 0.9999
        assert pair.delta_s == pytest.approx(math.log(1001.0) - math.log(101.0), abs=1e-12)

    def test_interval_constraint(self):
        assert mine_pairs(_pair_posts(days_apart=12), None, self.config) == []

    def test_interval_boundary_inclusive(self):
        assert len(mine_pairs(_pair_posts(days_apart=10), None, self.config)) == 1

    def test_caption_constraint(self):
        pairs = mine_pairs(_pair_posts(caption_a="#sun", caption_b="#moon"), None, self.config)
        assert pairs == []

    def test_probability_constraint(self):
        pairs = mine_pairs(_pair_posts(likes_a=110, likes_b=100), None, self.config)
        assert pairs == []

    def test_different_users_never_pair(self):
        posts = _pair_posts()
        posts[1] = make_post(post_id="pb", user_id="u2", likes=100, upload_time=posts[1].upload_time)
        assert mine_pairs(posts, None, self.config) == []

    def test_features_present_restriction(self):
        posts = _pair_posts()
        assert mine_pairs(posts, {"pa"}, self.config) == []
        assert len(mine_pairs(posts, {"pa", "pb"}, self.config)) == 1

    def test_greedy_prefers_high_probability(self):
        old = BASE - 60 * DAY
        posts = [
            make_post(post_id="a", likes=5000, upload_time=old),
            make_post(post_id="b", likes=1000, upload_time=old + DAY),
            make_post(post_id="c", likes=300, upload_time=old + 2 * DAY),
            make_post(post_id="d", likes=50, upload_time=old + 3 * DAY),
        ]
        pairs = mine_pairs(posts, None, self.config)
        # (a, d) has the largest gap, then (b, c) among the unused posts
        assert [(p.id_a, p.id_b) for p in pairs] == [("a", "d"), ("b", "c")]

    def test_one_pair_per_post(self, small_corpus):
        ref = synthgen.reference_time_for(synthgen.SynthConfig(n_users=60, posts_per_user=8, time_span_days=60, seed=99))
        config = MinerConfig(reference_time=ref)
        candidates = corpus.filter_candidates(small_corpus.posts, ref)
        pairs = mine_pairs(candidates, None, config)
        ids = [pid for p in pairs for pid in (p.id_a, p.id_b)]
        assert len(ids) == len(set(ids))

    def test_full_predicate_audit(self, small_corpus):
        ref = synthgen.reference_time_for(synthgen.SynthConfig(n_users=60, posts_per_user=8, time_span_days=60, seed=99))
        config = MinerConfig(reference_time=ref)
        candidates = corpus.filter_candidates(small_corpus.posts, ref)
        pairs = mine_pairs(candidates, None, config)
        assert pairs, "expected a non-empty mined pair list"
        assert audit_pairs(pairs, candidates, config) == []

    def test_determinism(self, small_corpus):
        ref = synthgen.reference_time_for(synthgen.SynthConfig(n_users=60, posts_per_user=8, time_span_days=60, seed=99))
        config = MinerConfig(reference_time=ref)
        candidates = corpus.filter_candidates(small_corpus.posts, ref)
        assert mine_pairs(candidates, None, config) == mine_pairs(list(candidates), None, config)

    def test_threshold_inclusive(self):
        exact = pdip_probability(math.log1p(300), math.log1p(100), 0.3)
        config = MinerConfig(threshold=exact, sigma=0.3, reference_time=BASE)
        pairs = mine_pairs(_pair_posts(likes_a=300, likes_b=100), None, config)
        assert [(p.id_a, p.id_b, p.prob) for p in pairs] == [("pa", "pb", exact)]

    def test_equal_probabilities_ordered_by_id_a_then_id_b(self):
        # ln(1 + likes) of 383, 143, 53 has two bitwise-equal gaps, so (a, m) and
        # (m, b) tie on probability; "a" < "m" picks (a, m) although "b" < "m"
        assert math.log1p(383) - math.log1p(143) == math.log1p(143) - math.log1p(53)
        old = BASE - 60 * DAY
        posts = [
            make_post(post_id="a", likes=383, upload_time=old),
            make_post(post_id="m", likes=143, upload_time=old + 8 * DAY),
            make_post(post_id="b", likes=53, upload_time=old + 16 * DAY),
        ]
        pairs = mine_pairs(posts, None, self.config)
        assert [(p.id_a, p.id_b) for p in pairs] == [("a", "m")]
        assert pairs == reference_mine_pairs(posts, None, self.config)

    def test_repeated_post_id_rejected(self):
        posts = _pair_posts()
        posts[1] = make_post(post_id="pa", likes=100, upload_time=posts[1].upload_time)
        with pytest.raises(ValueError, match="'pa'"):
            mine_pairs(posts, None, self.config)

    def test_upload_times_too_far_apart_for_int64_keys(self):
        posts = [make_post(post_id="pa", user_id="u1", upload_time=-(2**62)), make_post(post_id="pb", user_id="u2")]
        with pytest.raises(ValueError, match="too wide"):
            mine_pairs(posts, None, self.config)

    def test_input_order_invariance(self, small_corpus):
        ref = synthgen.reference_time_for(synthgen.SynthConfig(n_users=60, posts_per_user=8, time_span_days=60, seed=99))
        config = MinerConfig(reference_time=ref)
        candidates = corpus.filter_candidates(small_corpus.posts, ref)
        reversed_pairs = mine_pairs(list(reversed(candidates)), None, config)
        assert reversed_pairs == mine_pairs(candidates, None, config)


# hashtag/mention parts of captions: "#a #A" repeats a hashtag, "#a #b" and "#b #a" are one multiset
_TAG_PARTS = ["", "", "#a", "#a #A", "#a #b", "#b #a", "@k", "#a @k"]


@st.composite
def _corpora(draw):
    """Small corpora that hit every tie and boundary of the miner's constraints."""
    row = st.tuples(
        st.sampled_from(["u1", "u2", "u3"]),
        st.sampled_from([0, 1, 5, 10, 11, 20]),  # day: equal times and exact 10-day gaps
        st.sampled_from([0, 0, 1, 3600]),  # seconds past the day
        # repeats give dS = 0; ln(1 + likes) of 53, 143, 383 has two bitwise-equal gaps
        st.sampled_from([50, 51, 53, 100, 100, 143, 300, 383, 1000, 5000]),
        st.sampled_from(_TAG_PARTS),
        st.sampled_from([0, 1, 6, 7]),  # plain words around the 6-word limit
    )
    rows = [draw(row) for _ in range(draw(st.integers(0, 40)))]
    ids = draw(st.permutations(range(len(rows))))  # id order independent of upload order
    old = BASE - 60 * DAY
    posts = [
        make_post(post_id=f"p{k}", user_id=user, upload_time=old + day * DAY + sec, likes=likes,
                  caption=" ".join([tag_part] + ["w"] * words))
        for k, (user, day, sec, likes, tag_part, words) in zip(ids, rows)
    ]
    present = draw(st.none() | st.sets(st.sampled_from([p.post_id for p in posts]))) if posts else None
    sigma = draw(st.sampled_from([0.3, 1.0]))
    exact = scalar_normal_cdf((math.log1p(300) - math.log1p(100)) / (math.sqrt(2.0) * sigma))  # P of a likely pair
    config = MinerConfig(
        threshold=draw(st.sampled_from([0.55, 0.95, exact])),
        sigma=sigma,
        max_interval_days=draw(st.sampled_from([1, 10])),
        reference_time=BASE,
    )
    return posts, present, config


class TestMinePairsMatchesOracle:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_corpora())
    def test_equals_nested_loop(self, case):
        posts, present, config = case
        assert mine_pairs(posts, present, config) == reference_mine_pairs(posts, present, config)

    def test_more_posts_than_one_block(self):
        rng = np.random.default_rng(11)
        old = BASE - 400 * DAY
        posts = []
        # forty ordinary users, then one user with more posts than a block holds
        for user, n_posts, span_days in [(f"u{k:02d}", 60, 60) for k in range(40)] + [("big", BLOCK_POSTS + 7, 400)]:
            times = old + rng.integers(0, span_days * DAY, size=n_posts)
            likes = np.maximum(50, np.round(np.exp(rng.normal(6.0, 1.0, size=n_posts)))).astype(int)
            tags = rng.integers(0, 3, size=n_posts)
            for k in range(n_posts):
                caption = ["", "#sun", "#sun #sun @kim"][tags[k]]
                posts.append(make_post(post_id=f"{user}-{k}", user_id=user, upload_time=int(times[k]),
                                       likes=int(likes[k]), caption=caption))
        assert len(posts) > 2 * BLOCK_POSTS
        config = MinerConfig(reference_time=BASE)
        pairs = mine_pairs(posts, None, config)
        assert len(pairs) > 500
        assert pairs == reference_mine_pairs(posts, None, config)


class TestMinerConfig:
    def test_threshold_range(self):
        for bad in (0.5, 1.0, 0.2):
            with pytest.raises(ValueError):
                MinerConfig(threshold=bad)

    def test_sigma_positive(self):
        for bad in (0.0, -0.3, math.nan, math.inf):
            with pytest.raises(ValueError):
                MinerConfig(sigma=bad)


class TestPairStats:
    def test_singleton(self):
        posts = _pair_posts(days_apart=3)
        pair = PDIP(id_a="pa", id_b="pb", user_id="u1", prob=0.99, delta_s=1.0)
        stats = pair_stats([pair], posts)
        assert stats.n_pairs == 1 and stats.n_users == 1
        assert stats.mean_prob == pytest.approx(0.99)
        assert stats.mean_interval_days == pytest.approx(3.0)

    def test_dangling_id(self):
        pair = PDIP(id_a="pa", id_b="nope", user_id="u1", prob=0.99, delta_s=1.0)
        with pytest.raises(ValueError, match="nope"):
            pair_stats([pair], _pair_posts())

    def test_empty_list(self):
        stats = pair_stats([], _pair_posts())
        assert stats.n_pairs == 0 and math.isnan(stats.mean_prob)

    def test_matches_brute_force(self, small_corpus):
        ref = synthgen.reference_time_for(synthgen.SynthConfig(n_users=60, posts_per_user=8, time_span_days=60, seed=99))
        config = MinerConfig(reference_time=ref)
        candidates = corpus.filter_candidates(small_corpus.posts, ref)
        pairs = mine_pairs(candidates, None, config)
        stats = pair_stats(pairs, candidates)
        t = {p.post_id: p.upload_time for p in candidates}
        assert stats.mean_prob == pytest.approx(sum(p.prob for p in pairs) / len(pairs))
        assert stats.mean_interval_days == pytest.approx(
            sum(abs(t[p.id_a] - t[p.id_b]) / DAY for p in pairs) / len(pairs)
        )
        assert stats.n_users == len({p.user_id for p in pairs})


class TestPairsFile:
    def test_round_trip(self, tmp_path):
        pairs = [
            PDIP(id_a="a1", id_b="b1", user_id="u1", prob=0.987654321, delta_s=1.25),
            PDIP(id_a="a2", id_b="b2", user_id="u2", prob=0.95, delta_s=0.6978522922060042),
        ]
        path = tmp_path / "pairs.csv"
        write_pairs(path, pairs)
        loaded = read_pairs(path)
        assert [(p.id_a, p.id_b, p.user_id) for p in loaded] == [(p.id_a, p.id_b, p.user_id) for p in pairs]
        assert [p.delta_s for p in loaded] == [p.delta_s for p in pairs]  # 17g is exact
        assert loaded[0].prob == pytest.approx(pairs[0].prob, abs=5e-7)  # prob rounds to 6 places

    def test_byte_determinism(self, tmp_path):
        pairs = [PDIP(id_a="a", id_b="b", user_id="u", prob=0.96, delta_s=0.8)]
        p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
        write_pairs(p1, pairs)
        write_pairs(p2, pairs)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("who,what\n")
        with pytest.raises(ValueError):
            read_pairs(path)

    @pytest.mark.parametrize(
        "row, message",
        [(",b,u,0.99,1.0", "line 2: id_a must be a non-empty string"),
         ("a,b c,u,0.99,1.0", "line 2: id_b 'b c' contains ' '"),
         ("a,b,u\x01,0.99,1.0", "line 2: user_id 'u\\x01' contains '\\x01'")],
    )
    def test_id_rule_names_the_line(self, tmp_path, row, message):
        path = tmp_path / "pairs.csv"
        path.write_text("id_a,id_b,user_id,prob,delta_s\n" + row + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            read_pairs(path)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(
        st.builds(PDIP, legal_ids, legal_ids, legal_ids, st.floats(0.0, 1.0), st.floats(allow_nan=False, allow_infinity=False))
        .filter(lambda p: p.id_a != p.id_b),
        max_size=12,
    ))
    def test_round_trip_of_any_legal_pairs(self, tmp_path_factory, pairs):
        path = tmp_path_factory.mktemp("pairs") / "pairs.csv"
        write_pairs(path, pairs)
        loaded = read_pairs(path)
        assert [(p.id_a, p.id_b, p.user_id) for p in loaded] == [(p.id_a, p.id_b, p.user_id) for p in pairs]
        assert [p.delta_s.hex() for p in loaded] == [p.delta_s.hex() for p in pairs]
        assert [p.prob for p in loaded] == [float(f"{p.prob:.6f}") for p in pairs]
