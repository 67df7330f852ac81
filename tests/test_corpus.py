"""Tests for post parsing, caption analysis, candidate filtering, and stats."""

import io
import math
from collections import Counter

import numpy as np
import pytest

from poprank import corpus, synthgen
from poprank.corpus import (
    CaptionInfo,
    analyze_caption,
    corpus_stats,
    filter_candidates,
    log_likes,
    parse_posts,
    parse_posts_file,
    serialize_post,
    write_posts,
)

from conftest import BASE, DAY, make_post


class TestParsePosts:
    def test_empty_stream(self):
        report = parse_posts(io.StringIO(""))
        assert report.posts == [] and report.diagnostics == []

    def test_partial_failure_keeps_good_records(self):
        lines = [
            serialize_post(make_post(post_id="a")),
            "{not json",
            serialize_post(make_post(post_id="b")),
            serialize_post(make_post(post_id="c")),
        ]
        report = parse_posts(lines)
        assert [p.post_id for p in report.posts] == ["a", "b", "c"]
        assert len(report.diagnostics) == 1
        assert "line 2" in report.diagnostics[0]

    def test_duplicate_post_id_rejected(self):
        lines = [serialize_post(make_post(post_id="a", likes=1)), serialize_post(make_post(post_id="a", likes=2))]
        report = parse_posts(lines)
        assert len(report.posts) == 1 and report.posts[0].likes == 1
        assert "duplicate" in report.diagnostics[0] and "line 2" in report.diagnostics[0]

    @pytest.mark.parametrize(
        "record",
        [
            '{"post_id": "a"}',
            '{"post_id": "", "user_id": "u", "upload_time": 1, "likes": 0, "caption": "", "media_count": 1, "is_video": false}',
            '{"post_id": "a", "user_id": "u", "upload_time": 1.5, "likes": 0, "caption": "", "media_count": 1, "is_video": false}',
            '{"post_id": "a", "user_id": "u", "upload_time": 1, "likes": -1, "caption": "", "media_count": 1, "is_video": false}',
            '{"post_id": "a", "user_id": "u", "upload_time": 1, "likes": 0, "caption": "", "media_count": 0, "is_video": false}',
            '{"post_id": "a", "user_id": "u", "upload_time": 1, "likes": 0, "caption": "", "media_count": 1, "is_video": 3}',
            '[1, 2]',
        ],
    )
    def test_schema_violations_are_diagnosed(self, record):
        report = parse_posts([record])
        assert report.posts == [] and len(report.diagnostics) == 1

    @pytest.mark.parametrize("key", ["post_id", "user_id"])
    @pytest.mark.parametrize("bad_id", ["p,0", "p 0", "p\t0", "p\u00a00", "p\x000", "p\x7f"])
    def test_ids_unsafe_for_csv_are_diagnosed(self, key, bad_id):
        bad = make_post(**{"post_id": "x", key: bad_id})
        lines = [serialize_post(make_post(post_id="ok")), serialize_post(bad)]
        report = parse_posts(lines)
        assert [p.post_id for p in report.posts] == ["ok"]
        assert len(report.diagnostics) == 1
        assert report.diagnostics[0].startswith("line 2: ") and key in report.diagnostics[0]

    def test_round_trip_through_file(self, tmp_path, small_corpus):
        path = tmp_path / "posts.jsonl"
        write_posts(path, small_corpus.posts)
        report = parse_posts_file(path)
        assert report.diagnostics == []
        assert report.posts == small_corpus.posts

    def test_unreadable_source_is_fatal(self, tmp_path):
        with pytest.raises(OSError):
            parse_posts_file(tmp_path / "missing.jsonl")


class TestAnalyzeCaption:
    def test_empty_caption(self):
        assert analyze_caption("") == CaptionInfo(Counter(), Counter(), 0)

    def test_manual_tokenization(self):
        info = analyze_caption("sunset at beach #travel @bob")
        assert info.hashtags == Counter({"#travel": 1})
        assert info.mentions == Counter({"@bob": 1})
        assert info.word_count == 3

    def test_multiset_semantics(self):
        info = analyze_caption("#a #a @x")
        assert info.hashtags == Counter({"#a": 2})
        assert info.mentions == Counter({"@x": 1})
        assert info.word_count == 0

    def test_lowercasing(self):
        info = analyze_caption("Sunset #TraVel @BOB")
        assert info.hashtags == Counter({"#travel": 1})
        assert info.mentions == Counter({"@bob": 1})

    def test_token_order_insensitive(self):
        rng = np.random.default_rng(5)
        tokens = ["#a", "#b", "@x", "hello", "world", "#a", "again"]
        reference = analyze_caption(" ".join(tokens))
        for _ in range(20):
            shuffled = [tokens[i] for i in rng.permutation(len(tokens))]
            info = analyze_caption(" ".join(shuffled))
            assert info.hashtags == reference.hashtags
            assert info.mentions == reference.mentions
            assert info.word_count == reference.word_count


class TestFilterCandidates:
    def test_like_floor(self):
        old = BASE - 40 * DAY
        posts = [make_post(post_id="a", likes=49, upload_time=old), make_post(post_id="b", likes=50, upload_time=old)]
        kept = filter_candidates(posts, BASE)
        assert [p.post_id for p in kept] == ["b"]

    def test_age_boundary(self):
        posts = [
            make_post(post_id="young", upload_time=BASE - 29 * DAY),
            make_post(post_id="exact", upload_time=BASE - 30 * DAY),
            make_post(post_id="old", upload_time=BASE - 31 * DAY),
        ]
        kept = filter_candidates(posts, BASE)
        assert [p.post_id for p in kept] == ["exact", "old"]

    def test_single_image_only(self):
        old = BASE - 40 * DAY
        posts = [
            make_post(post_id="multi", media_count=2, upload_time=old),
            make_post(post_id="video", is_video=True, upload_time=old),
            make_post(post_id="ok", upload_time=old),
        ]
        assert [p.post_id for p in filter_candidates(posts, BASE)] == ["ok"]

    def test_matches_brute_force_predicate_scan(self, small_corpus):
        ref = synthgen.reference_time_for(synthgen.SynthConfig(n_users=60, posts_per_user=8, time_span_days=60, seed=99))
        kept = filter_candidates(small_corpus.posts, ref)
        expected = [
            p
            for p in small_corpus.posts
            if p.likes >= 50 and p.media_count == 1 and not p.is_video and ref - p.upload_time >= 30 * DAY
        ]
        assert kept == expected
        assert len(kept) < len(small_corpus.posts)

    def test_subset_and_idempotent(self, small_corpus):
        ref = synthgen.reference_time_for(synthgen.SynthConfig(n_users=60, posts_per_user=8, time_span_days=60, seed=99))
        once = filter_candidates(small_corpus.posts, ref)
        assert set(p.post_id for p in once) <= set(p.post_id for p in small_corpus.posts)
        assert filter_candidates(once, ref) == once


class TestLogLikes:
    def test_zero(self):
        assert log_likes(0) == 0.0

    def test_unit_point(self):
        assert log_likes(math.e - 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_reference_value(self):
        # independent scalar oracle: ln(342)
        assert log_likes(341) == pytest.approx(math.log(342), abs=1e-12)
        assert log_likes(341) == pytest.approx(5.8348, abs=1e-4)

    def test_strictly_monotone(self):
        rng = np.random.default_rng(0)
        likes = rng.integers(0, 10**6, size=200)
        for a, b in zip(likes[:-1], likes[1:]):
            if a == b:
                continue
            lo, hi = sorted((int(a), int(b)))
            assert log_likes(hi) > log_likes(lo)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            log_likes(-1)


class TestCorpusStats:
    def test_singleton(self):
        stats = corpus_stats([make_post(likes=100, caption="")])
        assert stats.mean_likes == 100
        assert stats.proportion_no_caption == 1.0
        assert stats.proportion_no_hashtag == 1.0
        assert stats.n_users == 1

    def test_user_counting(self):
        posts = [
            make_post(post_id="a", user_id="u1"),
            make_post(post_id="b", user_id="u1"),
            make_post(post_id="c", user_id="u2"),
        ]
        stats = corpus_stats(posts)
        assert stats.n_posts == 3 and stats.n_users == 2

    def test_empty_corpus_is_error(self):
        with pytest.raises(ValueError):
            corpus_stats([])

    def test_matches_independent_recomputation(self, small_corpus):
        stats = corpus_stats(small_corpus.posts)
        n = len(small_corpus.posts)
        tokenized = []
        for p in small_corpus.posts:
            tokens = [t.lower() for t in p.caption.split()]
            tokenized.append(
                (
                    sum(t.startswith("#") for t in tokens),
                    sum(t.startswith("@") for t in tokens),
                    sum(not t.startswith(("#", "@")) for t in tokens),
                )
            )
        assert stats.n_posts == n
        assert stats.n_users == len({p.user_id for p in small_corpus.posts})
        assert stats.mean_likes == pytest.approx(sum(p.likes for p in small_corpus.posts) / n)
        assert stats.proportion_no_hashtag == pytest.approx(sum(h == 0 for h, _, _ in tokenized) / n)
        assert stats.proportion_no_mention == pytest.approx(sum(m == 0 for _, m, _ in tokenized) / n)
        assert stats.proportion_no_caption == pytest.approx(sum(h + m + w == 0 for h, m, w in tokenized) / n)
        assert stats.mean_caption_words == pytest.approx(sum(w for _, _, w in tokenized) / n)

    def test_stats_csv(self, tmp_path):
        stats = corpus_stats([make_post(likes=100)])
        path = tmp_path / "stats.csv"
        corpus.write_stats_csv(path, stats)
        lines = path.read_text().splitlines()
        assert lines[0] == "name,value"
        assert lines[1] == "n_posts,1"
        assert any(line.startswith("mean_likes,") for line in lines)
