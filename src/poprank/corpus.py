"""Post metadata: parsing, caption analysis, candidate filtering, corpus statistics.

A corpus is a list of :class:`Post` records, normally read from a line-delimited
JSON file (one object per line, see :func:`parse_posts`). Candidate filtering
keeps the posts whose like counts are settled and unambiguous: at least 50
likes, a single non-video image, and at least 30 days old at the reference
time. Popularity evidence is the log-scaled like count ``ln(1 + likes)``.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, TextIO

from .util import _check_id, open_csv

log = logging.getLogger(__name__)

SECONDS_PER_DAY = 86400
MIN_LIKES = 50
MIN_AGE_DAYS = 30

POST_FIELDS = ("post_id", "user_id", "upload_time", "likes", "caption", "media_count", "is_video")


@dataclass(frozen=True)
class Post:
    """One post's metadata record."""

    post_id: str
    user_id: str
    upload_time: int  # seconds since epoch
    likes: int
    caption: str
    media_count: int
    is_video: bool


@dataclass(frozen=True)
class CaptionInfo:
    """Caption decomposed into hashtag/mention multisets and a plain-word count.

    Tokens are split on unicode whitespace and lowercased; a token belongs to
    `hashtags` if it starts with '#', to `mentions` if it starts with '@',
    and is otherwise counted in `word_count`.
    """

    hashtags: Counter
    mentions: Counter
    word_count: int


@dataclass(frozen=True)
class CorpusStats:
    n_posts: int
    n_users: int
    mean_likes: float
    proportion_no_hashtag: float
    proportion_no_mention: float
    proportion_no_caption: float
    mean_caption_words: float


@dataclass(frozen=True)
class ParseReport:
    """Well-formed posts plus one diagnostic string per rejected line."""

    posts: list[Post]
    diagnostics: list[str]


def _coerce_post(record: dict) -> Post:
    """Validate one decoded record; raises ValueError on any schema violation."""
    missing = [k for k in POST_FIELDS if k not in record]
    if missing:
        raise ValueError(f"missing fields {missing}")
    post_id, user_id, caption = record["post_id"], record["user_id"], record["caption"]
    _check_id("post_id", post_id)
    _check_id("user_id", user_id)
    if not isinstance(caption, str):
        raise ValueError("caption must be a string")
    for key in ("upload_time", "likes", "media_count"):
        if not isinstance(record[key], int) or isinstance(record[key], bool):
            raise ValueError(f"{key} must be an integer")
    if record["likes"] < 0:
        raise ValueError("likes must be >= 0")
    if record["media_count"] < 1:
        raise ValueError("media_count must be >= 1")
    if not isinstance(record["is_video"], bool):
        raise ValueError("is_video must be a boolean")
    return Post(
        post_id=post_id,
        user_id=user_id,
        upload_time=record["upload_time"],
        likes=record["likes"],
        caption=caption,
        media_count=record["media_count"],
        is_video=record["is_video"],
    )


def parse_posts(source: Iterable[str] | TextIO) -> ParseReport:
    """Parse a line-delimited record stream into posts.

    Malformed lines and duplicate post_ids are skipped and reported as
    diagnostics carrying the 1-based line number; they never abort the parse.
    Posts are returned in input order.
    """
    posts: list[Post] = []
    diagnostics: list[str] = []
    seen: set[str] = set()
    for lineno, line in enumerate(source, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError("record is not an object")
            post = _coerce_post(record)
        except (json.JSONDecodeError, ValueError) as exc:
            diagnostics.append(f"line {lineno}: {exc}")
            continue
        if post.post_id in seen:
            diagnostics.append(f"line {lineno}: duplicate post_id {post.post_id!r}")
            continue
        seen.add(post.post_id)
        posts.append(post)
    return ParseReport(posts=posts, diagnostics=diagnostics)


def parse_posts_file(path: str | Path) -> ParseReport:
    """Parse a posts file; an unreadable path is a fatal error."""
    with open(path, "r", encoding="utf-8") as f:
        return parse_posts(f)


def serialize_post(post: Post) -> str:
    """One-line JSON form of a post; `parse_posts` inverts it exactly."""
    return json.dumps({key: getattr(post, key) for key in POST_FIELDS}, sort_keys=True, ensure_ascii=True)


def write_posts(path: str | Path, posts: Iterable[Post]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for post in posts:
            f.write(serialize_post(post) + "\n")


def analyze_caption(caption: str) -> CaptionInfo:
    """Split a caption into hashtag/mention multisets and count the other words."""
    hashtags: Counter = Counter()
    mentions: Counter = Counter()
    word_count = 0
    for token in caption.split():
        token = token.lower()
        if token.startswith("#"):
            hashtags[token] += 1
        elif token.startswith("@"):
            mentions[token] += 1
        else:
            word_count += 1
    return CaptionInfo(hashtags=hashtags, mentions=mentions, word_count=word_count)


def filter_candidates(posts: list[Post], reference_time: int) -> list[Post]:
    """Keep the posts eligible for pair mining.

    Retains exactly the posts with likes >= 50, a single image medium
    (media_count == 1 and not a video), and age of at least 30 days at
    `reference_time`. Output order follows input order; the filter is
    idempotent.
    """
    future = sum(1 for p in posts if p.upload_time > reference_time)
    if future:
        log.warning("%d posts are uploaded after reference_time %d", future, reference_time)
    min_age = MIN_AGE_DAYS * SECONDS_PER_DAY
    return [
        p
        for p in posts
        if p.likes >= MIN_LIKES
        and p.media_count == 1
        and not p.is_video
        and reference_time - p.upload_time >= min_age
    ]


def log_likes(likes: float) -> float:
    """Log-scaled popularity evidence S = ln(1 + likes); strictly increasing."""
    if likes < 0:
        raise ValueError(f"likes must be >= 0, got {likes}")
    return math.log1p(likes)


def corpus_stats(posts: list[Post]) -> CorpusStats:
    """Descriptive statistics of a corpus; empty input is an error."""
    if not posts:
        raise ValueError("corpus_stats requires a non-empty post list")
    captions = [analyze_caption(p.caption) for p in posts]
    n = len(posts)
    return CorpusStats(
        n_posts=n,
        n_users=len({p.user_id for p in posts}),
        mean_likes=sum(p.likes for p in posts) / n,
        proportion_no_hashtag=sum(1 for c in captions if not c.hashtags) / n,
        proportion_no_mention=sum(1 for c in captions if not c.mentions) / n,
        proportion_no_caption=sum(1 for c in captions if not c.hashtags and not c.mentions and c.word_count == 0) / n,
        mean_caption_words=sum(c.word_count for c in captions) / n,
    )


def write_stats_csv(path: str | Path, stats) -> None:
    """Emit the fields of a statistics dataclass (`CorpusStats`, `mining.PairStats`) as CSV rows of name,value."""
    with open_csv(path, "name,value") as f:
        for field in dataclasses.fields(stats):
            f.write(f"{field.name},{getattr(stats, field.name)!r}\n")  # ints and floats: repr is the decimal form
