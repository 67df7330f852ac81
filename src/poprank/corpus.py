"""Post metadata: parsing, caption analysis, candidate filtering, corpus statistics.

A corpus is a sequence of :class:`Post` records, normally read from a
line-delimited JSON file (one object per line, see :func:`parse_posts`) into a
:class:`PostTable`, which holds them as columns and analyses each distinct
caption once; the filter and the statistics work on those columns. Candidate
filtering keeps the posts whose like counts are settled and unambiguous: at
least 50 likes, a single non-video image, and at least 30 days old at the
reference time. Popularity evidence is the log-scaled like count
``ln(1 + likes)``.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import operator
from array import array
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, TextIO

import numpy as np

from .util import _ID_FORBIDDEN, _check_id, open_csv

SECONDS_PER_DAY = 86400
MIN_LIKES = 50
MIN_AGE_DAYS = 30
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1  # the range of upload_time, likes and media_count

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


POST_FIELDS = tuple(f.name for f in dataclasses.fields(Post))
_CAPTION_ANALYSIS = ("caption_words", "caption_key", "keys")  # `PostTable`'s lazy attributes


@dataclass(frozen=True)
class CorpusStats:
    n_posts: int
    n_users: int
    mean_likes: float
    proportion_no_hashtag: float
    proportion_no_mention: float
    proportion_no_caption: float
    mean_caption_words: float


class PostTable(Sequence):
    """Posts as read-only columns; reads as a sequence of :class:`Post`.

    Per post: `ids`, `user` (an index into `users`), int64 `upload_time`,
    `likes` and `media_count`, bool `is_video` and `caption` (an index into
    `captions`). Per distinct caption, analysed once, when one of these is
    first read: `caption_words`, its plain-word count, and `caption_key`, a
    code that two captions share exactly when their hashtag and mention
    multisets are equal; `keys[code]` is that pair of multisets as sorted
    tuples. Only the captions the table's rows reference are analysed, so a
    `take` analyses its own; the entries of the others are 0. The columns are
    taken in `POST_FIELDS` order; an integer outside int64 is an OverflowError.
    """

    def __init__(self, post_id, user_id, upload_time, likes, caption, media_count, is_video):
        self.ids = list(post_id)
        self.users, self.user = _codes(user_id)
        self.captions, self.caption = _codes(caption)
        self.upload_time, self.likes = _frozen(upload_time, np.int64), _frozen(likes, np.int64)
        self.media_count, self.is_video = _frozen(media_count, np.int64), _frozen(is_video, bool)

    def __getattr__(self, name: str):
        """Analyse the referenced captions on the first read of `caption_words`, `caption_key` or `keys`."""
        if name not in _CAPTION_ANALYSIS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        used = np.flatnonzero(np.bincount(self.caption, minlength=len(self.captions)))  # the captions the rows use
        keys: dict[tuple, int] = {}
        words, key = [], []
        for text in map(self.captions.__getitem__, used.tolist()):
            hashtags, mentions, word_count = _caption_parts(text)
            words.append(word_count)
            key.append(keys.setdefault((tuple(hashtags), tuple(mentions)), len(keys)))
        self.keys = list(keys)
        self.caption_words = _scattered(words, used, len(self.captions), np.int64)
        self.caption_key = _scattered(key, used, len(self.captions), np.intp)
        return getattr(self, name)

    @classmethod
    def of(cls, posts: Sequence[Post]) -> PostTable:
        """`posts` itself if it is a PostTable, else a PostTable of its posts in order."""
        if isinstance(posts, cls):
            return posts
        return cls(*[[getattr(post, name) for post in posts] for name in POST_FIELDS])

    def take(self, rows: np.ndarray) -> PostTable:
        """The posts at `rows` (indices, or a boolean mask), sharing this table's users and captions."""
        rows = np.flatnonzero(rows) if rows.dtype == bool else rows
        table = copy.copy(self)
        for name in _CAPTION_ANALYSIS:
            table.__dict__.pop(name, None)
        table.ids = [self.ids[row] for row in rows.tolist()]
        for name in ("user", "upload_time", "likes", "caption", "media_count", "is_video"):
            setattr(table, name, _frozen(getattr(self, name)[rows]))
        return table

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, row: int) -> Post:
        row = range(len(self))[row]
        return Post(self.ids[row], self.users[self.user[row]], int(self.upload_time[row]), int(self.likes[row]),
                    self.captions[self.caption[row]], int(self.media_count[row]), bool(self.is_video[row]))

    def __iter__(self):
        users, captions = self.users, self.captions
        return map(Post, self.ids, [users[u] for u in self.user.tolist()], self.upload_time.tolist(),
                   self.likes.tolist(), [captions[c] for c in self.caption.tolist()],
                   self.media_count.tolist(), self.is_video.tolist())


def _codes(values) -> tuple[list, np.ndarray]:
    """The distinct values in order of first appearance, and the read-only index of each value among them."""
    index: dict = {}
    codes = np.fromiter((index.setdefault(v, len(index)) for v in values), np.intp, count=len(values))
    codes.flags.writeable = False
    return list(index), codes


def _frozen(values, dtype=None) -> np.ndarray:
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


def _scattered(values: list, at: np.ndarray, size: int, dtype) -> np.ndarray:
    """A read-only array of `size` zeros but for `values` at the indices `at`."""
    array = np.zeros(size, dtype)
    array[at] = values
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class ParseReport:
    """Well-formed posts plus one diagnostic string per rejected line."""

    posts: PostTable
    diagnostics: list[str]


def _only(values: tuple, kind: type) -> bool:
    """Every value is exactly of type `kind`."""
    return set(map(type, values)) == {kind}


def _id_fault(key: str, value) -> str | None:
    try:
        _check_id(key, value)
    except ValueError as exc:
        return str(exc)
    return None


def _broken_rules(columns: list[tuple], seen: set[str]) -> dict[int, str]:
    """The first rule each broken record breaks, as {row: message}; `columns` are in `POST_FIELDS` order.

    The rules in order: the id rule on post_id, then on user_id; caption is a
    string; upload_time, likes and media_count are ints; likes >= 0;
    media_count >= 1; is_video is a boolean; the three ints fit int64; and a
    post_id repeated from an earlier unbroken row, here or among the ids in
    `seen`, to which the ids of these unbroken rows are added. Each rule is
    checked on its whole column once, and value by value only where that
    fails, over the rows no earlier rule broke. JSON gives exact `str`, `int`
    and `bool` values, so `type(v) is int` is an int that is not a bool.
    """
    post_id, user_id, upload_time, likes, caption, media_count, is_video = columns
    broken: dict[int, str] = {}

    def rule(values, column_holds: bool, fault) -> None:  # fault(value): its message if it breaks the rule
        if not column_holds:
            for row, value in enumerate(values):
                if row not in broken and (message := fault(value)):
                    broken[row] = message

    post_ids_are_str = _only(post_id, str)
    for key, ids, are_str in (("post_id", post_id, post_ids_are_str), ("user_id", user_id, _only(user_id, str))):
        rule(ids, are_str and all(ids) and not _ID_FORBIDDEN.search("".join(ids)), lambda v: _id_fault(key, v))
    rule(caption, _only(caption, str), lambda v: type(v) is not str and "caption must be a string")
    ints = {"upload_time": upload_time, "likes": likes, "media_count": media_count}
    exact = {key: _only(values, int) for key, values in ints.items()}
    for key, values in ints.items():
        rule(values, exact[key], lambda v: type(v) is not int and f"{key} must be an integer")
    rule(likes, exact["likes"] and min(likes) >= 0, lambda v: v < 0 and "likes must be >= 0")
    rule(media_count, exact["media_count"] and min(media_count) >= 1, lambda v: v < 1 and "media_count must be >= 1")
    rule(is_video, _only(is_video, bool), lambda v: type(v) is not bool and "is_video must be a boolean")
    for key, values in ints.items():
        rule(values, exact[key] and INT64_MIN <= min(values) and max(values) <= INT64_MAX,
             lambda v: not INT64_MIN <= v <= INT64_MAX and f"{key} must fit in a signed 64-bit integer")
    unique = post_ids_are_str and len(set(post_id)) == len(post_id) and seen.isdisjoint(post_id)
    rule(post_id, unique, lambda v: f"duplicate post_id {v!r}" if v in seen else seen.add(v))  # `add` gives None
    if unique:  # the value-by-value pass, which adds each unbroken row's id, did not run
        seen.update(_kept(post_id, broken))
    return broken


def _kept(values: tuple, broken: dict[int, str]) -> Sequence:
    """The values at the rows that are not broken."""
    return [value for row, value in enumerate(values) if row not in broken] if broken else values


CHUNK_ROWS = 4096  # decoded records held at once, before their rules run and their values join the table
_SHARED = ("user_id", "caption")  # the fields whose equal values the table shares as one object


def parse_posts(source: Iterable[str] | TextIO) -> ParseReport:
    """Parse a line-delimited record stream into posts.

    Malformed lines and duplicate post_ids are skipped and reported as
    diagnostics carrying the 1-based line number; they never abort the parse.
    Posts are returned in input order. Each line is decoded on its own and
    `source` is read once. The decoded records are checked a chunk of
    `CHUNK_ROWS` at a time, by one ordered pass over the chunk's columns
    (`_broken_rules`) that reports each record for the first rule it breaks;
    the set of the unbroken post_ids so far carries the duplicate rule from
    chunk to chunk. Then the chunk's unbroken values join the table's
    columns, the ints packed as int64 and the equal user_ids and captions
    shared as one string, and the chunk is dropped.

    A line goes straight to json's C scanner (the `scan_once` that
    `json.loads` calls, bound once), and is taken from it when the scanner
    reads a value from its first character, the rest of the line is JSON
    whitespace (" \\t\\n\\r") and the value has every field; `json.loads`
    gives such a line the same record. Every other line (a blank one,
    leading whitespace or a BOM, trailing text, malformed JSON, a non-object
    or a missing field) is decoded again by `json.loads`, whose message is
    its diagnostic.
    """
    errors: dict[int, str] = {}  # line number -> diagnostic
    rows, linenos = [], []  # the current chunk's records and their line numbers
    columns = ([], [], array("q"), array("q"), [], array("q"), array("b"))  # the table's, in `POST_FIELDS` order
    strings: dict[str, str] = {}  # each distinct user_id and caption, as the one object the table holds
    seen: set[str] = set()  # the post_ids of the unbroken records so far

    def add_chunk() -> None:
        chunk = list(zip(*rows))
        broken = _broken_rules(chunk, seen)
        errors.update((linenos[row], message) for row, message in broken.items())
        for name, column, values in zip(POST_FIELDS, columns, chunk):
            values = _kept(values, broken)
            column.extend(map(strings.setdefault, values, values) if name in _SHARED else values)
        rows.clear()
        linenos.clear()

    values_of = operator.itemgetter(*POST_FIELDS)
    scan = json.decoder.JSONDecoder().scan_once
    for lineno, line in enumerate(source, start=1):
        if len(rows) == CHUNK_ROWS:
            add_chunk()
        try:
            record, end = scan(line, 0)
            if not line[end:].strip(" \t\n\r"):
                rows.append(values_of(record))
                linenos.append(lineno)
                continue
        except (StopIteration, ValueError, RecursionError, KeyError, TypeError):
            pass
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:  # malformed JSON, a literal too long to convert, or too deep
            errors[lineno] = str(exc)
            continue
        try:
            rows.append(values_of(record))
        except (KeyError, TypeError):
            if isinstance(record, dict):
                errors[lineno] = f"missing fields {[k for k in POST_FIELDS if k not in record]}"
            else:
                errors[lineno] = "record is not an object"
            continue
        linenos.append(lineno)
    if rows:
        add_chunk()
    seen.clear()  # freed before `PostTable` builds its own index of the shared strings
    strings.clear()

    diagnostics = [f"line {lineno}: {errors[lineno]}" for lineno in sorted(errors)]
    return ParseReport(posts=PostTable(*columns), diagnostics=diagnostics)


def parse_posts_file(path: str | Path) -> ParseReport:
    """Parse a posts file; an unreadable path is a fatal error."""
    with open(path, "r", encoding="utf-8") as f:
        return parse_posts(f)


# `json.dumps(record, sort_keys=True, ensure_ascii=True)` of a post, in one format string: the keys sorted, each
# string through the encoder json uses for it, the ints as ints and the bool as `true` or `false`
_POST_JSON = (
    '{"caption": %s, "is_video": %s, "likes": %d, "media_count": %d, "post_id": %s, "upload_time": %d, "user_id": %s}'
)
_JSON_BOOL = ("false", "true")
_json_str = json.encoder.encode_basestring_ascii


def post_lines(post_id, user_id, upload_time, likes, caption, media_count, is_video) -> list[str]:
    """The one-line JSON form of each post, newline-terminated; the columns are in `POST_FIELDS` order.

    `parse_posts` inverts each line exactly, but for one case. A high surrogate
    followed by a low one, as two code points, is written as two `\\u` escapes
    (as `json.dumps` writes it), and JSON reads those back as the one character
    the pair encodes: '\\ud800\\udc00' reads as '\\U00010000'.
    """
    line = _POST_JSON + "\n"
    return [line % (_json_str(c), _JSON_BOOL[v], n, m, _json_str(p), t, _json_str(u))
            for p, u, t, n, c, m, v in zip(post_id, user_id, upload_time, likes, caption, media_count, is_video)]


def _caption_parts(caption: str) -> tuple[list[str], list[str], int]:
    """The caption's hashtags and mentions, each sorted, and its plain-word count: the one tokenizer.

    Lower-casing the whole caption before splitting gives the tokens that
    lower-casing each token gives: no whitespace character is cased or
    case-ignorable, so the context of a final sigma ends with its token.
    Among sorted tokens, those starting with '#' lie in ['#', '$') and those
    starting with '@' in ['@', 'A'). Lower-casing makes no '#' or '@' and no
    whitespace from any other character, so a caption without '#' and '@'
    has only plain words, as many as `split` gives.
    """
    if "#" not in caption and "@" not in caption:
        return [], [], len(caption.split())
    tokens = sorted(caption.lower().split())
    hashtags = tokens[bisect_left(tokens, "#") : bisect_left(tokens, "$")]
    mentions = tokens[bisect_left(tokens, "@") : bisect_left(tokens, "A")]
    return hashtags, mentions, len(tokens) - len(hashtags) - len(mentions)


def filter_candidates(posts: Sequence[Post], reference_time: int) -> PostTable:
    """Keep the posts eligible for pair mining.

    Retains exactly the posts with likes >= 50, a single image medium
    (media_count == 1 and not a video), and age of at least 30 days at
    `reference_time`, one boolean mask per rule. Output order follows input
    order; the filter is idempotent.
    """
    table = PostTable.of(posts)
    future = int(np.count_nonzero(table.upload_time > reference_time))
    if future:
        import logging  # here, not at the top: poprank's one log call, and its import costs every command 0.6 MB

        logging.getLogger(__name__).warning("%d posts are uploaded after reference_time %d", future, reference_time)
    rules = (
        table.likes >= MIN_LIKES,
        table.media_count == 1,
        ~table.is_video,
        table.upload_time <= reference_time - MIN_AGE_DAYS * SECONDS_PER_DAY,
    )
    return table.take(np.logical_and.reduce(rules))


def log_likes(likes: float) -> float:
    """Log-scaled popularity evidence S = ln(1 + likes); strictly increasing."""
    if likes < 0:
        raise ValueError(f"likes must be >= 0, got {likes}")
    return math.log1p(likes)


def corpus_stats(posts: Sequence[Post]) -> CorpusStats:
    """Descriptive statistics of a corpus; empty input is an error.

    Counts are summed per distinct caption and divided as Python ints.
    """
    if not posts:
        raise ValueError("corpus_stats requires a non-empty post list")
    table = PostTable.of(posts)
    n = len(table)
    uses = np.bincount(table.caption, minlength=len(table.captions))  # posts per distinct caption
    no_hashtag = np.array([not hashtags for hashtags, _ in table.keys], dtype=bool)[table.caption_key]
    no_mention = np.array([not mentions for _, mentions in table.keys], dtype=bool)[table.caption_key]
    no_caption = no_hashtag & no_mention & (table.caption_words == 0)
    return CorpusStats(
        n_posts=n,
        n_users=int(np.count_nonzero(np.bincount(table.user))),
        mean_likes=sum(table.likes.tolist()) / n,
        proportion_no_hashtag=int(uses[no_hashtag].sum()) / n,
        proportion_no_mention=int(uses[no_mention].sum()) / n,
        proportion_no_caption=int(uses[no_caption].sum()) / n,
        mean_caption_words=int(uses @ table.caption_words) / n,
    )


def write_stats_csv(path: str | Path, stats) -> None:
    """Emit the fields of a statistics dataclass (`CorpusStats`, `mining.PairStats`) as CSV rows of name,value."""
    with open_csv(path, "name,value") as f:
        for field in dataclasses.fields(stats):
            f.write(f"{field.name},{getattr(stats, field.name)!r}\n")  # ints and floats: repr is the decimal form
