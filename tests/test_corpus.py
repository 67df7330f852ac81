"""Tests for post parsing, caption analysis, candidate filtering, and stats."""

import dataclasses
import io
import json
import math
import operator
import re
import sys
import tempfile
import tracemalloc
from collections import Counter
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poprank import corpus, synthgen
from poprank.corpus import (
    POST_FIELDS,
    Post,
    PostTable,
    corpus_stats,
    filter_candidates,
    log_likes,
    parse_posts,
    parse_posts_file,
    post_lines,
    serialize_post,
)

from conftest import BASE, DAY, caption_parts, legal_ids, make_post, reference_parse_posts, write_posts_file


class TestParsePosts:
    def test_empty_stream(self):
        report = parse_posts(io.StringIO(""))
        assert list(report.posts) == [] and report.diagnostics == []

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
        assert list(report.posts) == [] and len(report.diagnostics) == 1

    @pytest.mark.parametrize("key", ["post_id", "user_id"])
    @pytest.mark.parametrize("bad_id", ["p,0", "p 0", "p\t0", "p\u00a00", "p\x000", "p\x7f", "p\ud8003", "\udfff"])
    def test_ids_unsafe_for_csv_are_diagnosed(self, key, bad_id):
        bad = make_post(**{"post_id": "x", key: bad_id})
        lines = [serialize_post(make_post(post_id="ok")), serialize_post(bad)]
        report = parse_posts(lines)
        assert [p.post_id for p in report.posts] == ["ok"]
        assert len(report.diagnostics) == 1
        assert report.diagnostics[0].startswith("line 2: ") and key in report.diagnostics[0]

    def test_round_trip_through_file(self, tmp_path, small_corpus):
        path = tmp_path / "posts.jsonl"
        write_posts_file(path, small_corpus.posts)
        report = parse_posts_file(path)
        assert report.diagnostics == []
        assert list(report.posts) == small_corpus.posts

    def test_well_formed_lines_never_reach_json_loads(self, tmp_path, small_corpus, monkeypatch):
        """The seam of the scanner path: with `json.loads` refusing every line, a clean file parses all the
        same, and only the bad line, decoded again by `json.loads`, takes its message from it."""
        def refuse(line, **kwargs):
            raise ValueError("decoded by json.loads")

        path = tmp_path / "posts.jsonl"
        write_posts_file(path, small_corpus.posts)
        monkeypatch.setattr(corpus.json, "loads", refuse)
        report = parse_posts_file(path)
        assert report.diagnostics == [] and list(report.posts) == small_corpus.posts
        with open(path, "a", encoding="utf-8") as f:
            f.write("\n{broken\n")
        report = parse_posts_file(path)
        assert report.diagnostics == [f"line {len(small_corpus.posts) + 2}: decoded by json.loads"]
        assert list(report.posts) == small_corpus.posts

    def test_unreadable_source_is_fatal(self, tmp_path):
        with pytest.raises(OSError):
            parse_posts_file(tmp_path / "missing.jsonl")


def _line(**fields) -> str:
    """One posts line: a legal record with `fields` replaced."""
    record = {"post_id": "a", "user_id": "u", "upload_time": BASE, "likes": 100, "caption": "#Sun @Bob hi",
              "media_count": 1, "is_video": False}
    return json.dumps({**record, **fields}, ensure_ascii=False)


# Lines for the table parser against the line-by-line oracle, each case a list of lines as a file gives them
PARSE_CASES = {
    "blank and whitespace-only": ["\n", "   \n", "\t\r\n", "\u2028\n", _line(), "\x85\n", ""],
    "CRLF and CR ends inside a list": [_line() + "\r\n", _line(post_id="b") + "\r", _line(post_id="c")],
    # joined with commas these three lines parse as three records; one at a time each is malformed
    "the three-line join": [_line(post_id="A") + ", " + _line(post_id="B"), _line(post_id="C")[:-1] + ', "x": [1',
                            "2]}"],
    "separators inside a caption": [_line(caption="a\x85b #T"), _line(post_id="b", caption="x\u2028y\u2029z")],
    "repeated ids, the first accepted one wins": [_line(likes=-1), _line(likes=1), _line(likes=2),
                                                  _line(post_id="b", likes="1"), _line(post_id="b")],
    "missing fields": ['{"post_id": "a"}', "{}", _line()[:-1].rsplit(",", 1)[0] + "}"],
    "extra and repeated keys": [_line()[:-1] + ', "x": [1, {"y": null}]}', _line(post_id="b")[:-1] + ', "likes": 7}',
                                _line(post_id="c")[:-1] + ', "likes": -7}', _line(post_id="d")[:-1] + ', "likes": 9}'],
    "true or 1.0 where an int belongs": [_line(likes=True), _line(upload_time=1.0), _line(media_count=True),
                                         _line(likes=1.0), _line(post_id="b", is_video=0)],
    "ints past int64": [_line(likes=2**63), _line(post_id="b", upload_time=-(2**63) - 1),
                        _line(post_id="c", media_count=2**64), _line(post_id="d", likes=10**30, media_count=0),
                        _line(post_id="e", likes=2**63 - 1, upload_time=-(2**63), media_count=2**63 - 1)],
    "negative likes and media_count 0": [_line(likes=-1), _line(post_id="b", likes=-(10**30)),
                                         _line(post_id="c", media_count=0), _line(post_id="d", media_count=-5)],
    "non-object lines": ["[1, 2]", "3", "null", '"post"', "true", "{broken", '{"post_id": "a"'],
    "unsafe ids": [_line(post_id="p,0"), _line(post_id="p 0"), _line(post_id="p\x85"), _line(post_id=""),
                   _line(post_id=7), _line(user_id="u\u2028"), _line(user_id=None), _line(post_id="ok")],
    "a literal too long to convert": ['{"likes": 1' + "0" * 5000 + "}", _line()],
    "nesting too deep to decode": ["[" * 100_000, '{"a": ' * 100_000, _line()],
    "one of each rule on one line": [_line(post_id="", user_id="", caption=3, likes=-1, media_count=0, is_video=1)],
    # one fault alone among legal lines, so that only one column check fails
    "an empty id": [_line(post_id="b"), _line(post_id="")],
    "a non-string id": [_line(post_id="b"), _line(user_id=7)],
    "an id with a comma": [_line(post_id="b"), _line(post_id="p,0")],
    "a non-string caption": [_line(post_id="b"), _line(caption=None)],
    "a non-boolean is_video": [_line(post_id="b"), _line(is_video=0)],
    "a string likes": [_line(post_id="b"), _line(likes="7")],
    "a float upload_time": [_line(post_id="b"), _line(upload_time=1.0)],
    "a negative likes": [_line(post_id="b"), _line(likes=-1)],
    "a media_count of 0": [_line(post_id="b"), _line(media_count=0)],
    "an upload_time past int64": [_line(post_id="b"), _line(upload_time=2**63)],
    # ids that UTF-8 cannot encode: a lone surrogate, as a raw code point or a JSON escape; an escaped pair is legal
    "lone surrogates in ids": [_line(post_id="p\ud800"), _line(post_id="b").replace('"u"', '"u\\udc00"'),
                               _line().replace('"a"', '"p\\ud8003"'), _line().replace('"a"', '"p\\ud83d\\ude00"')],
    # the edges of the scanner path: what `json.loads` skips or refuses around the one value of a line
    "a BOM before the object": ["\ufeff" + _line(), _line(post_id="b")],
    "a line that is only a BOM": ["\ufeff", "\ufeff\n", _line()],
    "spaces or a tab before the object": ["  " + _line() + "\n", "\t" + _line(post_id="b"),
                                          " \t\r\n" + _line(post_id="c")],
    "JSON whitespace after the object": [_line() + " \t", _line(post_id="b") + " \t\n", _line(post_id="c") + "\r\n\t"],
    "other whitespace after the object": [_line() + "\x0c", _line(post_id="b") + "\x85\n", _line(post_id="c") + "\xa0",
                                          _line(post_id="d") + "\u2028\n", _line(post_id="e")],
    "two values on a line": [_line() + _line(post_id="b"), _line(post_id="c") + " 1\n", _line(post_id="d") + ",",
                             _line(post_id="e") + " }", _line(post_id="f")],
    "NaN and Infinity as likes": [_line(likes=math.nan), _line(likes=math.inf), _line(likes=-math.inf),
                                  _line(post_id="b")[:-1] + ', "likes": NaN}', _line(post_id="c")],
    "trailing data on a last line without a newline": [_line() + "\n", _line(post_id="b") + "x"],
    "trailing data after a newline": [_line() + "\nx", _line(post_id="b") + "\n\n", _line(post_id="c")],
}

# Values for each field of a generated line: legal ones, then ones that break a rule
LEGAL_VALUES = {
    "post_id": st.sampled_from(["a", "b", "c", "#d"]) | legal_ids,
    "user_id": st.sampled_from(["u1", "U1"]) | legal_ids,
    "upload_time": st.sampled_from([BASE, BASE - 40 * DAY, 0, -(2**63), 2**63 - 1]),
    "likes": st.sampled_from([0, 49, 50, 1000, 2**63 - 1]),
    "caption": st.sampled_from(["", "#Sun @Bob x", "ΑΣ #ΣΟΦΟΣ", "a\x85b #t", "x\u2028y", "w\u2029 @z"]) | st.text(max_size=8),
    "media_count": st.sampled_from([1, 2, 2**63 - 1]),
    "is_video": st.booleans(),
}
ILLEGAL_VALUES = {
    "post_id": st.sampled_from(["", "p,0", "p 0", "p\x85", "p\u2028", "p\x00", 7, None]),
    "user_id": st.sampled_from(["", "u\t1", "u\xa0", True, ["u1"]]),
    "upload_time": st.sampled_from([2**63, -(2**63) - 1, 1.0, True, "1", None]),
    "likes": st.sampled_from([-1, 2**63, 10**30, -(10**30), 1.0, False, "7"]),
    "caption": st.sampled_from([3, None, ["#a"], {"a": 1}]),
    "media_count": st.sampled_from([0, -1, 2**63, 1.0, True]),
    "is_video": st.sampled_from([0, 1, None, "false"]),
}
OTHER_LINES = ["", "   ", "\t", "{broken", "[1, 2]", "3", "null", '"s"', "{}", '{"post_id": "a"']


@st.composite
def posts_lines(draw) -> str:
    kind = draw(st.sampled_from(["legal"] * 4 + ["illegal", "illegal", "missing", "extra", "repeated", "other"]))
    if kind == "other":
        return draw(st.sampled_from(OTHER_LINES))
    record = {key: draw(LEGAL_VALUES[key]) for key in POST_FIELDS}
    if kind == "illegal":
        for key in draw(st.sets(st.sampled_from(POST_FIELDS), min_size=1, max_size=2)):
            record[key] = draw(ILLEGAL_VALUES[key])
    elif kind == "missing":
        del record[draw(st.sampled_from(POST_FIELDS))]
    text = json.dumps(record, ensure_ascii=draw(st.booleans()))
    if kind == "extra":
        text = text[:-1] + ', "x": [1, {"y": null}]}'
    elif kind == "repeated":  # the last value of a repeated key counts
        key = draw(st.sampled_from(POST_FIELDS))
        text = text[:-1] + f', "{key}": {json.dumps(draw(LEGAL_VALUES[key] | ILLEGAL_VALUES[key]))}}}'
    return text


def _parse_both(lines: list[str]):
    """(posts, diagnostics) from the table parser, given a one-shot iterator, and from the line-by-line oracle."""
    report = parse_posts(iter(lines))
    return (list(report.posts), report.diagnostics), reference_parse_posts(lines)


class TestParseMatchesTheLineParser:
    @pytest.mark.parametrize("lines", PARSE_CASES.values(), ids=PARSE_CASES.keys())
    def test_explicit_cases(self, lines):
        got, expected = _parse_both(lines)
        assert got == expected

    def test_int64_range_is_a_diagnostic(self):
        lines = PARSE_CASES["ints past int64"]
        report = parse_posts(lines)
        assert [p.post_id for p in report.posts] == ["e"]
        assert report.diagnostics == [
            "line 1: likes must fit in a signed 64-bit integer",
            "line 2: upload_time must fit in a signed 64-bit integer",
            "line 3: media_count must fit in a signed 64-bit integer",
            "line 4: media_count must be >= 1",
        ]

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(st.lists(posts_lines(), max_size=14), st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=14))
    def test_file_parse_matches(self, lines, ends):
        """Through a file, with LF, CRLF and CR ends: the file's own line splitting feeds both parsers."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "posts.jsonl"
            path.write_text("".join(map(operator.add, lines, ends)), encoding="utf-8", newline="")
            report = parse_posts_file(path)
            with open(path, encoding="utf-8") as f:
                expected = reference_parse_posts(f)
        assert (list(report.posts), report.diagnostics) == expected

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(posts_lines().filter(lambda line: line.startswith("{") and line.endswith("}")), max_size=40))
    def test_many_records_match(self, lines):
        got, expected = _parse_both(lines)
        assert got == expected


# Lines for the parser in chunks of a few records (`corpus.CHUNK_ROWS` patched to 2 and 3), against the oracle
CHUNK_CASES = {
    "a duplicate whose first copy is in an earlier chunk": [_line(post_id="a"), _line(post_id="b"), _line(post_id="c"),
                                                            _line(post_id="a"), _line(post_id="d"), _line(post_id="b")],
    "the id of a broken row, again in a later chunk": [_line(post_id="a", likes=-1), _line(post_id="b", is_video=0),
                                                       _line(post_id="c"), _line(post_id="d"), _line(post_id="b"),
                                                       _line(post_id="a", likes=-2), _line(post_id="a")],
    "broken rows first and last in a chunk": [_line(post_id="a", likes=-1), _line(post_id="b"),
                                              _line(post_id="c", media_count=0), _line(post_id="d"),
                                              _line(post_id="e"), _line(post_id="f", is_video=1), _line(post_id="g")],
    "a chunk of broken rows only": [_line(post_id="a"), _line(post_id="b", likes=-1), _line(post_id="a"),
                                    _line(post_id=""), _line(post_id="c", user_id=7), _line(post_id="d", caption=None),
                                    _line(post_id="e", upload_time=2**63), _line(post_id="b")],
    "blank and BOM lines at chunk edges": ["\n", _line(post_id="a"), "\ufeff\n", _line(post_id="b"), "", "\n",
                                           _line(post_id="c"), "\ufeff" + _line(post_id="d"), "   \n",
                                           _line(post_id="e"), "\ufeff", "\n"],
    "an empty file": [],
    "a list or dict user_id or caption": [_line(user_id=["u"]), _line(post_id="b", caption={"a": 1}), _line(post_id="c"),
                                          _line(post_id="d", user_id={"u": 1}, caption=["x"]), _line(post_id="e"),
                                          _line(post_id="f", caption=["#a"])],
}


class TestParseInChunks:
    @pytest.mark.parametrize("chunk_rows", [2, 3])
    @pytest.mark.parametrize("lines", CHUNK_CASES.values(), ids=CHUNK_CASES.keys())
    def test_chunk_edges(self, monkeypatch, chunk_rows, lines):
        monkeypatch.setattr(corpus, "CHUNK_ROWS", chunk_rows)
        got, expected = _parse_both(lines)
        assert got == expected

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(1, 4), st.lists(posts_lines(), max_size=14))
    def test_generated_lines_match(self, chunk_rows, lines):
        with mock.patch.object(corpus, "CHUNK_ROWS", chunk_rows):
            got, expected = _parse_both(lines)
        assert got == expected

    @staticmethod
    def _parse_peak(tmp_path) -> int:
        """The tracemalloc peak of parsing 30,000 synthetic posts (a 5 MB file), which all parse."""
        config = synthgen.SynthConfig(n_users=50, posts_per_user=600, feature_dim=1, n_informative=1, seed=3)
        path = tmp_path / "posts.jsonl"
        write_posts_file(path, synthgen.generate_corpus(config).posts)
        tracemalloc.start()
        try:
            report = parse_posts_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.posts) == 30_000 and report.diagnostics == []
        return peak

    def test_parse_holds_one_chunk_of_records(self, tmp_path):
        """Holding every decoded record until the whole file was read peaked at 16.06 MiB here, and at
        15.87 MiB on the benchmark's `dense` input; checking and packing them a chunk at a time peaks at
        9.20 MiB, and at 9.16 MiB on `dense`."""
        peak = self._parse_peak(tmp_path)
        assert peak < 12 * 2**20, peak

    def test_parse_frees_its_string_index_and_id_set_before_the_table(self, tmp_path):
        """With the set of accepted post_ids and the dict of shared strings still alive while `PostTable`
        builds its own index of those strings, the parse peaked at 9.20 MiB; clearing them first, at 8.33 MiB."""
        peak = self._parse_peak(tmp_path)
        assert peak < 8.75 * 2**20, peak


# Any text the writer may meet: every code point, lone surrogates included, and those JSON escapes or treats apart
ANY_CHAR = st.characters() | st.characters(categories=["Cs"]) | st.sampled_from(
    ['"', "\\", "/", "\x00", "\x1f", "\x7f", "\x85", "\u2028", "\u2029", "\ud800", "\udfff", "\ufeff", "\U0001f600"]
)
ANY_TEXT = st.text(ANY_CHAR, max_size=12)
ANY_INT = st.integers() | st.sampled_from([2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 10**40, -(10**40)])
INT64 = st.integers(-(2**63), 2**63 - 1)
PAIRLESS_TEXT = ANY_TEXT.filter(lambda text: not re.search("[\ud800-\udbff][\udc00-\udfff]", text))


class TestSerializePost:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.builds(Post, ANY_TEXT, ANY_TEXT, ANY_INT, ANY_INT, ANY_TEXT, ANY_INT, st.booleans()))
    @example(Post('"\\', "\ud83d", 2**64, -1, "\u2028\U0001f600\x00", 0, True))
    def test_equals_json_dumps(self, post):
        expected = json.dumps({k: getattr(post, k) for k in POST_FIELDS}, sort_keys=True, ensure_ascii=True)
        assert serialize_post(post) == expected

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.builds(Post, legal_ids, legal_ids, INT64, st.integers(0, 2**63 - 1), PAIRLESS_TEXT,
                              st.integers(1, 2**63 - 1), st.booleans()), max_size=8, unique_by=lambda p: p.post_id))
    def test_written_file_parses_back(self, posts):
        """Every legal post reads back as written. (A high surrogate followed by a low one is written as two
        escapes, which JSON reads as the one character the pair encodes, so such captions are left out.)"""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "posts.jsonl"
            write_posts_file(path, posts)
            report = parse_posts_file(path)
        assert report.diagnostics == [] and list(report.posts) == posts

    def test_surrogate_pair_reads_back_as_one_character(self, tmp_path):
        """The one post that does not read back as written: its caption's two surrogates become one character."""
        post = make_post(caption="\ud800\udc00")
        assert serialize_post(post).startswith('{"caption": "\\ud800\\udc00", ')
        write_posts_file(tmp_path / "posts.jsonl", [post])
        report = parse_posts_file(tmp_path / "posts.jsonl")
        assert report.diagnostics == [] and list(report.posts) == [make_post(caption="\U00010000")]


def _int64_from(low: int):
    """Ints from `low` to INT64_MAX, with both ends drawn often."""
    return st.integers(low, 2**63 - 1) | st.sampled_from([low, 2**63 - 1])


class TestPostLines:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.builds(Post, legal_ids, legal_ids, _int64_from(-(2**63)), _int64_from(0), ANY_TEXT,
                              _int64_from(1), st.booleans()), max_size=8, unique_by=lambda p: p.post_id))
    def test_lines_from_columns_are_the_posts_lines(self, posts):
        """The column formatter writes each post's `serialize_post` line, and the lines parse as they always did:
        every post as written, but for a caption's surrogate pairs, which JSON reads as the characters they
        encode."""
        lines = post_lines(*[[getattr(post, name) for post in posts] for name in POST_FIELDS])
        assert lines == [serialize_post(post) + "\n" for post in posts]
        got, expected = _parse_both(lines)
        assert got == expected
        assert got == ([dataclasses.replace(post, caption=json.loads(json.dumps(post.caption))) for post in posts], [])


# Caption tokens where lower-casing or classifying could go wrong: upper-case tags, bare '#' and '@', a dotted
# capital I (two code points lower-cased), and Greek capital sigma, whose lower case depends on its context
CAPTION_TOKENS = ["#Sun", "#sun", "#SUN", "@Bob", "@bob", "#", "@", "##", "#@x", "@#x", "a#b", "word", "Word",
                  "İ", "#İ", "#i̇", "Σ", "ΑΣ", "#ΑΣ", "#ας", "#ασ", "ΣΑ", "#ΣΑ", "#σα", "Σ#", "@ΟΔΟΣ", "@οδος", "ß", "#SS"]
CAPTION_SPACES = [" ", "  ", "\t", "\n", "\r", "\x0b", "\x1c", "\x85", "\xa0", "\u1680", "\u2028", "\u2029", "\u3000"]


@st.composite
def captions(draw) -> str:
    tokens = draw(st.lists(st.sampled_from(CAPTION_TOKENS) | st.text(min_size=1, max_size=3), max_size=6))
    spaces = draw(st.lists(st.sampled_from(CAPTION_SPACES), min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    return spaces[0] + "".join(map(operator.add, tokens, spaces[1:]))


class TestPostTableCaptions:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(captions(), min_size=1, max_size=10))
    @example(["ΑΣ ΟΔΟΣ", "ας οδος", "#ΟΔΟΣ #οδος", "#οδος #ΟΔΟΣ", "#ΟΔΟΣ\u2028x", "#οδοσ x", "Σ", "aΣ b", "İ #İ", "#i̇ x"])
    @example(["# @ #", "#A #a", "#a #a", "@a #A", "#a @A", "#a\x85@a", "", "\u3000", "#ab", "#a b"])
    def test_words_and_keys_match_caption_parts(self, texts):
        """The table's per-caption word count, key code and key against a per-token lower-casing oracle: equal
        codes exactly where the hashtag and mention multisets are equal."""
        table = PostTable.of([make_post(post_id=f"p{k}", caption=text) for k, text in enumerate(texts)])
        assert table.captions == list(dict.fromkeys(texts))
        oracle = [caption_parts(text) for text in table.captions]
        assert table.caption_words.tolist() == [words for _, _, words in oracle]
        for code, (hashtags, mentions, _) in zip(table.caption_key.tolist(), oracle):
            assert table.keys[code] == (tuple(sorted(hashtags.elements())), tuple(sorted(mentions.elements())))
        for i, j in product(range(len(oracle)), repeat=2):
            assert (table.caption_key[i] == table.caption_key[j]) == (oracle[i][:2] == oracle[j][:2])

    def test_reads_as_the_posts_it_holds(self):
        posts = [make_post(post_id=f"p{k}", user_id=f"u{k % 2}", likes=k, caption=["#a", "", "#a"][k % 3],
                           is_video=k == 3) for k in range(5)]
        table = PostTable.of(posts)
        assert PostTable.of(table) is table
        assert list(table) == posts and table[-1] == posts[-1] and len(table) == 5
        assert list(table.take(np.array([4, 0]))) == [posts[4], posts[0]]
        assert list(table.take(np.array([True, False, False, True, False]))) == [posts[0], posts[3]]
        assert table.users == ["u0", "u1"] and table.captions == ["#a", ""] and len(table.keys) == 2
        with pytest.raises(ValueError):
            table.likes[0] = 1

    def test_captions_are_analysed_when_first_read_and_only_where_referenced(self, monkeypatch):
        """Neither building nor taking a table analyses a caption; a taken table analyses only the captions of
        its own rows, in the order of `captions`, and again if the table it was taken from was analysed."""
        analysed = []
        caption_parts = corpus._caption_parts
        monkeypatch.setattr(corpus, "_caption_parts", lambda text: analysed.append(text) or caption_parts(text))
        table = PostTable.of([make_post(post_id=f"p{k}", caption=text)
                              for k, text in enumerate(["#a b", "@x", "#a b", "c d", "#A"])])
        taken = table.take(np.array([3, 1, 2]))
        assert analysed == []
        assert taken.keys == [(("#a",), ()), ((), ("@x",)), ((), ())] and analysed == ["#a b", "@x", "c d"]
        assert taken.caption_words.tolist() == [1, 0, 2, 0] and taken.caption_key.tolist() == [0, 1, 2, 0]
        assert table.caption_key.tolist() == [0, 1, 2, 0] and len(table.keys) == 3 and len(analysed) == 7
        assert table.take(np.array([4])).keys == [(("#a",), ())] and analysed[7:] == ["#A"]
        with pytest.raises(ValueError):
            taken.caption_words[0] = 5


def _analysed(*captions: str) -> tuple[PostTable, list[tuple]]:
    """A table of one post per caption, and each post's caption as the table analyses it: (key code, key, words)."""
    table = PostTable.of([make_post(post_id=f"p{k}", caption=text) for k, text in enumerate(captions)])
    code, words = table.caption_key[table.caption].tolist(), table.caption_words[table.caption].tolist()
    return table, [(c, table.keys[c], w) for c, w in zip(code, words)]


class TestAnalyzeCaption:
    """The table's caption columns: `caption_words`, `caption_key` and `keys`."""

    def test_lower_casing_makes_no_tag_sign_and_no_space(self):
        """The premise of the tokenizer's shortcut for a caption without '#' and '@', over every code point:
        only '#' and '@' lower-case to text holding '#' or '@', each whitespace character to itself, and every
        other character to non-empty text without whitespace."""
        chars = list(map(chr, range(sys.maxunicode + 1)))
        lowered = [char.lower() for char in chars]
        assert [char for char, low in zip(chars, lowered) if "#" in low or "@" in low] == ["#", "@"]
        assert all(low == char for char, low in zip(chars, lowered) if char.isspace())
        others = [low for char, low in zip(chars, lowered) if not char.isspace()]
        assert all(others) and "".join(others).split() == ["".join(others)]

    def test_empty_caption(self):
        table, [(_, key, words)] = _analysed("")
        assert key == ((), ()) and words == 0 and table.keys == [key]

    def test_manual_tokenization(self):
        _, [(_, key, words)] = _analysed("sunset at beach #travel @bob")
        assert key == (("#travel",), ("@bob",)) and words == 3
        assert (Counter(key[0]), Counter(key[1]), words) == caption_parts("sunset at beach #travel @bob")

    def test_multiset_semantics(self):
        _, [(twice, key, words), (once, _, _)] = _analysed("#a #a @x", "#a @x")
        assert key == (("#a", "#a"), ("@x",)) and words == 0
        assert twice != once

    def test_lowercasing(self):
        _, [(code, key, words), (lower, _, _)] = _analysed("Sunset #TraVel @BOB", "sunset #travel @bob")
        assert key == (("#travel",), ("@bob",)) and words == 1
        assert code == lower

    def test_token_order_insensitive(self):
        rng = np.random.default_rng(5)
        tokens = ["#a", "#b", "@x", "hello", "world", "#a", "again"]
        shuffles = [" ".join(tokens[i] for i in rng.permutation(len(tokens))) for _ in range(20)]
        table, analysed = _analysed(" ".join(tokens), *shuffles)
        assert len(table.captions) > 1
        assert set(analysed) == {(0, (("#a", "#a", "#b"), ("@x",)), 3)}


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
        assert list(kept) == expected
        assert len(kept) < len(small_corpus.posts)

    def test_subset_and_idempotent(self, small_corpus):
        ref = synthgen.reference_time_for(synthgen.SynthConfig(n_users=60, posts_per_user=8, time_span_days=60, seed=99))
        once = filter_candidates(small_corpus.posts, ref)
        assert set(p.post_id for p in once) <= set(p.post_id for p in small_corpus.posts)
        assert list(filter_candidates(once, ref)) == list(once)


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
