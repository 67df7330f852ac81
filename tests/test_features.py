"""Tests for the columnar feature set and its file format."""

import io
import math
import os
import subprocess
import sys
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from poprank import cli, features as features_mod
from poprank.features import FeatureSet, load_features, read_keyed_floats

from conftest import write_features_file


def _set(n=3, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    return FeatureSet([f"p{i}" for i in range(n)], rng.normal(size=(n, dim)))


class TestFeatureSet:
    def test_mapping_protocol(self):
        fs = _set()
        assert len(fs) == 3 and list(fs) == ["p0", "p1", "p2"]
        assert "p1" in fs and "q" not in fs
        assert np.array_equal(fs["p2"], fs.matrix[2])
        assert fs.dim == 4 and fs.index == {"p0": 0, "p1": 1, "p2": 2}
        with pytest.raises(KeyError):
            fs["q"]

    def test_matrix_is_read_only_contiguous_float64(self):
        fs = FeatureSet(["a", "b"], np.asfortranarray(np.arange(6.0).reshape(2, 3)))
        assert fs.matrix.flags.c_contiguous and fs.matrix.dtype == np.float64
        with pytest.raises(ValueError):
            fs["a"][0] = 1.0

    def test_caller_array_stays_writeable(self):
        matrix = np.zeros((2, 3))
        FeatureSet(["a", "b"], matrix)
        matrix[0, 0] = 1.0

    @pytest.mark.parametrize("shape", [(3,), (2, 4), (3, 2, 1), (3, 0)])
    def test_shape_checked(self, shape):
        with pytest.raises(ValueError, match="shape"):
            FeatureSet(["a", "b", "c"], np.zeros(shape))

    def test_duplicate_id_named(self):
        with pytest.raises(ValueError, match="duplicate post_id 'b'"):
            FeatureSet(["a", "b", "c", "b"], np.zeros((4, 2)))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_names_the_post(self, value):
        matrix = np.zeros((3, 2))
        matrix[1, 1] = value
        with pytest.raises(ValueError, match="'b'"):
            FeatureSet(["a", "b", "c"], matrix)

    def test_rows_and_the_one_missing_error(self):
        fs = _set(n=4)
        assert fs.rows(["p3", "p0", "p3"]).tolist() == [3, 0, 3]
        assert fs.rows([]).tolist() == []
        with pytest.raises(ValueError, match=r"without features: \['x', 'y'\]"):
            fs.rows(["p0", "y", "x", "y"])

    def test_of_a_dict(self):
        fs = FeatureSet.of({"a": [1.0, 2.0], "b": np.array([3.0, 4.0])})
        assert fs.ids == ["a", "b"] and fs.matrix.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert FeatureSet.of(fs) is fs

    def test_of_names_a_vector_of_another_dim(self):
        with pytest.raises(ValueError, match="'bad'"):
            FeatureSet.of({"ok": np.zeros(4), "bad": np.zeros(3)})


class TestFeaturesFile:
    def _load(self, tmp_path, text):
        path = tmp_path / "features.csv"
        path.write_text(text)
        return load_features(path)

    def test_round_trip(self, tmp_path):
        matrix = np.random.default_rng(4).normal(size=(5, 3))
        matrix[0] = [-0.0, 5e-324, -1e-310]
        fs = FeatureSet([f"p{i}" for i in range(5)], matrix)
        write_features_file(tmp_path / "f.csv", fs)
        loaded = load_features(tmp_path / "f.csv")
        assert loaded.ids == fs.ids and loaded.matrix.tobytes() == fs.matrix.tobytes()

    def test_file_text(self, tmp_path):
        write_features_file(tmp_path / "f.csv", FeatureSet(["a", "b"], np.array([[0.5, -1.0], [0.1, 3.0]])))
        assert (tmp_path / "f.csv").read_text() == "post_id,dim=2\na,0.5,-1\nb,0.10000000000000001,3\n"

    def test_header_only_is_an_empty_set(self, tmp_path):
        fs = self._load(tmp_path, "post_id,dim=3\n")
        assert len(fs) == 0 and fs.matrix.shape == (0, 3)

    @pytest.mark.parametrize("dim", ["abc", "-1", "0", "", "1.5", "2,3"])
    def test_bad_dim_is_a_line_1_error(self, tmp_path, dim):
        with pytest.raises(ValueError, match=r"^line 1: expected the header 'post_id,dim=D' with D a positive integer"):
            self._load(tmp_path, f"post_id,dim={dim}\na,1\n")

    @pytest.mark.parametrize("header", ["", "id,dim=2", "post_id", "post_id,size=2"])
    def test_foreign_header_is_a_line_1_error(self, tmp_path, header):
        with pytest.raises(ValueError, match=r"^line 1: expected the header"):
            self._load(tmp_path, header + "\na,1,2\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_value_names_line_and_post(self, tmp_path, value):
        text = f"post_id,dim=2\na,1,2\n\nb,3,4\nc,5,{value}\nd,{value},0\n"
        with pytest.raises(ValueError, match=r"^line 5: non-finite value for post_id 'c'"):
            self._load(tmp_path, text)

    @pytest.mark.parametrize(
        "body, message",
        [("a,1\n", "line 2: expected 3 fields"), ("a,1,2\na,3,4\n", "line 3: duplicate post_id"),
         ("a,1,x\n", "line 2: could not convert"), (",1,2\n", "line 2: post_id must be a non-empty string"),
         ("a,1,2\nb c,3,4\n", "line 3: post_id 'b c' contains ' '")],
    )
    def test_malformed_rows_name_the_line(self, tmp_path, body, message):
        with pytest.raises(ValueError, match=message):
            self._load(tmp_path, "post_id,dim=2\n" + body)

    @pytest.mark.parametrize("reader", ["blocks", "rows"])
    def test_only_wanted_rows_have_their_values_read(self, tmp_path, monkeypatch, reader):
        if reader == "rows":  # numpy's reader takes no block, so the row parser parses each one
            monkeypatch.setattr(features_mod, "_parse_block", lambda *args: None)
        path = tmp_path / "features.csv"
        path.write_text("post_id,dim=2\na,1,2\nb,x,nan\n\nc,5,0.25\nd,inf,1\n")
        fs = load_features(path, {"c", "a", "z"})
        assert fs.ids == ["a", "c"] and fs.matrix.tolist() == [[1.0, 2.0], [5.0, 0.25]] and fs.file_rows == 4
        assert load_features(path, set()).matrix.shape == (0, 2)
        with pytest.raises(ValueError, match=r"^line 3: could not convert"):
            load_features(path, {"b"})
        with pytest.raises(ValueError, match=r"^line 6: non-finite value for post_id 'd'"):
            load_features(path, {"d"})


_ids = st.lists(st.text("abcxyz_0123456789", min_size=1, max_size=6), unique=True, max_size=12)
_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1.7976931348623157e308]),
)


@st.composite
def feature_sets(draw):
    ids = draw(_ids)
    dim = draw(st.integers(1, 5))
    return ids, draw(arrays(np.float64, (len(ids), dim), elements=_values))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(feature_sets())
def test_save_load_round_trip_is_bitwise(tmp_path_factory, case):
    ids, matrix = case
    path = tmp_path_factory.mktemp("roundtrip") / "features.csv"
    write_features_file(path, FeatureSet(ids, matrix))
    loaded = load_features(path)
    assert loaded.ids == ids
    assert loaded.matrix.shape == matrix.shape
    assert loaded.matrix.tobytes() == np.ascontiguousarray(matrix).tobytes()  # keeps -0.0 and subnormals


def _written(ids, matrix) -> str:
    f = io.StringIO()
    features_mod.write_rows(f, ids, matrix)
    return f.getvalue()


def _percent_rows(ids, matrix) -> str:
    """Reference writer: Python's '%.17g' for every value, one row at a time."""
    row_format = "%s" + ",%.17g" * matrix.shape[1] + "\n"
    return "".join(row_format % (post_id, *row.tolist()) for post_id, row in zip(ids, matrix))


def _edge_values() -> list[float]:
    """Values where '%.17g' rounds, carries or switches layout, or where numpy's log10 may guess the exponent wrong."""
    values = []
    for p in range(-320, 309):  # every power of ten in float64's range, with its neighbours
        x = float(f"1e{p}")
        values += [x, float(np.nextafter(x, 0.0)), float(np.nextafter(x, math.inf))]
    values += [1000000000000000.25, 1000000000000000.75]  # exact ties: round half to even
    values += [99999999999999999.0, 9.9999999999999999e-05]  # 17 nines round up to the next power
    values += [1e-5, 9.9999999999999e-05, 1e-4, 1.0000000000001e-4]  # scientific | fixed
    values += [9.999999999999998e15, 1e16, 9.999999999999998e16, 1e17]  # fixed | scientific
    values += [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e-250, 1e250, 0.1, 1.5, 123456.0]
    return values + [-x for x in values]


_EDGE_VALUES = _edge_values()


class TestWriteRows:
    """`write_rows` writes the bytes of Python's '%.17g', from a block formatter that leaves Python the values it
    cannot prove."""

    @pytest.mark.parametrize("ids", [["e"], ["\u00e9t\u00e9"]])  # a non-ASCII id is written as UTF-8
    def test_each_edge_value_alone(self, ids):
        for x in _EDGE_VALUES:
            matrix = np.array([[x]])
            assert _written(ids, matrix) == _percent_rows(ids, matrix), x

    def test_edge_values_inside_a_block_of_ordinary_values(self):
        rng = np.random.default_rng(23)
        matrix = rng.normal(size=(len(_EDGE_VALUES), 9))
        matrix[np.arange(len(matrix)), rng.integers(0, 9, size=len(matrix))] = _EDGE_VALUES
        ids = ["", "a\x00b"] + [f"\u00e9{i}" for i in range(2, len(matrix))]  # every id byte is kept, NUL included
        assert _written(ids, matrix) == _percent_rows(ids, matrix)

    def test_more_rows_than_a_block(self):
        matrix = np.random.default_rng(5).normal(size=(features_mod.WRITE_VALUES // 3 + 7, 3)) * 1e3
        ids = [f"p{i}" for i in range(len(matrix))]
        assert _written(ids, matrix) == _percent_rows(ids, matrix)

    def test_only_unprovable_values_reach_python(self, monkeypatch):
        formatted = []

        def recording_python_text(x):
            formatted.append(x)
            return ("%.17g" % x).encode("ascii")

        monkeypatch.setattr(features_mod, "_python_text", recording_python_text)
        rng = np.random.default_rng(6)
        # magnitudes from 1e-200 to 1e200 but for [1e5, 1e17), where a value with few fraction bits can be an exact tie
        ordinary = rng.normal(size=(64, 64)) * 10.0 ** rng.choice(np.r_[-200:5, 17:200], size=(64, 64))
        _written([f"p{i}" for i in range(64)], ordinary)
        powers = 10.0 ** np.r_[-200:5, 23:200]  # where numpy's log10 may guess the exponent one too high or low
        _written(["below", "above"], np.stack([np.nextafter(powers, 0.0), np.nextafter(powers, math.inf)]))
        assert formatted == []
        slow = [0.0, -0.0, 1000000000000000.25, -1000000000000000.75, 1e-300, 5e-324, 1e300, math.inf]
        _written(["p"], np.array([slow]))
        assert sorted(formatted) == sorted(slow)

    def test_one_set_of_buffers_reused_across_writes_gives_the_bytes_of_fresh_writes(self):
        """Consecutive writes through one `RowBuffers` differ in id width (ASCII and multi-byte UTF-8), in D and in
        row count, and hold cells that go to Python; no byte a larger block left in the buffers shows after it."""
        rng = np.random.default_rng(28)
        slow = [0.0, -0.0, 1000000000000000.25, 1e-300, -math.inf, 1e300]
        cases = [
            ([f"\u00e9t\u00e9-\u4e2d{i}" for i in range(40)], rng.normal(size=(40, 17))),
            (["a", "b"], np.array([slow, slow[::-1]])),
            ([f"p{i}" for i in range(700)], rng.normal(size=(700, 30)) * 1e6),  # more rows than one block holds
            (["long-ascii-id-" * 4], np.r_[rng.normal(size=250), slow][None]),
            (["x", "\u00e9"], rng.normal(size=(2, features_mod.WRITE_VALUES + 3))),  # a row past WRITE_VALUES
            (["q"], np.array([[1.5]])),
        ]
        buffers = features_mod.RowBuffers()
        for ids, matrix in cases:
            f = io.StringIO()
            features_mod.write_rows(f, ids, matrix, buffers)
            assert f.getvalue() == _written(ids, matrix) == _percent_rows(ids, matrix), (len(ids), matrix.shape)

    def test_buffers_are_kept_while_a_block_fits_and_grow_when_it_does_not(self):
        rng = np.random.default_rng(29)
        buffers = features_mod.RowBuffers()

        def write(ids, dim):
            features_mod.write_rows(io.StringIO(), ids, rng.normal(size=(len(ids), dim)), buffers)
            arrays = (buffers.text, buffers.mask, buffers.kept)
            assert len({a.size for a in arrays}) == 1
            return [a.ctypes.data for a in arrays], buffers.text.size

        first = write([f"p{i:02}" for i in range(24)], 256)
        for ids, dim in [([f"q{i:02}" for i in range(24)], 256), (["r"] * 3, 256), ([f"s{i}" for i in range(30)], 100)]:
            assert write(ids, dim) == first  # fits: the same arrays
        for ids, dim in [([f"p{i:02}" for i in range(32)], 256), ([f"{'w' * 20}{i}" for i in range(32)], 256)]:
            addresses, size = write(ids, dim)  # more rows, then a wider id: new, larger arrays
            assert size > first[1] and all(new != old for new, old in zip(addresses, first[0]))
            first = addresses, size

    def test_a_synth_run_formats_every_block_in_one_set_of_buffers(self, tmp_path, monkeypatch):
        made, passed, write_rows = [], [], features_mod.write_rows

        class Counted(features_mod.RowBuffers):
            def __init__(self):
                super().__init__()
                made.append(self)

        def recording(f, ids, matrix, buffers=None):
            passed.append(buffers)
            return write_rows(f, ids, matrix, buffers)

        monkeypatch.setattr(features_mod, "RowBuffers", Counted)
        monkeypatch.setattr(features_mod, "write_rows", recording)
        args = ["synth", "--n-users", "9", "--posts-per-user", "12", "--feature-dim", "256", "--out-dir", tmp_path]
        assert cli.main([str(a) for a in args]) == 0
        assert len(made) == 1 and len(passed) == 5 and all(buffers is made[0] for buffers in passed)

    @pytest.mark.parametrize("shape", [(2, 3), (4, 3), (3,)])
    def test_a_matrix_of_another_row_count_is_refused(self, shape):
        with pytest.raises(ValueError, match="not one row per id"):
            _written(["a", "b", "c"], np.zeros(shape))

    def test_importing_the_cli_builds_no_tables(self):
        code = ("import sys, poprank.cli, poprank.features as f; "
                "print(f._tables.cache_info().currsize, 'fractions' in sys.modules, 'decimal' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert run.stdout.split() == ["0", "False", "False"]


_any_float64 = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))).filter(math.isfinite),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1000000000000000.25, 99999999999999999.0, 1e16, 1e-5]),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 40)), elements=_any_float64))
def test_write_rows_writes_the_percent_bytes_of_any_finite_float64(matrix):
    ids = [f"p{i}" for i in range(len(matrix))]
    assert _written(ids, matrix) == _percent_rows(ids, matrix)


def _row_parser(path):
    """Reference reader: the header line, then `read_keyed_floats` on every row, one `float()` per value."""
    ids, flat = [], []
    with open(path, "r", encoding="utf-8") as f:
        dim = int(f.readline().strip().partition(",dim=")[2])
        for post_id, values in read_keyed_floats(f, dim):
            ids.append(post_id)
            flat += values
    return ids, np.array(flat, dtype=np.float64).reshape(-1, dim)


def _loaded(path):
    fs = load_features(path)
    return fs.ids, fs.matrix


def _outcome(read, path):
    try:
        ids, matrix = read(path)
    except ValueError as exc:
        return str(exc)
    return ids, matrix.shape, matrix.tobytes()


# What an edit puts in place of a value, by kind; a file's edits draw a kind, then one of its entries.
_VALUE_EDITS = {
    "plain": ["0", "-0", "1.5", "-2.25e-3", "1e-400", "5e-324", "+.5", "7.", "1E5", "1.7976931348623157e308"],
    "padded": [" 1", "2 ", "\t3", "4\t", "\u20035", "6\xa0", "1\x1c", "\x1f2"],  # numpy strips all, float() not \x1c-\x1f
    "float only": ["1_0", "\u0661", "\uff11"],  # float() takes these and numpy's reader does not
    "non-finite": ["nan", "-inf", "inf", "1e400", "NaN"],
    "not a number": ["", " ", "x", "#1", "1#", "0x10", "1 2", '"1"'],
}
_EDITS = {
    **_VALUE_EDITS,
    "id": ["#a", "#", "\u00e9t\u00e9", "", "a b", "a\t", "a ", "a\x01", "a\x85", "a\u2003"],  # legal, then bad
    "blank line": ["", " ", "\t ", "\x0c", "\x1c"],
    "duplicate id": [None],
    "extra field": [None],
    "missing field": [None],
}


def _features_text(dim, n, edits, end="\n", last_end=True):
    """The text of a features file: `n` clean rows, then `edits`, each (kind, payload, row, column or source row)."""
    rows = [[f"p{i}"] + [f"{i % 97}.25"] * dim for i in range(n)]
    for kind, payload, at, other in edits:
        at = min(at, len(rows))
        if kind == "blank line":
            rows.insert(at, [payload])
        elif at == len(rows) or len(rows[at]) < 2:
            continue
        elif kind in _VALUE_EDITS:
            rows[at][1 + other % (len(rows[at]) - 1)] = payload
        elif kind == "id":
            rows[at][0] = payload
        elif kind == "duplicate id":
            rows[at][0] = rows[other % len(rows)][0]
        elif kind == "extra field":
            rows[at].append("1")
        else:
            rows[at].pop()
    return f"post_id,dim={dim}" + "".join(end + ",".join(row) for row in rows) + (end if last_end else "")


@st.composite
def feature_files(draw):
    """A features file: clean rows up to or past a block boundary, then edits that may break them."""
    dim = draw(st.sampled_from([1, 2, 300]))
    block = max(1, features_mod.FEATURE_VALUES // dim)
    n = draw(st.sampled_from([0, 1, 5, 5, block - 1, block + 2]))
    rows = st.one_of(st.sampled_from([0, block - 1, block, block + 1]), st.integers(0, n))
    edits = [(kind, draw(st.sampled_from(_EDITS[kind])), draw(rows), draw(st.integers(0, max(n, dim))))
             for kind in draw(st.lists(st.sampled_from(sorted(_EDITS)), max_size=4))]
    return _features_text(dim, n, edits, draw(st.sampled_from(["\n", "\r\n", "\r"])), draw(st.booleans()))


_B1, _B300 = features_mod.FEATURE_VALUES, features_mod.FEATURE_VALUES // 300  # rows per block at D = 1 and 300


@pytest.mark.filterwarnings("error")  # numpy's reader must not warn either, e.g. about an empty block
@settings(max_examples=100, deadline=None, derandomize=True)
@given(feature_files())
@example(_features_text(1, _B1 + 2, [("id", "", _B1, 0)]))  # the first row of the second block
@example(_features_text(1, _B1 + 2, [("duplicate id", None, _B1, _B1 - 1)]))  # a duplicate across the boundary
@example(_features_text(1, _B1 + 2, [("missing field", None, _B1 - 1, 0)]))
@example(_features_text(300, _B300 + 2, [("padded", "1\x1c", _B300, 7)]))
@example(_features_text(300, _B300 + 2, [("float only", "\u0661", _B300 - 1, 299)]))  # loads, through the row parser
@example(_features_text(300, _B300 + 2, [("id", "#a", _B300, 0), ("blank line", " ", _B300, 0)], "\r\n"))
@example(_features_text(300, _B300 + 2, [("non-finite", "1e400", _B300 + 1, 0)]))
@example(_features_text(300, 0, []))
@example(_features_text(1, 1, [("not a number", "", 0, 0)]))  # numpy would skip the empty row, and warn
def test_block_reader_matches_the_row_parser(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("differential") / "features.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(_loaded, path) == _outcome(_row_parser, path)


class TestFeatureBlocks:
    """The block reader yields each block once it is checked. A block that numpy's reader does not take as it is, after
    others were yielded, goes alone to the row parser, from the block's first line on; the next block goes back to
    numpy's reader."""

    @pytest.mark.parametrize("kind, value", [("float only", "1_0"), ("padded", "1\x1c")])
    def test_a_value_one_reader_refuses_in_the_third_block(self, tmp_path, monkeypatch, kind, value):
        path = tmp_path / "features.csv"
        path.write_text(_features_text(300, 4 * _B300, [(kind, value, 2 * _B300 + 5, 7)]))
        starts = []

        def recording_row_parser(lines, n_values, wanted, start, seen):
            starts.append(start)
            return read_keyed_floats(lines, n_values, wanted, start, seen)

        monkeypatch.setattr(features_mod, "read_keyed_floats", recording_row_parser)
        blocks = iter(features_mod.FeatureBlocks(path))
        first_two = [next(blocks), next(blocks)]
        assert [len(ids) for ids, _ in first_two] == [_B300, _B300] and starts == []

        def streamed(_path):
            read = list(chain(first_two, blocks))
            return [pid for ids, _ in read for pid in ids], np.concatenate([block for _, block in read])

        assert _outcome(streamed, path) == _outcome(_row_parser, path)
        assert starts == [2 + 2 * _B300]  # the third block's first line

    def test_only_the_blocks_numpy_refuses_go_to_the_row_parser(self, tmp_path, monkeypatch):
        path = tmp_path / "features.csv"
        path.write_text(_features_text(300, 5 * _B300, [("float only", "1_0", _B300 + 5, 7),
                                                        ("float only", "1_0", 3 * _B300 + 60, 299)]))
        calls = []

        def recording_row_parser(lines, n_values, wanted, start, seen):
            lines = list(lines)
            calls.append((start, len(lines)))
            return read_keyed_floats(lines, n_values, wanted, start, seen)

        monkeypatch.setattr(features_mod, "read_keyed_floats", recording_row_parser)
        loaded = _outcome(_loaded, path)
        monkeypatch.undo()
        assert calls == [(2 + _B300, _B300), (2 + 3 * _B300, _B300)]  # blocks 2 and 4, from their first lines
        assert loaded == _outcome(_row_parser, path) and isinstance(loaded, tuple)
