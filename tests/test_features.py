"""Tests for the columnar feature set and its file format."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from poprank.features import FeatureSet, load_features, save_features


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
        save_features(tmp_path / "f.csv", fs)
        loaded = load_features(tmp_path / "f.csv")
        assert loaded.ids == fs.ids and loaded.matrix.tobytes() == fs.matrix.tobytes()

    def test_file_text(self, tmp_path):
        save_features(tmp_path / "f.csv", FeatureSet(["a", "b"], np.array([[0.5, -1.0], [0.1, 3.0]])))
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
         ("a,1,x\n", "line 2: could not convert")],
    )
    def test_malformed_rows_name_the_line(self, tmp_path, body, message):
        with pytest.raises(ValueError, match=message):
            self._load(tmp_path, "post_id,dim=2\n" + body)


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
    save_features(path, FeatureSet(ids, matrix))
    loaded = load_features(path)
    assert loaded.ids == ids
    assert loaded.matrix.shape == matrix.shape
    assert loaded.matrix.tobytes() == np.ascontiguousarray(matrix).tobytes()  # keeps -0.0 and subnormals
