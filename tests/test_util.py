"""Seed derivation, atomic JSON, and full-precision CSV round trips."""

import glob
import json
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from pathlingam.util import (
    read_matrix_csv,
    stable_seed,
    whole_number,
    write_csv,
    write_json_atomic,
)


class TestStableSeed:
    def test_deterministic(self):
        assert stable_seed(1, "x", 0.5) == stable_seed(1, "x", 0.5)

    def test_part_sensitivity(self):
        base = stable_seed(1, "x", 0.5)
        assert stable_seed(2, "x", 0.5) != base
        assert stable_seed(1, "y", 0.5) != base
        assert stable_seed(1, "x", 0.25) != base

    def test_order_matters(self):
        assert stable_seed(1, 2) != stable_seed(2, 1)

    def test_types_do_not_collide(self):
        # 1, "1", 1.0 and True encode with distinct prefixes.
        seeds = {
            stable_seed(1),
            stable_seed("1"),
            stable_seed(1.0),
            stable_seed(True),
        }
        assert len(seeds) == 4

    def test_numpy_scalars_match_python(self):
        assert stable_seed(np.int64(7)) == stable_seed(7)
        assert stable_seed(np.float64(0.1)) == stable_seed(0.1)

    def test_range_is_63_bit(self):
        for i in range(200):
            seed = stable_seed("range", i)
            assert 0 <= seed < 2**63

    def test_rejects_unsupported_parts(self):
        with pytest.raises(TypeError):
            stable_seed([1, 2])

    def test_spread(self):
        # Nearby inputs should not collide.
        seeds = {stable_seed("trial", i) for i in range(5000)}
        assert len(seeds) == 5000


class TestJsonAtomic:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "obj.json"
        obj = {"a": np.arange(3), "b": np.float64(0.1), "c": [np.int32(4)]}
        write_json_atomic(path, obj)
        loaded = json.loads(path.read_text())
        assert loaded == {"a": [0.0, 1.0, 2.0], "b": 0.1, "c": [4]}

    def test_trailing_newline(self, tmp_path):
        path = tmp_path / "obj.json"
        write_json_atomic(path, {"x": 1})
        assert path.read_text().endswith("\n")

    def test_full_float_precision(self, tmp_path):
        path = tmp_path / "obj.json"
        value = 1.0 / 3.0
        write_json_atomic(path, {"v": value})
        assert json.loads(path.read_text())["v"] == value

    def test_no_temp_files_left(self, tmp_path):
        path = tmp_path / "obj.json"
        write_json_atomic(path, {"x": 1})
        write_json_atomic(path, {"x": 2})
        assert glob.glob(str(tmp_path / "*.tmp")) == []
        assert os.listdir(tmp_path) == ["obj.json"]

    def test_overwrite_replaces_content(self, tmp_path):
        path = tmp_path / "obj.json"
        write_json_atomic(path, {"x": 1})
        write_json_atomic(path, {"x": 2})
        assert json.loads(path.read_text()) == {"x": 2}

    def test_plain_values_are_written_as_json_dumps_writes_them(self, tmp_path):
        path = tmp_path / "obj.json"
        obj = {
            "lengths": tuple(np.random.default_rng(0).uniform(0, 1, 50).tolist()),
            "floats": [0.1, -2.5e-300, 1e300, 3.0],
            "mixed": [1, 2.5, True, "x", None, [0.5, 2]],
            "empty": [],
            "nested": {"k": 3, "v": (1.5,)},
        }
        write_json_atomic(path, obj)
        assert path.read_bytes() == (json.dumps(obj, indent=2) + "\n").encode()
        rng = np.random.default_rng(1)
        for array in (
            rng.uniform(0, 1, 50),
            rng.standard_normal((4, 3)) * 1e300,
            rng.uniform(0, 1, (2, 5)) > 0.5,
        ):
            write_json_atomic(path, array)
            expected = json.dumps(array.tolist(), indent=2) + "\n"
            assert path.read_bytes() == expected.encode()

    def test_booleans_stay_booleans(self, tmp_path):
        path = tmp_path / "obj.json"
        write_json_atomic(path, {"a": True, "b": [False, np.bool_(True)], "c": 1})
        assert path.read_text().split() == [
            "{", '"a":', "true,", '"b":', "[", "false,", "true", "],", '"c":', "1", "}"
        ]


class TestWholeNumber:
    @pytest.mark.parametrize("value, expected", [
        (3, 3), (3.0, 3), (-2, -2), ("7", 7), (np.int64(4), 4), (np.float64(5.0), 5),
    ])
    def test_whole_values(self, value, expected):
        assert whole_number(value) == expected
        assert type(whole_number(value)) is int

    @pytest.mark.parametrize("value", [
        2.9, True, False, float("inf"), float("nan"), "3.5", None, [3],
    ])
    def test_others_raise(self, value):
        with pytest.raises((ValueError, TypeError)):
            whole_number(value)


class TestMatrixCsv:
    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "m.csv"
        rng = np.random.default_rng(0)
        values = rng.standard_normal((40, 3))
        values[0, 0] = 1.0 / 3.0
        values[1, 1] = 1e-300
        values[2, 2] = -1.2345678901234567e17
        write_csv(path, ["a", "b", "c"], values)
        loaded, names = read_matrix_csv(path)
        assert names == ["a", "b", "c"]
        assert np.array_equal(loaded, values)

    def test_header_line(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv(path, ["u", "v"], np.zeros((2, 2)))
        assert path.read_text().splitlines()[0] == "u,v"

    def test_field_count_mismatch_reports_line(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match=":3"):
            read_matrix_csv(path)

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n1.0,oops\n")
        with pytest.raises(ValueError, match="non-numeric"):
            read_matrix_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_matrix_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no "input contained no data"
            with pytest.raises(ValueError, match="no data rows"):
                read_matrix_csv(path)

    @settings(max_examples=60, deadline=None)
    @given(values=arrays(
        np.float64, array_shapes(min_dims=2, max_dims=2, max_side=6),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    ))
    def test_round_trip_is_bit_exact_on_any_finite_double(self, values):
        names = [f"x{i}" for i in range(values.shape[1])]
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "m.csv")
            write_csv(path, names, values)
            loaded, read_names = read_matrix_csv(path)
        assert read_names == names
        assert loaded.shape == values.shape and loaded.dtype == np.float64
        # Bit patterns, so that -0.0 and 0.0 differ.
        assert np.array_equal(loaded.view(np.uint64), values.view(np.uint64))

    @pytest.mark.parametrize("name, names, rows, text", [
        ("data.csv", ["a", "b"], np.array([[0.1, -0.0], [1e-310, 3.0]]),
         "a,b\n0.1,-0.0\n1e-310,3.0\n"),
        ("cells.csv", ["method", "p", "valid", "mean_eo"],
         [["spp-plr", 3, True, 0.25], ["direct-plr", 4, False, None]],
         "method,p,valid,mean_eo\nspp-plr,3,true,0.25\ndirect-plr,4,false,nan\n"),
    ])
    def test_rows_that_raise_leave_the_previous_file(
        self, tmp_path, name, names, rows, text,
    ):
        path = tmp_path / name
        write_csv(path, names, rows)
        assert path.read_text() == text

        def failing_rows():
            yield rows[0]
            raise RuntimeError("row failed")

        with pytest.raises(RuntimeError):
            write_csv(path, names, failing_rows())
        assert path.read_text() == text
        assert os.listdir(tmp_path) == [name]
