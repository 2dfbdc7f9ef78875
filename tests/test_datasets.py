"""Dataset container, CSV I/O, and unit scaling."""

import numpy as np
import pytest

from shapeguard import DataError, Dataset, SchemaError, load_csv, scale_unit


def make(n=10, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        "d", {"a": rng.normal(size=n), "b": rng.uniform(size=n), "y": rng.normal(size=n)}, "y"
    )


def test_basic_properties():
    d = make(7)
    assert d.n_rows == 7
    assert d.feature_names == ["a", "b"]
    np.testing.assert_array_equal(d.y, d.columns["y"])


def test_validation_errors():
    with pytest.raises(SchemaError):
        Dataset("d", {"a": [1.0]}, "y")
    with pytest.raises(SchemaError):
        Dataset("d", {"a": [1.0, 2.0], "y": [1.0]}, "y")
    with pytest.raises(DataError) as exc:
        Dataset("d", {"a": [1.0, np.nan], "y": [0.0, 0.0]}, "y")
    assert exc.value.row == 1 and exc.value.column == "a"


def test_select_rows():
    d = make(10)
    sub = d.select_rows(slice(2, 5))
    assert sub.n_rows == 3
    np.testing.assert_array_equal(sub.y, d.y[2:5])
    mask = d.columns["a"] > 0
    assert d.select_rows(mask).n_rows == int(mask.sum())


def test_csv_round_trip_is_bit_exact(tmp_path):
    d = make(25, seed=3)
    path = tmp_path / "d.csv"
    d.write_csv(path)
    back = load_csv(path, target="y")
    for c in d.columns:
        np.testing.assert_array_equal(back.columns[c], d.columns[c])


def test_load_csv_reports_bad_cells(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,y\n1.0,2.0\nx,3.0\n")
    with pytest.raises(DataError) as exc:
        load_csv(path, target="y")
    assert exc.value.row == 1 and exc.value.column == "a"

    path.write_text("a,y\n1.0,inf\n")
    with pytest.raises(DataError):
        load_csv(path, target="y")

    path.write_text("a,y\n")
    with pytest.raises(SchemaError):
        load_csv(path, target="y")

    path.write_text("a,b\n1.0,2.0\n")
    with pytest.raises(SchemaError):
        load_csv(path, target="y")

    path.write_text("a, y,a \n1.0,2.0,3.0\n")  # the second a would replace the first
    with pytest.raises(SchemaError, match="'a' appears more than once"):
        load_csv(path, target="y")


def test_load_csv_without_a_target_takes_the_last_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a, b \n1.0,2.0\n")
    assert load_csv(path).target == "b"
    for text, message in (("", "empty file"), ("\n1.0,2.0\n", "empty header row")):
        path.write_text(text)
        with pytest.raises(SchemaError, match=message):
            load_csv(path)


def test_scale_unit_and_unscale_round_trip():
    d = make(30, seed=5)
    scaled = scale_unit(d, ["a", "b"])
    for c in ("a", "b"):
        assert scaled.columns[c].min() == pytest.approx(0.0)
        assert scaled.columns[c].max() == pytest.approx(1.0)
    np.testing.assert_array_equal(scaled.y, d.y)  # target untouched


def test_scale_unit_constant_column():
    d = Dataset("d", {"a": np.full(5, 2.0), "y": np.arange(5.0)}, "y")
    scaled = scale_unit(d, ["a"])
    np.testing.assert_array_equal(scaled.columns["a"], np.zeros(5))
