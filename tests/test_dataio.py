"""Tests for CSV/JSON serialization and its error reporting."""

import math

import numpy as np
import pytest

from deepibp.dataio import (
    DataFormatError,
    atomic_write_text,
    format_float,
    mask_to_rows,
    read_dataset_csv,
    read_json,
    write_dataset_csv,
    write_json,
    write_trace_csv,
)
from deepibp.inference import ChainTrace


def test_format_float_round_trips():
    for x in (0.1, 1.0 / 3.0, -2.5e-17, 0.0, -0.0, 1e300, 123456.789):
        assert float(format_float(x)) == x
    assert format_float(1.0) == "1.0"
    assert format_float(np.float64(0.25)) == "0.25"


def test_atomic_write_creates_parents_and_leaves_no_temps(tmp_path):
    target = tmp_path / "a" / "b" / "out.txt"
    atomic_write_text(target, "hello\n")
    assert target.read_text() == "hello\n"
    atomic_write_text(target, "replaced\n")
    assert target.read_text() == "replaced\n"
    assert [p.name for p in target.parent.iterdir()] == ["out.txt"]


def test_dataset_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((4, 7))
    path = tmp_path / "data.csv"
    write_dataset_csv(path, X)
    text = path.read_text()
    assert text.startswith("t0,t1,t2,t3,t4,t5,t6\n")
    assert text.endswith("\n")
    np.testing.assert_array_equal(read_dataset_csv(path), X)


def test_write_dataset_rejects_bad_shapes(tmp_path):
    with pytest.raises(ValueError):
        write_dataset_csv(tmp_path / "x.csv", np.zeros((3, 0)))
    with pytest.raises(ValueError):
        write_dataset_csv(tmp_path / "x.csv", np.zeros(5))


def _expect_error(tmp_path, content, line, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(DataFormatError) as err:
        read_dataset_csv(path)
    assert fragment in str(err.value)
    assert err.value.line == line
    if line is not None:
        assert f"bad.csv:{line}:" in str(err.value)


def test_read_dataset_error_reporting(tmp_path):
    _expect_error(tmp_path, "", 1, "empty file")
    _expect_error(tmp_path, "a0,t1\n1.0,2.0\n", 1, "bad header field 'a0'")
    _expect_error(tmp_path, "t0,t0,t7\n1.0,2.0,3.0\n", 1, "bad header field 't0' (expected t1)")
    _expect_error(tmp_path, "t0,t1\n1.0,2.0\n\n3.0,4.0\n", 3, "blank line")
    _expect_error(tmp_path, "t0,t1\n1.0\n", 2, "expected 2 fields, found 1")
    _expect_error(tmp_path, "t0,t1\n1.0,2.0\n3.0,oops\n", 3, "not a number: 'oops'")
    _expect_error(tmp_path, "t0,t1\n", 2, "no data rows")
    _expect_error(tmp_path, "t0,t1\n1.0,nan\n", 2, "non-finite")
    _expect_error(tmp_path, "t0,t1\n1.0,2.0\n3.0,inf\n-inf,4.0\n", 3, "non-finite")
    with pytest.raises(DataFormatError) as err:
        read_dataset_csv(tmp_path / "missing.csv")
    assert "cannot read" in str(err.value)


def test_trace_csv_format(tmp_path):
    trace = ChainTrace(
        k=np.array([2, 3]),
        log_joint=np.array([-1.5, -0.25]),
        accepted_adds=np.array([0, 1]),
        accepted_deletes=np.array([1, 0]),
    )
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "iteration,K,log_joint,accepted_adds,accepted_deletes"
    assert lines[1] == "1,2,-1.5,0,1"
    assert lines[2] == "2,3,-0.25,1,0"


def test_mask_rows_round_trip():
    mask = np.array([[1, 0, 1], [0, 0, 0]], dtype=np.int8)
    rows = mask_to_rows(mask)
    assert rows == ["101", "000"]


def test_json_round_trip(tmp_path):
    payload = {
        "count": np.int64(3),
        "value": np.float64(0.5),
        "flag": np.bool_(True),
        "grid": np.arange(4).reshape(2, 2),
        "nested": {"pi": math.pi, "items": (1, 2)},
    }
    path = tmp_path / "doc.json"
    write_json(path, payload)
    loaded = read_json(path)
    assert loaded["count"] == 3
    assert loaded["value"] == 0.5
    assert loaded["flag"] is True
    assert loaded["grid"] == [[0, 1], [2, 3]]
    assert loaded["nested"] == {"pi": math.pi, "items": [1, 2]}
    # Keys come out sorted so reruns are byte-stable.
    text = path.read_text()
    assert text.index('"count"') < text.index('"flag"') < text.index('"value"')


def test_read_json_reports_parse_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"a": 1,\n "b": }\n')
    with pytest.raises(DataFormatError) as err:
        read_json(path)
    assert "invalid JSON" in str(err.value)
    assert err.value.line == 2
    with pytest.raises(DataFormatError):
        read_json(tmp_path / "absent.json")
