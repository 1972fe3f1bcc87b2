import numpy as np
import pytest

from rulefuzz.dataset import (
    ABSENCE,
    PRESENCE,
    DatasetFormatError,
    LabeledDataset,
    read_csv,
)


@pytest.fixture
def ds():
    d = LabeledDataset(("a", "b"))
    d.append({"a": 1, "b": 2}, PRESENCE, iteration=1)
    d.append({"a": 3, "b": 4}, ABSENCE, iteration=1)
    d.append({"a": 5, "b": 6}, ABSENCE, iteration=2)
    return d


def test_append_and_counts(ds):
    assert len(ds) == 3
    assert ds.class_counts() == {PRESENCE: 1, ABSENCE: 2}
    assert ds.minority_label() == PRESENCE


def test_minority_tie_prefers_presence():
    d = LabeledDataset(("a",))
    d.append({"a": 1}, PRESENCE)
    d.append({"a": 2}, ABSENCE)
    assert d.minority_label() == PRESENCE


def test_append_rejects_bad_label():
    d = LabeledDataset(("a",))
    with pytest.raises(DatasetFormatError):
        d.append({"a": 1}, "maybe")


def test_append_rejects_incomplete_row():
    d = LabeledDataset(("a", "b"))
    with pytest.raises(DatasetFormatError):
        d.append({"a": 1}, PRESENCE)
    with pytest.raises(DatasetFormatError):
        d.append({"a": 1, "b": 2, "c": 3}, PRESENCE)


def test_to_arrays(ds):
    x, y = ds.to_arrays()
    assert x.dtype == np.uint64
    assert x.shape == (3, 2)
    assert list(x[0]) == [1, 2]
    assert y.dtype == bool
    assert list(y) == [True, False, False]


def test_to_arrays_cache_invalidated_on_append(ds):
    x1, _ = ds.to_arrays()
    ds.append({"a": 7, "b": 8}, PRESENCE)
    x2, y2 = ds.to_arrays()
    assert x2.shape == (4, 2)
    assert x1.shape == (3, 2)
    assert y2[-1]


def test_subset(ds):
    sub = ds.subset([2, 0])
    assert len(sub) == 2
    rows = list(sub)
    assert rows[0].values == {"a": 5, "b": 6}
    assert rows[1].label == PRESENCE


def test_csv_round_trip(tmp_path, ds):
    p = tmp_path / "d.csv"
    ds.append_csv(p)
    back = read_csv(p)
    assert back.field_names == ds.field_names
    assert [s.values for s in back] == [s.values for s in ds]
    assert [s.label for s in back] == [s.label for s in ds]
    assert [s.iteration for s in back] == [s.iteration for s in ds]


def test_append_csv_equals_whole_write(tmp_path):
    d = LabeledDataset(("a",))
    chunked = tmp_path / "chunked.csv"
    for i in range(5):
        start = len(d)
        d.append({"a": i}, PRESENCE if i % 2 else ABSENCE, iteration=i)
        d.append({"a": i + 100}, ABSENCE, iteration=i)
        d.append_csv(chunked, start=start)
    whole = tmp_path / "whole.csv"
    d.append_csv(whole)  # a fresh path: header plus every row
    assert chunked.read_bytes() == whole.read_bytes()


def test_read_csv_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(DatasetFormatError):
        read_csv(p)


def test_read_csv_rejects_bad_label(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("iteration,a,label\n1,2,unknown\n")
    with pytest.raises(DatasetFormatError):
        read_csv(p)


def test_read_csv_rejects_non_integer(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("iteration,a,label\n1,x,presence\n")
    with pytest.raises(DatasetFormatError):
        read_csv(p)
