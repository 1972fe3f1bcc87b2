import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulefuzz.dataset import (
    ABSENCE,
    PRESENCE,
    DatasetFormatError,
    LabeledDataset,
    RankEncoding,
    minority_of,
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
    assert minority_of(ds.class_counts()) == PRESENCE


def test_minority_tie_prefers_presence():
    d = LabeledDataset(("a",))
    d.append({"a": 1}, PRESENCE)
    d.append({"a": 2}, ABSENCE)
    assert minority_of(d.class_counts()) == PRESENCE


def test_append_rejects_bad_label():
    d = LabeledDataset(("a",))
    with pytest.raises(DatasetFormatError):
        d.append({"a": 1}, "maybe")


def test_rejects_duplicate_fields():
    with pytest.raises(DatasetFormatError, match="duplicate field 'a'"):
        LabeledDataset(("a", "b", "a"))


def test_append_rejects_incomplete_row():
    d = LabeledDataset(("a", "b"))
    with pytest.raises(DatasetFormatError):
        d.append({"a": 1}, PRESENCE)
    with pytest.raises(DatasetFormatError):
        d.append({"a": 1, "b": 2, "c": 3}, PRESENCE)
    # a value outside uint64 is refused, and the dataset stays usable
    for bad in (-1, 2**64):
        with pytest.raises(DatasetFormatError):
            d.append({"a": 1, "b": bad}, PRESENCE)
    # so is an iteration outside int64
    for bad in (2**63, -(2**63) - 1):
        with pytest.raises(DatasetFormatError):
            d.append({"a": 1, "b": 2}, PRESENCE, iteration=bad)
    d.append({"a": 0, "b": 2**64 - 1}, ABSENCE)
    x, y = d.to_arrays()
    assert x.tolist() == [[0, 2**64 - 1]] and y.tolist() == [False]


def test_to_arrays(ds):
    x, y = ds.to_arrays()
    assert x.dtype == np.uint64
    assert x.shape == (3, 2)
    assert list(x[0]) == [1, 2]
    assert y.dtype == bool
    assert list(y) == [True, False, False]


def test_to_arrays_cache_invalidated_on_append(ds):
    x1, y1 = ds.to_arrays()
    x_again, _ = ds.to_arrays()
    assert np.shares_memory(x1, x_again)  # views of the storage, not copies
    ds.append({"a": 7, "b": 8}, PRESENCE)
    x2, y2 = ds.to_arrays()
    assert x2.shape == (4, 2)
    assert x1.shape == (3, 2)
    assert y2[-1]
    # grow past two capacity doublings: earlier views keep their rows
    for i in range(300):
        ds.append({"a": i, "b": 2**64 - 1 - i}, ABSENCE, iteration=3)
    assert x1.tolist() == [[1, 2], [3, 4], [5, 6]] and y1.tolist() == [True, False, False]
    assert x2.tolist()[-1] == [7, 8] and y2.tolist() == [True, False, False, True]
    x3, y3 = ds.to_arrays()
    assert x3.shape == (304, 2) and x3[-1].tolist() == [299, 2**64 - 300]
    assert ds.class_counts() == {PRESENCE: 2, ABSENCE: 302}
    # the views are read-only, so no caller can change what learn() sees
    for view in (x1, y1, x3, y3):
        with pytest.raises(ValueError):
            view[:] = 0


def test_csv_round_trip(tmp_path, ds):
    p = tmp_path / "d.csv"
    ds.append_csv(p)
    back = read_csv(p)
    assert back.field_names == ds.field_names
    assert [s.values for s in back] == [s.values for s in ds]
    assert [s.label for s in back] == [s.label for s in ds]
    assert [s.iteration for s in back] == [s.iteration for s in ds]


U64 = st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1))
ROW = st.tuples(st.integers(0, 50), st.tuples(U64, U64), st.sampled_from([PRESENCE, ABSENCE]))


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(ROW, max_size=150), cuts=st.lists(st.integers(0, 150), max_size=4))
def test_append_csv_equals_whole_write(tmp_path_factory, rows, cuts):
    tmp_path = tmp_path_factory.mktemp("csv")
    d = LabeledDataset(("a", "b"))
    chunked = tmp_path / "chunked.csv"
    start = 0
    for stop in sorted({min(c, len(rows)) for c in cuts} | {len(rows)}):
        for it, (a, b), label in rows[start:stop]:
            d.append({"a": a, "b": b}, label, iteration=it)
        d.append_csv(chunked, start=start)
        start = stop
    whole = tmp_path / "whole.csv"
    d.append_csv(whole)  # a fresh path: header plus every row
    ref = io.StringIO(newline="")
    csv.writer(ref).writerows([("iteration", "a", "b", "label")] + [
        (it, a, b, label) for it, (a, b), label in rows
    ])
    assert chunked.read_bytes() == whole.read_bytes() == ref.getvalue().encode()
    assert [(s.iteration, (s.values["a"], s.values["b"]), s.label) for s in d] == rows


def unique_encoding(x):
    """A rank encoding by one np.unique per column of the whole matrix."""
    codes = np.empty(x.shape, dtype=np.intp)
    uniques = []
    for f in range(x.shape[1]):
        uniq, inverse = np.unique(x[:, f], return_inverse=True)
        codes[:, f] = inverse + sum(u.size for u in uniques)
        uniques.append(uniq)
    field = np.repeat(np.arange(x.shape[1]), [u.size for u in uniques])
    return codes, field, np.concatenate([np.empty(0, np.uint64), *uniques])


def assert_same_encoding(got, want):
    for name, a, b in zip(RankEncoding._fields, got, want):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert (a == b).all(), name


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_extended_encoding_equals_a_fresh_one(data):
    # values from a small pool repeat within and across the two parts
    width = data.draw(st.integers(1, 3))
    value = st.sampled_from((0, 2**64 - 1)) | st.integers(0, 4) | U64
    rows = data.draw(st.lists(st.lists(value, min_size=width, max_size=width),
                              min_size=1, max_size=30))
    x = np.array(rows, dtype=np.uint64)
    a = data.draw(st.sampled_from((0, 1, len(rows))) | st.integers(0, len(rows)))
    want = unique_encoding(x)
    assert want[2].dtype == np.uint64
    empty = RankEncoding.empty(width)
    assert_same_encoding(empty.extend(x[:a]).extend(x[a:]), want)
    # a dataset read after a rows, then after the rest, serves the same
    d = LabeledDataset([f"f{i}" for i in range(width)])
    for i, row in enumerate(rows):
        if i == a:
            assert_same_encoding(d.encoding(), unique_encoding(x[:a]))
        d.append(dict(zip(d.field_names, row)), PRESENCE)
    assert_same_encoding(d.encoding(), want)


def test_encoding_is_kept_and_earlier_reads_stay_valid(ds):
    first = ds.encoding()
    assert ds.encoding() is first  # no append, no new encoding
    ds.append({"a": 0, "b": 4}, ABSENCE)
    second = ds.encoding()
    # the new value 0 takes bin 0; every old bin moves up, but only in the new read
    assert second.codes.tolist() == [[1, 4], [2, 5], [3, 6], [0, 5]]
    assert first.codes.tolist() == [[0, 3], [1, 4], [2, 5]]
    assert first.value.tolist() == [1, 3, 5, 2, 4, 6]
    assert second.value.tolist() == [0, 1, 3, 5, 2, 4, 6]
    assert second.field.tolist() == [0, 0, 0, 0, 1, 1, 1]


def test_read_csv_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(DatasetFormatError):
        read_csv(p)


def test_read_csv_rejects_duplicate_fields(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("iteration,a,a,label\n")
    with pytest.raises(DatasetFormatError, match=r"bad\.csv: duplicate field 'a'"):
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


@pytest.mark.parametrize("cell", ["-5", str(2**64)])
def test_read_csv_rejects_out_of_range_value(tmp_path, cell):
    p = tmp_path / "bad.csv"
    p.write_text(f"iteration,a,label\n1,5,presence\n1,{cell},absence\n")
    with pytest.raises(DatasetFormatError, match=r"bad\.csv:3: "):
        read_csv(p)


@pytest.mark.parametrize("cell", [str(2**63), str(-(2**63) - 1)])
def test_read_csv_rejects_out_of_range_iteration(tmp_path, cell):
    p = tmp_path / "bad.csv"
    p.write_text(f"iteration,a,label\n1,5,presence\n{cell},5,absence\n")
    with pytest.raises(DatasetFormatError, match=r"bad\.csv:3: iteration"):
        read_csv(p)
