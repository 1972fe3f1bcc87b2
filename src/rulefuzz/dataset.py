"""Labeled fuzzing outcomes and their CSV persistence.

A dataset accumulates one row per completed run: the field values of the
message as injected, each in [0, U64_MAX], plus the outcome label.  Rows
are append-only and kept in numpy columns; the CSV mirror uses the schema's
field order as its header with a final `label` column, all values printed
as decimal integers.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

PRESENCE = "presence"
ABSENCE = "absence"
LABELS = (PRESENCE, ABSENCE)
LABEL_COLUMN = "label"
ITERATION_COLUMN = "iteration"
U64_MAX = 2**64 - 1  # field values are stored as uint64
_INITIAL_CAPACITY = 64


class DatasetFormatError(Exception):
    """A CSV file does not match the expected dataset layout."""


@dataclass(frozen=True)
class LabeledSample:
    values: dict[str, int]
    label: str
    iteration: int = 0


def minority_of(counts: Mapping[str, int]) -> str:
    """Less frequent label; a tie goes to presence (the class of interest)."""
    return PRESENCE if counts[PRESENCE] <= counts[ABSENCE] else ABSENCE


class LabeledDataset:
    """Append-only labeled rows, stored in three columns that double when full.

    Growing allocates new columns, and an append writes only past the end
    of every earlier `to_arrays()` view, so those views stay valid.
    """

    def __init__(self, field_names: Sequence[str]):
        self.field_names: tuple[str, ...] = tuple(field_names)
        self._n = 0
        self._values = np.empty((_INITIAL_CAPACITY, len(self.field_names)), dtype=np.uint64)
        self._presence = np.empty(_INITIAL_CAPACITY, dtype=bool)
        self._iterations = np.empty(_INITIAL_CAPACITY, dtype=np.int64)

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[LabeledSample]:
        for it, row, label in self._records(0):
            yield LabeledSample(dict(zip(self.field_names, row)), label, it)

    def _records(self, start: int) -> Iterator[tuple[int, list[int], str]]:
        """(iteration, values, label) of rows[start:] as Python objects, row by row."""
        for i in range(start, self._n):
            label = PRESENCE if self._presence[i] else ABSENCE
            yield int(self._iterations[i]), self._values[i].tolist(), label

    def append(self, values: Mapping[str, int], label: str, iteration: int = 0) -> None:
        if label not in LABELS:
            raise DatasetFormatError(f"label must be one of {LABELS}, got {label!r}")
        try:
            row = [int(values[name]) for name in self.field_names]
        except KeyError as exc:
            raise DatasetFormatError(f"row is missing field {exc.args[0]!r}") from None
        if len(values) != len(self.field_names):
            extra = sorted(set(values) - set(self.field_names))
            raise DatasetFormatError(f"row has unknown fields {extra}")
        if not all(0 <= v <= U64_MAX for v in row):
            raise DatasetFormatError(f"row values must lie in [0, {U64_MAX}], got {row}")
        if not -(2**63) <= iteration < 2**63:  # stored as int64
            raise DatasetFormatError(f"iteration must fit in int64, got {iteration}")
        n = self._n
        if n == len(self._presence):  # full: double each column; appends overwrite the copy
            cols = (self._values, self._presence, self._iterations)
            self._values, self._presence, self._iterations = (np.concatenate((c, c)) for c in cols)
        self._iterations[n] = iteration
        self._values[n] = row
        self._presence[n] = label == PRESENCE
        self._n = n + 1

    def class_counts(self) -> dict[str, int]:
        presence = int(np.count_nonzero(self._presence[: self._n]))
        return {PRESENCE: presence, ABSENCE: self._n - presence}

    def minority_label(self) -> str:
        return minority_of(self.class_counts())

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(values matrix as uint64, presence mask): read-only views, no copy."""
        x, y = self._values[: self._n], self._presence[: self._n]
        x.flags.writeable = y.flags.writeable = False
        return x, y

    # -- CSV ---------------------------------------------------------------

    def header(self) -> tuple[str, ...]:
        return (ITERATION_COLUMN,) + self.field_names + (LABEL_COLUMN,)

    def append_csv(self, path: str | Path, start: int = 0) -> None:
        """Append rows[start:] to an existing CSV (header written if new)."""
        path = Path(path)
        new_file = not path.exists()
        with open(path, "a", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            if new_file:
                writer.writerow(self.header())
            writer.writerows([it, *row, label] for it, row, label in self._records(start))


def read_csv(path: str | Path) -> LabeledDataset:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetFormatError(f"{path}: empty file") from None
        if (
            len(header) < 2
            or header[0] != ITERATION_COLUMN
            or header[-1] != LABEL_COLUMN
        ):
            raise DatasetFormatError(
                f"{path}: header must be {ITERATION_COLUMN!r}, fields, {LABEL_COLUMN!r}"
            )
        field_names = header[1:-1]
        ds = LabeledDataset(field_names)
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DatasetFormatError(f"{path}:{lineno}: wrong column count")
            try:
                values = {name: int(cell) for name, cell in zip(field_names, row[1:-1])}
                ds.append(values, row[-1], iteration=int(row[0]))
            except (ValueError, DatasetFormatError) as exc:
                raise DatasetFormatError(f"{path}:{lineno}: {exc}") from None
    return ds
