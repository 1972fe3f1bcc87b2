"""Labeled fuzzing outcomes and their CSV persistence.

A dataset accumulates one row per completed run: the field values of the
message as injected, plus the outcome label.  Rows are append-only; the
CSV mirror uses the schema's field order as its header with a final
`label` column, all values printed as decimal integers.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

PRESENCE = "presence"
ABSENCE = "absence"
LABELS = (PRESENCE, ABSENCE)
LABEL_COLUMN = "label"
ITERATION_COLUMN = "iteration"


class DatasetFormatError(Exception):
    """A CSV file does not match the expected dataset layout."""


@dataclass(frozen=True)
class LabeledSample:
    values: dict[str, int]
    label: str
    iteration: int = 0


class LabeledDataset:
    """Append-only collection of labeled field-value rows."""

    def __init__(self, field_names: Sequence[str]):
        self.field_names: tuple[str, ...] = tuple(field_names)
        self._rows: list[tuple[int, ...]] = []
        self._labels: list[str] = []
        self._iterations: list[int] = []
        self._cache: tuple[np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[LabeledSample]:
        for row, label, it in zip(self._rows, self._labels, self._iterations):
            yield LabeledSample(dict(zip(self.field_names, row)), label, it)

    def append(self, values: Mapping[str, int], label: str, iteration: int = 0) -> None:
        if label not in LABELS:
            raise DatasetFormatError(f"label must be one of {LABELS}, got {label!r}")
        try:
            row = tuple(int(values[name]) for name in self.field_names)
        except KeyError as exc:
            raise DatasetFormatError(f"row is missing field {exc.args[0]!r}") from None
        if len(values) != len(self.field_names):
            extra = sorted(set(values) - set(self.field_names))
            raise DatasetFormatError(f"row has unknown fields {extra}")
        self._rows.append(row)
        self._labels.append(label)
        self._iterations.append(iteration)
        self._cache = None

    def class_counts(self) -> dict[str, int]:
        return {
            PRESENCE: self._labels.count(PRESENCE),
            ABSENCE: self._labels.count(ABSENCE),
        }

    def minority_label(self) -> str:
        """Less frequent label; a tie goes to presence (the class of interest)."""
        counts = self.class_counts()
        return PRESENCE if counts[PRESENCE] <= counts[ABSENCE] else ABSENCE

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(values matrix as uint64, presence mask).  Cached until append."""
        if self._cache is None:
            n = len(self._rows)
            x = np.array(self._rows, dtype=np.uint64).reshape(n, len(self.field_names))
            y = np.fromiter(
                (lbl == PRESENCE for lbl in self._labels), dtype=bool, count=n
            )
            self._cache = (x, y)
        return self._cache

    def subset(self, indices: Iterable[int]) -> "LabeledDataset":
        out = LabeledDataset(self.field_names)
        for i in indices:
            out._rows.append(self._rows[i])
            out._labels.append(self._labels[i])
            out._iterations.append(self._iterations[i])
        return out

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
            for it, row, label in zip(
                self._iterations[start:], self._rows[start:], self._labels[start:]
            ):
                writer.writerow([it, *row, label])


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
            label = row[-1]
            if label not in LABELS:
                raise DatasetFormatError(f"{path}:{lineno}: bad label {label!r}")
            try:
                iteration = int(row[0])
                values = {
                    name: int(cell) for name, cell in zip(field_names, row[1:-1])
                }
            except ValueError as exc:
                raise DatasetFormatError(f"{path}:{lineno}: {exc}") from None
            ds.append(values, label, iteration=iteration)
    return ds
