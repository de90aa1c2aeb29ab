"""Embedded benchmark datasets and CSV ingestion."""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .greymodel import Series


@dataclass(frozen=True)
class Dataset:
    name: str
    series: Series
    source: str


WUHAN = Dataset(
    name="wuhan",
    series=Series(
        labels=np.arange(2011, 2016),
        values=np.array([714700.0, 765000.0, 860412.0, 1005200.0, 1061400.0]),
    ),
    source=(
        "Wuhan Port annual container throughput (TEU), 2011-2015; "
        "Peng & Yang, Logistics Technology 35(03), 2016"
    ),
)

ZHEJIANG = Dataset(
    name="zhejiang",
    series=Series(
        labels=np.arange(2007, 2014),
        values=np.array([
            3210300.0, 3272300.0, 3152300.0, 3279100.0,
            3411200.0, 3474600.0, 3606700.0,
        ]),
    ),
    source=(
        "Zhejiang Province marine capture production (t), 2007-2013; "
        "Peng & Wang, Journal of Anhui Agricultural Sciences 43(18), 2015"
    ),
)

DATASETS = {d.name: d for d in (WUHAN, ZHEJIANG)}


def get_dataset(name: str) -> Dataset:
    try:
        return DATASETS[name]
    except KeyError:
        raise DataError(
            f"unknown dataset {name!r}; available: {sorted(DATASETS)}"
        ) from None


def load_csv(path) -> Series:
    """Read a two-column ``label,value`` CSV (header required) into a Series.

    The file must be UTF-8 text.  Labels must be integers, strictly
    increasing and equally spaced; values must be positive numbers.  Errors
    name the file and, where there is one, the offending line.
    """
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            labels, values = _read_rows(reader, path)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc
        except csv.Error as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from exc
    return Series(labels=np.array(labels), values=np.array(values))


def _read_rows(reader, path) -> tuple[list, list]:
    """The labels and values of a CSV reader's rows, checked line by line."""
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: file is empty, expected a label,value header") from None
    if [c.strip().lower() for c in header] != ["label", "value"]:
        raise DataError(
            f"{path}: line 1: expected header 'label,value', got {','.join(header)!r}"
        )
    labels, values = [], []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise DataError(f"{path}: line {lineno}: expected 2 columns, got {len(row)}")
        try:
            labels.append(int(row[0]))
        except ValueError:
            raise DataError(
                f"{path}: line {lineno}: label {row[0]!r} is not an integer"
            ) from None
        try:
            values.append(float(row[1]))
        except ValueError:
            raise DataError(
                f"{path}: line {lineno}: value {row[1]!r} is not a number"
            ) from None
    if not labels:
        raise DataError(f"{path}: no data rows")
    return labels, values
