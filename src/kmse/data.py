"""Datasets: construction, standardization, CSV loading, train/test splits."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CsvParseError, InputError


@dataclass(frozen=True, eq=False)
class Dataset:
    """An n x d sample matrix with optional standardization statistics.

    ``feature_means``/``feature_stds`` are populated by :func:`standardize`
    and allow the transform to be replayed on held-out data. Features with
    zero variance are centered only and flagged in ``constant_features``.
    """

    rows: np.ndarray
    feature_means: np.ndarray | None = None
    feature_stds: np.ndarray | None = None
    constant_features: np.ndarray | None = None

    def __post_init__(self):
        arr = np.asarray(self.rows, dtype=float)
        if arr.ndim != 2:
            raise InputError(f"expected a 2-d sample matrix, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise InputError("dataset must contain at least one row")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "rows", arr)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[1]


def as_rows(points: Dataset | np.ndarray) -> np.ndarray:
    """Accept a Dataset or a raw (n, d) array and return the row matrix."""
    if isinstance(points, Dataset):
        return points.rows
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise InputError(f"expected a 2-d sample matrix, got shape {arr.shape}")
    return arr


def standardize(data: Dataset | np.ndarray) -> Dataset:
    """Center and scale each feature to mean 0, std 1 (population convention).

    Zero-variance features are centered but not scaled, and flagged.
    """
    rows = as_rows(data)
    if rows.shape[0] < 2:
        raise InputError("standardization needs at least two rows")
    means = rows.mean(axis=0)
    stds = rows.std(axis=0)  # population (1/n) convention
    constant = stds <= 0.0
    safe = np.where(constant, 1.0, stds)
    out = (rows - means) / safe
    return Dataset(
        rows=out,
        feature_means=means,
        feature_stds=safe,
        constant_features=constant,
    )


def standardize_like(data: Dataset | np.ndarray, reference: Dataset) -> Dataset:
    """Apply a previously fitted standardization to new rows."""
    if reference.feature_means is None or reference.feature_stds is None:
        raise InputError("reference dataset carries no standardization statistics")
    rows = as_rows(data)
    out = (rows - reference.feature_means) / reference.feature_stds
    return Dataset(
        rows=out,
        feature_means=reference.feature_means,
        feature_stds=reference.feature_stds,
        constant_features=reference.constant_features,
    )


def split_train_test(
    data: Dataset | np.ndarray, test_frac: float, rng: np.random.Generator
) -> tuple[Dataset, Dataset]:
    """Seeded shuffle, last ``test_frac`` of rows held out as the test set."""
    rows = as_rows(data)
    n = rows.shape[0]
    if not 0.0 < test_frac < 1.0:
        raise InputError("test_frac must lie strictly between 0 and 1")
    n_test = max(1, int(round(n * test_frac)))
    if n_test >= n:
        raise InputError("test fraction leaves no training rows")
    perm = rng.permutation(n)
    return Dataset(rows[perm[: n - n_test]]), Dataset(rows[perm[n - n_test :]])


def load_csv(path: str) -> Dataset:
    """Load a CSV of numeric rows; a non-numeric first line is treated as a header.

    Every cell must be a finite number; NaN and infinite cells are rejected
    with their line number.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = handle.read().splitlines()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    numbered = [(i, ln) for i, ln in enumerate(raw, start=1) if ln.strip() != ""]
    if not numbered:
        raise CsvParseError("file is empty", 1)

    def parse(line: str, number: int) -> list[float]:
        values = []
        for cell in line.split(","):
            try:
                values.append(float(cell))
            except ValueError:
                raise CsvParseError(f"non-numeric cell {cell!r}", number) from None
        return values

    first_number, first_line = numbered[0]
    try:
        parse(first_line, first_number)
    except CsvParseError:
        if len(numbered) == 1:
            raise CsvParseError("no data rows after header", first_number) from None
        numbered = numbered[1:]

    rows: list[list[float]] = []
    for number, line in numbered:
        values = parse(line, number)
        if rows and len(values) != len(rows[0]):
            raise CsvParseError(f"expected {len(rows[0])} columns, got {len(values)}", number)
        bad = [v for v in values if not math.isfinite(v)]
        if bad:
            raise CsvParseError(f"non-finite cell {bad[0]!r}", number)
        rows.append(values)
    return Dataset(np.asarray(rows, dtype=float))
