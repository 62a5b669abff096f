"""Core series container, fraction/index mapping, CSV IO and JSON reports.

Conventions used across the package
-----------------------------------
Observations are numbered t = 1..T in formulas; in code they live in a
0-based float64 array, so observation t is ``values[t-1]``.  A window is
written (s, e] and holds observations s+1..e, i.e. ``values[s:e]``.
Fractional window bounds map to integer bounds through ``frac_to_index``
(floor), and the minimum admissible window spans ``frac_to_index(tau0, T)``
observations.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .exceptions import DataError

__all__ = [
    "Series",
    "WindowSpec",
    "frac_to_index",
    "default_min_window",
    "load_series",
    "save_series",
]

DETERMINISTICS = ("none", "const", "trend")
#: The regression options of a run that names none, and of a statistic that reads neither.
DEFAULT_DET, DEFAULT_K = "const", 0

_DET_ALIASES = {
    "none": "none",
    "n": "none",
    "const": "const",
    "constant": "const",
    "c": "const",
    "trend": "trend",
    "ct": "trend",
    "constant+trend": "trend",
}


def normalize_det(det: str) -> str:
    """Normalize a deterministic-term spec to 'none', 'const' or 'trend'.

    'trend' always means intercept plus linear trend; there is no
    trend-without-intercept variant.
    """
    try:
        return _DET_ALIASES[str(det).strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown deterministic spec {det!r}; expected one of "
            f"{sorted(set(_DET_ALIASES))}"
        ) from None


def frac_to_index(tau: float, T: int) -> int:
    """Map a sample fraction to an observation count, floor(tau*T).

    A snap tolerance of 1e-9 absorbs the binary representation of decimal
    fractions (0.29 * 100 is stored as 28.999...96 and must map to 29).
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    if T < 1:
        raise ValueError(f"T must be a positive integer, got {T}")
    return int(math.floor(tau * T + 1e-9))


def default_min_window(T: int) -> float:
    """Rule-of-thumb minimum window fraction, 0.01 + 1.8/sqrt(T), capped at 1."""
    if T < 4:
        raise ValueError(f"minimum-window rule needs T >= 4, got T={T}")
    return min(0.01 + 1.8 / math.sqrt(T), 1.0)


@dataclass
class Series:
    """A univariate time series with optional observation labels."""

    values: np.ndarray
    labels: list[str] | None = None
    name: str = "y"

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise DataError(f"series values must be 1-dimensional, got shape {v.shape}")
        if v.size < 2:
            raise DataError(f"series needs at least 2 observations, got {v.size}")
        if not np.all(np.isfinite(v)):
            bad = int(np.flatnonzero(~np.isfinite(v))[0])
            raise DataError(f"series contains a non-finite value at position {bad}")
        self.values = v
        if self.labels is not None:
            if len(self.labels) != v.size:
                raise DataError(
                    f"labels length {len(self.labels)} does not match "
                    f"series length {v.size}"
                )
            self.labels = [str(x) for x in self.labels]

    def __len__(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class WindowSpec:
    """Fractional window (tau1, tau2] of the sample."""

    tau1: float
    tau2: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.tau1 < 1.0:
            raise ValueError(f"tau1 must lie in [0, 1), got {self.tau1}")
        if not 0.0 < self.tau2 <= 1.0:
            raise ValueError(f"tau2 must lie in (0, 1], got {self.tau2}")
        if not self.tau1 < self.tau2:
            raise ValueError(f"tau1 < tau2 required, got ({self.tau1}, {self.tau2})")

    def indices(self, T: int) -> tuple[int, int]:
        """Integer bounds (s, e] of this window for a length-T sample."""
        return frac_to_index(self.tau1, T), frac_to_index(self.tau2, T)

    def length(self, T: int) -> int:
        s, e = self.indices(T)
        return e - s


def _parse_float(token: str, row: int, path: str) -> float:
    try:
        x = float(token)
    except ValueError:
        raise DataError(
            f"{path}: row {row}: cannot parse {token!r} as a number"
        ) from None
    if not math.isfinite(x):
        raise DataError(f"{path}: row {row}: non-finite value {token!r}")
    return x


def load_series(
    path: str,
    column: int | str | None = None,
    label_column: int | str | None = None,
    name: str | None = None,
) -> Series:
    """Load a series from a CSV file (UTF-8).

    Parameters
    ----------
    path : str
        CSV file path.
    column : int or str, optional
        Value column, by 0-based position or by header name.  Defaults to
        the last column of the data rows (the only column of a
        single-column file).
    label_column : int or str, optional
        Optional label column (dates etc.), by position or header name.
    name : str, optional
        Series name; defaults to the value column's header if present.

    Notes
    -----
    Column positions count the fields of the data rows, which must all
    have the same width.  A header with as many fields names every
    column.  A header exactly one field shorter names the trailing
    fields, and the leading field is an unnamed label column, so
    ``v`` over ``d000,1.5`` rows loads the values under the name ``v``.

    Raises
    ------
    DataError
        On unreadable files, unknown columns, data rows of differing
        widths, a header that fits neither rule above, unparseable or
        non-finite numbers (the error names the offending row), or fewer
        than 2 data rows.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = [r for r in csv.reader(fh) if r and any(c.strip() for c in r)]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: file is empty")

    header: list[str | None] | None = None
    first = rows[0]
    probe = first[-1] if column is None or isinstance(column, str) else None
    if isinstance(column, str) or isinstance(label_column, str):
        header = [c.strip() for c in first]
    else:
        in_first = isinstance(column, int) and -len(first) <= column < len(first)
        target = first[column] if in_first else probe
        try:
            float(target if target is not None else first[-1])
        except (ValueError, TypeError):
            header = [c.strip() for c in first]
    data_rows = rows[1:] if header is not None else rows
    start_row = 2 if header is not None else 1
    if len(data_rows) < 2:
        raise DataError(f"{path}: need at least 2 data rows, got {len(data_rows)}")

    width = len(data_rows[0])
    for i, row in enumerate(data_rows):
        if len(row) != width:
            raise DataError(
                f"{path}: row {start_row + i}: {len(row)} fields, but row "
                f"{start_row} has {width}"
            )
    if header is not None and len(header) != width:
        if len(header) != width - 1:
            raise DataError(
                f"{path}: row 1: header has {len(header)} fields, but data "
                f"rows have {width}"
            )
        header = [None, *header]

    def resolve(col: int | str | None, default: int | None) -> int | None:
        if col is None:
            return default
        if isinstance(col, int):
            return col
        if header is None or col not in header:
            raise DataError(f"{path}: no column named {col!r} (header: {header})")
        return header.index(col)

    vcol = resolve(column, width - 1)
    lcol = resolve(label_column, None)
    for col, what in ((vcol, "column"), (lcol, "label column")):
        if col is not None and not -width <= col < width:
            raise DataError(f"{path}: row {start_row}: missing {what} {col}")

    values: list[float] = []
    labels: list[str] = []
    for i, row in enumerate(data_rows):
        values.append(_parse_float(row[vcol].strip(), start_row + i, path))
        if lcol is not None:
            labels.append(row[lcol].strip())

    if name is None:
        name = header[vcol] if header is not None else "y"
    return Series(
        values=np.asarray(values, dtype=np.float64),
        labels=labels if lcol is not None else None,
        name=name or "y",
    )


def _write_csv(path, header, rows) -> None:
    """Write a header and rows as UTF-8 CSV in the csv module's default dialect."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def save_series(path: str, series: Series) -> None:
    """Write a series as CSV; numbers carry 17 significant digits so that
    ``load_series`` round-trips them bit-exactly.  A name or label that would
    load back as something else raises DataError: an empty name, a name that
    parses as a number, and leading or trailing whitespace."""
    if not series.name:
        raise DataError(f"series name {series.name!r} is empty, so it would load back as 'y'")
    try:
        float(series.name)
    except (TypeError, ValueError):
        pass
    else:
        raise DataError(f"series name {series.name!r} reads as a number, so it cannot head a CSV column")
    for what, text in [("series name", series.name), *(("label", label) for label in series.labels or ())]:
        if text != text.strip():
            raise DataError(f"{what} {text!r} has leading or trailing whitespace, which load_series strips")
    values = [format(v, ".17g") for v in series.values]
    if series.labels is None:
        _write_csv(path, [series.name], ([v] for v in values))
    else:
        _write_csv(path, ["label", series.name], zip(series.labels, values))


def as_values(data: "Series | np.ndarray | list") -> np.ndarray:
    """Coerce a Series or array-like to a validated float64 array."""
    if isinstance(data, Series):
        return data.values
    return Series(values=np.asarray(data, dtype=np.float64)).values


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays to JSON types, non-finite floats to None."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else None
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


class _JsonFields:
    """Mixin giving a result dataclass its JSON report: ``to_dict`` lists the
    fields in order, minus those named in ``_omit``, through ``_jsonable``."""

    _omit: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            f.name: _jsonable(getattr(self, f.name))
            for f in fields(self)
            if f.name not in self._omit
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())
