"""Time-series traces driving a simulation: ambient light in lux, external
events as impulses (motion, door open/close).

Values are sample-and-hold: a trace's value holds from one sample until the
next, and past the last sample it holds forever.  Before the first sample the
first value applies.

CSV wire format: UTF-8, header ``time_s,value``, one sample per line,
``.`` decimal separator.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np


class TraceError(ValueError):
    """Malformed trace data; message carries file/line context when known.
    ``sample`` is the index of the failing sample, when there is one, and
    ``reason`` the message without the "sample N: " prefix."""

    def __init__(self, reason: str, sample: Optional[int] = None):
        super().__init__(reason if sample is None else f"sample {sample + 1}: {reason}")
        self.reason, self.sample = reason, sample


def _column(name: str, column) -> np.ndarray:
    """A trace column as a float array: ints and floats, not bools (a bool is
    an int in Python) or other types."""
    if not isinstance(column, (list, tuple, np.ndarray)):
        raise TraceError(f"{name} must be a sequence of numbers, got {column!r}")
    if not (isinstance(column, np.ndarray) and column.dtype.kind in "fiu"):
        column = column.tolist() if isinstance(column, np.ndarray) else column
        bad = {t for t in set(map(type, column)) if t is bool or not issubclass(t, (int, float))}
        if bad:
            i = next(i for i, x in enumerate(column) if type(x) in bad)
            raise TraceError(f"{name} must be a number, got {column[i]!r}", i)
    return np.asarray(column, dtype=float)


@dataclass(frozen=True)
class Trace:
    times_s: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = _column("time_s", self.times_s)
        values = _column("value", self.values)
        object.__setattr__(self, "times_s", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or values.ndim != 1:
            raise TraceError("trace columns must be one-dimensional")
        if len(times) != len(values):
            raise TraceError(
                f"time and value columns differ in length ({len(times)} vs {len(values)})"
            )
        if len(times) == 0:
            raise TraceError("trace must have at least one sample")
        # The first sample that breaks a rule, and its first rule in the order
        # non-finite time, non-finite value, time not increasing, negative value.
        stalled = np.concatenate(([False], ~(np.diff(times) > 0)))
        faults = np.stack([~np.isfinite(times), ~np.isfinite(values), stalled, values < 0])
        failed = faults.any(axis=0)
        if failed.any():
            i = int(np.argmax(failed))
            t, v, before = float(times[i]), float(values[i]), float(times[i - 1])
            reasons = (f"time_s {t} is not finite", f"value {v} is not finite",
                       f"time {t} does not increase past {before}", f"negative value {v}")
            raise TraceError(reasons[int(np.argmax(faults[:, i]))], i)

    def __len__(self) -> int:
        return len(self.times_s)

    @classmethod
    def constant(cls, value: float) -> "Trace":
        return cls(times_s=[0.0], values=[value])

    @classmethod
    def from_samples(cls, samples) -> "Trace":
        """Build from an iterable of (time_s, value) pairs."""
        times, values = [], []
        for i, pair in enumerate(samples):
            try:
                t, v = pair
            except (TypeError, ValueError):
                raise TraceError(f"expected a (time_s, value) pair, got {pair!r}", i) from None
            times.append(t)
            values.append(v)
        return cls(times_s=times, values=values)


def load_trace_csv(path) -> Trace:
    """Parse a trace CSV; errors name the offending line.  ``Trace`` checks
    the samples, and a sample's fault is reported at its line."""
    path = Path(path)
    times: list[float] = []
    values: list[float] = []
    lines: list[int] = []  # the line of each sample; blank lines are skipped
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise TraceError(f"{path}: empty file")
            if [c.strip() for c in header] != ["time_s", "value"]:
                raise TraceError(f"{path}: line 1: header must be 'time_s,value', got {header}")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 2:
                    raise TraceError(f"{path}: line {lineno}: expected 2 columns, got {len(row)}")
                try:
                    times.append(float(row[0]))
                    values.append(float(row[1]))
                except ValueError as exc:
                    raise TraceError(f"{path}: line {lineno}: {exc}") from None
                lines.append(lineno)
    except UnicodeDecodeError as exc:
        raise TraceError(f"{path}: {exc}") from None
    if not times:
        raise TraceError(f"{path}: no samples")
    try:
        return Trace(times_s=times, values=values)
    except TraceError as exc:
        raise TraceError(f"{path}: line {lines[exc.sample]}: {exc.reason}") from None
