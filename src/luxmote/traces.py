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
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class TraceError(ValueError):
    """Malformed trace data; message carries file/line context when known."""


@dataclass(frozen=True)
class Trace:
    times_s: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times_s, dtype=float)
        values = np.asarray(self.values, dtype=float)
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
        if not (np.isfinite(times).all() and np.isfinite(values).all()):
            raise TraceError("trace contains non-finite entries")
        if np.any(np.diff(times) <= 0):
            bad = int(np.argmax(np.diff(times) <= 0)) + 1
            raise TraceError(
                f"sample {bad + 1}: time {times[bad]} does not increase past {times[bad - 1]}"
            )
        if np.any(values < 0):
            bad = int(np.argmax(values < 0))
            raise TraceError(f"sample {bad + 1}: negative value {values[bad]}")

    def __len__(self) -> int:
        return len(self.times_s)

    def value_at(self, t: float) -> float:
        """Sample-and-hold lookup."""
        idx = int(np.searchsorted(self.times_s, t, side="right")) - 1
        if idx < 0:
            idx = 0
        return float(self.values[idx])

    @classmethod
    def constant(cls, value: float, t0: float = 0.0) -> "Trace":
        return cls(times_s=np.array([t0]), values=np.array([float(value)]))

    @classmethod
    def from_samples(cls, samples) -> "Trace":
        """Build from an iterable of (time_s, value) pairs."""
        pairs = list(samples)
        if not pairs:
            raise TraceError("trace must have at least one sample")
        times, values = zip(*pairs)
        return cls(times_s=np.array(times, dtype=float), values=np.array(values, dtype=float))


def load_trace_csv(path) -> Trace:
    """Parse a trace CSV; errors name the offending line."""
    path = Path(path)
    times: list[float] = []
    values: list[float] = []
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
                t = float(row[0])
                v = float(row[1])
            except ValueError as exc:
                raise TraceError(f"{path}: line {lineno}: {exc}") from None
            if not (math.isfinite(t) and math.isfinite(v)):
                column, x = ("value", v) if math.isfinite(t) else ("time_s", t)
                raise TraceError(f"{path}: line {lineno}: {column} {x} is not finite")
            if times and t <= times[-1]:
                raise TraceError(
                    f"{path}: line {lineno}: time {t} does not increase past {times[-1]}"
                )
            if v < 0:
                raise TraceError(f"{path}: line {lineno}: negative value {v}")
            times.append(t)
            values.append(v)
    if not times:
        raise TraceError(f"{path}: no samples")
    return Trace(times_s=np.array(times), values=np.array(values))

