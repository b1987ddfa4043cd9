"""On-disk formats: trace CSV, trajectory CSV, tables, key=value sidecars.

Trace CSV: header `time_s,voltage_v`, one sample per line, LF endings,
floats in shortest round-trip (repr) form.  Sidecars are plain
`key=value` lines.  Writers are deterministic: identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import csv
import itertools
from typing import Iterable, Sequence

import numpy as np

from .errors import DataFormatError
from .synth import NoiseTrace

TRACE_HEADER = ("time_s", "voltage_v")
TRAJECTORY_HEADER = ("time_s", "occupancy", "temperature_k")

# Allowed relative wobble of the sample spacing inside a trace file.
_GRID_TOLERANCE = 1e-6


def _fmt(value: float) -> str:
    return repr(float(value))


def write_trace_csv(path: str, times_s: np.ndarray, voltages_v: np.ndarray) -> None:
    """Write one shot: its samples `voltages_v` on the grid `times_s`."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(TRACE_HEADER) + "\n")
        for t, v in zip(times_s, voltages_v, strict=True):
            fh.write(f"{_fmt(t)},{_fmt(v)}\n")


def _sample_line(path: str, index: int) -> int:
    """File line of the sample at `index`, skipping blank lines; only
    error messages need it, so it reads the file again."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        lines = (reader.line_num for row in reader if row)
        return next(itertools.islice(lines, index + 1, None))


def read_trace_csv(path: str) -> NoiseTrace:
    """Read a trace CSV as a one-row ensemble, validating the header,
    every row, that every sample is finite, and that the samples sit on
    a uniform, increasing grid.

    Raises DataFormatError with the offending line number (1-based,
    header is line 1) on any violation.
    """
    times = []
    volts = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: line 1: empty file") from None
        if [h.strip() for h in header] != list(TRACE_HEADER):
            raise DataFormatError(
                f"{path}: line 1: expected header "
                f"'{','.join(TRACE_HEADER)}', got {','.join(header)!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise DataFormatError(
                    f"{path}: line {lineno}: expected 2 fields, got {len(row)}"
                )
            try:
                times.append(float(row[0]))
                volts.append(float(row[1]))
            except ValueError:
                raise DataFormatError(
                    f"{path}: line {lineno}: non-numeric sample {row!r}"
                ) from None
    if len(times) < 2:
        raise DataFormatError(f"{path}: need at least 2 samples, got {len(times)}")
    t = np.asarray(times)
    v = np.asarray(volts)
    finite = np.isfinite(t) & np.isfinite(v)
    if not finite.all():
        line = _sample_line(path, int(np.argmin(finite)))
        raise DataFormatError(f"{path}: line {line}: non-finite sample")
    steps = np.diff(t)
    if np.any(steps <= 0):
        line = _sample_line(path, int(np.argmax(steps <= 0)) + 1)
        raise DataFormatError(
            f"{path}: line {line}: sample times must be strictly increasing"
        )
    dt = steps[0]
    if np.max(np.abs(steps - dt)) > _GRID_TOLERANCE * dt:
        raise DataFormatError(f"{path}: sample grid is not uniform")
    return NoiseTrace(t, v[np.newaxis])


def read_trace_ensemble(paths: Sequence[str]) -> NoiseTrace:
    """Read trace CSVs as one ensemble, row i from paths[i].  Every file
    needs the first file's sample count and endpoints (to within
    1e-12 + 1e-9 |t_end| s), which fix a uniform grid."""
    first = read_trace_csv(paths[0])
    times = first.times_s
    tol = 1e-12 + 1e-9 * abs(float(times[-1]))
    volts = np.empty((len(paths), len(times)))
    volts[0] = first.voltages_v[0]
    for i, path in enumerate(paths[1:], start=1):
        trace = read_trace_csv(path)
        t = trace.times_s
        if len(t) != len(times) or max(abs(t[0] - times[0]), abs(t[-1] - times[-1])) > tol:
            raise DataFormatError(
                f"{path}: {len(t)} samples over [{_fmt(t[0])}, {_fmt(t[-1])}] s, not on the "
                f"grid of {paths[0]} ({len(times)} over [{_fmt(times[0])}, {_fmt(times[-1])}] s)"
            )
        volts[i] = trace.voltages_v[0]
    return NoiseTrace(times, volts)


def write_trajectory_csv(path: str, trajectory) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(TRAJECTORY_HEADER) + "\n")
        for t, q, temp in zip(
            trajectory.times_s, trajectory.occupancy, trajectory.temperature_k
        ):
            fh.write(f"{_fmt(t)},{_fmt(q)},{_fmt(temp)}\n")


def write_table_csv(
    path: str, header: Sequence[str], rows: Iterable[Sequence[float]]
) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def write_key_values(path: str, items: Iterable[tuple[str, str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key, value in items:
            fh.write(f"{key}={value}\n")


def read_key_values(path: str) -> dict[str, str]:
    """Read a key=value sidecar; '#' lines and blanks are skipped, and a
    key may appear once."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DataFormatError(
                    f"{path}: line {lineno}: expected key=value, got {line!r}"
                )
            key, _, value = line.partition("=")
            key = key.strip()
            if key in out:
                raise DataFormatError(f"{path}: line {lineno}: repeated key {key!r}")
            out[key] = value.strip()
    return out
