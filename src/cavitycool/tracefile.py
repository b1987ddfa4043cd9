"""On-disk formats: run directories, trace CSV and trajectory CSV.

Trace CSV: header `time_s,voltage_v`, one sample per line, LF endings,
floats in shortest round-trip (repr) form.  Writers are deterministic:
identical inputs produce byte-identical files.  Tables and key=value
sidecars are written by `textformat`, which needs no numpy; this module
re-exports its writers and readers.

A run directory (`write_run`, `read_run`) holds `trajectory.csv`, the
trace files `trace_000.csv`, `trace_001.csv`, ... of its `synth.n_shots`
shots and the `run.meta` sidecar: the `format` and `config_digest` lines,
then the run's `config_items`.  The sidecar holds nothing else; the file
names follow from the configuration.

Both directions convert floats with `orjson`, which prints Python's
shortest round-trip digits (Ryu) and parses with correct rounding, so
the files and the values read back are the same as with `repr` and
`float()`; it is imported here only.

`write_trace_csv` and `write_trajectory_csv` write a grid file: a header,
then one `time,value` line per sample.  The values go through one
`orjson.dumps`, whose text equals `repr` for 0 and for 1e-4 <= |v| < 1e16;
any other value, and NaN and +-inf, takes its `repr` instead.  A run's
trajectory and traces share one grid, mostly below 1e-4 s, so its times
are written with `repr` once: a one-entry cache keyed by the grid's
float64 bytes holds its line starts, each with the newline that ends the
line before.  The header is not cached, so every grid file of a run takes
the same entry.  A file is one join of the header, starts and values.

`read_trace_csv` takes one of two paths; both check the parsed samples
with `_checked_trace`, so both return the same array or raise the same
error:

1. JSON, for a file with the exact header line and a final newline.  One
   translate over the whole file deletes the bytes a JSON number is
   spelled with (digits and `+-.eE`); when what is left is the header's
   residue followed by `",\n"` once per line, every line holds two such
   fields around one comma, in ASCII with LF endings.  One `replace` turns
   the newlines into commas in a `bytearray`, whose header end becomes `[`
   and last byte `]`, and one `orjson.loads` of a `memoryview` on that
   array fills one array with both columns.  orjson reads the integer -0
   as 0 where `float()` keeps the sign, so a first field spelled -0, or a
   later field parsed as zero in a text that holds `-0`, passes the file
   on, as does a field orjson refuses (`1.`, `+1`, `01`, an overflow, ...).
2. The validating line reader takes any other file, converts each field
   with `float()`, and names the row of the first fault.
"""

from __future__ import annotations

import csv
import functools
import os
from typing import Sequence

import numpy as np
import orjson

from .config import RunConfig, config_digest, config_from_items, config_items, grid_sample_count
from .errors import ConfigError, DataFormatError
from .synth import NoiseTrace
from .textformat import _fmt, _read_text, read_key_values, write_key_values, write_table_csv

TRACE_HEADER = ("time_s", "voltage_v")
TRAJECTORY_HEADER = ("time_s", "temperature_k")

# Allowed relative wobble of the sample spacing inside a trace file.
_GRID_TOLERANCE = 1e-6

_TRACE_HEADER_BYTES = (",".join(TRACE_HEADER) + "\n").encode()

_RUN_FORMAT = "cavitycool-run/4"
TRAJECTORY_FILE = "trajectory.csv"


@functools.lru_cache(maxsize=1)
def _line_starts(grid_bytes: bytes) -> tuple[str, ...]:
    """A newline, time and comma per sample of the float64 grid `grid_bytes`, then a newline."""
    return tuple([f"\n{t!r}," for t in np.frombuffer(grid_bytes).tolist()] + ["\n"])


def _value_fields(values: np.ndarray) -> list[str]:
    """The `repr` of each of `values`, a 1-D float64 array."""
    # orjson's text equals repr only for 0 and 1e-4 <= |v| < 1e16.
    a = np.abs(values)
    other = np.flatnonzero(~(((a >= 1e-4) & (a < 1e16)) | (values == 0)))
    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode()
    fields = text.split(",") if text else []
    for i, v in zip(other.tolist(), values[other].tolist()):
        fields[i] = repr(v)
    return fields


def _write_grid_csv(path: str, header: Sequence[str], times_s, values) -> None:
    """Write `header`, then a `time,value` line per sample of `values` on `times_s`."""
    starts = _line_starts(np.asarray(times_s, dtype=float).tobytes())
    parts = [""] * (2 * len(starts))
    parts[0] = ",".join(header)
    parts[1::2] = starts
    # An extended slice takes one value per sample, or raises ValueError.
    parts[2::2] = _value_fields(np.ascontiguousarray(values, dtype=float))
    with open(path, "wb") as fh:
        fh.write("".join(parts).encode("ascii"))


def write_trace_csv(path: str, times_s: np.ndarray, voltages_v: np.ndarray) -> None:
    """Write one shot: its samples `voltages_v` on the grid `times_s`."""
    _write_grid_csv(path, TRACE_HEADER, times_s, voltages_v)


def read_trace_csv(path: str) -> NoiseTrace:
    """Read a trace CSV as a one-row ensemble, validating the header,
    every row, that every sample is finite, and that the samples sit on
    a uniform, increasing grid.

    Raises DataFormatError with the offending line number (1-based,
    header is line 1) on any violation.
    """
    with open(path, "rb") as fh:
        trace = _plain_trace(path, fh.read())
    return trace if trace is not None else _read_trace_lines(path)


def _plain_trace(path: str, data: bytes) -> NoiseTrace | None:
    """The trace in `data`, the bytes of `path`, when it has the plain
    layout the module docstring gives and orjson takes every field; None
    sends the file to `_read_trace_lines`."""
    if not data.startswith(_TRACE_HEADER_BYTES) or not data.endswith(b"\n"):
        return None
    # Any space, quote, CR, non-ASCII byte, blank line, or line with no or
    # two commas is left over.  An empty body matches with n = 0, has no
    # numbers for orjson and goes to the line reader.
    seps = data.translate(None, _NUMBER_BYTES)
    n = (len(seps) - len(_HEADER_RESIDUE)) // 2
    if seps != _HEADER_RESIDUE + b",\n" * n:
        return None
    # No line is longer than the csv module's field limit; only a body
    # longer than the limit can hold such a line.
    start = len(_TRACE_HEADER_BYTES)
    limit = csv.field_size_limit()
    if len(data) - start > limit:
        body = np.frombuffer(data, dtype=np.uint8, offset=start)
        newlines = np.flatnonzero(body == ord("\n"))
        if np.max(np.diff(newlines, prepend=-1)) > limit:
            return None
    # The body's newlines become commas, the one ending the header `[` and
    # the last one `]`: a JSON array of both columns, read in place.
    text = bytearray(data.replace(b"\n", b","))
    text[start - 1] = ord("[")
    text[-1] = ord("]")
    pairs = _json_numbers(memoryview(text)[start - 1:], 2 * n)
    if pairs is None:
        return None
    # No line is blank, so sample i sits on line i + 2.
    return _checked_trace(path, pairs[0::2], pairs[1::2], range(2, n + 2))


# The bytes a JSON number is spelled with, and what deleting them leaves
# of the header line.
_NUMBER_BYTES = b"0123456789+-.eE"
_HEADER_RESIDUE = _TRACE_HEADER_BYTES.translate(None, _NUMBER_BYTES)


def _json_numbers(text: memoryview, count: int) -> np.ndarray | None:
    """The `count` numbers of `text`, a JSON array of numbers spelled with
    `_NUMBER_BYTES` only, as `float()` reads them, when `orjson` takes each
    as a JSON number; None otherwise."""
    # orjson reads the integer -0 as 0, where float() keeps the sign.  Only
    # a field parsed as zero can be one: the first field is checked at
    # once, and the text is searched only when a later one parsed as zero.
    if text[1:4] in (b"-0,", b"-0]"):
        return None
    try:
        numbers = np.fromiter(orjson.loads(text), float, count=count)
    except orjson.JSONDecodeError:
        return None
    # `in` on a memoryview matches single bytes, so the search takes a copy.
    if not numbers[1:].all() and (b"-0," in bytes(text) or text[-3:] == b"-0]"):
        return None
    return numbers


def _checked_trace(path: str, times, volts, lines: Sequence[int]) -> NoiseTrace:
    """The samples `times`, `volts` of `path` as a trace, once they pass
    the one check of a trace's samples: at least 2, all finite, at strictly
    increasing times on a uniform grid.  Errors name line `lines[i]` for
    sample i."""
    t = np.asarray(times)
    v = np.asarray(volts)
    if len(t) < 2:
        raise DataFormatError(f"{path}: need at least 2 samples, got {len(t)}")
    finite = np.isfinite(t) & np.isfinite(v)
    if not finite.all():
        line = lines[int(np.argmin(finite))]
        raise DataFormatError(f"{path}: line {line}: non-finite sample")
    steps = np.diff(t)
    if np.any(steps <= 0):
        line = lines[int(np.argmax(steps <= 0)) + 1]
        raise DataFormatError(
            f"{path}: line {line}: sample times must be strictly increasing"
        )
    dt = steps[0]
    if np.max(np.abs(steps - dt)) > _GRID_TOLERANCE * dt:
        raise DataFormatError(f"{path}: sample grid is not uniform")
    return NoiseTrace(t, v[np.newaxis])


def _read_trace_lines(path: str) -> NoiseTrace:
    """`read_trace_csv` line by line: the validating reader that names
    the file and line of the first fault."""
    times = []
    volts = []
    lines = []  # the file line of each sample, for error messages
    reader = csv.reader(_read_text(path, newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise DataFormatError(f"{path}: line 1: empty file")
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
                lines.append(reader.line_num)
            except ValueError:
                raise DataFormatError(
                    f"{path}: line {lineno}: non-numeric sample {row!r}"
                ) from None
    except csv.Error as exc:
        raise DataFormatError(f"{path}: line {reader.line_num}: {exc}") from None
    return _checked_trace(path, times, volts, lines)


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
    """Write `trajectory.csv`: time and mode temperature."""
    _write_grid_csv(path, TRAJECTORY_HEADER, trajectory.times_s, trajectory.temperature_k)


def _trace_names(cfg: RunConfig) -> list[str]:
    """The trace file of each shot of a run of `cfg`, in shot order."""
    return [f"trace_{i:03d}.csv" for i in range(cfg.n_shots)]


def write_run(out_dir: str, cfg: RunConfig, result) -> str:
    """Write the simulated run `result` of `cfg` as a run directory in
    `out_dir` (see the module docstring); returns the sidecar's path."""
    os.makedirs(out_dir, exist_ok=True)
    write_trajectory_csv(os.path.join(out_dir, TRAJECTORY_FILE), result.trajectory)
    traces = result.traces
    for name, row in zip(_trace_names(cfg), traces.voltages_v, strict=True):
        write_trace_csv(os.path.join(out_dir, name), traces.times_s, row)
    meta_path = os.path.join(out_dir, "run.meta")
    write_key_values(meta_path, [
        ("format", _RUN_FORMAT), ("config_digest", config_digest(cfg)), *config_items(cfg),
    ])
    return meta_path


def read_run(meta_path: str) -> tuple[RunConfig, NoiseTrace]:
    """The configuration and traces of the run whose sidecar is
    `meta_path`; DataFormatError, naming the sidecar, on any fault."""
    meta = read_key_values(meta_path)
    found = meta.pop("format", "(none)")
    if found != _RUN_FORMAT:
        raise DataFormatError(f"{meta_path}: format={found}, expected {_RUN_FORMAT}")
    digest = meta.pop("config_digest", None)
    try:
        cfg = config_from_items(meta)
    except ConfigError as exc:
        raise DataFormatError(f"{meta_path}: {exc}") from None
    if config_digest(cfg) != digest:
        raise DataFormatError(f"{meta_path}: configuration does not match its config_digest")
    paths = [os.path.join(os.path.dirname(meta_path), name) for name in _trace_names(cfg)]
    traces = read_trace_ensemble(paths)
    # The run's grid: the simulation's sample count, every dt from t = 0.
    dt = cfg.synth.sample_interval_s
    n = grid_sample_count(cfg.protocol.trace_length_s, dt)
    t = traces.times_s
    step = float(t[-1] - t[0]) / (len(t) - 1)
    tol = _GRID_TOLERANCE * dt
    if len(t) != n or abs(t[0]) > tol or abs(step - dt) > tol:
        raise DataFormatError(
            f"{meta_path}: {paths[0]} has {len(t)} samples every {_fmt(step)} s "
            f"from {_fmt(t[0])} s, not the run's {n} every {_fmt(dt)} s from 0.0 s"
        )
    return cfg, traces
