"""On-disk formats: run directories, trace CSV, trajectory CSV, tables,
key=value sidecars.

Trace CSV: header `time_s,voltage_v`, one sample per line, LF endings,
floats in shortest round-trip (repr) form.  Sidecars are plain
`key=value` lines.  Writers are deterministic: identical inputs produce
byte-identical files.

A run directory (`write_run`, `read_run`) holds `trajectory.csv`, the
trace files `trace_000.csv`, `trace_001.csv`, ... of its `synth.n_shots`
shots and the `run.meta` sidecar: the `format` and `config_digest` lines,
then the run's `config_items`.  The sidecar holds nothing else; the file
names follow from the configuration.

A run writes and reads one trace file per shot, all on one time grid, so
both directions handle the time column once per grid: `write_trace_csv`
formats it once, and `read_trace_csv` parses it once.  Each
keeps it in a one-entry cache whose key is exact (the grid's float64
bytes, or the column's text), so a cache never returns another grid.

`read_trace_csv` first tries a whole-file fast path.  It takes only a
file with the exact header line, ASCII text, LF endings, no `"` and no
carriage return, exactly one comma on every line and a final newline,
and parses every field with `float()`; any other file, or a field that
`float()` refuses, goes to the validating line reader, which names the
row.  Both check the parsed samples with `_checked_trace`, so both
return the same array or raise the same error.
"""

from __future__ import annotations

import csv
import functools
import io
import os
from typing import Iterable, Sequence

import numpy as np

from .config import RunConfig, config_digest, config_from_items, config_items, grid_sample_count
from .errors import ConfigError, DataFormatError
from .synth import NoiseTrace

TRACE_HEADER = ("time_s", "voltage_v")
TRAJECTORY_HEADER = ("time_s", "temperature_k")

# Allowed relative wobble of the sample spacing inside a trace file.
_GRID_TOLERANCE = 1e-6

_TRACE_HEADER_LINE = ",".join(TRACE_HEADER) + "\n"

_RUN_FORMAT = "cavitycool-run/3"
TRAJECTORY_FILE = "trajectory.csv"


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence[float]]) -> None:
    """Write `header` and `rows` of Python floats, each in repr form."""
    lines = [",".join(header), *(",".join(map(repr, row)) for row in rows), ""]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines))


@functools.lru_cache(maxsize=1)
def _time_fields(grid_bytes: bytes) -> tuple[str, ...]:
    """The `"t,"` start of each line for the float64 grid `grid_bytes`."""
    return tuple(f"{t!r}," for t in np.frombuffer(grid_bytes).tolist())


def write_trace_csv(path: str, times_s: np.ndarray, voltages_v: np.ndarray) -> None:
    """Write one shot: its samples `voltages_v` on the grid `times_s`."""
    starts = _time_fields(np.asarray(times_s, dtype=float).tobytes())
    volts = np.asarray(voltages_v, dtype=float).tolist()
    text = "".join(f"{t}{v!r}\n" for t, v in zip(starts, volts, strict=True))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_TRACE_HEADER_LINE + text)


def _read_text(path: str, newline: str | None) -> io.StringIO:
    """The UTF-8 text of `path`, split into lines as `open` splits them
    with `newline`; DataFormatError names the line of the first byte
    that is not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return io.StringIO(data.decode("utf-8"), newline=newline)
    except UnicodeDecodeError as exc:
        # The bad byte is neither CR nor LF, so it ends the last line here.
        line = len(data[: exc.start + 1].splitlines())
        raise DataFormatError(
            f"{path}: line {line}: byte 0x{data[exc.start]:02x} is not UTF-8 text"
        ) from None


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
    layout the module docstring gives and every field parses; None sends
    the file to `_read_trace_lines`."""
    head = len(_TRACE_HEADER_LINE)
    if (
        not data.startswith(_TRACE_HEADER_LINE.encode())
        or not data.endswith(b"\n")
        or not data.isascii()
        or b"\r" in data
        or b'"' in data
    ):
        return None
    body = np.frombuffer(data, dtype=np.uint8)[head:]
    commas = np.flatnonzero(body == ord(","))
    newlines = np.flatnonzero(body == ord("\n"))
    # At least 1 line; commas and newlines alternate, starting with a
    # comma, so every line has exactly one comma and none is blank; and
    # no line is longer than the csv module's field limit.
    if (
        len(newlines) < 1
        or len(commas) != len(newlines)
        or np.any(commas > newlines)
        or np.any(commas[1:] < newlines[:-1])
        or np.max(np.diff(newlines, prepend=-1)) > csv.field_size_limit()
    ):
        return None
    fields = data[head:-1].decode("ascii").replace("\n", ",").split(",")
    times = _time_column(tuple(fields[0::2]))
    if times is None:
        return None
    try:
        volts = np.array([float(v) for v in fields[1::2]])
    except ValueError:
        return None
    # No line is blank, so sample i sits on line i + 2.
    return _checked_trace(path, times, volts, range(2, len(volts) + 2))


@functools.lru_cache(maxsize=1)
def _time_column(fields: tuple[str, ...]) -> np.ndarray | None:
    """The read-only array that the time column `fields` spells, or None
    when `float()` refuses a field."""
    try:
        t = np.array([float(f) for f in fields])
    except ValueError:
        return None
    t.flags.writeable = False
    return t


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
    columns = (trajectory.times_s, trajectory.temperature_k)
    _write_csv(path, TRAJECTORY_HEADER, np.array(columns, dtype=float).T.tolist())


def write_table_csv(
    path: str, header: Sequence[str], rows: Iterable[Sequence[float]]
) -> None:
    _write_csv(path, header, np.asarray(list(rows), dtype=float).tolist())


def write_key_values(path: str, items: Iterable[tuple[str, str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key, value in items:
            fh.write(f"{key}={value}\n")


def read_key_values(path: str) -> dict[str, str]:
    """Read a key=value sidecar; '#' lines and blanks are skipped, and a
    key may appear once."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(_read_text(path, newline=None), start=1):
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
