"""Plain-text files that need no numpy: float tables and key=value sidecars.

A table CSV has a header line and one line per row, every value a
Python float in shortest round-trip (repr) form, with LF endings.  A
sidecar holds plain `key=value` lines.  Writers are deterministic:
identical inputs produce byte-identical files.  `sweep` writes its
table from here, so it loads no numpy; `tracefile` builds the run
directory's formats on these functions.
"""

from __future__ import annotations

import io
from typing import Iterable, Sequence

from .errors import DataFormatError


def write_table_csv(
    path: str, header: Sequence[str], rows: Iterable[Sequence[float]]
) -> None:
    """Write `header` and `rows`, each value as the repr of its `float()`."""
    body = (",".join([repr(float(value)) for value in row]) for row in rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join([",".join(header), *body, ""]))


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
