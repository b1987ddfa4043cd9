"""Exception types shared across the package, and the one range checker.

The CLI maps each class to a fixed exit code, so library code should
raise the most specific one that applies.  A dataclass field declares
its range with `bounded`, which `check_bounds` applies.
"""

import dataclasses
import operator

_COMPARE = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


class CavityCoolError(Exception):
    """Base class for all package errors."""


class ConfigError(CavityCoolError):
    """Bad configuration: unknown key, missing section, out-of-range value."""


class DataFormatError(CavityCoolError):
    """A data file (trace CSV, sidecar) does not match the documented format."""


class DomainError(CavityCoolError, ValueError):
    """A violated precondition; one about a dataclass field reads `<field> <reason>`."""

    def __init__(self, reason: str, field: "str | None" = None) -> None:
        super().__init__(f"{field} {reason}" if field else reason)
        self.field, self.reason = field, reason


class AnalysisError(CavityCoolError):
    """An estimator failed to converge or was handed unusable data."""


def bounded(*bounds: str, **kwargs):
    """A dataclass field held to each of `bounds`, such as "> 0" (integer limits)."""
    return dataclasses.field(metadata={"bounds": bounds}, **kwargs)


def check_bounds(obj) -> None:
    """Refuse, naming the field, the bound and the value, a field of `obj` out of bounds."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        for bound in f.metadata.get("bounds", ()):
            op, limit = bound.split()
            if not _COMPARE[op](value, int(limit)):
                raise DomainError(f"must be {bound}, got {value!r}", field=f.name)
