"""Exception types shared across the package, the one range checker, and
the one record base.

The CLI maps each exception class to a fixed exit code, so library code
should raise the most specific one that applies.

Every record of the package (a configuration, a bath, a schedule, a
trace ensemble, a result) subclasses `Record`: a frozen class whose
fields are its own annotated names, in order.  A field declares its
range with `bounded`, which `check_bounds` applies; `replace` rebuilds a
record through its constructor, so every bound and cross-field rule runs
again.  The annotations are read as text and never evaluated, and no
source is compiled, so a fresh process that defines the records loads
neither `dataclasses` nor `inspect`.
"""

import operator
from typing import NamedTuple

_COMPARE = {">": operator.gt, ">=": operator.ge, "<=": operator.le}

# The default of a field without one.
MISSING = object()


class CavityCoolError(Exception):
    """Base class for all package errors."""


class ConfigError(CavityCoolError):
    """Bad configuration: unknown key, missing section, out-of-range value."""


class DataFormatError(CavityCoolError):
    """A data file (trace CSV, sidecar) does not match the documented format."""


class DomainError(CavityCoolError, ValueError):
    """A violated precondition; one about a record field reads `<field> <reason>`."""

    def __init__(self, reason: str, field: "str | None" = None) -> None:
        super().__init__(f"{field} {reason}" if field else reason)
        self.field, self.reason = field, reason


class AnalysisError(CavityCoolError):
    """An estimator failed to converge or was handed unusable data."""


class Field(NamedTuple):
    """One field of a record: its name, its annotation as written, its
    default (`MISSING` when the field has none) and its bounds."""

    name: str
    type: str
    default: object
    bounds: tuple


def bounded(*bounds: str, default=MISSING) -> Field:
    """A record field held to each of `bounds`, such as "> 0" (integer limits)."""
    return Field("", "", default, bounds)


class Record:
    """Base of the package's frozen records.

    A subclass's fields are its annotated names in declaration order, each
    with the default its class body gives, plain or through `bounded`.
    The constructor takes them positionally, then by keyword, fills in
    the defaults and runs `__post_init__`; a missing, unknown or repeated
    argument raises TypeError naming it.  Fields cannot be assigned or
    deleted afterwards (`__post_init__` normalises through
    `object.__setattr__`).  Records are equal, hash and print by their
    fields in order.
    """

    _fields = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = {}
        for name, kind in cls.__annotations__.items():
            value = vars(cls).get(name, MISSING)
            declared = value if isinstance(value, Field) else bounded(default=value)
            fields[name] = declared._replace(name=name, type=kind)
            if declared.default is MISSING:
                if name in vars(cls):
                    delattr(cls, name)
            else:
                setattr(cls, name, declared.default)
        cls._fields = fields

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(
                f"{cls.__qualname__}() takes {len(cls._fields)} arguments, got {len(args)}"
            )
        values = dict(zip(cls._fields, args))
        for name, value in kwargs.items():
            if name not in cls._fields:
                raise TypeError(f"{cls.__qualname__}() got an unexpected argument {name!r}")
            if name in values:
                raise TypeError(f"{cls.__qualname__}() got multiple values for argument {name!r}")
            values[name] = value
        state = vars(self)
        for name, field in cls._fields.items():
            value = values.get(name, field.default)
            if value is MISSING:
                raise TypeError(f"{cls.__qualname__}() missing argument {name!r}")
            state[name] = value
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check and normalise the fields; a record without rules has none."""

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        items = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({items})"


def fields(record) -> tuple:
    """The `Field`s of a record or record class, in declaration order."""
    return tuple(record._fields.values())


def replace(record, **changes):
    """A copy of `record` with `changes`, rebuilt through its constructor."""
    return type(record)(**{**{name: getattr(record, name) for name in record._fields}, **changes})


def check_bounds(record) -> None:
    """Refuse, naming the field, the bound and the value, a field of `record` out of bounds."""
    for field in record._fields.values():
        value = getattr(record, field.name)
        for bound in field.bounds:
            op, limit = bound.split()
            if not _COMPARE[op](value, int(limit)):
                raise DomainError(f"must be {bound}, got {value!r}", field=field.name)
