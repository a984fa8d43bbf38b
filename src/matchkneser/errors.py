"""Exception types and the search-time budget shared by all exact solvers."""

from __future__ import annotations

import math
import time
from typing import Any, NoReturn

# Seconds an exact solve may take when the caller names no budget.
DEFAULT_TIME_BUDGET = 60.0


class GraphConstructionError(ValueError):
    """Invalid graph input: loop edge, out-of-range vertex, malformed file."""


class ParameterError(ValueError):
    """Operation called outside its stated domain (the message names the violated condition)."""


class KneserSizeError(RuntimeError):
    """A matching Kneser graph would exceed its configured vertex cap or row budget."""


class SearchTimeout(RuntimeError):
    """An exact search exceeded its time budget; the answer is unknown, not 'no'."""


class VerificationError(RuntimeError):
    """An internal cross-check failed; indicates an implementation bug, not input error."""


class Record:
    """Base of the package's value records: fields, construction, equality, hash, repr.

    A subclass lists its fields as class annotations, in order; a class
    attribute of the same name is that field's default. Instances are built
    positionally or by keyword, compare equal only to an instance of the same
    class with equal fields, hash as their field tuple and repr as
    ``Name(field=value, ...)``, as a frozen dataclass would, but no method is
    generated, so defining a record costs no ``exec``. A frozen record refuses
    assignment and deletion with ``dataclasses.FrozenInstanceError``;
    ``frozen=False`` in the class statement makes a mutable, unhashable one.
    Attributes outside the fields, such as a ``cached_property``, stay out
    of equality, hash and repr.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, Any] = {}

    def __init_subclass__(cls, frozen: bool = True, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        if not frozen:
            cls.__setattr__ = object.__setattr__  # type: ignore[method-assign]
            cls.__delattr__ = object.__delattr__  # type: ignore[method-assign]
            cls.__hash__ = None  # type: ignore[assignment]

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        name, fields = type(self).__qualname__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        positional = dict(zip(fields, args))
        for key in kwargs:
            if key not in fields or key in positional:
                raise TypeError(f"{name}() got an unexpected or repeated argument {key!r}")
        values = {**self._defaults, **positional, **kwargs}
        missing = [field for field in fields if field not in values]
        if missing:
            raise TypeError(f"{name}() missing arguments {missing}")
        self.__dict__.update((field, values[field]) for field in fields)

    def _values(self) -> tuple[Any, ...]:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{field}={value!r}" for field, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        refuse_write("assign to", name)

    def __delattr__(self, name: str) -> None:
        refuse_write("delete", name)


def refuse_write(action: str, name: str) -> NoReturn:
    """Raise ``dataclasses.FrozenInstanceError`` for a write to an immutable object.

    The import is here, on the error path, so that importing the package
    does not load ``dataclasses`` and the ``inspect`` machinery behind it.
    """

    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot {action} field {name!r}")


class Deadline(Record, frozen=False):
    """Wall-clock budget for a solve. ``seconds=None`` means unlimited.

    A NaN budget is refused with :class:`ParameterError`: no elapsed time
    compares greater than NaN, so it would never expire.
    """

    seconds: float | None
    started: float

    def __init__(self, seconds: float | None, started: float | None = None) -> None:
        if seconds is not None and math.isnan(seconds):
            raise ParameterError("time budget must be a number of seconds or None, not NaN")
        self.seconds = seconds
        self.started = time.monotonic() if started is None else started

    def expired(self) -> bool:
        return self.seconds is not None and time.monotonic() - self.started > self.seconds

    def check(self, what: str = "search") -> None:
        if self.expired():
            raise SearchTimeout(f"{what} exceeded time budget of {self.seconds} s")


def ensure_deadline(deadline: Deadline | None, default_seconds: float | None) -> Deadline:
    """Return ``deadline`` unchanged, or a fresh one with the given default budget."""

    return deadline if deadline is not None else Deadline(default_seconds)
