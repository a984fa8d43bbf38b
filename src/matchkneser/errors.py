"""Exception types and the search-time budget shared by all exact solvers."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field


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


@dataclass
class Deadline:
    """Wall-clock budget for a solve. ``seconds=None`` means unlimited.

    A NaN budget is refused with :class:`ParameterError`: no elapsed time
    compares greater than NaN, so it would never expire.
    """

    seconds: float | None
    started: float = field(default_factory=time.monotonic)

    def __post_init__(self) -> None:
        if self.seconds is not None and math.isnan(self.seconds):
            raise ParameterError("time budget must be a number of seconds or None, not NaN")

    def expired(self) -> bool:
        return self.seconds is not None and time.monotonic() - self.started > self.seconds

    def check(self, what: str = "search") -> None:
        if self.expired():
            raise SearchTimeout(f"{what} exceeded time budget of {self.seconds} s")


def ensure_deadline(deadline: Deadline | None, default_seconds: float | None) -> Deadline:
    """Return ``deadline`` unchanged, or a fresh one with the given default budget."""

    return deadline if deadline is not None else Deadline(default_seconds)
