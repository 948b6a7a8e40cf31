"""Exception types shared across the package, the one int check of its
arguments, and the refusers its frozen value types assign to their
``__setattr__`` and ``__delattr__``."""

from __future__ import annotations

from dataclasses import FrozenInstanceError


def check_int(value: object, name: str) -> None:
    """Raise ValueError, calling ``value`` ``name``, unless it is an int and not a bool (an int subclass)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, not {value!r}")


def frozen_setattr(self: object, name: str, value: object) -> None:
    """A frozen value's ``__setattr__`` that refuses as a frozen dataclass's does."""
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def frozen_delattr(self: object, name: str) -> None:
    """A frozen value's ``__delattr__`` that refuses as a frozen dataclass's does."""
    raise FrozenInstanceError(f"cannot delete field {name!r}")


class StreamccError(Exception):
    """Base class for all errors raised by this package."""


class FiringNotEnabled(StreamccError):
    """A transition was fired in a marking where it is not enabled."""

    def __init__(self, transition: str, marking: object) -> None:
        super().__init__(f"transition {transition!r} is not enabled in marking {marking}")
        self.transition = transition
        self.marking = marking


class ValidationError(StreamccError):
    """A model violates a structural constraint (dangling arc, bad marking, ...)."""


class ParseError(StreamccError):
    """An input document (PNML, CSV, XES) could not be parsed."""


class TimestampError(ParseError):
    """A timestamp field could not be interpreted."""


class SearchBudgetExceeded(StreamccError):
    """The shortest-path search exhausted its node-expansion budget."""

    def __init__(self, budget: int, case_id: str | None = None) -> None:
        suffix = f" while processing case {case_id!r}" if case_id else ""
        super().__init__(f"search budget of {budget} expansions exhausted{suffix}")
        self.budget = budget
        self.case_id = case_id


class BoundBelowOptimum(StreamccError):
    """A bounded search found no alignment within its upper bound."""

    def __init__(self, bound: float) -> None:
        super().__init__(f"no alignment costs at most the search's upper bound {bound!r}")
        self.bound = bound


class EmptyWindow(StreamccError):
    """A metric was requested over an empty comparison window."""
