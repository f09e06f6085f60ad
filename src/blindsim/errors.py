"""Exception types and the field-kind check shared across the package."""

from __future__ import annotations

import math
from dataclasses import fields
from enum import Enum
from functools import cache
from typing import Any, get_args, get_type_hints


class BlindsimError(Exception):
    """Base class for all package errors."""


class ValidationError(BlindsimError, ValueError):
    """A parameter, timeline, or result fails its invariants.

    ``field`` names the offending quantity so callers (and the CLI) can
    report it without parsing the message.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


def field_kind(annotation) -> tuple[Any, bool]:
    """The type a field annotated ``annotation`` holds, and whether it may be None."""
    args = [a for a in get_args(annotation) if a is not type(None)]
    optional = len(args) < len(get_args(annotation))
    return (args[0] if optional and len(args) == 1 else annotation), optional


@cache
def _checked_fields(cls) -> tuple[tuple[str, type, bool], ...]:
    """(name, kind, may be None) of each int, float, bool or Enum field of a dataclass."""
    hints = get_type_hints(cls)
    out = []
    for f in fields(cls):
        kind, optional = field_kind(hints[f.name])
        if kind in (int, float, bool) or (isinstance(kind, type) and issubclass(kind, Enum)):
            out.append((f.name, kind, optional))
    return tuple(out)


_EXPECTED = {
    int: "an integer",
    float: "a finite number a float holds exactly",
    bool: "true or false",
}


def require_finite(obj) -> None:
    """Reject fields of a dataclass instance that do not hold their annotated kind.

    The type hints decide: an ``int`` field takes only ints, a ``float``
    field takes finite numbers and the ints a float holds exactly, a
    ``bool`` field takes only ``True`` or ``False``, an Enum field takes
    only a member of its Enum, and a ``| None`` field may also be None.
    A bool is not a number here, and nothing is coerced.
    """
    for name, kind, optional in _checked_fields(type(obj)):
        value = getattr(obj, name)
        if value is None and optional:
            continue
        try:
            if kind in (int, bool):
                ok = type(value) is kind
            elif kind is not float:  # an Enum
                ok = isinstance(value, kind)
            elif type(value) is int:
                ok = float(value) == value  # float() overflows on huge ints
            else:
                ok = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):
            ok = False
        if not ok:
            expected = _EXPECTED.get(kind) or f"a member of {kind.__name__}"
            raise ValidationError(name, f"must be {expected}, got {value!r}")


class ConfigError(BlindsimError, ValueError):
    """A run or test-plan configuration is inconsistent."""
