"""Exception types and the value check shared across the package."""

from __future__ import annotations

import math
from dataclasses import fields, is_dataclass
from enum import EnumMeta
from functools import cache
from typing import Annotated, Any, get_args, get_origin, get_type_hints


class BlindsimError(Exception):
    """Base class for all package errors."""


class ValidationError(BlindsimError, ValueError):
    """A parameter, timeline, or result fails its invariants.

    ``field`` names the offending quantity so callers (and the CLI) can
    report it without parsing the message.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")

    def __reduce__(self):
        # pickled by its constructor arguments, so it crosses process boundaries
        return type(self), (self.field, self.message)


@cache
def checked_fields(cls) -> tuple[tuple[str, Any, bool, Any], ...]:
    """(name, kind, may be None, annotation) of each checked field of ``cls``.

    A field is checked if it holds an int, float, bool, Enum or dataclass.
    The config leaves are read from this table too.
    """
    hints = get_type_hints(cls, include_extras=True)
    out = []
    for f in fields(cls):
        hint = hints[f.name]
        args = [a for a in get_args(hint) if a is not type(None)]
        optional = len(args) < len(get_args(hint))
        hint = args[0] if optional and len(args) == 1 else hint
        kind = get_args(hint)[0] if get_origin(hint) is Annotated else hint
        if kind in (int, float, bool) or is_dataclass(kind) or isinstance(kind, EnumMeta):
            out.append((f.name, kind, optional, hint))
    return tuple(out)


_EXPECTED = {
    int: "an integer",
    float: "a finite number a float holds exactly",
    bool: "true or false",
}


def require(name: str, value: Any, kind: Any) -> None:
    """Reject ``value``, naming ``name``, unless it holds ``kind``.

    ``kind`` is a ``units`` kind, int, float, bool, an Enum or a
    dataclass.  An int takes only ints, a float takes finite numbers and
    the ints a float holds exactly, a bool takes only ``True`` or
    ``False``, and an Enum or dataclass takes only a member of its class.
    A bool is not a number here, and nothing is coerced.  A number must
    also lie in the ``units.Range`` that a ``units`` kind declares.
    """
    bounds = getattr(kind, "__metadata__", None)  # only a units kind has one
    if bounds is not None:
        kind, bounds = kind.__origin__, bounds[0]
        if type(value) is kind and bounds.least <= value <= bounds.most:
            return  # the common case, decided at once
    try:
        if kind in (int, bool):
            ok = type(value) is kind
        elif kind is not float:  # an Enum or a dataclass
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
    if bounds and not bounds.least <= value <= bounds.most:
        tiny = bounds.tiny and 0 < value < bounds.least
        raise ValidationError(name, bounds.tiny if tiny else bounds.message)


def require_finite(obj) -> None:
    """``require`` each checked field of a dataclass instance to hold its annotated kind.

    A ``| None`` field may also be None.
    """
    for name, _, optional, hint in checked_fields(type(obj)):
        value = getattr(obj, name)
        if value is not None or not optional:
            require(name, value, hint)


class ConfigError(BlindsimError, ValueError):
    """A run or test-plan configuration is inconsistent."""
