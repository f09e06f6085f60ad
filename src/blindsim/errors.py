"""Exception types and the field check shared across the package."""

from __future__ import annotations

import math
import sys
from dataclasses import fields, is_dataclass
from enum import EnumMeta
from functools import cache
from typing import Annotated, Any, get_args, get_origin, get_type_hints

from .units import Range


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
def checked_fields(cls) -> tuple[tuple[str, Any, bool, Range | None, Any, Any], ...]:
    """(name, kind, may be None, range, least, most) of each checked field of ``cls``.

    A field is checked if it holds an int, float, bool, Enum or dataclass.
    A number of its own type from ``least`` to ``most``, the declared
    range narrowed to finite floats, passes at once.  The config leaves
    are read from this table too.
    """
    hints = get_type_hints(cls, include_extras=True)
    out = []
    for f in fields(cls):
        hint = hints[f.name]
        args = [a for a in get_args(hint) if a is not type(None)]
        optional = len(args) < len(get_args(hint))
        kind = args[0] if optional and len(args) == 1 else hint
        bounds = None
        if get_origin(kind) is Annotated:
            kind, bounds = get_args(kind)
        if kind in (int, float, bool) or is_dataclass(kind) or isinstance(kind, EnumMeta):
            least, most = (bounds.least, bounds.most) if bounds else (-math.inf, math.inf)
            if kind is float:
                least, most = max(least, -sys.float_info.max), min(most, sys.float_info.max)
            numeric = kind in (int, float)
            out.append((f.name, kind, optional, bounds, least if numeric else None, most))
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
    ``bool`` field takes only ``True`` or ``False``, an Enum or dataclass
    field takes only a member of its class, and a ``| None`` field may
    also be None.
    A bool is not a number here, and nothing is coerced.  A number must
    also lie in the ``units.Range`` its annotation declares, if any.
    """
    for name, kind, optional, bounds, least, most in checked_fields(type(obj)):
        value = getattr(obj, name)
        if least is not None and type(value) is kind and least <= value <= most:
            continue  # the common case, decided at once
        if value is None and optional:
            continue
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
        if bounds and not least <= value <= most:
            tiny = bounds.tiny and 0 < value < least
            raise ValidationError(name, bounds.tiny if tiny else bounds.message)


class ConfigError(BlindsimError, ValueError):
    """A run or test-plan configuration is inconsistent."""
