"""Exception types and the finite-number check shared across the package."""

from __future__ import annotations

import math


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


def require_finite(
    obj, *names: str, optional: tuple[str, ...] = (), integers: tuple[str, ...] = ()
) -> None:
    """Reject attributes of ``obj`` that are not finite numbers.

    Attributes listed in ``optional`` may also be None; those listed in
    ``integers`` must be ints.  Nothing is coerced.
    """
    for name in names + optional:
        value = getattr(obj, name)
        if value is None and name in optional:
            continue
        try:
            # ints are finite, and math.isfinite overflows on huge ones;
            # a bool is not a number here
            ok = type(value) is int or (
                name not in integers
                and not isinstance(value, bool)
                and math.isfinite(value)
            )
        except TypeError:
            ok = False
        if not ok:
            kind = "an integer" if name in integers else "a finite number"
            raise ValidationError(name, f"must be {kind}, got {value!r}")


class ConfigError(BlindsimError, ValueError):
    """A run or test-plan configuration is inconsistent."""
