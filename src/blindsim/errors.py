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


def require_finite(obj, *names: str, optional: tuple[str, ...] = ()) -> None:
    """Reject attributes of ``obj`` that are not finite numbers.

    Attributes listed in ``optional`` may also be None.
    """
    for name in names + optional:
        value = getattr(obj, name)
        if value is None and name in optional:
            continue
        try:
            # ints are finite, and math.isfinite overflows on huge ones
            ok = type(value) is int or math.isfinite(value)
        except TypeError:
            ok = False
        if not ok:
            raise ValidationError(name, f"must be a finite number, got {value!r}")


class ConfigError(BlindsimError, ValueError):
    """A run or test-plan configuration is inconsistent."""
