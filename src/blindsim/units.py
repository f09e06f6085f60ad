"""Time base helpers and the declared ranges of numeric config leaves.

Every event timestamp inside the simulator is an integer number of
picoseconds.  Nanosecond-scale pulses and response windows then compare
exactly, sums never accumulate rounding error, and serialized results are
byte-stable.  Public interfaces speak SI seconds, and each function that
takes a time converts it with ``to_ps`` where it starts: a flag-pulse
trial makes about 16 such calls across its layers, each giving the same
picoseconds for the same seconds.

A numeric config leaf declares its legal values by annotating it with
one of the ``Annotated`` kinds below; ``errors.require_finite`` checks.
"""

from __future__ import annotations

import math
from typing import Annotated, NamedTuple

PS_PER_SECOND = 10**12
# Longest duration a config may hold: its picosecond count fits an int64
# (2**63 - 1 ps is about 9.22e6 s).  Config rates are bounded by one event
# per picosecond, so rate x duration stays below numpy's Poisson limit
# (about 9.22e18).
MAX_SECONDS = 9.2e6
# Most trials in one run: every trial's result is held until the run ends.
MAX_TRIALS = 10**6
# Most stimuli a config may expect in one trial: the generators and the
# detector hold every one of them in memory at once.
MAX_STIMULI = 10**7


def to_ps(seconds: float) -> int:
    """Convert seconds to integer picoseconds (round to nearest)."""
    return int(round(seconds * PS_PER_SECOND))


def to_seconds(ps: int) -> float:
    """Convert integer picoseconds back to seconds."""
    return ps / PS_PER_SECOND


class Range(NamedTuple):
    """Legal values of a numeric leaf, ``least`` to ``most``, and why others fail.

    ``tiny``, if set, is the message for a positive value below ``least``.
    """

    least: float
    most: float
    message: str
    tiny: str | None = None


Probability = Annotated[float, Range(0, 1, "must lie in [0, 1]")]
Fraction = Annotated[float, Range(0, math.nextafter(1, 0), "must lie in [0, 1)")]
Rate = Annotated[float, Range(0, PS_PER_SECOND, f"must lie in [0, {PS_PER_SECOND:g}] per s")]
Duration = Annotated[float, Range(0, MAX_SECONDS, f"must lie in [0, {MAX_SECONDS:g}] s")]
# at least 1 ps, so that it never rounds to 0 ps
PositiveDuration = Annotated[
    float, Range(1e-12, MAX_SECONDS, f"must lie in (0, {MAX_SECONDS:g}] s", "must be at least 1 ps")
]
Positive = Annotated[float, Range(math.nextafter(0, 1), math.inf, "must be > 0")]
NonNegative = Annotated[float, Range(0, math.inf, "must be >= 0")]
Count = Annotated[int, Range(0, math.inf, "must be >= 0")]
PositiveCount = Annotated[int, Range(1, math.inf, "must be >= 1")]
TrialCount = Annotated[int, Range(1, MAX_TRIALS, f"must lie in [1, {MAX_TRIALS}]")]
