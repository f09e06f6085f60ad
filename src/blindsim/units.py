"""Time base helpers.

Every event timestamp inside the simulator is an integer number of
picoseconds.  Nanosecond-scale pulses and response windows then compare
exactly, sums never accumulate rounding error, and serialized results are
byte-stable.  Public interfaces speak SI seconds; conversion happens once
at the boundary.
"""

from __future__ import annotations

PS_PER_SECOND = 10**12
# Longest duration a config may hold: its picosecond count fits an int64
# (2**63 - 1 ps is about 9.22e6 s).  Config rates are bounded by one event
# per picosecond, so rate x duration stays below numpy's Poisson limit
# (about 9.22e18).
MAX_SECONDS = 9.2e6


def to_ps(seconds: float) -> int:
    """Convert seconds to integer picoseconds (round to nearest)."""
    return int(round(seconds * PS_PER_SECOND))


def to_seconds(ps: int) -> float:
    """Convert integer picoseconds back to seconds."""
    return ps / PS_PER_SECOND
