"""Optical stimulus timelines seen by the detector.

A timeline collects three kinds of stimuli over a fixed horizon:
discrete photon arrivals (legitimate signal or receiver-injected salt
light, held as parallel arrays of times and source codes),
piecewise-constant CW power contributions (attacker blinding light or
the receiver's local blinding emitter), and bright pulses (attacker fake
states or receiver flag pulses).  CW contributions
superpose: the detector reacts to the sum of all active segments.

Generators are pure functions of their random stream, so trials can run
in parallel with per-trial streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ValidationError, require, require_finite
from .selftest import SelfTestPlan, Strategy
from .units import Count, Duration, NonNegative, PositiveDuration, Rate
from .units import to_ps, to_seconds


class PhotonSource(str, Enum):
    SIGNAL = "SIGNAL"
    SALT = "SALT"


class CwSource(str, Enum):
    ATTACK_BLIND = "ATTACK_BLIND"
    LE_BLIND = "LE_BLIND"


class PulseSource(str, Enum):
    FAKE = "FAKE"
    FLAG = "FLAG"


# Code of each photon source in ``OpticalTimeline.photon_sources``.  Codes
# follow enum value order (SALT < SIGNAL), so coincident photons sort as
# (time, source) tuples would.
PHOTON_SOURCES = (PhotonSource.SALT, PhotonSource.SIGNAL)
PHOTON_CODE = {source: code for code, source in enumerate(PHOTON_SOURCES)}


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


_NO_TIMES = _frozen(np.empty(0, dtype=np.int64))
_NO_CODES = _frozen(np.empty(0, dtype=np.uint8))


class CwSegment(NamedTuple):
    start_ps: int
    stop_ps: int  # exclusive
    power: float  # watts
    source: CwSource


class BrightPulse(NamedTuple):
    time_ps: int
    width_ps: int
    peak_power: float  # watts
    source: PulseSource
    # Photon content controls the click probability of a sub-threshold
    # pulse on an armed detector: 1 - (1 - efficiency)**photon_number.
    # None means "macroscopic": an armed detector always clicks.
    photon_number: int | None = None

    @property
    def energy(self) -> float:
        """Pulse energy in joules (peak power times width)."""
        return self.peak_power * to_seconds(self.width_ps)


@dataclass(frozen=True, eq=False)
class OpticalTimeline:
    """Stimuli over [0, duration_ps).

    ``photons`` holds the photon arrival times in picoseconds, sorted, as
    a 1-D int64 array; ``photon_sources`` holds the ``PHOTON_SOURCES``
    code of each photon as a uint8 array of the same length.  The
    generators return read-only arrays.
    """

    duration_ps: int
    photons: np.ndarray = field(default_factory=lambda: _NO_TIMES)
    photon_sources: np.ndarray = field(default_factory=lambda: _NO_CODES)
    cw_segments: tuple[CwSegment, ...] = ()
    pulses: tuple[BrightPulse, ...] = ()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OpticalTimeline):
            return NotImplemented
        return (
            self.duration_ps == other.duration_ps
            and np.array_equal(self.photons, other.photons)
            and np.array_equal(self.photon_sources, other.photon_sources)
            and self.cw_segments == other.cw_segments
            and self.pulses == other.pulses
        )

    def validate(self) -> None:
        dur = self.duration_ps
        require("duration", dur, Count)
        times, codes = self.photons, self.photon_sources
        if not (isinstance(times, np.ndarray) and times.dtype == np.int64 and times.ndim == 1):
            raise ValidationError("photons", "must be a 1-D int64 array")
        if not (
            isinstance(codes, np.ndarray) and codes.dtype == np.uint8
            and codes.shape == times.shape
        ):
            raise ValidationError("photon_sources", "must be a uint8 array as long as photons")
        if times.size:
            if (times[1:] < times[:-1]).any():
                raise ValidationError("photons", "timestamps out of order")
            # in order, so the ends hold the extremes
            if times[0] < 0:
                raise ValidationError("photons", "negative timestamp")
            if times[-1] >= dur:
                raise ValidationError("photons", "timestamp beyond duration")
            if codes.max() >= len(PHOTON_SOURCES):
                raise ValidationError("photon_sources", "code outside PhotonSource")
        for start, stop, power, _ in self.cw_segments:
            if type(start) is not int or type(stop) is not int:
                raise ValidationError("cw_segments", "start and stop must be int picoseconds")
            if start < 0:
                raise ValidationError("cw_segments", "negative timestamp")
            if stop <= start:
                raise ValidationError("cw_segments", "empty or inverted segment")
            if start >= dur or stop > dur:
                raise ValidationError("cw_segments", "segment beyond duration")
            if not 0 <= power < math.inf:  # also false for nan
                raise ValidationError("cw_segments", "power must be finite and >= 0")
        last = 0
        for t, width, peak, _, n in self.pulses:
            if type(t) is not int or type(width) is not int:
                raise ValidationError("pulses", "time and width must be int picoseconds")
            if t < 0:
                raise ValidationError("pulses", "negative timestamp")
            if t < last:
                raise ValidationError("pulses", "timestamps out of order")
            if t >= dur:
                raise ValidationError("pulses", "timestamp beyond duration")
            if width <= 0:
                raise ValidationError("pulses", "width must be > 0")
            if not 0 <= peak < math.inf:  # also false for nan
                raise ValidationError("pulses", "peak power must be finite and >= 0")
            if n is not None and (type(n) is not int or n < 1):
                raise ValidationError("pulses", "photon_number must be None or an int >= 1")
            last = t


@dataclass(frozen=True)
class AttackScenario:
    """Eavesdropper activity: CW blinding plus fake-state pulses.

    Fake states only make sense against a blinded detector, so they need
    blinding light and stop when it stops.
    """

    blind_power_level: NonNegative = 0.0  # watts; 0 means no attack
    fake_pulse_rate: Rate = 0.0  # mean pulses/second
    fake_peak_power: NonNegative = 3.0e-6  # watts
    fake_width: PositiveDuration = 2.0e-9  # seconds
    stop_blind_at: Duration | None = None  # attacker ceases at this time

    def __post_init__(self) -> None:
        require_finite(self)
        if self.fake_pulse_rate > 0 and self.blind_power_level == 0:
            raise ValidationError("fake_pulse_rate", "fake states need blinding light")


def _poisson_arrival_ps(
    rate: float, duration_ps: int, rng: np.random.Generator
) -> np.ndarray:
    """Homogeneous Poisson arrival times as sorted integer picoseconds.

    With no arrivals it returns the read-only ``_NO_TIMES`` (``random(0)``
    would draw nothing), otherwise a new writable array.
    """
    if rate == 0 or duration_ps <= 0:
        return _NO_TIMES
    n = rng.poisson(rate * to_seconds(duration_ps))
    if n == 0:
        return _NO_TIMES
    # the cast is monotone, so sorting after it gives the same times
    times = (rng.random(n) * duration_ps).astype(np.int64)
    times.sort()
    # u < 1 can still scale up to duration_ps by round-to-even; keep the
    # half-open horizon exact
    return np.minimum(times, duration_ps - 1, out=times)


def gen_signal_photons(
    rate: Rate, duration: Duration, rng: np.random.Generator
) -> OpticalTimeline:
    """Poissonian signal photon arrivals at the given rate over the horizon."""
    require("rate", rate, Rate)
    require("duration", duration, Duration)
    duration_ps = to_ps(duration)
    times = _frozen(_poisson_arrival_ps(rate, duration_ps, rng))
    codes = _frozen(np.full(times.size, PHOTON_CODE[PhotonSource.SIGNAL], dtype=np.uint8))
    return OpticalTimeline(duration_ps=duration_ps, photons=times, photon_sources=codes)


def gen_attack(
    scenario: AttackScenario, duration: Duration, rng: np.random.Generator
) -> OpticalTimeline:
    """Attacker timeline fragment: blinding segment plus fake pulses.

    Fake pulses are emitted while the attack is active, i.e. over
    [0, stop_blind_at) when the attacker ceases early.
    """
    require("duration", duration, Duration)
    duration_ps = to_ps(duration)
    stop_ps = duration_ps
    if scenario.stop_blind_at is not None:
        stop_ps = min(duration_ps, to_ps(scenario.stop_blind_at))
    segments: tuple[CwSegment, ...] = ()
    if scenario.blind_power_level > 0 and stop_ps > 0:
        segments = (
            CwSegment(0, stop_ps, scenario.blind_power_level, CwSource.ATTACK_BLIND),
        )
    pulses: tuple[BrightPulse, ...] = ()
    if scenario.fake_pulse_rate > 0:
        width_ps = to_ps(scenario.fake_width)
        peak, fake = scenario.fake_peak_power, PulseSource.FAKE
        # tuple.__new__ skips the NamedTuple's Python-level constructor
        pulses = tuple([
            tuple.__new__(BrightPulse, (t, width_ps, peak, fake, None))
            for t in _poisson_arrival_ps(scenario.fake_pulse_rate, stop_ps, rng).tolist()
        ])
    return OpticalTimeline(duration_ps=duration_ps, cw_segments=segments, pulses=pulses)


def flag_pulse(plan: SelfTestPlan, start_ps: int) -> BrightPulse:
    """The flag pulse that the plan's light emitter fires at ``start_ps``.

    SELF_BLIND fires a 1 ns onset marker (its CW segment carries the
    intensity), any other plan a pulse of width ``plan.test_duration``
    with ``plan.flag_photon_number`` photons.  Its ``energy``, peak power
    times width, can round 1 ulp above ``plan.flag_pulse_energy``.
    """
    if plan.strategy == Strategy.SELF_BLIND:
        width_ps, photon_number = 1000, None
    else:
        width_ps, photon_number = to_ps(plan.test_duration), plan.flag_photon_number
    peak = plan.flag_pulse_energy / to_seconds(width_ps)
    return BrightPulse(start_ps, width_ps, peak, PulseSource.FLAG, photon_number)


def gen_le_schedule(
    plan: SelfTestPlan,
    start_ps: Count,
    duration: Duration,
    rng: np.random.Generator,
) -> OpticalTimeline:
    """Light-emitter schedule of one self-test starting at ``start_ps``.

    SALT: salt photon arrivals at ``plan.salt_rate`` over the test
    interval.  FLAG_PULSE: the few-photon ``flag_pulse``.  SELF_BLIND: a
    CW blinding segment covering the test interval, whose onset fires
    ``flag_pulse`` as a deterministic flag.
    """
    require("start_ps", start_ps, Count)
    require("duration", duration, Duration)
    duration_ps = to_ps(duration)
    if start_ps >= duration_ps:
        raise ValidationError("start_ps", "must lie before the end of the duration")
    stop_ps = min(duration_ps, start_ps + to_ps(plan.test_duration))

    if plan.strategy == Strategy.SALT:
        times = _frozen(_poisson_arrival_ps(plan.salt_rate, stop_ps - start_ps, rng) + start_ps)
        codes = _frozen(np.full(times.size, PHOTON_CODE[PhotonSource.SALT], dtype=np.uint8))
        return OpticalTimeline(duration_ps=duration_ps, photons=times, photon_sources=codes)

    pulses = (flag_pulse(plan, start_ps),)
    if plan.strategy == Strategy.FLAG_PULSE:
        return OpticalTimeline(duration_ps=duration_ps, pulses=pulses)
    segment = CwSegment(start_ps, stop_ps, plan.self_blind_power, CwSource.LE_BLIND)
    return OpticalTimeline(duration_ps=duration_ps, cw_segments=(segment,), pulses=pulses)


def merge_timelines(*fragments: OpticalTimeline) -> OpticalTimeline:
    """Time-ordered union of fragments sharing one horizon.

    CW contributions stay separate tagged segments; the detector sums
    them.  The merge is order-insensitive: photons are re-sorted on
    (time, source code), pulses on their fields in order (with a None
    photon number first) and segments on their full tuples.  The photons
    of the only fragment that has any are passed through as they are, and
    so are the pulses of the only fragment that has any.  So each
    fragment's photons and pulses must already be in that order, as the
    generators make them.
    """
    if not fragments:
        raise ValidationError("fragments", "need at least one timeline")
    duration_ps = fragments[0].duration_ps
    for f in fragments[1:]:
        if f.duration_ps != duration_ps:
            raise ValidationError("fragments", "mismatched durations")
    lit = [f for f in fragments if len(f.photons)] or fragments[:1]  # with photons
    if len(lit) == 1:
        photons, sources = lit[0].photons, lit[0].photon_sources
    else:
        times = np.concatenate([f.photons for f in lit])
        codes = np.concatenate([f.photon_sources for f in lit])
        order = np.lexsort((codes, times))
        photons, sources = _frozen(times[order]), _frozen(codes[order])
    pulsed = [f.pulses for f in fragments if f.pulses]
    if len(pulsed) < 2:
        pulses = pulsed[0] if pulsed else ()
    else:
        # photon_number may be None; keep the key orderable.  A str Enum
        # source sorts as its value.
        pulses = tuple(sorted(
            [p for fp in pulsed for p in fp],
            key=lambda p: (p.time_ps, p.width_ps, p.peak_power, p.source,
                           -1 if p.photon_number is None else p.photon_number),
        ))
    segments = tuple(sorted([s for f in fragments for s in f.cw_segments]))
    return OpticalTimeline(
        duration_ps=duration_ps,
        photons=photons,
        photon_sources=sources,
        cw_segments=segments,
        pulses=pulses,
    )
