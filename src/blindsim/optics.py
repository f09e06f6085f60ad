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

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ValidationError, require_finite
from .selftest import SelfTestPlan, Strategy
from .units import Duration, NonNegative, PositiveDuration, Rate, to_ps, to_seconds


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
        if self.duration_ps < 0:
            raise ValidationError("duration", "must be >= 0")
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
            if times[-1] >= self.duration_ps:
                raise ValidationError("photons", "timestamp beyond duration")
            if codes.max() >= len(PHOTON_SOURCES):
                raise ValidationError("photon_sources", "code outside PhotonSource")
        for seg in self.cw_segments:
            if seg.start_ps < 0:
                raise ValidationError("cw_segments", "negative timestamp")
            if seg.stop_ps <= seg.start_ps:
                raise ValidationError("cw_segments", "empty or inverted segment")
            if seg.start_ps >= self.duration_ps or seg.stop_ps > self.duration_ps:
                raise ValidationError("cw_segments", "segment beyond duration")
            if seg.power < 0:
                raise ValidationError("cw_segments", "negative power")
        last = -1
        for pu in self.pulses:
            if pu.time_ps < 0:
                raise ValidationError("pulses", "negative timestamp")
            if pu.time_ps < last:
                raise ValidationError("pulses", "timestamps out of order")
            if pu.time_ps >= self.duration_ps:
                raise ValidationError("pulses", "timestamp beyond duration")
            if pu.width_ps <= 0:
                raise ValidationError("pulses", "width must be > 0")
            if pu.peak_power < 0:
                raise ValidationError("pulses", "negative peak power")
            if pu.photon_number is not None and pu.photon_number < 1:
                raise ValidationError("pulses", "photon_number must be >= 1")
            last = pu.time_ps


@dataclass(frozen=True)
class AttackScenario:
    """Eavesdropper activity: CW blinding plus fake-state pulses.

    Fake states only make sense against a blinded detector; generating
    them without blinding must be requested explicitly via
    ``allow_fakes_without_blinding``.
    """

    blind_power_level: NonNegative = 0.0  # watts; 0 means no attack
    fake_pulse_rate: Rate = 0.0  # mean pulses/second
    fake_peak_power: NonNegative = 3.0e-6  # watts
    fake_width: PositiveDuration = 2.0e-9  # seconds
    stop_blind_at: Duration | None = None  # attacker ceases at this time
    allow_fakes_without_blinding: bool = False

    def __post_init__(self) -> None:
        require_finite(self)
        if (
            self.fake_pulse_rate > 0
            and self.blind_power_level == 0
            and not self.allow_fakes_without_blinding
        ):
            raise ValidationError(
                "fake_pulse_rate",
                "fake states without blinding require allow_fakes_without_blinding",
            )


def _poisson_arrival_ps(
    rate: float, duration_ps: int, rng: np.random.Generator
) -> np.ndarray:
    """Homogeneous Poisson arrival times as sorted integer picoseconds."""
    if rate == 0 or duration_ps <= 0:
        return _NO_TIMES
    n = rng.poisson(rate * to_seconds(duration_ps))
    times = (np.sort(rng.random(n)) * duration_ps).astype(np.int64)
    # u < 1 can still scale up to duration_ps by round-to-even; keep the
    # half-open horizon exact
    return _frozen(np.minimum(times, duration_ps - 1))


def gen_signal_photons(
    rate: float, duration: float, rng: np.random.Generator
) -> OpticalTimeline:
    """Poissonian signal photon arrivals at the given rate over the horizon."""
    if rate < 0:
        raise ValidationError("rate", "must be >= 0")
    duration_ps = to_ps(duration)
    times = _poisson_arrival_ps(rate, duration_ps, rng)
    codes = _frozen(np.full(times.size, PHOTON_CODE[PhotonSource.SIGNAL], dtype=np.uint8))
    return OpticalTimeline(duration_ps=duration_ps, photons=times, photon_sources=codes)


def gen_attack(
    scenario: AttackScenario, duration: float, rng: np.random.Generator
) -> OpticalTimeline:
    """Attacker timeline fragment: blinding segment plus fake pulses.

    Fake pulses are emitted while the attack is active, i.e. over
    [0, stop_blind_at) when the attacker ceases early.
    """
    duration_ps = to_ps(duration)
    stop_ps = duration_ps
    if scenario.stop_blind_at is not None:
        stop_ps = min(duration_ps, to_ps(scenario.stop_blind_at))
    segments: tuple[CwSegment, ...] = ()
    if scenario.blind_power_level > 0 and stop_ps > 0:
        segments = (
            CwSegment(0, stop_ps, scenario.blind_power_level, CwSource.ATTACK_BLIND),
        )
    pulses: list[BrightPulse] = []
    if scenario.fake_pulse_rate > 0:
        width_ps = to_ps(scenario.fake_width)
        active_ps = duration_ps if scenario.allow_fakes_without_blinding else stop_ps
        for t in _poisson_arrival_ps(scenario.fake_pulse_rate, active_ps, rng):
            pulses.append(
                BrightPulse(int(t), width_ps, scenario.fake_peak_power, PulseSource.FAKE)
            )
    return OpticalTimeline(
        duration_ps=duration_ps, cw_segments=segments, pulses=tuple(pulses)
    )


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
    test_start: float,
    duration: float,
    rng: np.random.Generator,
) -> OpticalTimeline:
    """Light-emitter schedule of one self-test starting at ``test_start``.

    SALT: salt photon arrivals at ``plan.salt_rate`` over the test
    interval.  FLAG_PULSE: the few-photon ``flag_pulse``.  SELF_BLIND: a
    CW blinding segment covering the test interval, whose onset fires
    ``flag_pulse`` as a deterministic flag.
    """
    if test_start < 0:
        raise ValidationError("test_start", "must be >= 0")
    duration_ps = to_ps(duration)
    start_ps = to_ps(test_start)
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
    (time, source code) and the other events on their full tuples.  The
    photons of the only fragment that has any are passed through as they
    are, so each fragment's photons must already be in order, as the
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
    segments: list[CwSegment] = []
    pulses: list[BrightPulse] = []
    for f in fragments:
        segments.extend(f.cw_segments)
        pulses.extend(f.pulses)
    segments.sort()
    # photon_number may be None; keep the key orderable
    pulses.sort(
        key=lambda p: (p.time_ps, p.width_ps, p.peak_power, p.source.value,
                       -1 if p.photon_number is None else p.photon_number)
    )
    return OpticalTimeline(
        duration_ps=duration_ps,
        photons=photons,
        photon_sources=sources,
        cw_segments=tuple(segments),
        pulses=tuple(pulses),
    )
