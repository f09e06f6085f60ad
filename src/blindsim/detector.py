"""Behavioral state machine of a single-photon avalanche detector.

The model reproduces the response regimes of a passively quenched APD:

* armed: a discrete photon clicks with probability ``efficiency``; dark
  counts fire as a Poisson process.
* dead: for ``dead_time`` after any click the detector cannot click at
  all.  Dead time is universal; it applies to every stimulus kind and is
  the sole source of saturation.
* blinded: whenever the summed CW power on the detector reaches
  ``blind_power`` the detector ignores photons, dark counts, afterpulses
  and sub-threshold pulses.  A bright pulse whose energy reaches
  ``fake_energy`` forces a click regardless of blinding.  When the total
  CW power falls back below the threshold the re-arming transient can
  itself emit a click (``recovery_click_prob``).  The power changes only
  at a segment start or stop; there it is the ``math.fsum`` of the
  segments active at that instant, so it is correctly rounded and
  independent of segment order.

Every click may trap charge and spawn one afterpulse candidate
(``afterpulse_prob``), scheduled at dead-time expiry plus an exponential
delay; afterpulse clicks spawn candidates in turn, giving a geometric
cascade.  Electrical noise (``noise_rate``) is a Poisson click source
that, unlike dark counts, is not silenced by blinding.

Coincident events are resolved by a fixed convention: optical stimuli
are evaluated against the CW power in effect immediately *before* the
instant, and power edges apply immediately after.  The onset of a
blinding segment therefore does not suppress a flag pulse emitted at the
same instant.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from heapq import heappush, heappop
from itertools import repeat
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .errors import require, require_finite
from .optics import PHOTON_SOURCES, OpticalTimeline, PulseSource, _poisson_arrival_ps
from .units import PS_PER_SECOND, to_ps, to_seconds
from .units import Duration, Fraction, OpenUnit, Positive, PositiveDuration, Probability, Rate


class ClickCause(str, Enum):
    """Ground-truth label of a click; hidden from protocol logic."""

    SIGNAL = "SIGNAL"
    DARK = "DARK"
    AFTERPULSE = "AFTERPULSE"
    SALT = "SALT"
    FLAG = "FLAG"
    FAKE = "FAKE"
    RECOVERY = "RECOVERY"
    NOISE = "NOISE"


class ClickRecord(NamedTuple):
    time_ps: int
    cause: ClickCause


@dataclass(frozen=True)
class DetectorParams:
    """Behavioral parameters; defaults are the reference operating point."""

    efficiency: Probability = 0.9
    dark_rate: Rate = 7.0e3  # counts/second while armed
    dead_time: PositiveDuration = 1.32e-6  # seconds
    afterpulse_prob: Fraction = 0.4
    afterpulse_tau: Duration = 1.0e-6  # mean extra delay after dead-time expiry
    blind_power: Positive = 5.0e-10  # watts of CW light that hold the detector blind
    fake_energy: Positive = 1.0e-15  # joules; pulses at or above this always click
    recovery_click_prob: Probability = 1.0
    noise_rate: Rate = 0.0  # electrical noise clicks/second, active while blinded

    def __post_init__(self) -> None:
        require_finite(self)


# Processing priority of coincident events.  Stimuli come before power
# edges so that they see the pre-edge power level.  _END marks the
# horizon, after every event and every afterpulse that can click.
_PULSE, _GATED, _NOISE, _AFTER, _CW, _END = range(6)

# Cause of a gated click by code: the photon source codes, then dark.
_GATED_CAUSE = (*(ClickCause(source.value) for source in PHOTON_SOURCES), ClickCause.DARK)
_DARK_CODE = len(PHOTON_SOURCES)
_PULSE_CAUSE = {PulseSource.FAKE: ClickCause.FAKE, PulseSource.FLAG: ClickCause.FLAG}


def _drop_held(times: list[int], spans: list[tuple[int, int]], *parallel: list) -> None:
    """Delete from sorted ``times`` (and ``parallel``) the entries in any span (a, b]."""
    for a, b in reversed(spans):
        lo = bisect_right(times, a)
        hi = bisect_right(times, b, lo)
        del times[lo:hi]
        for values in parallel:
            del values[lo:hi]


def process_timeline(
    params: DetectorParams,
    timeline: OpticalTimeline,
    rng: np.random.Generator,
) -> list[ClickRecord]:
    """Run the detector over a timeline and return all clicks in [0, duration).

    Deterministic for identical (params, timeline, rng seed): one uniform
    per photon, one per pulse and one per downward crossing (drawn even
    if the detector is dead there) come first, then the dark and noise
    candidates; the event walk draws only for afterpulse scheduling.

    A photon or dark count sees the power of the last edge strictly
    before it, so one in a held span (a, b], from an edge that blinds to
    the next edge that releases (or the horizon), can never click.  Such
    candidates are dropped before the walk; they draw nothing in it.
    The walk's only power events are each span's start and, for a span
    that closes before the horizon, its end; an edge that leaves the
    held state as it was changes no click.
    """
    timeline.validate()
    clicks: list[ClickRecord] = []
    dur = timeline.duration_ps
    dead_ps = to_ps(params.dead_time)
    eff = params.efficiency
    ap_prob = params.afterpulse_prob
    ap_tau = params.afterpulse_tau
    fake_energy = params.fake_energy
    recovery_prob = params.recovery_click_prob

    pulses = timeline.pulses
    segments = timeline.cw_segments
    spans: list[tuple[int, int]] = []  # held spans (a, b]: blinding edge to releasing edge
    n_crossings = 0
    if segments:
        edge_times = sorted(
            {s.start_ps for s in segments}.union(s.stop_ps for s in segments if s.stop_ps < dur)
        )
        # sweep the edges in order, keeping the segments active at each
        pending = sorted(segments, key=attrgetter("start_ps"), reverse=True)
        active: list = []
        onset = None
        for t in edge_times:
            while pending and pending[-1].start_ps <= t:
                active.append(pending.pop())
            active = [s for s in active if t < s.stop_ps]
            h = math.fsum(s.power for s in active) >= params.blind_power
            if h and onset is None:
                onset = t
            elif not h and onset is not None:
                spans.append((onset, t))
                onset = None
        n_crossings = len(spans)
        if onset is not None:
            spans.append((onset, dur))

    n_photons, n_pulses = len(timeline.photons), len(pulses)
    u = rng.random(n_photons + n_pulses + n_crossings)
    live = u[:n_photons] < eff
    u_pulse = u[n_photons:n_photons + n_pulses]
    u_recovery = iter(u[n_photons + n_pulses:])
    # candidate times of the state-gated Poisson click sources
    dark_times = _poisson_arrival_ps(params.dark_rate, dur, rng).tolist()
    noise_times = _poisson_arrival_ps(params.noise_rate, dur, rng).tolist()

    # A photon whose uniform reaches the efficiency never clicks, so it is
    # left out, as are the gated candidates that held power hides.
    photon_times = timeline.photons[live].tolist()
    photon_codes = timeline.photon_sources[live].tolist()
    if spans:
        _drop_held(photon_times, spans, photon_codes)
        _drop_held(dark_times, spans)

    # (time, priority, code): the gated cause code, the pulse index, or
    # 1 at a held span's start and 0 at its end.  The photons come sorted
    # on (time, code), so the codes order coincident photons as their
    # indices would.
    events: list[tuple[int, int, int]] = list(zip(photon_times, repeat(_GATED), photon_codes))
    events.extend((pu.time_ps, _PULSE, i) for i, pu in enumerate(pulses))
    events.extend(zip(dark_times, repeat(_GATED), repeat(_DARK_CODE)))
    events.extend(zip(noise_times, repeat(_NOISE), repeat(0)))
    events.extend((a, _CW, 1) for a, _ in spans)
    events.extend((b, _CW, 0) for _, b in spans[:n_crossings])
    events.sort()
    # the heap loop pops only afterpulses due before it, so those due at
    # or past the horizon never click
    events.append((dur, _END, 0))

    # numpy's random() is u = (raw >> 11) * 2**-53 of one word, so u < ap_prob
    # exactly when raw < ap_cut; tau * standard_exponential() is the float
    # exponential(tau) gives from the same draw, and also takes tau = -0.0
    draw_raw = rng.bit_generator.random_raw
    ap_cut = math.ceil(ap_prob * 2.0**53) << 11
    rng_exponential = rng.standard_exponential
    clicks_append = clicks.append
    new_click = tuple.__new__

    ap_heap: list[int] = []
    dead_until = 0
    blinded = False

    for t, prio, code in events:
        # afterpulses due first: (a, _AFTER) sorts before (t, prio)
        while ap_heap and (ap_heap[0] < t or (ap_heap[0] == t and prio == _CW)):
            a = heappop(ap_heap)
            if blinded or a < dead_until:
                continue
            clicks_append(new_click(ClickRecord, (a, ClickCause.AFTERPULSE)))
            dead_until = a + dead_ps
            if draw_raw() < ap_cut:
                ap_t = dead_until + int(ap_tau * rng_exponential() * PS_PER_SECOND + 0.5)
                heappush(ap_heap, ap_t)
        if prio == _GATED:  # never blinded: the held ones were dropped
            if t < dead_until:
                continue
            cause = _GATED_CAUSE[code]
        elif prio == _PULSE:
            if t < dead_until:
                continue
            # forced at the fake-state energy (the float BrightPulse.energy
            # gives); otherwise the armed response
            pu = pulses[code]
            n = pu.photon_number
            if not (pu.peak_power * (pu.width_ps / PS_PER_SECOND) >= fake_energy or (
                not blinded and (n is None or u_pulse[code] < 1.0 - (1.0 - eff) ** n)
            )):
                continue
            cause = _PULSE_CAUSE[pu.source]
        elif prio == _NOISE:
            if t < dead_until:
                continue
            cause = ClickCause.NOISE
        elif prio == _CW:
            blinded = code
            if code or next(u_recovery) >= recovery_prob or t < dead_until:
                continue
            cause = ClickCause.RECOVERY
        else:  # _END
            break
        clicks_append(new_click(ClickRecord, (t, cause)))
        dead_until = t + dead_ps
        if ap_prob > 0.0 and draw_raw() < ap_cut:
            ap_t = dead_until + int(ap_tau * rng_exponential() * PS_PER_SECOND + 0.5)
            heappush(ap_heap, ap_t)

    return clicks


def calibrate_dead_time(target_armed_fraction: OpenUnit, rate: Rate = 5.0e4) -> float:
    """Dead time for which the detector is armed the target fraction of time.

    ``rate`` is the steady-state click rate the detector sustains.  Every
    click is followed by exactly one dead window and dead windows cannot
    overlap, so over a long horizon the dead fraction equals
    rate * dead_time for any afterpulse configuration, and the dead time
    is the closed form (1 - target_armed_fraction) / rate.
    """
    require("target_armed_fraction", target_armed_fraction, OpenUnit)
    require("rate", rate, Rate)
    smallest = to_seconds(1)
    if rate == 0:
        # Idle detector is always armed; any positive dead time works.
        return smallest
    return max(smallest, (1.0 - target_armed_fraction) / rate)
