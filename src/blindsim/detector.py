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
  itself emit a click (``recovery_click_prob``).

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
from dataclasses import dataclass
from enum import Enum
from heapq import heappush, heappop
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import ValidationError, require_finite
from .optics import PHOTON_SOURCES, OpticalTimeline, PulseSource, _poisson_arrival_ps
from .units import PS_PER_SECOND, to_ps, to_seconds
from .units import Duration, Fraction, Positive, PositiveDuration, Probability, Rate


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
# edges so that they see the pre-edge power level.
_PULSE, _PHOTON, _DARK, _NOISE, _AFTER, _CW = range(6)

_PHOTON_CAUSE = tuple(ClickCause(source.value) for source in PHOTON_SOURCES)  # by code
_PULSE_CAUSE = {PulseSource.FAKE: ClickCause.FAKE, PulseSource.FLAG: ClickCause.FLAG}


def _cw_edges(timeline: OpticalTimeline, blind_power: float):
    """Deterministic walk of the summed CW power.

    Returns a list of (time_ps, power_after, is_downward_crossing) and
    the crossing count.  Powers are recomputed with ``math.fsum`` over
    the active segments at every edge so that removing a contribution
    restores the exact remaining sum.
    """
    changes: dict[int, list[tuple[int, int]]] = {}
    for idx, seg in enumerate(timeline.cw_segments):
        changes.setdefault(seg.start_ps, []).append((idx, +1))
        if seg.stop_ps < timeline.duration_ps:
            changes.setdefault(seg.stop_ps, []).append((idx, -1))
    edges = []
    n_crossings = 0
    active: dict[int, float] = {}
    prev_power = 0.0
    for t in sorted(changes):
        for idx, sign in changes[t]:
            if sign > 0:
                active[idx] = timeline.cw_segments[idx].power
            else:
                active.pop(idx, None)
        power = math.fsum(active.values()) if active else 0.0
        down = prev_power >= blind_power > power
        if down:
            n_crossings += 1
        edges.append((t, power, down))
        prev_power = power
    return edges, n_crossings


def process_timeline(
    params: DetectorParams,
    timeline: OpticalTimeline,
    rng: np.random.Generator,
) -> list[ClickRecord]:
    """Run the detector over a timeline and return all clicks in [0, duration).

    Deterministic for identical (params, timeline, rng seed): all decision
    uniforms for photons, pulses and recovery edges are pre-drawn in a
    fixed order, then dark and noise candidates, and only afterpulse
    scheduling draws from the stream during the event walk.
    """
    timeline.validate()
    clicks: list[ClickRecord] = []
    dur = timeline.duration_ps
    dead_ps = to_ps(params.dead_time)
    eff = params.efficiency
    ap_prob = params.afterpulse_prob
    ap_tau = params.afterpulse_tau
    blind_power = params.blind_power
    fake_energy = params.fake_energy
    recovery_prob = params.recovery_click_prob

    photons = timeline.photons
    pulses = timeline.pulses
    edges, n_crossings = _cw_edges(timeline, blind_power)

    u_photon = rng.random(len(photons)) if len(photons) else None
    u_pulse = rng.random(len(pulses)) if pulses else None
    u_recovery = rng.random(n_crossings) if n_crossings else None
    # candidate times of the state-gated Poisson click sources
    dark_times = _poisson_arrival_ps(params.dark_rate, dur, rng)
    noise_times = _poisson_arrival_ps(params.noise_rate, dur, rng)

    # Per-pulse precomputation: forced click above the fake-state energy
    # threshold; otherwise the armed-response probability.
    pulse_forced = []
    pulse_p_armed = []
    pulse_cause = []
    for pu in pulses:
        pulse_forced.append(pu.energy >= fake_energy)
        if pu.photon_number is None:
            pulse_p_armed.append(1.0)
        else:
            pulse_p_armed.append(1.0 - (1.0 - eff) ** pu.photon_number)
        pulse_cause.append(_PULSE_CAUSE[pu.source])

    # (time, priority, pulse or edge index, or photon source code).  A
    # photon whose uniform reaches the efficiency never clicks, so it is
    # left out.  The photons come sorted on (time, code), so the codes
    # order coincident photons as their indices would.
    events: list[tuple[int, int, int]] = []
    if u_photon is not None:
        live = u_photon < eff
        events.extend(zip(
            photons[live].tolist(), repeat(_PHOTON), timeline.photon_sources[live].tolist()
        ))
    events.extend((pu.time_ps, _PULSE, i) for i, pu in enumerate(pulses))
    events.extend(zip(dark_times.tolist(), repeat(_DARK), repeat(0)))
    events.extend(zip(noise_times.tolist(), repeat(_NOISE), repeat(0)))
    events.extend((t, _CW, i) for i, (t, _, _) in enumerate(edges) if t < dur)
    events.sort()

    rng_random = rng.random
    rng_exponential = rng.exponential
    clicks_append = clicks.append

    ap_heap: list[int] = []
    dead_until = 0
    blinded = False
    crossing_idx = 0

    def click(t: int, cause: ClickCause) -> None:
        nonlocal dead_until
        clicks_append(ClickRecord(t, cause))
        dead_until = t + dead_ps
        if ap_prob > 0.0 and rng_random() < ap_prob:
            ap_t = dead_until + int(rng_exponential(ap_tau) * PS_PER_SECOND + 0.5)
            if ap_t < dur:
                heappush(ap_heap, ap_t)

    i = 0
    n_events = len(events)
    while i < n_events or ap_heap:
        if ap_heap and (
            i >= n_events
            or (ap_heap[0], _AFTER) < (events[i][0], events[i][1])
        ):
            t = heappop(ap_heap)
            if not blinded and t >= dead_until:
                click(t, ClickCause.AFTERPULSE)
            continue
        t, prio, idx = events[i]
        i += 1
        if prio == _PHOTON:
            if not blinded and t >= dead_until:
                click(t, _PHOTON_CAUSE[idx])
        elif prio == _DARK:
            if not blinded and t >= dead_until:
                click(t, ClickCause.DARK)
        elif prio == _PULSE:
            if t >= dead_until:
                if pulse_forced[idx]:
                    click(t, pulse_cause[idx])
                elif not blinded and u_pulse[idx] < pulse_p_armed[idx]:
                    click(t, pulse_cause[idx])
        elif prio == _NOISE:
            if t >= dead_until:
                click(t, ClickCause.NOISE)
        else:  # _CW
            _, power, down = edges[idx]
            blinded = power >= blind_power
            if down:
                u = u_recovery[crossing_idx]
                crossing_idx += 1
                if t >= dead_until and u < recovery_prob:
                    click(t, ClickCause.RECOVERY)

    return clicks


def calibrate_dead_time(target_armed_fraction: float, rate: float = 5.0e4) -> float:
    """Dead time for which the detector is armed the target fraction of time.

    ``rate`` is the steady-state click rate the detector sustains.  Every
    click is followed by exactly one dead window and dead windows cannot
    overlap, so over a long horizon the dead fraction equals
    rate * dead_time for any afterpulse configuration, and the dead time
    is the closed form (1 - target_armed_fraction) / rate.
    """
    if not 0 < target_armed_fraction < 1:
        raise ValidationError(
            "target_armed_fraction", "must lie strictly between 0 and 1"
        )
    if rate < 0:
        raise ValidationError("rate", "must be >= 0")
    smallest = to_seconds(1)
    if rate == 0:
        # Idle detector is always armed; any positive dead time works.
        return smallest
    return max(smallest, (1.0 - target_armed_fraction) / rate)
