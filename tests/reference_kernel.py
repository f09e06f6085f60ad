"""A plain event-by-event reading of the detector model in ``blindsim.detector``.

``reference_clicks`` walks every stimulus of a timeline in time order and
applies the rules of the ``detector`` module docstring to each one.  It
has no held-span drop, no inlined branches and no sliced or raw-word
draws.  It keeps the draw contract of ``process_timeline``, so that for
the same generator state both give the same clicks and leave the same
state:

1. one ``random()`` per photon, then one per pulse, then one per
   downward crossing of the blinding threshold, drawn even if the
   detector is dead there;
2. the dark-count arrivals, then the noise arrivals;
3. per click, in time order, one ``random()`` for the afterpulse
   decision when the afterpulse probability is above 0, and one
   ``exponential()`` for the delay of an afterpulse it spawns.

Coincident events resolve in a fixed order: pulses, then photons and dark
counts (in source-code order, dark last), then noise, then afterpulses,
and last the power edges, so that every stimulus sees the CW power in
effect before its instant.
"""

from __future__ import annotations

import heapq
import itertools
import math

from blindsim.detector import ClickCause, ClickRecord, DetectorParams
from blindsim.optics import PHOTON_SOURCES, OpticalTimeline, _poisson_arrival_ps
from blindsim.units import PS_PER_SECOND, to_ps

PULSE, GATED, NOISE, AFTER, EDGE = range(5)
DARK = len(PHOTON_SOURCES)  # gated code of a dark count, after every photon source
GATED_CAUSE = [ClickCause(source.value) for source in PHOTON_SOURCES] + [ClickCause.DARK]


def reference_clicks(params: DetectorParams, timeline: OpticalTimeline, rng) -> list[ClickRecord]:
    dur = timeline.duration_ps
    segments = timeline.cw_segments
    pulses = timeline.pulses
    photon_times = timeline.photons.tolist()
    photon_codes = timeline.photon_sources.tolist()

    # The power changes only where a segment starts or stops; just after
    # such an edge it is the fsum of the segments active there.
    edges = sorted({s.start_ps for s in segments} | {s.stop_ps for s in segments if s.stop_ps < dur})
    held = {
        t: math.fsum(s.power for s in segments if s.start_ps <= t < s.stop_ps)
        >= params.blind_power
        for t in edges
    }
    crossings = [t for before, t in zip(edges, edges[1:]) if held[before] and not held[t]]

    photon_u = [rng.random() for _ in photon_times]
    pulse_u = [rng.random() for _ in pulses]
    recovery_u = {t: rng.random() for t in crossings}
    dark_times = _poisson_arrival_ps(params.dark_rate, dur, rng).tolist()
    noise_times = _poisson_arrival_ps(params.noise_rate, dur, rng).tolist()

    # (time, priority, code, index): the code orders coincident gated events
    events = [(t, GATED, code, i) for i, (t, code) in enumerate(zip(photon_times, photon_codes))]
    events += [(p.time_ps, PULSE, i, i) for i, p in enumerate(pulses)]
    events += [(t, GATED, DARK, i) for i, t in enumerate(dark_times)]
    events += [(t, NOISE, 0, i) for i, t in enumerate(noise_times)]
    events += [(t, EDGE, 0, 0) for t in edges]
    heapq.heapify(events)
    afterpulse_ids = itertools.count()

    clicks: list[ClickRecord] = []
    dead_ps = to_ps(params.dead_time)
    dead_until = 0
    blinded = False
    while events:
        t, priority, code, i = heapq.heappop(events)
        if t >= dur:
            break
        armed = t >= dead_until
        if priority == EDGE:
            crossing = blinded and not held[t]
            blinded = held[t]
            if not (crossing and recovery_u[t] < params.recovery_click_prob and armed):
                continue
            cause = ClickCause.RECOVERY
        elif not armed:
            continue
        elif priority == GATED:
            if blinded or (code != DARK and photon_u[i] >= params.efficiency):
                continue
            cause = GATED_CAUSE[code]
        elif priority == PULSE:
            pulse = pulses[i]
            n = pulse.photon_number
            forced = pulse.energy >= params.fake_energy
            answered = not blinded and (
                n is None or pulse_u[i] < 1.0 - (1.0 - params.efficiency) ** n
            )
            if not (forced or answered):
                continue
            cause = ClickCause(pulse.source.value)  # FAKE or FLAG
        elif priority == NOISE:
            cause = ClickCause.NOISE
        else:  # AFTER
            if blinded:
                continue
            cause = ClickCause.AFTERPULSE

        clicks.append(ClickRecord(t, cause))
        dead_until = t + dead_ps
        if params.afterpulse_prob > 0.0 and rng.random() < params.afterpulse_prob:
            # the delay in seconds, rounded half up to whole picoseconds
            delay_ps = int(rng.exponential(params.afterpulse_tau) * PS_PER_SECOND + 0.5)
            heapq.heappush(events, (dead_until + delay_ps, AFTER, 0, next(afterpulse_ids)))
    return clicks
