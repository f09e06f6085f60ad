"""Deterministic experiment composition.

trial_anatomy builds one trial end to end: schedule the self-tests,
generate legitimate light, attacker light, and light-emitter schedules,
merge the fragments, run the detector, and evaluate every scheduled
test.  run_trial folds that into a TrialResult.  Each
trial derives its own random streams from (master seed, trial index,
module tag), so trials are reproducible in isolation and independent of
execution order.  run_experiment can therefore split the trial range
into contiguous shares and run them in worker processes: any split gives
the same trials.  Each worker is an ``os.fork`` child that sends its
pickled share back over a pipe.  The caller runs the first share, reads
the others in share order, and reaps the children once the histograms
are built, so that their exit overlaps that work.
"""

from __future__ import annotations

import os
import pickle
from collections import Counter
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Any

from .config import ExperimentConfig, Scenario
from .detector import process_timeline
from .errors import BlindsimError, ValidationError, require
from .optics import gen_attack, gen_le_schedule, gen_signal_photons, merge_timelines
from .rng import trial_stream as stream  # perfbench traces engine.stream
from .selftest import (
    Decision,
    Strategy,
    Verdict,
    _click_span,
    evaluate_flag_pulse,
    evaluate_salt,
    evaluate_self_blind,
    schedule_tests,
)
from .stats import Histogram
from .units import Count, PositiveCount, to_seconds


@dataclass(frozen=True)
class TrialResult:
    index: int
    verdicts: tuple[Verdict, ...]
    cause_counts: tuple[tuple[str, int], ...]  # sorted (cause, count) pairs
    total_clicks: int
    response_offsets_ps: tuple[int, ...]  # click offsets after each test start
    seed_token: str

    def to_record(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "verdicts": [{**vars(v), "decision": v.decision.value} for v in self.verdicts],
            "cause_counts": dict(self.cause_counts),
            "total_clicks": self.total_clicks,
            "response_offsets_ps": list(self.response_offsets_ps),
            "seed_token": self.seed_token,
        }


_EVALUATORS = {
    Strategy.SALT: evaluate_salt,
    Strategy.FLAG_PULSE: evaluate_flag_pulse,
    Strategy.SELF_BLIND: evaluate_self_blind,
}

# Click offsets are collected over 200 ns after each test start and
# binned into 10 ns bins for the time-resolved response histogram.
_OFFSET_BIN_PS = 10_000
_OFFSET_BINS = 20
_OFFSET_SPAN_PS = _OFFSET_BIN_PS * _OFFSET_BINS


def expected_decisions(scenario: Scenario, strategy: Strategy) -> frozenset[Decision]:
    """Decisions counted as correct for a scenario/protocol pair."""
    if scenario == Scenario.NORMAL:
        return frozenset({Decision.NORMAL})
    if scenario == Scenario.MANIPULATED:
        if strategy == Strategy.SELF_BLIND:
            return frozenset({Decision.POSITIVE_MANIPULATION, Decision.BOTH})
        return frozenset({Decision.NEGATIVE_MANIPULATION})
    if scenario == Scenario.RECOVERY_ATTACK:
        if strategy == Strategy.SELF_BLIND:
            return frozenset({Decision.NEGATIVE_MANIPULATION, Decision.BOTH})
        return frozenset({Decision.NEGATIVE_MANIPULATION})
    return frozenset()


def tally_verdicts(decisions, scenario: Scenario, strategy: Strategy) -> tuple[Counter, float]:
    """Decision counts and accuracy of a run's verdict decisions.

    Accuracy is the fraction of decisions in ``expected_decisions``; it
    is nan when there are no decisions or the scenario defines no
    correct one.
    """
    counts = Counter(Decision(d).value for d in decisions)
    expected = expected_decisions(scenario, strategy)
    total = sum(counts.values())
    if not expected or not total:
        return counts, float("nan")
    good = sum(n for d, n in counts.items() if Decision(d) in expected)
    return counts, good / total


def build_trial_timeline(config: ExperimentConfig, trial_index: Count):
    """Scheduled test starts in picoseconds and the merged optical timeline of one trial."""
    require("trial_index", trial_index, Count)
    if trial_index >= config.trials:
        raise ValidationError("trial_index", f"must be below trials = {config.trials}")
    seed = config.seed
    plan = config.plan
    starts = schedule_tests(
        config.trial_duration,
        config.duty_cycle,
        plan,
        stream(seed, trial_index, "schedule"),
    )
    attack = config.attack
    if config.scenario == Scenario.RECOVERY_ATTACK and attack.stop_blind_at is None:
        # Worst case for the defender: the attacker releases its blinding
        # light in the middle of the self-test interval.
        attack = replace(attack, stop_blind_at=to_seconds(starts[0]) + plan.test_duration / 2)
    fragments = [
        gen_signal_photons(
            config.signal_rate, config.trial_duration, stream(seed, trial_index, "signal")
        ),
        gen_attack(attack, config.trial_duration, stream(seed, trial_index, "attack")),
    ]
    le_rng = stream(seed, trial_index, "le")
    for start in starts:
        fragments.append(gen_le_schedule(plan, start, config.trial_duration, le_rng))
    return starts, merge_timelines(*fragments)


def trial_anatomy(config: ExperimentConfig, trial_index: Count):
    """Test starts in picoseconds, optical timeline, clicks and verdicts of one trial.

    Everything behind the trial's verdicts, as run_trial draws it: each
    verdict is read from the clicks alone.
    """
    starts, timeline = build_trial_timeline(config, trial_index)
    clicks = process_timeline(
        config.detector, timeline, stream(config.seed, trial_index, "detector")
    )
    evaluator = _EVALUATORS[config.plan.strategy]
    verdicts = tuple(evaluator(config.plan, start, clicks) for start in starts)
    return starts, timeline, clicks, verdicts


def run_trial(config: ExperimentConfig, trial_index: Count) -> TrialResult:
    """One deterministic trial; reproducible from (config, trial_index)."""
    starts, _, clicks, verdicts = trial_anatomy(config, trial_index)
    offsets: list[int] = []
    for start in starts:
        # clicks come in time order from process_timeline
        lo, hi = _click_span(clicks, start, start + _OFFSET_SPAN_PS)
        offsets.extend(c.time_ps - start for c in clicks[lo:hi])
    causes = Counter(map(itemgetter(1), clicks))
    return TrialResult(
        index=trial_index,
        verdicts=verdicts,
        cause_counts=tuple(sorted((cause.value, n) for cause, n in causes.items())),
        total_clicks=len(clicks),
        response_offsets_ps=tuple(offsets),
        seed_token=f"{config.seed}/{trial_index}",
    )


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    trials: tuple[TrialResult, ...]
    histograms: dict[str, Histogram]

    def tally(self) -> tuple[Counter, float]:
        """Decision counts and accuracy of every verdict, as ``tally_verdicts``."""
        return tally_verdicts(
            (v.decision for tr in self.trials for v in tr.verdicts),
            self.config.scenario,
            self.config.plan.strategy,
        )

    def summary(self) -> dict[str, Any]:
        """The run's tally and the statistics read from its histograms."""
        counts, accuracy = self.tally()
        out: dict[str, Any] = {
            "scenario": self.config.scenario.value,
            "strategy": self.config.plan.strategy.value,
            "trials": len(self.trials),
            "decisions": dict(counts),
            "accuracy": accuracy,
        }
        hists = self.histograms
        if "test_counts" in hists:
            out["test_count_mean"] = hists["test_counts"].mean()
            out["test_count_variance"] = hists["test_counts"].variance()
        if "onset_responses" in hists:
            out["response_fraction"] = hists["onset_responses"].mean()
        if "in_blind_counts" in hists:
            h = hists["in_blind_counts"]
            bins = list(zip(h.bin_edges, h.counts))
            out["in_blind_total"] = sum(int(low) * n for low, n in bins)
            out["in_blind_nonzero_fraction"] = sum(n for low, n in bins if low > 0) / h.n_samples
        return out


def _build_histograms(config: ExperimentConfig, trials: tuple[TrialResult, ...]):
    """The run's histograms; ``summary`` reads its per-protocol statistics from these."""
    hists: dict[str, Histogram] = {
        "clicks_per_trial": Histogram.from_event_counts(t.total_clicks for t in trials)
    }
    verdicts = [v for t in trials for v in t.verdicts]
    if config.plan.strategy == Strategy.SALT:
        hists["test_counts"] = Histogram.from_event_counts(
            v.observed_count for v in verdicts
        )
    if config.plan.strategy in (Strategy.FLAG_PULSE, Strategy.SELF_BLIND):
        # Bin the integer offsets, so that one of exactly 30 ns lands in bin 3;
        # an offset outside the span would fail Histogram's sum check.
        per_bin = Counter(o // _OFFSET_BIN_PS for t in trials for o in t.response_offsets_ps)
        hists["response_offsets"] = Histogram(
            bin_edges=tuple(k * to_seconds(_OFFSET_BIN_PS) for k in range(_OFFSET_BINS + 1)),
            counts=tuple(per_bin[k] for k in range(_OFFSET_BINS)),
            n_samples=per_bin.total(),
        )
        hists["onset_responses"] = Histogram.from_event_counts(
            int(bool(v.flag_seen)) for v in verdicts
        )
    if config.plan.strategy == Strategy.SELF_BLIND:
        hists["in_blind_counts"] = Histogram.from_event_counts(
            v.in_blind_clicks for v in verdicts if v.in_blind_clicks is not None
        )
    return hists


def _run_trials(config: ExperimentConfig, lo: int, hi: int) -> list[TrialResult]:
    """Trials ``lo`` to ``hi - 1`` of a run, in index order."""
    return [run_trial(config, i) for i in range(lo, hi)]


def _run_child(write_fd: int, config: ExperimentConfig, lo: int, hi: int) -> None:
    """Body of a forked worker: write the pickled ``(ok, trials or the exception)``.

    The result is pickled before anything is written, so a result that
    cannot be pickled sends nothing and reads as a worker that died.  The
    child never returns: it leaves through ``os._exit``, skipping the
    parent's exit handlers and buffered output.
    """
    status = 1
    try:
        try:
            out = (True, _run_trials(config, lo, hi))
        except Exception as e:
            out = (False, e)
        data = pickle.dumps(out, pickle.HIGHEST_PROTOCOL)
        with open(write_fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


@contextmanager
def _all_trials(config: ExperimentConfig, workers: int) -> Iterator[tuple[TrialResult, ...]]:
    """All trials of a run, in index order, split into ``workers`` contiguous shares.

    The first share runs here and each other one in a forked child, which
    sends it over its own pipe.  The children are reaped when the block
    exits, so that their exit overlaps the caller's work on the trials.
    On any exception, an interrupt included, the children still running
    are killed first.
    """
    n = config.trials
    bounds = [n * j // workers for j in range(workers + 1)]
    shares = list(zip(bounds[1:-1], bounds[2:]))
    pids: list[int] = []  # every forked child, reaped on the way out
    pipes = []  # read ends, in share order
    try:
        for lo, hi in shares:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _run_child(write_fd, config, lo, hi)
            pids.append(pid)
            os.close(write_fd)  # the child holds the only write end: its exit reads as EOF
            pipes.append(open(read_fd, "rb"))
        trials = _run_trials(config, 0, bounds[1])
        for pipe, (lo, hi) in zip(pipes, shares):
            data = pipe.read()
            if not data:
                raise BlindsimError(f"worker for trials {lo}..{hi - 1} exited without a result")
            ok, payload = pickle.loads(data)
            if not ok:
                raise payload
            trials.extend(payload)
        yield tuple(trials)
    finally:
        for pipe in pipes:
            pipe.close()
        if pids:
            import signal  # about 1 ms of import time, paid only when a run forks

            for pid in pids:
                os.kill(pid, signal.SIGKILL)  # one whose share was read is exiting anyway
                os.waitpid(pid, 0)


def run_experiment(config: ExperimentConfig, threads: PositiveCount = 1) -> ExperimentResult:
    """Run all trials and aggregate summary histograms.

    ``threads`` is the number of worker processes, capped at the trial
    count and the CPU count.  With more than one, the trial range is
    split into contiguous shares: this process runs the first and forked
    children (POSIX only) run the rest.  Trials come back in index order
    and are identical for any worker count.
    """
    require("threads", threads, PositiveCount)
    workers = min(threads, config.trials, os.cpu_count() or 1)
    with _all_trials(config, workers) as trials:
        return ExperimentResult(
            config=config, trials=trials, histograms=_build_histograms(config, trials)
        )

