"""Deterministic experiment composition.

trial_anatomy builds one trial end to end: schedule the self-tests,
generate legitimate light, attacker light, and light-emitter schedules,
merge the fragments, run the detector, and evaluate every scheduled
test.  run_trial folds that into a TrialResult.  Each
trial derives its own random streams from (master seed, trial index,
module tag), so trials are reproducible in isolation and independent of
execution order.  run_experiment can therefore split the trial range
into contiguous shares and run them in worker processes: any split gives
the same trials.  Each worker is an ``os.fork`` child that the first
parallel run of a process forks and every later one reuses.  It reads
pickled ``(config, lo, hi)`` requests from its own pipe and sends the
pickled share back over another, so it runs the engine code of the
moment it was forked.  The caller runs the first share and reads the
others in share order.  A failed run kills and reaps the workers it
used; close_workers, also run at exit, reaps the rest.  A worker exits
when its request pipe reads EOF, so it cannot outlive its caller.
"""

from __future__ import annotations

import atexit
import os
import pickle
import threading
from collections import Counter
from contextlib import suppress
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


@dataclass(frozen=True)
class _Worker:
    pid: int
    requests: int  # write end of the worker's request pipe
    results: int  # read end of its result pipe


_workers: list[_Worker] = []  # every live worker of this process, idle between runs
_lock = threading.Lock()  # one parallel run at a time


def _serve(requests: int, results: int) -> None:
    """Body of a forked worker: answer each pickled ``(config, lo, hi)`` request.

    Each answer is the pickled ``(ok, trials or the exception)``, pickled
    before anything is written, so that a result that cannot be pickled
    sends nothing and reads as a worker that died.  The worker ignores
    SIGINT, which the caller handles, and exits 0 when its request pipe
    reads EOF: when the caller closes it, or exits.  It never returns: it
    leaves through ``os._exit``, skipping the caller's exit handlers and
    buffered output.
    """
    status = 1
    try:
        import signal

        signal.signal(signal.SIGINT, signal.SIG_IGN)
        with open(requests, "rb") as inp, open(results, "wb") as out:
            while True:
                try:
                    config, lo, hi = pickle.load(inp)
                except EOFError:
                    break
                try:
                    reply = (True, _run_trials(config, lo, hi))
                except Exception as e:
                    reply = (False, e)
                out.write(pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))
                out.flush()
        status = 0
    finally:
        os._exit(status)


def _fork_worker() -> _Worker:
    requests_r, requests_w = os.pipe()
    results_r, results_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(requests_w)  # else the worker would never read EOF
        os.close(results_r)
        _serve(requests_r, results_w)
    os.close(requests_r)
    os.close(results_w)
    return _Worker(pid, requests_w, results_r)


def _drop(worker: _Worker) -> None:
    """Forget ``worker`` and close its pipes, with ``os.close`` so that nothing is flushed."""
    _workers.remove(worker)
    os.close(worker.requests)
    os.close(worker.results)


def _stop(workers: list[_Worker], kill: bool) -> None:
    """Close the pipes of ``workers``, SIGKILL them if ``kill``, and reap them."""
    import signal  # about 1 ms of import time, paid only when workers stop

    for w in workers:
        _drop(w)  # an idle worker reads EOF and exits
        if kill:
            with suppress(ProcessLookupError):
                os.kill(w.pid, signal.SIGKILL)
    for w in workers:
        with suppress(ChildProcessError):
            os.waitpid(w.pid, 0)


def _ready_workers(k: int) -> list[_Worker]:
    """``k`` idle workers: the dead are reaped and dropped, the missing forked."""
    for w in list(_workers):
        try:
            alive = os.waitpid(w.pid, os.WNOHANG) == (0, 0)
        except ChildProcessError:  # reaped by someone else
            alive = False
        if not alive:
            _drop(w)
    while len(_workers) < k:
        _workers.append(_fork_worker())
    return _workers[:k]


def close_workers() -> None:
    """Close and reap every worker; the next parallel run forks new ones."""
    with _lock:
        _stop(list(_workers), kill=False)


def _forget_workers() -> None:
    """In a forked child: close the inherited pipes, so only the forking process holds them."""
    global _lock
    for w in list(_workers):
        _drop(w)
    _lock = threading.Lock()  # another thread may have held it at the fork


atexit.register(close_workers)
if hasattr(os, "register_at_fork"):  # POSIX only, as is a parallel run
    os.register_at_fork(after_in_child=_forget_workers)


def _all_trials(config: ExperimentConfig, workers: int) -> tuple[TrialResult, ...]:
    """All trials of a run, in index order, split into ``workers`` contiguous shares.

    The first share runs here and each other one in a worker, which sends
    it back over its result pipe.  If the run fails for any reason, an
    interrupt included, every worker it used is killed, reaped and
    forgotten before the error propagates.
    """
    n = config.trials
    bounds = [n * j // workers for j in range(workers + 1)]
    shares = list(zip(bounds[1:-1], bounds[2:]))
    if not shares:
        return tuple(_run_trials(config, 0, n))
    with _lock:
        used = _ready_workers(len(shares))
        try:
            for w, (lo, hi) in zip(used, shares):
                with suppress(BrokenPipeError), open(w.requests, "wb", closefd=False) as pipe:
                    pipe.write(pickle.dumps((config, lo, hi), pickle.HIGHEST_PROTOCOL))
            trials = _run_trials(config, 0, bounds[1])
            for w, (lo, hi) in zip(used, shares):
                try:  # a worker that died mid-answer left a truncated pickle
                    with open(w.results, "rb", closefd=False) as pipe:
                        ok, payload = pickle.load(pipe)
                except (EOFError, pickle.UnpicklingError):
                    raise BlindsimError(
                        f"worker for trials {lo}..{hi - 1} exited without a result"
                    ) from None
                if not ok:
                    raise payload
                trials.extend(payload)
        except BaseException:
            _stop(used, kill=True)
            raise
    return tuple(trials)


def run_experiment(config: ExperimentConfig, threads: PositiveCount = 1) -> ExperimentResult:
    """Run all trials and aggregate summary histograms.

    ``threads`` is the number of worker processes, capped at the trial
    count and the CPU count.  With more than one, the trial range is
    split into contiguous shares: this process runs the first and forked
    workers (POSIX only) run the rest.  Trials come back in index order
    and are identical for any worker count.
    """
    require("threads", threads, PositiveCount)
    workers = min(threads, config.trials, os.cpu_count() or 1)
    trials = _all_trials(config, workers)
    return ExperimentResult(
        config=config, trials=trials, histograms=_build_histograms(config, trials)
    )
