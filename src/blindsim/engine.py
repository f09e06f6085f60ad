"""Deterministic experiment composition.

run_trial builds one trial end to end: schedule the self-tests, generate
legitimate light, attacker light, and light-emitter schedules, merge the
fragments, run the detector, and evaluate every scheduled test.  Each
trial derives its own random streams from (master seed, trial index,
module tag), so trials are reproducible in isolation and independent of
execution order.  run_experiment can therefore split the trial range
into contiguous shares and run them in forked worker processes: any
split gives the same trials.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field, fields, is_dataclass, replace
from enum import Enum
from operator import itemgetter
from typing import Any, get_type_hints

from .detector import DetectorParams, process_timeline
from .errors import BlindsimError, ConfigError, ValidationError, require_finite
from .optics import AttackScenario, flag_pulse, gen_attack, gen_le_schedule
from .optics import gen_signal_photons, merge_timelines
from .rng import trial_stream as stream  # perfbench traces engine.stream
from .selftest import (
    Decision,
    SelfTestPlan,
    Strategy,
    Verdict,
    _click_span,
    evaluate_flag_pulse,
    evaluate_salt,
    evaluate_self_blind,
    fit_tests,
    schedule_tests,
)
from .stats import Histogram
from .units import MAX_STIMULI, Duration, Fraction, Rate, TrialCount, to_ps, to_seconds


class Scenario(str, Enum):
    NORMAL = "NORMAL"
    MANIPULATED = "MANIPULATED"
    RECOVERY_ATTACK = "RECOVERY_ATTACK"
    CUSTOM = "CUSTOM"


@dataclass(frozen=True)
class ExperimentConfig:
    detector: DetectorParams = field(default_factory=DetectorParams)
    attack: AttackScenario = field(default_factory=AttackScenario)
    plan: SelfTestPlan = field(default_factory=lambda: SelfTestPlan(strategy=Strategy.SALT))
    signal_rate: Rate = 5.5e4  # legitimate photon arrival rate at the detector
    duty_cycle: Fraction = 0.5
    trial_duration: Duration = 4.0e-4
    trials: TrialCount = 100
    seed: int = 1
    scenario: Scenario = Scenario.NORMAL

    def __post_init__(self) -> None:
        require_finite(self)
        if self.scenario == Scenario.NORMAL and self.attack.blind_power_level > 0:
            raise ValidationError("scenario", "NORMAL scenario cannot carry an attack")
        if (
            self.plan.strategy == Strategy.SELF_BLIND
            and self.plan.self_blind_power < self.detector.blind_power
        ):
            raise ValidationError(
                "self_blind_power", "must reach the detector blinding threshold"
            )
        emitted = flag_pulse(self.plan, 0).energy  # can round 1 ulp above the plan's
        if max(self.plan.flag_pulse_energy, emitted) >= self.detector.fake_energy:
            raise ValidationError(
                "flag_pulse_energy", "must stay below the fake-state energy threshold"
            )
        n_tests = fit_tests(self.trial_duration, self.duty_cycle, self.plan)[0]
        if n_tests == 0:
            name = "trial_duration" if self.trial_duration == 0 else "duty_cycle"
            raise ValidationError(name, "leaves no self-test in a trial")
        terms = _expected_stimuli(self, n_tests)
        total = sum(terms.values())
        if total > MAX_STIMULI:
            leaf = max(terms, key=terms.get)
            raise ValidationError(
                leaf,
                f"a trial would expect {total:.3g} stimuli ({terms[leaf]:.3g} from this"
                f" rate), more than the {MAX_STIMULI:g} allowed",
            )


def _expected_stimuli(config: ExperimentConfig, n_tests: int) -> dict[str, float]:
    """Expected stimuli per trial from each rate leaf: its rate times the span it acts over."""
    trial = config.trial_duration
    plan, attack, detector = config.plan, config.attack, config.detector
    fake_span = trial
    if attack.stop_blind_at is not None and not attack.allow_fakes_without_blinding:
        fake_span = min(trial, attack.stop_blind_at)
    salt = plan.salt_rate * plan.test_duration * n_tests if plan.strategy == Strategy.SALT else 0.0
    return {
        "signal_rate": config.signal_rate * trial,
        "salt_rate": salt,
        "dark_rate": detector.dark_rate * trial,
        "noise_rate": detector.noise_rate * trial,
        "fake_pulse_rate": attack.fake_pulse_rate * fake_span,
    }


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
            "verdicts": [
                {
                    "decision": v.decision.value,
                    "observed_count": v.observed_count,
                    "flag_seen": v.flag_seen,
                    "in_blind_clicks": v.in_blind_clicks,
                    "p_value": v.p_value,
                }
                for v in self.verdicts
            ],
            "cause_counts": {k: v for k, v in self.cause_counts},
            "total_clicks": self.total_clicks,
            "response_offsets_ps": list(self.response_offsets_ps),
            "seed_token": self.seed_token,
        }


_EVALUATORS = {
    Strategy.SALT: evaluate_salt,
    Strategy.FLAG_PULSE: evaluate_flag_pulse,
    Strategy.SELF_BLIND: evaluate_self_blind,
}

# Offsets are collected over this window after each test start for
# time-resolved response histograms (10 ns bins downstream).
_OFFSET_SPAN = 200e-9


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


def build_trial_timeline(config: ExperimentConfig, trial_index: int):
    """Scheduled test start times and the merged optical timeline of one trial.

    Exposed separately from run_trial so callers can inspect the exact
    stimuli and detector output behind a verdict.
    """
    if trial_index < 0 or trial_index >= config.trials:
        raise ValidationError("trial_index", "outside configured trial range")
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
        attack = replace(attack, stop_blind_at=starts[0] + plan.test_duration / 2)
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


def run_trial(config: ExperimentConfig, trial_index: int) -> TrialResult:
    """One deterministic trial; reproducible from (config, trial_index)."""
    starts, timeline = build_trial_timeline(config, trial_index)
    seed = config.seed
    clicks = process_timeline(
        config.detector, timeline, stream(seed, trial_index, "detector")
    )

    evaluator = _EVALUATORS[config.plan.strategy]
    verdicts = tuple(evaluator(config.plan, start, clicks) for start in starts)
    offsets: list[int] = []
    span_ps = to_ps(_OFFSET_SPAN)
    for start in starts:
        # clicks come in time order from process_timeline
        a = to_ps(start)
        lo, hi = _click_span(clicks, a, a + span_ps)
        offsets.extend(c.time_ps - a for c in clicks[lo:hi])
    causes = Counter(map(itemgetter(1), clicks))
    return TrialResult(
        index=trial_index,
        verdicts=verdicts,
        cause_counts=tuple(sorted((cause.value, n) for cause, n in causes.items())),
        total_clicks=len(clicks),
        response_offsets_ps=tuple(offsets),
        seed_token=f"{seed}/{trial_index}",
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
        counts, accuracy = self.tally()
        out: dict[str, Any] = {
            "scenario": self.config.scenario.value,
            "strategy": self.config.plan.strategy.value,
            "trials": len(self.trials),
            "decisions": dict(counts),
            "accuracy": accuracy,
        }
        if "test_counts" in self.histograms:
            h = self.histograms["test_counts"]
            out["test_count_mean"] = h.mean()
            out["test_count_variance"] = h.variance()
        verdicts = [v for tr in self.trials for v in tr.verdicts]
        if self.config.plan.strategy in (Strategy.FLAG_PULSE, Strategy.SELF_BLIND):
            flags = [v.flag_seen for v in verdicts if v.flag_seen is not None]
            if flags:
                out["response_fraction"] = sum(flags) / len(flags)
        if self.config.plan.strategy == Strategy.SELF_BLIND:
            blinds = [v.in_blind_clicks for v in verdicts if v.in_blind_clicks is not None]
            if blinds:
                out["in_blind_total"] = int(sum(blinds))
                out["in_blind_nonzero_fraction"] = sum(
                    1 for b in blinds if b > 0
                ) / len(blinds)
        return out


def _build_histograms(config: ExperimentConfig, trials: tuple[TrialResult, ...]):
    hists: dict[str, Histogram] = {
        "clicks_per_trial": Histogram.from_event_counts(t.total_clicks for t in trials)
    }
    verdicts = [v for t in trials for v in t.verdicts]
    if config.plan.strategy == Strategy.SALT:
        hists["test_counts"] = Histogram.from_event_counts(
            v.observed_count for v in verdicts
        )
    if config.plan.strategy in (Strategy.FLAG_PULSE, Strategy.SELF_BLIND):
        offsets = [
            to_seconds(o) for t in trials for o in t.response_offsets_ps
        ]
        hists["response_offsets"] = Histogram.from_times(
            offsets, bin_width=10e-9, t0=0.0, t1=_OFFSET_SPAN
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


def _worker(send, config: ExperimentConfig, lo: int, hi: int) -> None:
    """Body of a worker process: send ``(ok, trials or the exception)``."""
    try:
        out = (True, _run_trials(config, lo, hi))
    except Exception as e:
        out = (False, e)
    send.send(out)


def _run_forked(config: ExperimentConfig, workers: int) -> list[TrialResult]:
    """All trials, in contiguous shares: share 0 here, the others in forked children."""
    import multiprocessing  # costs import time only when a run forks

    ctx = multiprocessing.get_context("fork")
    n = config.trials
    bounds = [n * j // workers for j in range(workers + 1)]
    children = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_worker, args=(send, config, lo, hi))
            proc.start()
            send.close()  # the child holds the only write end, so its death reads as EOF
            children.append((proc, recv, lo, hi))
        trials = _run_trials(config, 0, bounds[1])
        for proc, recv, lo, hi in children:
            try:
                ok, payload = recv.recv()
            except EOFError:
                raise BlindsimError(
                    f"worker for trials {lo}..{hi - 1} exited without a result"
                ) from None
            proc.join()
            if not ok:
                raise payload
            trials.extend(payload)
        return trials
    finally:
        for proc, recv, _, _ in children:
            recv.close()
            if proc.is_alive():
                proc.terminate()
            proc.join()


def run_experiment(config: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Run all trials and aggregate summary histograms.

    ``threads`` is the number of worker processes, capped at the trial
    count and the CPU count.  With more than one, the trial range is
    split into contiguous shares: this process runs the first and forked
    children (POSIX only) run the rest.  Trials come back in index order
    and are identical for any worker count.
    """
    if threads < 1:
        raise ValidationError("threads", "must be >= 1")
    workers = min(threads, config.trials, os.cpu_count() or 1)
    if workers > 1:
        trials = tuple(_run_forked(config, workers))
    else:
        trials = tuple(_run_trials(config, 0, config.trials))
    return ExperimentResult(
        config=config, trials=trials, histograms=_build_histograms(config, trials)
    )


def _config_fields(cls, prefix: str = ""):
    """(dotted path, annotation) of every config field below ``cls``, in field order."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        if f.name != "null_distribution":  # runtime-only, never serialized
            yield prefix + f.name, hints[f.name]
            if is_dataclass(hints[f.name]):
                yield from _config_fields(hints[f.name], f"{prefix}{f.name}.")


_CONFIG_FIELDS = dict(_config_fields(ExperimentConfig))
# Every settable leaf, dotted path -> annotation, in field order: the paths
# that configs, manifests, ``--set`` and sweeps address.
CONFIG_LEAVES = {p: a for p, a in _CONFIG_FIELDS.items() if not is_dataclass(a)}


def build_config(values: dict[str, Any], base: Any = None, prefix: str = "") -> Any:
    """A config with the given leaf values, derived from ``base`` or built anew.

    ``values`` maps dotted leaf paths, relative to the node at ``prefix``,
    to typed values.  A nested object is built only when a path reaches
    into it; the others keep ``base``'s object, or their defaults when
    there is no base.
    """
    kwargs: dict[str, Any] = {}
    nested: dict[str, dict[str, Any]] = {}
    for path, value in values.items():
        name, dot, rest = path.partition(".")
        if dot:
            nested.setdefault(name, {})[rest] = value
        else:
            kwargs[name] = value
    for name, sub_values in nested.items():
        kwargs[name] = build_config(sub_values, getattr(base, name, None), f"{prefix}{name}.")
    cls = _CONFIG_FIELDS[prefix[:-1]] if prefix else ExperimentConfig
    try:
        return cls(**kwargs) if base is None else replace(base, **kwargs)
    except TypeError as e:
        raise ConfigError(f"{prefix or 'config'}: {e}") from e


def set_config_value(config: ExperimentConfig, path: str, value: Any) -> ExperimentConfig:
    """Return a config with the dotted-path leaf replaced."""
    if path not in CONFIG_LEAVES:
        raise ValidationError("parameter", f"not a config leaf: {path!r}")
    return build_config({path: value}, config)


@dataclass(frozen=True)
class SweepRow:
    value: Any
    accuracy: float
    decisions: tuple[tuple[str, int], ...]


def sweep(
    config: ExperimentConfig, parameter_path: str, values, threads: int = 1
) -> list[SweepRow]:
    """Run one experiment per parameter value and tabulate verdict metrics.

    Every point's config is built, and so validated, before any runs.
    """
    points = [(value, set_config_value(config, parameter_path, value)) for value in values]
    rows = []
    for value, cfg in points:
        counts, accuracy = run_experiment(cfg, threads=threads).tally()
        rows.append(SweepRow(value, accuracy, tuple(sorted(counts.items()))))
    return rows


def realized_click_rate(
    params: DetectorParams,
    arrival_rate: float,
    duration: float = 0.5,
    seed: int = 0xB11D,
) -> float:
    """Observed total click rate for a Poissonian source, by pilot simulation."""
    timeline = gen_signal_photons(arrival_rate, duration, stream(seed, "pilot-src"))
    clicks = process_timeline(params, timeline, stream(seed, "pilot-det"))
    return len(clicks) / duration


def calibrate_source_rate(
    params: DetectorParams,
    target_click_rate: float,
    duration: float = 0.5,
    tolerance: float = 0.01,
    seed: int = 0xB11D,
) -> float:
    """Photon arrival rate that yields the target total click rate.

    Deterministic bisection against pilot simulations with a fixed
    internal seed (common random numbers keep the response monotone).
    Accounts for dead-time losses, dark counts and the afterpulse
    cascade, which a closed form would have to approximate.
    """
    if target_click_rate <= 0:
        raise ValidationError("target_click_rate", "must be > 0")
    lo = 0.0
    hi = max(target_click_rate / max(params.efficiency, 1e-9), 1.0)
    for _ in range(40):
        if realized_click_rate(params, hi, duration, seed) >= target_click_rate:
            break
        hi *= 2
    else:
        raise ValidationError("target_click_rate", "unreachable at any source rate")
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        rate = realized_click_rate(params, mid, duration, seed)
        if abs(rate - target_click_rate) <= tolerance * target_click_rate:
            return mid
        if rate < target_click_rate:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
