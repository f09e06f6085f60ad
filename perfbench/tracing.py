"""Span tracer that wraps blindsim's public functions from the outside.

The tracer replaces module attributes that blindsim resolves at call time
(``blindsim.engine.run_trial``, ``blindsim.engine.stream``, ...) with
wrappers that record one span per call: id, parent id, layer name, trial
index, start and end in nanoseconds, and optional counts.  Nothing in
the package changes; ``restore`` puts the originals back.  A name that a
later version of blindsim no longer has is recorded as absent and its
layer reports zero time.

Spans stay in memory and are written out when the run ends.  Per-trial
metrics use spans recorded inside ``run_trial`` with one worker, so a
span's children run one after another on its own thread.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
from pathlib import Path
from time import perf_counter_ns

# (attribute of blindsim.engine, layer name).  All are resolved by
# run_trial / build_trial_timeline at call time.
ENGINE_LAYERS = (
    ("run_trial", "engine.run_trial"),
    ("build_trial_timeline", "engine.build_trial_timeline"),
    ("stream", "rng.stream"),
    ("schedule_tests", "selftest.schedule_tests"),
    ("gen_signal_photons", "optics.gen_signal_photons"),
    ("gen_attack", "optics.gen_attack"),
    ("gen_le_schedule", "optics.gen_le_schedule"),
    ("merge_timelines", "optics.merge_timelines"),
    ("process_timeline", "detector.process_timeline"),
)
EVALUATE = "selftest.evaluate"  # the strategy table engine._EVALUATORS

# Names blindsim.cli resolves while running `simulate`.
CLI_LAYERS = (
    ("preset_config", "presets.preset_config"),
    ("run_experiment", "engine.run_experiment"),
    ("count_distribution_oracle", "stats.count_distribution_oracle"),
    ("write_trials_jsonl", "manifest.write_trials_jsonl"),
    ("write_histogram_csv", "manifest.write_histogram_csv"),
    ("sha256_file", "manifest.sha256_file"),
)
MANIFEST_WRITERS = tuple(name for _, name in CLI_LAYERS if name.startswith("manifest."))
PRESETS_LAYERS = (
    ("signal_rate_for", "presets.signal_rate_for"),
    ("salt_rate_for", "presets.salt_rate_for"),
)

# Stages whose per-trial times add up to run_trial.
TRIAL_STAGES = tuple(name for _, name in ENGINE_LAYERS[2:]) + (EVALUATE,)


def _trial_index(args, kwargs):
    return kwargs["trial_index"] if "trial_index" in kwargs else args[1]


def _detector_counts(args, kwargs, result):
    timeline = kwargs["timeline"] if "timeline" in kwargs else args[1]
    stimuli = len(timeline.photons) + len(timeline.pulses) + len(timeline.cw_segments)
    return {"stimuli": stimuli, "clicks": len(result)}


class Tracer:
    def __init__(self) -> None:
        # (id, parent, name, trial, start_ns, end_ns, counts)
        self.spans: list[tuple] = []
        self.absent: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple] = []

    def wrap(self, fn, name, trial_of=None, counts=None):
        local = self._local
        ids = self._ids
        spans = self.spans

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            outer_trial = getattr(local, "trial", None)
            trial = trial_of(args, kwargs) if trial_of else outer_trial
            local.trial = trial
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            result = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                local.trial = outer_trial
                extra = None
                if counts is not None and result is not None:
                    try:
                        extra = counts(args, kwargs, result)
                    except (AttributeError, TypeError, KeyError, IndexError):
                        self.absent.add("counts:" + name)
                spans.append((sid, parent, name, trial, start, end, extra))

        return traced

    def patch(self, obj, attr, name, **kw) -> None:
        original = getattr(obj, attr, None)
        if original is None:
            self.absent.add(name)
            return
        self._patches.append((obj, attr, original))
        setattr(obj, attr, self.wrap(original, name, **kw))

    def install_engine(self) -> None:
        from blindsim import engine

        for attr, name in ENGINE_LAYERS:
            kw = {}
            if attr == "run_trial":
                kw["trial_of"] = _trial_index
            if attr == "process_timeline":
                kw["counts"] = _detector_counts
            self.patch(engine, attr, name, **kw)
        table = getattr(engine, "_EVALUATORS", None)
        if not isinstance(table, dict):
            self.absent.add(EVALUATE)
            return
        for key, fn in list(table.items()):
            self._patches.append((table, key, fn))
            table[key] = self.wrap(fn, EVALUATE)

    def install_presets(self) -> None:
        from blindsim import presets

        for attr, name in PRESETS_LAYERS:
            self.patch(presets, attr, name)

    def install_cli(self) -> None:
        from blindsim import cli

        for attr, name in CLI_LAYERS:
            self.patch(cli, attr, name)
        command = getattr(cli, "simulate", None)
        if command is None:
            self.absent.add("cli.simulate")
        else:
            self.patch(command, "callback", "cli.simulate")

    def restore(self) -> None:
        for obj, key, original in reversed(self._patches):
            if isinstance(obj, dict):
                obj[key] = original
            else:
                setattr(obj, key, original)
        self._patches.clear()

    def write(self, path: Path, tag: str) -> None:
        with path.open("a") as fh:
            for sid, parent, name, trial, start, end, extra in self.spans:
                rec = {"src": tag, "id": sid, "parent": parent, "name": name,
                       "trial": trial, "start_ns": start, "end_ns": end}
                if extra:
                    rec.update(extra)
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def spans_from_records(records):
    return [
        (r["id"], r["parent"], r["name"], r["trial"], r["start_ns"], r["end_ns"],
         {k: r[k] for k in ("stimuli", "clicks") if k in r} or None)
        for r in records
    ]


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = {}
    for sid, parent, _, _, start, end, _ in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, _, _, start, end, _ in spans:
        covered = 0
        cursor = start
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        out[sid] = end - start - covered
    return out


def total_ns(spans, name) -> int:
    return sum(end - start for _, _, n, _, start, end, _ in spans if n == name)


def trial_metrics(spans, absent) -> dict[str, float]:
    """Per-trial layer metrics from spans recorded with one worker."""
    trial_spans = [s for s in spans if s[3] is not None]
    runs = [s for s in trial_spans if s[2] == "engine.run_trial"]
    n = len(runs)
    if n == 0:
        raise ValueError("no traced trials")
    self_ns = self_times(trial_spans)
    by_name: dict[str, int] = {}
    self_by_name: dict[str, int] = {}
    calls: dict[str, int] = {}
    stimuli = clicks = 0
    for span in trial_spans:
        sid, _, name, _, start, end, extra = span
        by_name[name] = by_name.get(name, 0) + end - start
        self_by_name[name] = self_by_name.get(name, 0) + self_ns[sid]
        calls[name] = calls.get(name, 0) + 1
        if extra:
            stimuli += extra["stimuli"]
            clicks += extra["clicks"]

    def us(ns: int) -> float:
        return ns / n / 1e3

    m = {f"{name}.us_per_trial": us(by_name.get(name, 0)) for name in TRIAL_STAGES}
    m["rng.stream.calls_per_trial"] = calls.get("rng.stream", 0) / n
    m["engine.run_trial.self_us_per_trial"] = us(self_by_name.get("engine.run_trial", 0))
    m["engine.build_trial_timeline.self_us_per_trial"] = us(
        self_by_name.get("engine.build_trial_timeline", 0)
    )
    counted = "counts:detector.process_timeline" not in absent and stimuli > 0
    m["optics.stimuli_per_trial"] = stimuli / n if counted else 0.0
    m["detector.clicks_per_trial"] = clicks / n if counted else 0.0
    m["detector.click_yield"] = clicks / stimuli if counted else 0.0
    m["detector.ns_per_stimulus"] = (
        by_name.get("detector.process_timeline", 0) / stimuli if counted else 0.0
    )
    durations = sorted((end - start) / 1e3 for *_, start, end, _ in runs)
    m["engine.run_trial.us_p50"] = statistics.median(durations)
    m["engine.run_trial.us_p99"] = durations[min(n - 1, int(0.99 * n))]
    mean_trial = sum(durations) / n
    stage_sum = sum(m[f"{name}.us_per_trial"] for name in TRIAL_STAGES)
    stage_sum += m["engine.run_trial.self_us_per_trial"]
    stage_sum += m["engine.build_trial_timeline.self_us_per_trial"]
    m["trace.stage_sum_frac"] = stage_sum / mean_trial
    return m


def aggregate_ms(spans) -> float:
    """Median over run_experiment spans of their time outside run_trial."""
    trial_ns: dict[int, int] = {}
    for _, parent, name, _, start, end, _ in spans:
        if name == "engine.run_trial":
            trial_ns[parent] = trial_ns.get(parent, 0) + end - start
    values = [
        (end - start - trial_ns.get(sid, 0)) / 1e6
        for sid, _, name, _, start, end, _ in spans
        if name == "engine.run_experiment"
    ]
    return statistics.median(values) if values else 0.0
