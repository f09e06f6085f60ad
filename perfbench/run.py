"""blindsim benchmark: trials/s, set-up time and cold-CLI time, end to end.

    python3 perfbench/run.py --workload salt --seed 3 --seconds 20 --trace 0

Workloads (see README.md): ``salt`` and ``short-trials``.
With ``--trace 0`` the last line of stdout is the end-to-end result;
with ``--trace 1`` it holds the per-layer metrics of a traced run, and
the spans are written to ``.perfbench_out/spans_<workload>_<seed>.jsonl``.
The line before the result holds the run's provenance.  The benchmark
exits 2, printing no result, when the checkout has no ``src/blindsim``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import (
    FULL,
    OUT,
    ROOT,
    SRC,
    WORKLOADS,
    Plan,
    Workload,
    chunk_seed,
    cli_seed,
    timed_setup,
)

CLI_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "trials_per_s": "trials/s",
    "trials_per_s_2w": "trials/s",
    "setup_s": "s",
    "cli_wall_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "rng.stream.calls_per_trial": "count",
    "rng.stream.us_per_trial": "us",
    "selftest.schedule_tests.us_per_trial": "us",
    "optics.gen_signal_photons.us_per_trial": "us",
    "optics.gen_attack.us_per_trial": "us",
    "optics.gen_le_schedule.us_per_trial": "us",
    "optics.merge_timelines.us_per_trial": "us",
    "optics.stimuli_per_trial": "count",
    "detector.process_timeline.us_per_trial": "us",
    "detector.clicks_per_trial": "count",
    "detector.click_yield": "ratio",
    "detector.ns_per_stimulus": "ns",
    "selftest.evaluate.us_per_trial": "us",
    "engine.build_trial_timeline.self_us_per_trial": "us",
    "engine.run_trial.self_us_per_trial": "us",
    "engine.run_trial.us_p50": "us",
    "engine.run_trial.us_p99": "us",
    "engine.aggregate_ms": "ms",
    "engine.parallel_cpu_util": "ratio",
    "setup.import_s": "s",
    "presets.signal_rate_for_s": "s",
    "presets.salt_rate_for_s": "s",
    "stats.count_distribution_oracle_s": "s",
    "manifest.write_ms": "ms",
    "manifest.bytes_written": "bytes",
    "cli.simulate.self_ms": "ms",
    "trace.overhead_frac": "ratio",
    "trace.stage_sum_frac": "ratio",
    "failed_frac": "ratio",
}


class Ops:
    """Operations attempted and failed: trials in process, and CLI calls."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def fail(self, count: int, why: str) -> None:
        if count:
            self.failed += count
            self.notes.append(f"{count} failed: {why}")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("BLINDSIM_SEED", None)
    return env


def _probe(args: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parent / "probe.py"), *args],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args[0]} failed: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- correctness of in-process trials --------------------------------------


def golden_check(workload: Workload, configs: dict, ops: Ops) -> None:
    """Default-seed digests of every arm, with 1 and 2 workers, vs frozen."""
    from dataclasses import replace

    from blindsim.engine import run_experiment

    from checks import load_golden, output_digests

    golden = load_golden()
    for arm in workload.arms:
        config = replace(configs[arm.key], trials=golden["trials_per_arm"], seed=golden["seed"])
        want = golden["digests"].get(arm.key)
        for threads in (1, 2):
            ops.attempted += config.trials
            try:
                got = output_digests(run_experiment(config, threads=threads), OUT)
            except Exception as e:  # a raising trial is a failed operation
                ops.fail(config.trials, f"golden {arm.key} raised {e!r}")
                continue
            if got != want:
                ops.fail(config.trials, f"golden digest mismatch {arm.key} threads={threads}")


def _run_chunk(workload, configs, seed, chunk, plan, threads, ops, tracer=None):
    """One chunk of every arm; returns (trials, seconds, cpu_seconds, outputs)."""
    from dataclasses import replace

    from blindsim import engine

    from checks import records

    run = engine.run_experiment
    if tracer is not None:
        tracer.install_engine()
        run = tracer.wrap(run, "engine.run_experiment")
    outputs, n_total, wall, cpu = {}, 0, 0.0, 0.0
    try:
        for arm in workload.arms:
            n = max(1, round(arm.per_chunk * plan.chunk_scale))
            config = replace(configs[arm.key], trials=n, seed=chunk_seed(seed, chunk))
            ops.attempted += n
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                result = run(config, threads=threads)
            except Exception as e:  # a raising trial is a failed operation
                ops.fail(n, f"{arm.key} chunk {chunk} raised {e!r}")
                outputs[arm.key] = None
                continue
            wall += time.perf_counter() - w0
            cpu += time.process_time() - c0
            n_total += n
            outputs[arm.key] = (records(result), result.histograms)
    finally:
        if tracer is not None:
            tracer.restore()
    return n_total, wall, cpu, outputs


def _compare(reference: dict, other: dict, ops: Ops, what: str) -> None:
    from checks import count_mismatches

    for key, ref in reference.items():
        got = other.get(key)
        if ref is None or got is None:
            continue
        bad = count_mismatches(ref[0], got[0])
        if got[1] != ref[1]:
            bad = len(ref[0])
        ops.fail(2 * bad, f"{what} differs on {key}")


def _tally(tallies: dict, outputs: dict) -> None:
    from checks import verdict_tally

    for key, out in outputs.items():
        if out is not None:
            wrong, n = verdict_tally(out[0], key)
            tallies[key][0] += wrong
            tallies[key][1] += n


def accuracy_check(tallies: dict, ops: Ops) -> None:
    from checks import accuracy_accepted, load_golden

    reference = load_golden()["reference"]
    for key, (wrong, n) in tallies.items():
        if not accuracy_accepted(wrong, n, reference[key]):
            ops.fail(n, f"{key} accuracy {n - wrong}/{n} outside the acceptance region")


class TrialPhase:
    """Chunks of every arm, alternating 1 and 2 workers (and traced ones).

    Each chunk runs the same trials in every mode, so the modes see the
    same host conditions and their outputs can be compared trial by trial.
    """

    def __init__(self, workload, configs, seed, plan, ops, tracer=None):
        self.workload, self.configs, self.seed, self.plan, self.ops = (
            workload, configs, seed, plan, ops)
        self.tracer = tracer
        self.modes = [("plain", 1), ("plain", 2)] + ([("traced", 1)] if tracer else [])
        self.samples = {mode: [0, 0.0, 0.0] for mode in self.modes}  # trials, wall, cpu
        self.tallies = {arm.key: [0, 0] for arm in workload.arms}
        self.chunk = 0

    def run_for(self, seconds: float) -> None:
        start = time.perf_counter()
        first = self.chunk
        while self.chunk - first < 1 or time.perf_counter() - start < seconds:
            self._one_chunk()

    def rate(self, mode) -> float:
        trials, wall, _ = self.samples[mode]
        return trials / wall

    def _one_chunk(self) -> None:
        k = self.chunk % len(self.modes)
        outputs = {}
        for mode in self.modes[k:] + self.modes[:k]:
            n, wall, cpu, outputs[mode] = _run_chunk(
                self.workload, self.configs, self.seed, self.chunk, self.plan, mode[1],
                self.ops, self.tracer if mode[0] == "traced" else None,
            )
            if n:
                for i, value in enumerate((n, wall, cpu)):
                    self.samples[mode][i] += value
        base = outputs[("plain", 1)]
        _compare(base, outputs[("plain", 2)], self.ops, "threads=2 output")
        if self.tracer:
            _compare(base, outputs[("traced", 1)], self.ops, "traced output")
        _tally(self.tallies, base)
        self.chunk += 1


# -- cold CLI --------------------------------------------------------------


def cli_call(workload, seed, plan, ops, probe_spans=None):
    """One cold `blindsim simulate`; returns (wall_s, output digests, probe, bytes).

    With ``probe_spans`` the call runs under probe.py, traced.
    """
    from checks import manifest_digest_failures, output_file_digests, read_records

    args = ["simulate", *workload.cli_args, "--trials", str(plan.cli_trials),
            "--seed", str(seed)]
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        args += ["--out", tmp]
        if probe_spans is None:
            cmd = [sys.executable, "-m", "blindsim.cli", *args]
        else:
            cmd = [sys.executable, str(Path(__file__).resolve().parent / "probe.py"),
                   "cli", probe_spans, *args]
        ops.attempted += 1
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                                  text=True, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            ops.fail(1, f"CLI timed out: {args}")
            return None
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            ops.fail(1, f"CLI exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return None
        out = Path(tmp)
        recs = read_records(out / "trials.jsonl") if (out / "trials.jsonl").is_file() else []
        if manifest_digest_failures(out) or len(recs) != plan.cli_trials:
            ops.fail(1, f"CLI output does not match its manifest: {args}")
            return None
        probe = json.loads(proc.stdout.strip().splitlines()[-1]) if probe_spans else None
        size = sum(p.stat().st_size for p in out.iterdir())
        return wall, output_file_digests(out), probe, size


def _peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def end_to_end(workload: Workload, seed: int, seconds: float, plan: Plan, configs, setup0, ops):
    """The untraced run: set-ups, golden check, trial phase with cold calls."""
    setups = [setup0["setup_s"]]
    for _ in range(plan.setup_samples - 1):
        setups.append(_probe(["setup", workload.name, str(seed)])["setup_s"])
    golden_check(workload, configs, ops)  # doubles as the warm-up
    phase = TrialPhase(workload, configs, seed, plan, ops)
    walls = []
    for call in range(workload.cli_calls):
        got = cli_call(workload, cli_seed(seed, call), plan, ops)
        if got:
            walls.append(got[0])
        phase.run_for(seconds / workload.cli_calls)
    accuracy_check(phase.tallies, ops)
    return {
        "trials_per_s": phase.rate(("plain", 1)),
        "trials_per_s_2w": phase.rate(("plain", 2)),
        "setup_s": statistics.median(setups),
        "cli_wall_s": statistics.median(walls),
        "peak_rss_mb": _peak_rss_mb(),
    }


def traced(workload, seed, seconds, plan, configs, setup0, tracer, ops, spans_path):
    """The traced run: per-layer metrics from spans; ``tracer`` holds the set-up's."""
    from checks import read_records
    from tracing import (
        MANIFEST_WRITERS,
        Tracer,
        aggregate_ms,
        self_times,
        spans_from_records,
        total_ns,
        trial_metrics,
    )

    m = {
        "setup.import_s": setup0["import_s"],
        "presets.signal_rate_for_s": total_ns(tracer.spans, "presets.signal_rate_for") / 1e9,
        "presets.salt_rate_for_s": total_ns(tracer.spans, "presets.salt_rate_for") / 1e9,
    }
    tracer.write(spans_path, "setup")
    trial_tracer = Tracer()
    phase = TrialPhase(workload, configs, seed, plan, ops, trial_tracer)
    phase.run_for(seconds)
    accuracy_check(phase.tallies, ops)
    trial_tracer.write(spans_path, "trials")
    absent = tracer.absent | trial_tracer.absent
    m.update(trial_metrics(trial_tracer.spans, absent))
    m["engine.aggregate_ms"] = aggregate_ms(trial_tracer.spans)
    m["trace.overhead_frac"] = phase.rate(("plain", 1)) / phase.rate(("traced", 1)) - 1
    _, wall2, cpu2 = phase.samples[("plain", 2)]
    m["engine.parallel_cpu_util"] = cpu2 / (2 * wall2)

    plain_call = cli_call(workload, cli_seed(seed, 0), plan, ops)
    cli_spans_path = OUT / f"cli_spans_{workload.name}_{seed}.jsonl"
    cli_spans_path.unlink(missing_ok=True)
    traced_call = cli_call(workload, cli_seed(seed, 0), plan, ops,
                           probe_spans=str(cli_spans_path))
    if plain_call is None or traced_call is None:
        raise RuntimeError("; ".join(ops.notes))
    if plain_call[1] != traced_call[1]:
        ops.fail(1, "traced CLI output differs from the untraced one")
    spans = spans_from_records(read_records(cli_spans_path))
    with spans_path.open("a") as fh:
        fh.write(cli_spans_path.read_text())
    cli_spans_path.unlink()
    absent |= set(traced_call[2]["absent"])
    selfs = self_times(spans)
    m["cli.simulate.self_ms"] = sum(selfs[s[0]] for s in spans if s[2] == "cli.simulate") / 1e6
    m["manifest.write_ms"] = sum(total_ns(spans, name) for name in MANIFEST_WRITERS) / 1e6
    m["manifest.bytes_written"] = float(traced_call[3])
    m["stats.count_distribution_oracle_s"] = (
        total_ns(spans, "stats.count_distribution_oracle") / 1e9
    )
    m["failed_frac"] = ops.failed / max(1, ops.attempted)
    return m, sorted(absent)


def provenance(workload: Workload, seed: int, seconds: float, trace: int) -> dict:
    import hashlib
    import platform
    from importlib import metadata

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    h = hashlib.sha256()
    for path in sorted((SRC / "blindsim").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    from checks import load_golden

    import numpy

    frozen = load_golden()["frozen_with"]["numpy"]
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": version("scipy"), "click": version("click"),
        "golden_numpy": frozen, "golden_numpy_matches": frozen == numpy.__version__,
        "nproc": os.cpu_count(), "cpu_model": cpu, "git_commit": commit,
        "source_sha256": h.hexdigest(),
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool, plan: Plan = FULL):
    """One benchmark run; returns the result line and the provenance."""
    from tracing import Tracer

    tracer = Tracer() if trace else None
    configs, setup0 = timed_setup(workload, seed, tracer)
    if tracer is not None:
        tracer.restore()
    OUT.mkdir(exist_ok=True)
    ops = Ops()
    if trace:
        spans_path = OUT / f"spans_{workload.name}_{seed}.jsonl"
        spans_path.unlink(missing_ok=True)
        values, absent = traced(workload, seed, seconds, plan, configs, setup0,
                                tracer, ops, spans_path)
        units = PER_LAYER_UNITS
    else:
        values, absent = end_to_end(workload, seed, seconds, plan, configs, setup0, ops), []
        units = END_TO_END_UNITS
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}
    result = {"correct": ops.failed == 0, "attempted": ops.attempted,
              "failed": ops.failed, "metrics": metrics}
    prov = provenance(workload, seed, seconds, int(trace))
    prov["absent_layers"] = absent
    prov["failures"] = ops.notes
    return result, prov


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    result, prov = run(workload, args.seed, args.seconds, bool(args.trace))
    record = OUT / f"result_{workload.name}_{args.seed}_trace{args.trace}.json"
    record.write_text(json.dumps({"provenance": prov, "result": result}, indent=1) + "\n")
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
