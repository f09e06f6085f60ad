"""Self-tests of the benchmark: metrics emitted, failures counted, tracer inert.

    python3 -m pytest -q perfbench/tests

Tiny runs still calibrate the presets and spawn cold CLI calls, so the
file takes about a minute.
"""

from __future__ import annotations

import json
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import OUT, WORKLOADS, Plan, use_checkout_source  # noqa: E402

use_checkout_source()

TINY = Plan(setup_samples=1, cli_trials=5, chunk_scale=0.1)
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def flag_config():
    from blindsim.engine import Scenario
    from blindsim.presets import flag_pulse_config

    return flag_pulse_config(Scenario.NORMAL, trials=30, seed=5)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(name, trace):
    workload = replace(WORKLOADS[name], cli_calls=1)
    result, prov = run.run(workload, seed=4, seconds=0.2, trace=trace, plan=TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, prov["failures"]
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert prov["absent_layers"] == []
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["rng.stream.calls_per_trial"] == 5.0
        assert m["trace.stage_sum_frac"] == pytest.approx(1.0, abs=0.1)
        assert (OUT / f"spans_{name}_4.jsonl").stat().st_size > 0


def test_corrupted_trial_record_is_a_failure(flag_config):
    from blindsim.engine import run_experiment

    result = run_experiment(flag_config)
    good = {"k": (checks.records(result), result.histograms)}
    bad_records = checks.records(result)
    bad_records[3]["total_clicks"] += 1
    ops = run.Ops()
    run._compare(good, {"k": (bad_records, result.histograms)}, ops, "test")
    assert ops.failed == 2
    ops = run.Ops()
    run._compare(good, {"k": (checks.records(result), result.histograms)}, ops, "test")
    assert ops.failed == 0


def test_corrupted_golden_digest_is_a_failure(monkeypatch, flag_config):
    workload = WORKLOADS["short-trials"]
    configs = {arm.key: flag_config for arm in workload.arms[:1]}
    workload = replace(workload, arms=workload.arms[:1])
    golden = checks.load_golden()
    ops = run.Ops()
    run.golden_check(workload, configs, ops)
    assert ops.failed == 0 and ops.attempted == 2 * golden["trials_per_arm"]
    key = workload.arms[0].key
    golden["digests"][key]["trials.jsonl"] = "0" * 64
    monkeypatch.setattr(checks, "load_golden", lambda: golden)
    ops = run.Ops()
    run.golden_check(workload, configs, ops)
    assert ops.failed == ops.attempted == 2 * golden["trials_per_arm"]


def test_corrupted_cli_output_fails_its_manifest(tmp_path):
    (tmp_path / "trials.jsonl").write_text('{"index":0}\n')
    digest = checks.sha256_bytes(b'{"index":0}\n')
    (tmp_path / "manifest.txt").write_text(f"digest.trials.jsonl = {digest}\n")
    assert checks.manifest_digest_failures(tmp_path) == 0
    (tmp_path / "trials.jsonl").write_text('{"index":1}\n')
    assert checks.manifest_digest_failures(tmp_path) == 1


def test_accuracy_gate_accepts_the_reference_and_rejects_a_broken_verdict():
    ref = {"wrong": 2738, "n": 40_000}
    assert checks.accuracy_accepted(300, 4400, ref)
    assert not checks.accuracy_accepted(600, 4400, ref)
    assert not checks.accuracy_accepted(30, 4400, ref)
    assert checks.accuracy_accepted(0, 5000, {"wrong": 0, "n": 20_000})
    assert not checks.accuracy_accepted(100, 5000, {"wrong": 0, "n": 20_000})


def test_tracer_leaves_outputs_unchanged(flag_config):
    from blindsim import engine

    originals = {attr: getattr(engine, attr) for attr in ("run_trial", "stream")}
    evaluators = dict(engine._EVALUATORS)
    plain = engine.run_experiment(flag_config)
    tracer = Tracer()
    tracer.install_engine()
    try:
        traced = engine.run_experiment(flag_config)
    finally:
        tracer.restore()
    assert checks.records(traced) == checks.records(plain)
    assert traced.histograms == plain.histograms
    assert {attr: getattr(engine, attr) for attr in originals} == originals
    assert engine._EVALUATORS == evaluators
    trials = {s[3] for s in tracer.spans if s[2] == "engine.run_trial"}
    assert trials == set(range(flag_config.trials))


def test_missing_name_is_reported_absent():
    tracer = Tracer()
    tracer.patch(types.SimpleNamespace(), "gone", "optics.gone")
    assert tracer.absent == {"optics.gone"}
