from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import blindsim
from blindsim.cli import _build_config, main
from blindsim.engine import CONFIG_LEAVES, ExperimentConfig, run_experiment
from blindsim.manifest import (
    RunManifest,
    _parse_scalar,
    config_from_flat,
    config_to_flat,
    load_config_text,
    parse_flat,
    read_histogram_csv,
)
from blindsim.presets import salt_config
from blindsim import Scenario, Histogram


def run_cli(*args, env=None):
    return CliRunner().invoke(main, list(args), env=env, catch_exceptions=False)


def digest_dir(path: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir())
        if p.name != "manifest.txt"  # wall-clock timestamps differ by design
    }


class TestConfigRoundTrip:
    def test_flat_round_trip_is_field_identical(self):
        config = salt_config(Scenario.MANIPULATED, trials=17, seed=99)
        flat = config_to_flat(config)
        rebuilt = config_from_flat(flat)
        assert rebuilt == config

    def test_default_config_round_trip(self):
        config = ExperimentConfig()
        assert config_from_flat(config_to_flat(config)) == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(Exception) as err:
            config_from_flat({"detector.effciency": "0.5"})
        assert "effciency" in str(err.value)

    def test_manifest_round_trip(self):
        config = salt_config(Scenario.NORMAL, trials=3, seed=4)
        manifest = RunManifest(
            version="0.1.0",
            seed=4,
            started_utc="2026-01-01T00:00:00Z",
            finished_utc="2026-01-01T00:00:05Z",
            threads=2,
            config_flat=config_to_flat(config),
            digests={"trials.jsonl": "ab" * 32},
            salt_null="reference",
            timings={"config_s": 0.1, "trials_s": 1 / 3},
        )
        text = manifest.dumps()
        flat = parse_flat(text)
        assert flat["env.python"] == "{}.{}.{}".format(*sys.version_info[:3])
        assert flat["env.numpy"] == np.__version__
        loaded = RunManifest.loads(text)
        assert loaded == manifest
        assert loaded.config() == config
        # a manifest written before the env.*, run.salt_null and timing.*
        # keys existed still loads
        older = "".join(
            line for line in text.splitlines(True)
            if not line.startswith(("env.", "run.salt_null", "timing."))
        )
        assert RunManifest.loads(older) == replace(manifest, salt_null=None, timings={})

    def test_comments_and_blanks_ignored(self):
        text = "# comment\n\nseed = 5\ntrials = 2\n"
        flat = parse_flat(text)
        assert flat == {"seed": "5", "trials": "2"}
        config = load_config_text(text)
        assert config.seed == 5 and config.trials == 2


class TestSimulateCommand:
    def test_writes_outputs_and_exits_zero(self, tmp_path):
        out = tmp_path / "run"
        result = run_cli(
            "simulate", "--scenario", "normal", "--protocol", "salt",
            "--trials", "40", "--seed", "3", "--out", str(out),
        )
        assert result.exit_code == 0
        assert (out / "manifest.txt").exists()
        assert (out / "trials.jsonl").exists()
        assert (out / "hist_test_counts.csv").exists()
        assert (out / "hist_salt_null.csv").exists()
        manifest = RunManifest.loads((out / "manifest.txt").read_text())
        for name, digest in manifest.digests.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "protocol,source", [("salt", "reference"), ("flag", "none")]
    )
    def test_manifest_records_null_source_and_stage_timings(self, tmp_path, protocol, source):
        out = tmp_path / "run"
        result = run_cli("simulate", "--protocol", protocol, "--trials", "3", "--out", str(out))
        assert result.exit_code == 0
        flat = parse_flat((out / "manifest.txt").read_text())
        assert flat["run.salt_null"] == source
        for stage in ("config", "salt_null", "trials", "write"):
            seconds = float(flat[f"timing.{stage}_s"])
            assert math.isfinite(seconds) and seconds >= 0, stage

    def test_preset_salt_run_simulates_no_null(self, tmp_path, monkeypatch):
        def no_oracle(*args, **kwargs):
            raise AssertionError("the preset salt null was simulated")

        monkeypatch.setattr(blindsim.presets, "count_distribution_oracle", no_oracle)
        for scenario in ("normal", "manipulated"):
            out = tmp_path / scenario
            result = run_cli(
                "simulate", "--protocol", "salt", "--scenario", scenario,
                "--trials", "3", "--out", str(out),
            )
            assert result.exit_code == 0
            # a re-run from the manifest reads the same frozen null
            rerun = run_cli(
                "simulate", "--config", str(out / "manifest.txt"),
                "--out", str(tmp_path / f"{scenario}-rerun"),
            )
            assert rerun.exit_code == 0
            assert digest_dir(out) == digest_dir(tmp_path / f"{scenario}-rerun")
            assert RunManifest.loads((out / "manifest.txt").read_text()).salt_null == "reference"

    def test_custom_detector_null_ignores_the_run_seed(self, tmp_path):
        nulls = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            result = run_cli(
                "simulate", "--protocol", "salt", "--trials", "2", "--seed", seed,
                "--set", "detector.afterpulse_prob=0.3", "--out", str(out),
            )
            assert result.exit_code == 0
            assert RunManifest.loads((out / "manifest.txt").read_text()).salt_null == "simulated"
            nulls.append((out / "hist_salt_null.csv").read_bytes())
        assert nulls[0] == nulls[1]
        reference = tmp_path / "reference"
        assert run_cli(
            "simulate", "--protocol", "salt", "--trials", "2", "--out", str(reference)
        ).exit_code == 0
        assert nulls[0] != (reference / "hist_salt_null.csv").read_bytes()

    def test_zero_trials_is_a_config_error(self, tmp_path):
        result = run_cli(
            "simulate", "--trials", "0", "--scenario", "normal",
            "--protocol", "salt", "--out", str(tmp_path / "x"),
        )
        assert result.exit_code == 1
        assert "trials" in result.output

    def test_recovery_scenario_requires_self_blind_protocol(self, tmp_path):
        result = run_cli(
            "simulate", "--scenario", "recovery", "--protocol", "salt",
            "--trials", "5", "--out", str(tmp_path / "x"),
        )
        assert result.exit_code == 1
        result = run_cli(
            "simulate", "--scenario", "recovery", "--protocol", "self-blind",
            "--trials", "5", "--out", str(tmp_path / "ok"),
        )
        assert result.exit_code == 0

    def test_rerun_from_manifest_is_byte_identical(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        r1 = run_cli(
            "simulate", "--scenario", "manipulated", "--protocol", "salt",
            "--trials", "30", "--seed", "21", "--out", str(out1),
        )
        assert r1.exit_code == 0
        r2 = run_cli(
            "simulate", "--config", str(out1 / "manifest.txt"),
            "--out", str(out2), "--threads", "4",
        )
        assert r2.exit_code == 0
        assert digest_dir(out1) == digest_dir(out2)

    def test_seed_precedence_env_between_config_and_flag(self, tmp_path):
        config_text = "seed = 5\ntrials = 2\nscenario = NORMAL\n"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(config_text)
        out = tmp_path / "o1"
        run_cli("simulate", "--config", str(cfg), "--out", str(out),
                env={"BLINDSIM_SEED": "77"})
        manifest = RunManifest.loads((out / "manifest.txt").read_text())
        assert manifest.seed == 77
        out2 = tmp_path / "o2"
        run_cli("simulate", "--config", str(cfg), "--out", str(out2),
                "--seed", "123", env={"BLINDSIM_SEED": "77"})
        manifest2 = RunManifest.loads((out2 / "manifest.txt").read_text())
        assert manifest2.seed == 123

    def test_set_override(self, tmp_path):
        out = tmp_path / "run"
        result = run_cli(
            "simulate", "--scenario", "normal", "--protocol", "salt",
            "--trials", "5", "--out", str(out),
            "--set", "plan.count_threshold=60",
        )
        assert result.exit_code == 0
        manifest = RunManifest.loads((out / "manifest.txt").read_text())
        assert manifest.config().plan.count_threshold == 60

    @pytest.mark.parametrize(
        "override,field",
        [
            ("plan.count_threshold=abc", "plan.count_threshold"),
            ("plan.count_threshold=2.7", "plan.count_threshold"),
            ("attack.allow_fakes_without_blinding=maybe",
             "attack.allow_fakes_without_blinding"),
            ("signal_rate=nan", "signal_rate"),
            ("trial_duration=inf", "trial_duration"),
            ("detector.dark_rate=nan", "detector.dark_rate"),
            ("plan.flag_photon_number=0", "flag_photon_number"),
            ("plan.null_response_prob=1.5", "null_response_prob"),
            ("plan.null_in_blind_mean=-1", "null_in_blind_mean"),
            ("plan.null_mean=-5", "null_mean"),
            # finite, but beyond int64 picoseconds or numpy's Poisson range
            ("trial_duration=1e300", "trial_duration"),
            ("detector.dead_time=1e300", "dead_time"),
            ("detector.afterpulse_tau=1e300", "afterpulse_tau"),
            ("attack.fake_width=1e300", "fake_width"),
            ("attack.stop_blind_at=1e300", "stop_blind_at"),
            ("plan.test_duration=1e300", "test_duration"),
            ("plan.response_window=1e300", "response_window"),
            ("signal_rate=1e300", "signal_rate"),
            ("plan.salt_rate=1e300", "salt_rate"),
            ("detector.dark_rate=1e300", "dark_rate"),
            ("detector.noise_rate=1e300", "noise_rate"),
            ("attack.fake_pulse_rate=1e300", "fake_pulse_rate"),
            # every trial's result would be held in memory
            ("trials=1e20", "trials"),
            # each leaf in range, but a trial would expect over 1e7 stimuli
            ("signal_rate=1e12 trial_duration=1", "signal_rate"),
            ("detector.dark_rate=1e11", "dark_rate"),
            # no self-test fits the trial; several settings, space-separated
            ("trial_duration=0", "trial_duration"),
            ("duty_cycle=0.99 trial_duration=1e-5", "duty_cycle"),
            # the plan's energy sits 1 ulp below the threshold, but the
            # fired pulse's peak power times width rounds onto it
            (
                "detector.fake_energy=6.07194931907197e-15"
                " plan.flag_pulse_energy=6.0719493190719695e-15",
                "flag_pulse_energy",
            ),
        ],
    )
    def test_bad_set_value_is_a_config_error(self, tmp_path, override, field):
        # each leaf is set in a run whose physics reads it
        preset = {
            "fake_width": ("--protocol", "flag", "--scenario", "manipulated"),
            "fake_pulse_rate": ("--protocol", "flag", "--scenario", "manipulated"),
            "stop_blind_at": ("--protocol", "self-blind", "--scenario", "recovery"),
            "salt_rate": ("--protocol", "salt"),
            "duty_cycle": ("--protocol", "salt"),
        }.get(field, ("--protocol", "flag"))
        settings = [arg for item in override.split() for arg in ("--set", item)]
        result = run_cli(
            "simulate", *preset, "--trials", "2",
            "--out", str(tmp_path / "x"), *settings,
        )
        assert result.exit_code == 1
        assert f"{field}:" in result.output
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "scenario,protocol",
        [
            ("normal", "salt"), ("manipulated", "salt"),
            ("normal", "flag"), ("manipulated", "flag"),
            ("normal", "self-blind"), ("manipulated", "self-blind"),
            ("recovery", "self-blind"),
        ],
    )
    def test_set_own_text_round_trips_every_leaf(self, scenario, protocol):
        config = _build_config(None, scenario, protocol, 7, 3, ())
        for path, text in config_to_flat(config).items():
            rebuilt = _build_config(None, scenario, protocol, 7, 3, (f"{path}={text}",))
            assert rebuilt == config, path


class TestFigureCommand:
    def test_unknown_figure_exits_one(self, tmp_path):
        result = run_cli("figure", "nope", "--out", str(tmp_path))
        assert result.exit_code == 1

    def test_fig3b_writes_histogram(self, tmp_path):
        result = run_cli(
            "figure", "fig3b", "--trials", "1500", "--seed", "2",
            "--out", str(tmp_path),
        )
        assert result.exit_code == 0
        hist = read_histogram_csv(tmp_path / "hist_fig3b_counts.csv")
        assert hist.n_samples == 1500
        assert hist.mean() == pytest.approx(10.0, abs=1.0)
        assert "mean =" in result.output

    @pytest.mark.parametrize("name", ["fig3b", "fig4"])
    def test_zero_trials_exits_one(self, tmp_path, name):
        result = run_cli("figure", name, "--trials", "0", "--out", str(tmp_path / "x"))
        assert result.exit_code == 1
        assert "trials" in result.output
        assert not (tmp_path / "x").exists()

    def test_fig4_small_run(self, tmp_path):
        result = run_cli(
            "figure", "fig4", "--trials", "60", "--seed", "2", "--out", str(tmp_path),
        )
        assert result.exit_code == 0
        normal = read_histogram_csv(tmp_path / "hist_fig4_normal_test_counts.csv")
        manip = read_histogram_csv(tmp_path / "hist_fig4_manipulated_test_counts.csv")
        # from_event_counts occupies its first and last bins
        assert normal.bin_edges[0] > manip.bin_edges[-2]


class TestAnalyzeCommand:
    def test_missing_directory_exits_two(self, tmp_path):
        result = run_cli("analyze", str(tmp_path / "nothing"))
        assert result.exit_code == 2

    def test_corrupt_manifest_exits_two(self, tmp_path):
        (tmp_path / "manifest.txt").write_text("not a manifest\n")
        result = run_cli("analyze", str(tmp_path))
        assert result.exit_code == 2

    def test_analyze_reports_and_is_idempotent(self, tmp_path):
        out = tmp_path / "run"
        run_cli(
            "simulate", "--scenario", "manipulated", "--protocol", "self-blind",
            "--trials", "50", "--seed", "31", "--out", str(out),
        )
        first = run_cli("analyze", str(out))
        second = run_cli("analyze", str(out))
        assert first.exit_code == 0
        assert first.output == second.output
        assert "accuracy" in first.output
        assert "undetected_rate" in first.output

    def test_analyze_matches_experiment_summary(self, tmp_path):
        out = tmp_path / "run"
        run_cli(
            "simulate", "--scenario", "manipulated", "--protocol", "flag",
            "--trials", "60", "--seed", "32", "--out", str(out),
        )
        config = RunManifest.loads((out / "manifest.txt").read_text()).config()
        summary = run_experiment(config).summary()
        lines = run_cli("analyze", str(out)).output.splitlines()
        decisions = {
            line.split(" = ")[0][len("decision."):]: int(line.split(" = ")[1])
            for line in lines if line.startswith("decision.")
        }
        assert decisions == summary["decisions"]
        assert f"accuracy = {summary['accuracy']:.6f}" in lines


class TestSweepCommand:
    def test_sweep_writes_csv(self, tmp_path):
        out = tmp_path / "sweep"
        result = run_cli(
            "sweep", "--scenario", "normal", "--protocol", "salt",
            "--trials", "20", "--seed", "8",
            "--param", "plan.count_threshold", "--values", "40,60",
            "--out", str(out),
        )
        assert result.exit_code == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "value,accuracy,error_rate,verdicts"
        assert len(lines) == 3

    def test_range_values(self, tmp_path):
        out = tmp_path / "sweep"
        result = run_cli(
            "sweep", "--scenario", "normal", "--protocol", "salt",
            "--trials", "10", "--seed", "8",
            "--param", "plan.count_threshold", "--values", "40:60:10",
            "--out", str(out),
        )
        assert result.exit_code == 0
        assert len((out / "sweep.csv").read_text().strip().splitlines()) == 4

    def test_decimal_range_has_no_float_drift(self, tmp_path):
        out = tmp_path / "sweep"
        result = run_cli(
            "sweep", "--scenario", "normal", "--protocol", "flag",
            "--trials", "3", "--seed", "8",
            "--param", "signal_rate", "--values", "0.1:0.3:0.1",
            "--out", str(out),
        )
        assert result.exit_code == 0
        rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0.1", "0.2", "0.3"]

    def test_enum_sweep_writes_config_text(self, tmp_path):
        out = tmp_path / "sweep"
        result = run_cli(
            "sweep", "--scenario", "normal", "--protocol", "salt",
            "--trials", "4", "--seed", "8",
            "--param", "scenario", "--values", "normal,manipulated",
            "--out", str(out),
        )
        assert result.exit_code == 0
        assert "scenario = NORMAL: accuracy" in result.output
        rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
        values = [row.split(",")[0] for row in rows]
        assert values == ["NORMAL", "MANIPULATED"]
        assert [_parse_scalar(v, CONFIG_LEAVES["scenario"], "scenario") for v in values] == [
            Scenario.NORMAL, Scenario.MANIPULATED,
        ]

    @pytest.mark.parametrize(
        "param,values,named",
        [
            ("bogus", "1,2", "bogus"),
            ("plan.count_threshold", "40,abc", "plan.count_threshold"),
            ("scenario", "normal,bogus", "scenario"),
            ("trials", "2,0", "trials"),
            ("trials", ",", "values: need at least one value"),
            ("trials", "", "values: need at least one value"),
            ("trials", "5:1:1", "values: need at least one value"),
            # 10**12 points: rejected from the count, before any is built
            ("trials", "0:1:1e-12", "values: a range may hold at most 10000 points"),
        ],
    )
    def test_bad_point_exits_one_naming_the_field(self, tmp_path, param, values, named):
        out = tmp_path / "sweep"
        result = run_cli(
            "sweep", "--protocol", "salt", "--trials", "3",
            "--param", param, "--values", values, "--out", str(out),
        )
        assert result.exit_code == 1
        assert named in result.output
        assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize(
    "command",
    [
        ["simulate", "--trials", "2"],
        ["figure", "fig3b", "--trials", "10"],
        ["sweep", "--trials", "2", "--param", "seed", "--values", "1,2"],
    ],
    ids=["simulate", "figure", "sweep"],
)
def test_fewer_than_one_worker_exits_one(tmp_path, command, threads):
    out = tmp_path / "x"
    result = run_cli(*command, "--threads", threads, "--out", str(out))
    assert result.exit_code == 1
    assert "threads" in result.output
    assert not out.exists()


def test_cli_import_leaves_scipy_out():
    # A fresh interpreter: importing the CLI loads no scipy and no
    # multiprocessing (only a parallel run needs it), and building every
    # protocol x scenario preset runs no detector simulation.
    src = str(Path(blindsim.__file__).resolve().parents[1])
    code = textwrap.dedent("""
        import sys, blindsim.cli
        print('scipy' in sys.modules, 'multiprocessing' in sys.modules)
        from blindsim import Scenario, Strategy, engine, presets

        def no_simulation(*args, **kwargs):
            raise AssertionError("a preset ran a detector simulation")

        engine.process_timeline = no_simulation
        pairs = [(sc, st) for sc in (Scenario.NORMAL, Scenario.MANIPULATED)
                 for st in Strategy]
        pairs.append((Scenario.RECOVERY_ATTACK, Strategy.SELF_BLIND))
        for scenario, strategy in pairs:
            presets.preset_config(scenario, strategy, trials=3, seed=1)
        print(len(pairs))
    """)
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.split() == ["False", "False", "7"]


class TestHistogramCsv:
    def test_round_trip(self, tmp_path):
        from blindsim.manifest import write_histogram_csv

        hist = Histogram.from_event_counts([1, 2, 2, 9])
        path = tmp_path / "h.csv"
        write_histogram_csv(path, hist)
        assert read_histogram_csv(path) == hist
        header, *rows = path.read_text().strip().splitlines()
        assert header == "bin_low,bin_high,count"
