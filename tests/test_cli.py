from __future__ import annotations

import ast
import hashlib
import math
import os
import platform
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import blindsim
from blindsim import cli, presets
from blindsim.cli import _build_flat, main
from blindsim.config import (
    CONFIG_LEAVES,
    ExperimentConfig,
    config_from_flat,
    config_to_flat,
    flat_config_text,
    parse_flat,
    parse_leaf,
)
from blindsim.engine import run_experiment
from blindsim.manifest import manifest_text, read_histogram_csv
from blindsim.presets import salt_config
from blindsim import ConfigError, Scenario, Histogram


def run_cli(*args, env=None):
    return CliRunner().invoke(main, list(args), env=env, catch_exceptions=False)


def manifest_flat(out: Path) -> dict[str, str]:
    return parse_flat((out / "manifest.txt").read_text())


def manifest_config(out: Path) -> ExperimentConfig:
    return config_from_flat(flat_config_text((out / "manifest.txt").read_text()))


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
        # a typo, and leaves that older manifests still carry
        for key in (
            "detector.effciency",
            "plan.alt_response_prob",
            "attack.allow_fakes_without_blinding",
        ):
            with pytest.raises(Exception) as err:
                config_from_flat({key: "0.5"})
            assert f"unknown config key: {key}" in str(err.value)

    def test_manifest_round_trip(self):
        config = salt_config(Scenario.NORMAL, trials=3, seed=4)
        run = {
            "started_utc": "2026-01-01T00:00:00Z",
            "finished_utc": "2026-01-01T00:00:05Z",
            "threads": "2",
            "salt_null": "reference",
        }
        timings = {"config_s": 0.1, "trials_s": 1 / 3}
        text = manifest_text(run, timings, config, {"trials.jsonl": "ab" * 32})
        flat = parse_flat(text)
        assert flat["blindsim.version"] == blindsim.__version__
        assert flat["run.master_seed"] == "4"
        assert {k: flat[f"run.{k}"] for k in run} == run
        assert flat["env.python"] == "{}.{}.{}".format(*sys.version_info[:3])
        assert flat["env.numpy"] == np.__version__
        assert flat["env.nproc"] == str(os.cpu_count())
        assert flat["env.platform"] == platform.platform()
        assert {k: float(flat[f"timing.{k}"]) for k in timings} == timings
        assert flat["digest.trials.jsonl"] == "ab" * 32
        # the reader that --config and analyze share gives back the config
        assert flat_config_text(text) == config_to_flat(config)
        assert config_from_flat(flat_config_text(text)) == config
        # a manifest without env.*, run.* or timing.* keys still loads
        older = "".join(
            line for line in text.splitlines(True)
            if not line.startswith(("env.", "run.", "timing.", "blindsim."))
        )
        assert config_from_flat(flat_config_text(older)) == config

    def test_comments_and_blanks_ignored(self):
        text = "# comment\n\nseed = 5\ntrials = 2\n"
        flat = parse_flat(text)
        assert flat == {"seed": "5", "trials": "2"}
        config = config_from_flat(flat_config_text(text))
        assert config.seed == 5 and config.trials == 2

    def test_repeated_key_rejected(self):
        with pytest.raises(ConfigError, match=r"line 4: trials already set on line 2"):
            parse_flat("seed = 5\ntrials = 5\n# comment\ntrials = 7\n")

    @pytest.mark.parametrize(
        "command",
        [["simulate"], ["sweep", "--param", "seed", "--values", "1,2"]],
        ids=["simulate", "sweep"],
    )
    def test_repeated_key_in_config_exits_one(self, tmp_path, command):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("trials = 5\ntrials = 7\n")
        out = tmp_path / "x"
        result = run_cli(*command, "--config", str(cfg), "--out", str(out))
        assert result.exit_code == 1
        assert "line 2: trials already set on line 1" in result.output
        assert not out.exists()

    def test_repeated_set_keeps_the_last(self):
        flat = _build_flat(None, None, None, None, None, ("trials=5", "trials=7"))
        assert flat["trials"] == "7"


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
        digests = {
            k[len("digest."):]: v for k, v in manifest_flat(out).items() if k.startswith("digest.")
        }
        assert sorted(digests) == sorted(p.name for p in out.iterdir() if p.name != "manifest.txt")
        for name, digest in digests.items():
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

    def test_manifest_key_order(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli("simulate", "--trials", "2", "--out", str(out)).exit_code == 0
        assert list(manifest_flat(out)) == [
            "blindsim.version",
            "run.master_seed",
            "run.started_utc",
            "run.finished_utc",
            "run.threads",
            "env.python",
            "env.numpy",
            "env.nproc",
            "env.platform",
            "env.source_sha256",
            "run.salt_null",
            "timing.config_s",
            "timing.salt_null_s",
            "timing.trials_s",
            "timing.write_s",
            *(f"config.{path}" for path in CONFIG_LEAVES),
            "digest.hist_clicks_per_trial.csv",
            "digest.hist_salt_null.csv",
            "digest.hist_test_counts.csv",
            "digest.trials.jsonl",
        ]

    def test_manifest_source_hash_matches_the_benchmark_recipe(self, tmp_path):
        # perfbench/run.py hashes the sources the same way, so a run can be
        # matched to a benchmark record
        out = tmp_path / "run"
        assert run_cli("simulate", "--trials", "2", "--out", str(out)).exit_code == 0
        src = Path(blindsim.__file__).parent.parent
        h = hashlib.sha256()
        for path in sorted((src / "blindsim").rglob("*.py")):
            h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
        assert manifest_flat(out)["env.source_sha256"] == h.hexdigest()

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
            assert manifest_flat(out)["run.salt_null"] == "reference"

    def test_custom_detector_null_ignores_the_run_seed(self, tmp_path):
        nulls = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            result = run_cli(
                "simulate", "--protocol", "salt", "--trials", "2", "--seed", seed,
                "--set", "detector.afterpulse_prob=0.3", "--out", str(out),
            )
            assert result.exit_code == 0
            assert manifest_flat(out)["run.salt_null"] == "simulated"
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
        assert "the recovery scenario exercises the self-blind protocol" in result.output
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

    def test_a_replaced_run_leaves_no_stale_file(self, tmp_path):
        out, flag = tmp_path / "run", tmp_path / "flag"
        salt = run_cli("simulate", "--protocol", "salt", "--trials", "3", "--out", str(out))
        assert salt.exit_code == 0, salt.output
        (out / "notes.txt").write_text("no manifest names this file\n")
        for target in (out, flag):
            result = run_cli("simulate", "--protocol", "flag", "--trials", "3",
                             "--out", str(target))
            assert result.exit_code == 0, result.output
        left = digest_dir(out)
        assert left.pop("notes.txt") and left == digest_dir(flag)
        assert run_cli("analyze", str(out)).exit_code == 0

    @pytest.mark.parametrize(
        "manifest",
        [
            "not a manifest\n",
            "digest.hist_salt_null.csv = 0\ndigest.../outside.txt = 0\n",
            "digest.hist_salt_null.csv = 0\ndigest. = 0\n",
            "digest.hist_salt_null.csv = 0\ndigest.a\x00b = 0\n",
        ],
        ids=["unparsable", "name-outside-the-directory", "empty-name", "name-with-nul"],
    )
    def test_an_unreadable_previous_manifest_deletes_nothing(self, tmp_path, manifest):
        out = tmp_path / "run"
        out.mkdir()
        for path in (tmp_path / "outside.txt", out / "hist_salt_null.csv"):
            path.write_text("old\n")
        (out / "manifest.txt").write_text(manifest)
        result = run_cli("simulate", "--protocol", "flag", "--trials", "2", "--out", str(out))
        assert result.exit_code == 0, result.output
        assert (tmp_path / "outside.txt").read_text() == "old\n"
        assert (out / "hist_salt_null.csv").read_text() == "old\n"

    def test_seed_precedence_env_between_config_and_flag(self, tmp_path):
        config_text = "seed = 5\ntrials = 2\nscenario = NORMAL\n"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(config_text)
        out = tmp_path / "o1"
        run_cli("simulate", "--config", str(cfg), "--out", str(out),
                env={"BLINDSIM_SEED": "77"})
        assert manifest_flat(out)["run.master_seed"] == "77"
        assert manifest_config(out).seed == 77
        out2 = tmp_path / "o2"
        run_cli("simulate", "--config", str(cfg), "--out", str(out2),
                "--seed", "123", env={"BLINDSIM_SEED": "77"})
        assert manifest_flat(out2)["run.master_seed"] == "123"
        assert manifest_config(out2).seed == 123

    @pytest.mark.parametrize(
        "config_text,option",
        [
            # a NORMAL scenario carries no attack
            ("scenario = NORMAL\nattack.blind_power_level = 5e-10\n", ("--scenario", "manipulated")),
            # self-blinding light below the detector's blinding threshold
            ("plan.strategy = SELF_BLIND\nplan.self_blind_power = 1e-12\n", ("--protocol", "salt")),
        ],
        ids=["scenario", "protocol"],
    )
    def test_options_apply_before_the_config_is_validated(self, tmp_path, config_text, option):
        # the file alone is invalid; the option makes it valid
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(config_text + "trials = 2\n")
        out = tmp_path / "run"
        result = run_cli("simulate", "--config", str(cfg), *option, "--out", str(out))
        assert result.exit_code == 0
        assert manifest_config(out).trials == 2

    def test_set_override(self, tmp_path):
        out = tmp_path / "run"
        result = run_cli(
            "simulate", "--scenario", "normal", "--protocol", "salt",
            "--trials", "5", "--out", str(out),
            "--set", "plan.count_threshold=60",
        )
        assert result.exit_code == 0
        assert manifest_config(out).plan.count_threshold == 60

    @pytest.mark.parametrize(
        "override,field",
        [
            ("plan.count_threshold=abc", "plan.count_threshold"),
            ("plan.count_threshold=2.7", "plan.count_threshold"),
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
            # 1.25e9 flag-pulse tests in a 10 s trial
            (
                "trial_duration=10 plan.test_duration=1e-12 plan.response_window=1e-12",
                "test_duration",
            ),
            # each trial in budget, but the salt null's 2000 windows would
            # expect over 1e7 stimuli
            ("signal_rate=2.5e8", "signal_rate"),
            ("plan.salt_rate=5e7", "salt_rate"),
            ("detector.dark_rate=1e9", "dark_rate"),
            # at a 1 ps dead time, the afterpulse cascade of a 1 ms trial,
            # and of the null's windows
            ("detector.afterpulse_prob=0.999999 detector.dead_time=1e-12 trial_duration=1e-3",
             "afterpulse_prob"),
            (
                "detector.afterpulse_prob=0.999999 detector.afterpulse_tau=0"
                " detector.dead_time=1e-12 trial_duration=1e-6 plan.test_duration=5e-7",
                "afterpulse_prob",
            ),
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
            "signal_rate": ("--protocol", "salt"),
            "dark_rate": ("--protocol", "salt"),
            "duty_cycle": ("--protocol", "salt"),
            "afterpulse_prob": ("--protocol", "salt"),
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
        config = config_from_flat(_build_flat(None, scenario, protocol, "7", "3", ()))
        for path, text in config_to_flat(config).items():
            rebuilt = config_from_flat(
                _build_flat(None, scenario, protocol, "7", "3", (f"{path}={text}",))
            )
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
        normal = read_histogram_csv(tmp_path / "fig4_normal" / "hist_test_counts.csv")
        manip = read_histogram_csv(tmp_path / "fig4_manipulated" / "hist_test_counts.csv")
        # from_event_counts occupies its first and last bins
        assert normal.bin_edges[0] > manip.bin_edges[-2]

    @pytest.mark.parametrize("name,protocol", [
        ("fig4", "salt"), ("fig5", "flag"), ("fig6", "self-blind"),
    ])
    def test_each_arm_is_a_simulate_run(self, tmp_path, name, protocol):
        result = run_cli("figure", name, "--trials", "8", "--seed", "4", "--out", str(tmp_path))
        assert result.exit_code == 0, result.output
        for arm in ("normal", "manipulated"):
            run = tmp_path / f"{arm}_run"
            simulated = run_cli(
                "simulate", "--protocol", protocol, "--scenario", arm,
                "--trials", "8", "--seed", "4", "--out", str(run),
            )
            assert simulated.exit_code == 0, simulated.output
            figure_arm = tmp_path / f"{name}_{arm}"
            digests = digest_dir(run)
            assert "trials.jsonl" in digests and "hist_clicks_per_trial.csv" in digests
            assert digest_dir(figure_arm) == digests
            analyzed = run_cli("analyze", str(figure_arm))
            assert analyzed.exit_code == 0, analyzed.output
            assert analyzed.output == run_cli("analyze", str(run)).output

    def test_a_bad_second_arm_writes_no_arm(self, tmp_path, monkeypatch):
        # both arm configs are validated before either arm runs
        def from_flat(flat):
            if flat["scenario"] == Scenario.MANIPULATED.value:
                raise ConfigError("attack.blind_power_level: bad")
            return config_from_flat(flat)

        monkeypatch.setattr(cli, "config_from_flat", from_flat)
        result = run_cli("figure", "fig5", "--trials", "2", "--out", str(tmp_path / "x"))
        assert result.exit_code == 1
        assert "attack.blind_power_level" in result.output
        assert not (tmp_path / "x").exists()


class TestAnalyzeCommand:
    def test_missing_directory_exits_two(self, tmp_path):
        result = run_cli("analyze", str(tmp_path / "nothing"))
        assert result.exit_code == 2

    def test_corrupt_manifest_exits_two(self, tmp_path):
        (tmp_path / "manifest.txt").write_text("not a manifest\n")
        result = run_cli("analyze", str(tmp_path))
        assert result.exit_code == 2

    @pytest.mark.parametrize("text", ["", "# comment only\n"])
    def test_manifest_without_config_exits_two(self, tmp_path, text):
        # it must not read as the default config
        (tmp_path / "manifest.txt").write_text(text)
        (tmp_path / "trials.jsonl").write_text("")
        result = run_cli("analyze", str(tmp_path))
        assert result.exit_code == 2
        assert "no config" in result.output

    @pytest.mark.parametrize("record", [
        "[1,2]", '"x"', '{"verdicts": 5}', '{"verdicts": [5]}', "{}", "not json",
        '{"verdicts": [{"decision": "BOGUS"}]}',
    ])
    def test_record_of_the_wrong_shape_exits_two(self, tmp_path, record):
        out = tmp_path / "run"
        run_cli("simulate", "--protocol", "flag", "--trials", "1", "--out", str(out))
        manifest = out / "manifest.txt"
        manifest.write_text("".join(
            line for line in manifest.read_text().splitlines(True) if line.startswith("config.")
        ))
        (out / "trials.jsonl").write_text(record + "\n")
        result = run_cli("analyze", str(out))
        assert result.exit_code == 2
        assert "corrupt results directory" in result.output

    @pytest.fixture
    def salt_run(self, tmp_path):
        out = tmp_path / "run"
        run_cli(
            "simulate", "--scenario", "manipulated", "--protocol", "salt",
            "--trials", "20", "--seed", "5", "--out", str(out),
        )
        return out

    def _cut_trials(self, out: Path) -> None:
        path = out / "trials.jsonl"
        path.write_text("".join(path.read_text().splitlines(True)[:5]))

    def test_truncated_trials_exit_two_naming_the_file(self, salt_run):
        self._cut_trials(salt_run)
        result = run_cli("analyze", str(salt_run))
        assert result.exit_code == 2
        assert "trials.jsonl does not match its digest" in result.output

    def test_too_few_records_exit_two_without_a_digest_line(self, salt_run):
        manifest = salt_run / "manifest.txt"
        manifest.write_text("".join(
            line for line in manifest.read_text().splitlines(True)
            if not line.startswith("digest.trials.jsonl")
        ))
        assert run_cli("analyze", str(salt_run)).exit_code == 0
        self._cut_trials(salt_run)
        result = run_cli("analyze", str(salt_run))
        assert result.exit_code == 2
        assert "trials.jsonl holds 5 records, not 20" in result.output

    def test_edited_histogram_exits_two_naming_the_file(self, salt_run):
        path = salt_run / "hist_test_counts.csv"
        path.write_text(path.read_text().replace(",", ";", 1))
        result = run_cli("analyze", str(salt_run))
        assert result.exit_code == 2
        assert "hist_test_counts.csv does not match its digest" in result.output

    def test_missing_histogram_exits_two_naming_the_file(self, salt_run):
        (salt_run / "hist_salt_null.csv").unlink()
        result = run_cli("analyze", str(salt_run))
        assert result.exit_code == 2
        assert "hist_salt_null.csv" in result.output

    @pytest.mark.parametrize("name", ["../outside.txt", "sub/x.csv", ".", "..", "", "a\x00b"])
    def test_digest_name_that_is_no_plain_file_name_exits_two(self, salt_run, name):
        # each file holds the bytes its digest line names: only the name is wrong
        (salt_run.parent / "outside.txt").write_text("x\n")
        (salt_run / "sub").mkdir()
        (salt_run / "sub" / "x.csv").write_text("x\n")
        digest = hashlib.sha256(b"x\n").hexdigest()
        with (salt_run / "manifest.txt").open("a") as fh:
            fh.write(f"digest.{name} = {digest}\n")
        result = run_cli("analyze", str(salt_run))
        assert result.exit_code == 2
        assert f"corrupt results directory: digest.{name}: not a plain file name" in result.output

    def test_manifest_of_config_lines_only_analyzes_the_same(self, tmp_path):
        out = tmp_path / "run"
        run_cli(
            "simulate", "--scenario", "manipulated", "--protocol", "salt",
            "--trials", "20", "--seed", "5", "--out", str(out),
        )
        full = run_cli("analyze", str(out))
        manifest = out / "manifest.txt"
        manifest.write_text("".join(
            line for line in manifest.read_text().splitlines(True) if line.startswith("config.")
        ))
        result = run_cli("analyze", str(out))
        assert result.exit_code == 0
        assert full.exit_code == 0
        assert result.output == full.output

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

    def test_analyze_of_a_normal_run_reports_the_miss_rate(self, tmp_path):
        out = tmp_path / "run"
        run_cli(
            "simulate", "--scenario", "normal", "--protocol", "flag",
            "--trials", "20", "--seed", "31", "--out", str(out),
        )
        result = run_cli("analyze", str(out))
        assert result.exit_code == 0
        assert "miss_rate = " in result.output
        assert "undetected_rate" not in result.output

    def test_analyze_matches_experiment_summary(self, tmp_path):
        out = tmp_path / "run"
        run_cli(
            "simulate", "--scenario", "manipulated", "--protocol", "flag",
            "--trials", "60", "--seed", "32", "--out", str(out),
        )
        config = manifest_config(out)
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
        assert [parse_leaf("scenario", v) for v in values] == [
            Scenario.NORMAL, Scenario.MANIPULATED,
        ]

    def test_base_config_needs_to_be_valid_only_at_each_point(self, tmp_path):
        # a NORMAL scenario carries no attack: the file alone is invalid
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("scenario = NORMAL\nattack.blind_power_level = 5e-10\ntrials = 3\n")
        out = tmp_path / "sweep"
        result = run_cli(
            "sweep", "--config", str(cfg),
            "--param", "scenario", "--values", "manipulated,custom", "--out", str(out),
        )
        assert result.exit_code == 0, result.output
        rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["MANIPULATED", "CUSTOM"]

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
            ("trials", "1:2", "range values need start:stop:step"),
            ("trials", "a:b:c", "range values need three numbers"),
            ("trials", "1:inf:1", "range values must be finite"),
            ("trials", "1:2:0", "range step must be > 0"),
            # the quotient overflows the decimal context
            ("trials", "0:1e30:1e-30", "values: a range may hold at most 10000 points"),
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


@pytest.mark.parametrize(
    "command",
    [["simulate"], ["sweep", "--param", "seed", "--values", "1,2"]],
    ids=["simulate", "sweep"],
)
def test_undecodable_config_exits_two(tmp_path, command):
    cfg = tmp_path / "cfg.txt"
    cfg.write_bytes(b"seed = 5\n\xff\n")
    out = tmp_path / "x"
    result = run_cli(*command, "--config", str(cfg), "--out", str(out))
    assert result.exit_code == 2
    assert "cannot read config:" in result.output
    assert not out.exists()


@pytest.mark.parametrize(
    "command,env,named",
    [
        # BLINDSIM_SEED, --seed and --trials are config text: parse_leaf names the leaf
        (["simulate", "--trials", "2"], {"BLINDSIM_SEED": "abc"},
         "seed: expected an integer, got 'abc'"),
        (["sweep", "--trials", "2", "--param", "seed", "--values", "1,2"],
         {"BLINDSIM_SEED": "abc"}, "seed: expected an integer, got 'abc'"),
        (["figure", "fig3b", "--trials", "2"], {"BLINDSIM_SEED": "abc"},
         "seed: expected an integer, got 'abc'"),
        (["simulate", "--trials", "2", "--set", "foo"], None, "--set expects dotted.path=value"),
        (["simulate", "--trials", "abc"], None, "trials: expected an integer, got 'abc'"),
        (["simulate", "--threads", "x"], None, "'--threads': 'x' is not a valid integer"),
        (["simulate", "--protocol", "bogus"], None, "'--protocol': 'bogus' is not one of"),
        (["figure", "fig4", "--seed", "x"], None, "seed: expected an integer, got 'x'"),
        (["simulate", "--bogus"], None, "No such option '--bogus'"),
        (["bogus"], None, "No such command 'bogus'"),
        # a text is parsed even where a later text or sweep point replaces it
        (["sweep", "--trials", "2", "--seed", "abc", "--param", "seed", "--values", "1,2"],
         None, "seed: expected an integer, got 'abc'"),
        (["simulate", "--set", "trials=abc", "--set", "trials=2"], None,
         "trials: expected an integer, got 'abc'"),
    ],
    ids=[
        "simulate-seed-variable", "sweep-seed-variable", "figure-seed-variable",
        "set-without-equals", "trials-not-an-integer", "threads-not-an-integer",
        "unknown-protocol", "figure-seed-not-an-integer", "unknown-option", "unknown-command",
        "sweep-seed-option-replaced", "set-replaced",
    ],
)
def test_bad_option_text_exits_one(tmp_path, command, env, named):
    out = tmp_path / "x"
    result = run_cli(*command, "--out", str(out), env=env)
    assert result.exit_code == 1
    assert named in result.output
    assert not out.exists()


# Texts of the seed and trials leaves.  The accepted trial counts are
# small, so that each run stays cheap.
_SEED_TEXTS = ["5", "1e1", "5.0", "-3", "2.5", "abc", "", "1e400"]
_TRIALS_TEXTS = ["2", "2e0", "2.0", "-3", "2.5", "abc", "", "1e400"]
_LEAF_COMMANDS = {
    "simulate": ["simulate", "--protocol", "flag"],
    "sweep": ["sweep", "--protocol", "flag", "--param", "duty_cycle", "--values", "0.5"],
    "fig5": ["figure", "fig5"],
    "fig3b": ["figure", "fig3b"],
}


def _leaf_outcome(out: Path, *args, env=None):
    """The exit code and message of a failed command, else its stdout and files.

    A manifest counts by its config lines alone: its clock lines differ
    from run to run.
    """
    result = run_cli(*args, "--out", str(out), env=env)
    if result.exit_code:
        assert not out.exists()
        return result.exit_code, result.output.splitlines()[-1]
    files = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        lines = path.read_text().splitlines()
        if path.name == "manifest.txt":
            lines = [line for line in lines if line.startswith("config.")]
        files[path.relative_to(out).as_posix()] = lines
    return 0, result.output, files


def _expected_outcome(tmp_path: Path, args: list[str], leaf: str, text: str, fixed: list[str]):
    """``simulate --set leaf=text``'s failure, or ``args`` run at the value that it read."""
    by_set = _leaf_outcome(tmp_path / "set", "simulate", "--protocol", "flag", *fixed,
                           "--set", f"{leaf}={text}")
    if by_set[0]:
        return by_set
    value = manifest_flat(tmp_path / "set")[f"config.{leaf}"]
    return _leaf_outcome(tmp_path / "value", *args, f"--{leaf}", value)


@pytest.mark.parametrize("text", _SEED_TEXTS)
@pytest.mark.parametrize("command", sorted(_LEAF_COMMANDS))
def test_seed_text_reads_alike_from_option_variable_and_set(tmp_path, command, text):
    args = [*_LEAF_COMMANDS[command], "--trials", "2"]
    expected = _expected_outcome(tmp_path, args, "seed", text, ["--trials", "2"])
    outcomes = [
        _leaf_outcome(tmp_path / "option", *args, "--seed", text),
        _leaf_outcome(tmp_path / "variable", *args, env={"BLINDSIM_SEED": text}),
    ]
    if command == "simulate":
        outcomes.append(_leaf_outcome(tmp_path / "by-set", *args, "--set", f"seed={text}"))
    assert outcomes == [expected] * len(outcomes)


@pytest.mark.parametrize("text", _TRIALS_TEXTS)
@pytest.mark.parametrize("command", sorted(_LEAF_COMMANDS))
def test_trials_text_reads_alike_from_option_and_set(tmp_path, command, text):
    args = _LEAF_COMMANDS[command]
    expected = _expected_outcome(tmp_path, args, "trials", text, [])
    outcomes = [_leaf_outcome(tmp_path / "option", *args, "--trials", text)]
    if command == "simulate":
        outcomes.append(_leaf_outcome(tmp_path / "by-set", *args, "--set", f"trials={text}"))
    assert outcomes == [expected] * len(outcomes)


def test_no_option_parses_a_config_leaf_itself():
    # An option named after a leaf hands its text to parse_leaf; a Choice
    # hands on one of a fixed set of texts.  Any other click type would
    # parse the leaf a second way.
    named = set()
    for command in cli.main.commands.values():
        for param in command.params:
            if isinstance(param, click.Option) and param.name in CONFIG_LEAVES:
                named.add((command.name, param.name))
                assert param.type is click.STRING or isinstance(param.type, click.Choice), (
                    command.name, param.name, param.type,
                )
    commands = ("simulate", "figure", "sweep")
    assert {(c, leaf) for c in commands for leaf in ("seed", "trials")} <= named


@pytest.mark.parametrize(
    "command,message",
    [
        (["simulate", "--protocol", "flag", "--trials", "2"], "cannot write results"),
        (["figure", "fig3b", "--trials", "10"], "cannot create output directory"),
        (["sweep", "--protocol", "flag", "--trials", "2", "--param", "seed", "--values", "1"],
         "cannot write results"),
    ],
    ids=["simulate", "figure", "sweep"],
)
def test_output_under_a_regular_file_exits_two(tmp_path, command, message):
    blocker = tmp_path / "file"
    blocker.write_text("")
    result = run_cli(*command, "--out", str(blocker / "out"))
    assert result.exit_code == 2
    assert message in result.output


def test_figure_output_file_that_is_a_directory_exits_two(tmp_path):
    (tmp_path / "hist_fig3b_counts.csv").mkdir()
    result = run_cli("figure", "fig3b", "--trials", "10", "--out", str(tmp_path))
    assert result.exit_code == 2
    assert "cannot write results" in result.output


# Texts that a --set value may hold at the extremes: floats near the ends
# of the double range and beyond it, ints past int64, empty text and
# non-ASCII.  Ordinary values are left out, since an accepted long trial
# would run for seconds.
_FUZZ_TEXTS = st.one_of(
    st.sampled_from([
        math.inf, -math.inf, math.nan, sys.float_info.max, -sys.float_info.max,
        5e-324, -5e-324, sys.float_info.min, -0.0, math.nextafter(1, 0),
    ]).map(repr),
    st.floats(min_value=1e16).map(repr),
    st.floats(max_value=-1e16).map(repr),
    st.floats(min_value=-1e-300, max_value=1e-300).map(repr),
    st.integers(min_value=2**63).map(str),
    st.integers(max_value=-(2**63)).map(str),
    st.sampled_from(["", " ", "none", "1e400", "-1e400", "9" * 400, "-" + "9" * 400]),
    st.text(st.characters(min_codepoint=128), min_size=1, max_size=8),
)
_FIELD_NAMES = {*CONFIG_LEAVES, *(path.rsplit(".", 1)[-1] for path in CONFIG_LEAVES)}


@pytest.fixture(scope="module")
def fuzz_out(tmp_path_factory):
    # a salt run whose detector or rates differ from the preset simulates
    # its null; 20 windows in place of 2000 keep each case in milliseconds
    oracle = presets.count_distribution_oracle
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            presets,
            "count_distribution_oracle",
            lambda detector, rate, window, _windows, rng: oracle(detector, rate, window, 20, rng),
        )
        yield tmp_path_factory.mktemp("fuzz") / "run"


@pytest.mark.parametrize("protocol", ["salt", "flag", "self-blind"])
@pytest.mark.parametrize("leaf", list(CONFIG_LEAVES))
@given(text=_FUZZ_TEXTS)
@settings(max_examples=5, deadline=None)
def test_extreme_set_value_exits_cleanly(fuzz_out, protocol, leaf, text):
    result = CliRunner().invoke(main, [
        "simulate", "--protocol", protocol, "--trials", "1",
        "--out", str(fuzz_out), "--set", f"{leaf}={text}",
    ])
    assert result.exit_code in (0, 1), result.output
    if result.exit_code == 1:
        assert isinstance(result.exception, SystemExit), repr(result.exception)
        named = re.match(r"Error: ([\w.]+): ", result.output.splitlines()[-1])
        assert named and named[1] in _FIELD_NAMES, result.output


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


def _package_imports(nodes) -> set[str]:
    """The blindsim modules that the import statements among ``nodes`` name."""
    imported = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):  # relative ones as absolute
            base = "blindsim." * (node.level > 0) + (node.module or "")
            names = [base] if node.module else [base + a.name for a in node.names]
        else:
            continue
        imported.update(n.split(".")[1] for n in names if n.startswith("blindsim."))
    return imported


def test_config_layer_imports_no_run_machinery():
    # config, presets and manifest stay below engine, config below
    # manifest and presets, and stats below every module that simulates,
    # so that the run path can import any of them
    package = Path(blindsim.__file__).parent
    forbidden = {
        "config": {"engine", "manifest", "presets"},
        "presets": {"engine"},
        "manifest": {"engine"},
        "stats": {p.stem for p in package.glob("*.py")} - {"errors", "units"},
    }
    for module, banned in forbidden.items():
        imported = _package_imports(ast.walk(ast.parse((package / f"{module}.py").read_text())))
        assert not imported & banned, (module, imported & banned)


def test_only_units_names_the_longest_duration():
    # a legal duration is decided in one module: every other module checks
    # a duration through its units kind, never against MAX_SECONDS itself
    package = Path(blindsim.__file__).parent
    naming = {
        path.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Name) and node.id == "MAX_SECONDS"
        or isinstance(node, ast.Attribute) and node.attr == "MAX_SECONDS"
        or isinstance(node, ast.alias) and node.name == "MAX_SECONDS"
    }
    assert naming == {"units.py"}


def test_no_module_imports_the_package_inside_a_function():
    # an import in a function body hides a dependency from the layering
    # check above; a stdlib import there is allowed
    package = Path(blindsim.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                imported = _package_imports(ast.walk(node))
                assert not imported, (path.name, node.name, imported)


def _module_trees() -> dict[str, ast.Module]:
    """Each module of the package, parsed, by file name."""
    package = Path(blindsim.__file__).parent
    return {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}


def _module_level(tree: ast.Module) -> list[ast.stmt]:
    """The statements at module level, those under a module-level ``if`` included."""
    return [*tree.body, *(n for s in tree.body if isinstance(s, ast.If) for n in s.body)]


def test_every_module_level_import_is_read():
    # a name that a module imports and never reads is dead weight on every
    # run; an attribute's base (np in np.int64) is an ast.Name too.
    # __init__ imports to re-export, so it is left out.
    for name, tree in _module_trees().items():
        if name == "__init__.py":
            continue
        bound = {
            alias.asname or alias.name.split(".")[0]
            for node in _module_level(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert bound <= read, (name, sorted(bound - read))


def test_every_module_level_constant_is_read():
    # a constant that no module of the package reads is dead weight; a
    # test that needs a value names its own
    trees = _module_trees()
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute)
    }
    unread = [
        (name, target.id)
        for name, tree in trees.items()
        for node in _module_level(tree)
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id not in read
    ]
    assert unread == []


class TestHistogramCsv:
    def test_round_trip(self, tmp_path):
        from blindsim.manifest import write_histogram_csv

        hist = Histogram.from_event_counts([1, 2, 2, 9])
        path = tmp_path / "h.csv"
        write_histogram_csv(path, hist)
        assert read_histogram_csv(path) == hist
        header, *rows = path.read_text().strip().splitlines()
        assert header == "bin_low,bin_high,count"
