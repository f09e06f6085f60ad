"""Golden digests: the preset arms write byte-identical outputs.

Every protocol x scenario arm named in ``perfbench/golden.json`` is run
at that file's seed and trial count, with 1 and 2 worker processes, and
its ``trials.jsonl`` and ``hist_*.csv`` (written with the
``blindsim.manifest`` writers) must hash to the frozen SHA-256 values.
The file is only read here; ``perfbench/freeze_golden.py`` writes it.

``CLI_DIGESTS`` covers what ``run_experiment`` does not: the salt null
that ``simulate`` attaches (its p-values and ``hist_salt_null.csv``) and
``figure fig3b``.  Those runs go through the command line, and every
output but ``manifest.txt`` must hash to the values frozen here.

The salt command's ``hist_salt_null.csv`` and ``trials.jsonl`` were
re-frozen once, when the null became the frozen ``presets.SALT_NULL``
(drawn at ``presets.CALIBRATION_SEED`` instead of the run seed).  Only the
p-values moved: decisions compare counts with ``count_threshold``, and
the other histograms and ``perfbench/golden.json`` stayed byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from blindsim.cli import main
from blindsim.config import Scenario
from blindsim.engine import run_experiment
from blindsim.manifest import write_histogram_csv, write_trials_jsonl
from blindsim.presets import preset_config
from blindsim.selftest import Strategy

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text()
)

pytestmark = pytest.mark.skipif(
    np.__version__ != GOLDEN["frozen_with"]["numpy"],
    reason=(
        f"digests were frozen with numpy {GOLDEN['frozen_with']['numpy']}, "
        f"this is numpy {np.__version__}; numpy does not promise stable "
        "Generator streams across versions"
    ),
)


def _digests(result, outdir: Path) -> dict[str, str]:
    outdir.mkdir()
    write_trials_jsonl(outdir / "trials.jsonl", result.trials)
    for name, hist in result.histograms.items():
        write_histogram_csv(outdir / f"hist_{name}.csv", hist)
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.iterdir())
    }


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("arm", sorted(GOLDEN["digests"]))
def test_preset_arm_matches_golden_digests(arm, threads, tmp_path):
    strategy, scenario = arm.split("/")
    config = preset_config(
        Scenario(scenario),
        Strategy(strategy),
        trials=GOLDEN["trials_per_arm"],
        seed=GOLDEN["seed"],
    )
    result = run_experiment(config, threads=threads)
    assert _digests(result, tmp_path / "out") == GOLDEN["digests"][arm]


CLI_DIGESTS = {
    "simulate --protocol salt --scenario normal --trials 20 --seed 5": {
        "hist_clicks_per_trial.csv": "28496caeb6db13a35f4aa56cb73baf1f5e6005755ae0dfbec7ebfb638bb22a57",
        "hist_salt_null.csv": "a58993ae07940acabb1368ff84886825d8fbe618c883d9a6987b839ea431861c",
        "hist_test_counts.csv": "19c3a467fa08bdc5c0c1f36476a68f41e2a8c1c45b958bc59ce5fb0ebe82dd5f",
        "trials.jsonl": "ef606a8ed42b42b572fbe351bb31d2e5d4958af247d72989c9fa4ef6c886f39f",
    },
    "figure fig3b --trials 500 --seed 5": {
        "hist_fig3b_counts.csv": "ff76b522edf4e4517214486ee41eb505fec0b6f618de6d5e3d473bd2614ac4d5",
    },
}


@pytest.mark.parametrize("command", sorted(CLI_DIGESTS))
def test_cli_run_matches_golden_digests(command, tmp_path):
    result = CliRunner().invoke(
        main, command.split() + ["--out", str(tmp_path)], catch_exceptions=False
    )
    assert result.exit_code == 0, result.output
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.iterdir())
        if p.name != "manifest.txt"  # carries wall-clock timestamps
    }
    assert digests == CLI_DIGESTS[command]
