"""Golden digests: the preset arms write byte-identical outputs.

Every protocol x scenario arm named in ``perfbench/golden.json`` is run
at that file's seed and trial count, with 1 and 2 worker processes, and
its ``trials.jsonl`` and ``hist_*.csv`` (written with the
``blindsim.manifest`` writers) must hash to the frozen SHA-256 values.
The file is only read here; ``perfbench/freeze_golden.py`` writes it.

``CLI_DIGESTS`` covers what ``run_experiment`` does not: the salt null
that ``simulate`` attaches (its p-values and ``hist_salt_null.csv``),
``figure fig3b`` and the layout of a figure's arm directories.  Those
runs go through the command line, and every output but a
``manifest.txt``, keyed by its posix path below ``--out``, must hash to
the values frozen here.

The fig5 arms moved from flat ``hist_fig5_<arm>_<name>.csv`` files to
``fig5_<arm>/hist_<name>.csv`` run directories without a byte moving:
each histogram's value is the digest that its flat file had.  The arms'
``trials.jsonl`` values are those of ``simulate --protocol flag`` at the
same scenario, trials and seed.

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
    "figure fig5 --trials 20 --seed 5": {
        "fig5_manipulated/hist_clicks_per_trial.csv": "f3520d2ce5c1db5ec26cd20d713566414283b1be40102f1134ec47890e48ecb6",
        "fig5_manipulated/hist_onset_responses.csv": "81a1e2fd45309210cc7a3501233db84b69f3039abaccff73bbb92352e8445b34",
        "fig5_manipulated/hist_response_offsets.csv": "f3a583c1b0a36191d54a862fa3fba8818580a3a5eae273329f1c67b91dd0aea9",
        "fig5_manipulated/trials.jsonl": "06beb8fa1b900db6a6818798f4726d3f58f1443834df9452162d4733ccf76850",
        "fig5_normal/hist_clicks_per_trial.csv": "df204a1cd93def7b6e79d80085321a105c4a3383d2bafea960f3b65999c6b33f",
        "fig5_normal/hist_onset_responses.csv": "8ba91064531dc42cd2c032d417ef3f165200be74c50e4188297d50cf014c2537",
        "fig5_normal/hist_response_offsets.csv": "872a9200a3d31de8ca71035a9b224476f7350a50d093d96c29aa71443a794eb2",
        "fig5_normal/trials.jsonl": "ab9a30b13c508cbba41602a1ea78708a3cb8cf67d42a6ae7fa302b9d2dfc70fc",
    },
}


@pytest.mark.parametrize("command", sorted(CLI_DIGESTS))
def test_cli_run_matches_golden_digests(command, tmp_path):
    result = CliRunner().invoke(
        main, command.split() + ["--out", str(tmp_path)], catch_exceptions=False
    )
    assert result.exit_code == 0, result.output
    digests = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.rglob("*"))
        if p.is_file() and p.name != "manifest.txt"  # carries wall-clock timestamps
    }
    assert digests == CLI_DIGESTS[command]
