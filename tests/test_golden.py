"""Golden digests: the preset arms write byte-identical outputs.

Every protocol x scenario arm named in ``perfbench/golden.json`` is run
at that file's seed and trial count, with 1 and 2 worker processes, and
its ``trials.jsonl`` and ``hist_*.csv`` (written with the
``blindsim.manifest`` writers) must hash to the frozen SHA-256 values.
The file is only read here; ``perfbench/freeze_golden.py`` writes it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from blindsim.engine import Scenario, run_experiment
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
