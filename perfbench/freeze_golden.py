"""Regenerate perfbench/golden.json from the current source tree.

    python3 perfbench/freeze_golden.py

Freezes, for every protocol x scenario arm:

* the SHA-256 of ``trials.jsonl`` and each ``hist_*.csv`` of a
  ``DEFAULT_SEED`` run of ``GOLDEN_TRIALS`` trials, written with the
  ``blindsim.manifest`` writers (the byte-identity anchor);
* a reference tally of wrong verdicts over ``REFERENCE_TRIALS`` trials,
  from which the benchmark derives its binomial acceptance regions.

Re-freeze only in a change that says why a digest had to move.  numpy
does not promise stable Generator streams across versions, so the numpy
version is recorded with the values.
"""

from __future__ import annotations

import json
import platform
import subprocess
import time

from workloads import DEFAULT_SEED, ROOT, SHORT_TRIALS, SALT, build_configs, use_checkout_source

GOLDEN_TRIALS = 40
REFERENCE_SEED = 20_260_000
REFERENCE_TRIALS = {"SALT": 20_000, "FLAG_PULSE": 40_000, "SELF_BLIND": 40_000}


def main() -> None:
    use_checkout_source()
    from dataclasses import replace

    import numpy as np
    from blindsim.engine import run_experiment

    from checks import GOLDEN, output_digests, records, verdict_tally

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    digests, reference = {}, {}
    for workload in (SALT, SHORT_TRIALS):
        for key, config in build_configs(workload, DEFAULT_SEED).items():
            t0 = time.perf_counter()
            result = run_experiment(replace(config, trials=GOLDEN_TRIALS))
            digests[key] = output_digests(result, out)
            n_ref = REFERENCE_TRIALS[key.split("/")[0]]
            big = run_experiment(replace(config, trials=n_ref, seed=REFERENCE_SEED))
            wrong, n = verdict_tally(records(big), key)
            reference[key] = {"wrong": wrong, "n": n, "seed": REFERENCE_SEED}
            print(f"{key}: {wrong}/{n} wrong, {time.perf_counter() - t0:.1f} s", flush=True)
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    golden = {
        "frozen_with": {"numpy": np.__version__, "python": platform.python_version(),
                        "git_commit": commit},
        "seed": DEFAULT_SEED,
        "trials_per_arm": GOLDEN_TRIALS,
        "digests": digests,
        "reference": reference,
    }
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
