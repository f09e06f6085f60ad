"""Run manifests and result writers.

A run manifest is flat config text (see ``config``) with ``config.``
prefixed entries, plus run metadata, the environment (Python and numpy
versions, CPU count, platform and a SHA-256 of the package sources),
and SHA-256 digests of every output file: enough to bit-reproduce the
run and to match it to a benchmark record.
Its ``timing.<stage>_s`` entries are wall-clock seconds; no other output
file holds wall-clock data.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .config import ExperimentConfig, config_to_flat
from .stats import Histogram


def manifest_text(
    run: dict[str, str], timings: dict[str, float], config: ExperimentConfig, digests: dict
) -> str:
    """The text of a run's ``manifest.txt``; ``flat_config_text`` reads its config back.

    ``run`` holds the ``started_utc``, ``finished_utc``, ``threads`` and
    ``salt_null`` (reference, simulated or none) texts; ``timings`` maps
    each stage to wall-clock seconds.
    """
    lines = {
        "blindsim.version": __version__,
        "run.master_seed": str(config.seed),
        "run.started_utc": run["started_utc"],
        "run.finished_utc": run["finished_utc"],
        "run.threads": run["threads"],
        # Generator streams, and the Philox state layout that rng
        # re-keys, are tied to the numpy version.
        "env.python": "{}.{}.{}".format(*sys.version_info[:3]),
        "env.numpy": np.__version__,
        "env.nproc": str(os.cpu_count()),
        "env.platform": platform.platform(),
        "env.source_sha256": _source_sha256(),
        "run.salt_null": run["salt_null"],
    }
    lines.update((f"timing.{stage}", repr(seconds)) for stage, seconds in timings.items())
    lines.update((f"config.{k}", v) for k, v in config_to_flat(config).items())
    lines.update((f"digest.{name}", d) for name, d in sorted(digests.items()))
    return "".join(f"{k} = {v}\n" for k, v in lines.items())


def _source_sha256() -> str:
    """SHA-256 of every ``*.py`` of the package, in sorted path order.

    Each file is hashed as its ``blindsim/...`` posix path, a NUL byte
    and its bytes, as the benchmark's provenance record hashes them.
    """
    package = Path(__file__).parent
    h = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        h.update(path.relative_to(package.parent).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_histogram_csv(path: Path, hist: Histogram) -> None:
    rows = ["bin_low,bin_high,count"]
    edges = hist.bin_edges
    rows.extend(f"{low!r},{high!r},{n}" for low, high, n in zip(edges, edges[1:], hist.counts))
    path.write_text("\n".join(rows) + "\n")


def read_histogram_csv(path: Path) -> Histogram:
    lines = path.read_text().strip().splitlines()
    edges: list[float] = []
    counts: list[int] = []
    for line in lines[1:]:
        low, high, count = line.split(",")
        if not edges:
            edges.append(float(low))
        edges.append(float(high))
        counts.append(int(count))
    return Histogram(
        bin_edges=tuple(edges), counts=tuple(counts), n_samples=sum(counts)
    )


def write_trials_jsonl(path: Path, trials) -> None:
    with path.open("w") as fh:
        for t in trials:
            fh.write(json.dumps(t.to_record(), sort_keys=True, separators=(",", ":")))
            fh.write("\n")


def read_trial_records(path: Path) -> list[dict[str, Any]]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
