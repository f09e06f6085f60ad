"""Flat-text configuration files, run manifests, and result writers.

Configs are ``dotted.path = value`` lines, one scalar per line, with the
same dotted paths the sweep command addresses.  All durations are
seconds, powers watts, energies joules; scientific notation is allowed.
A run manifest is the same format with ``config.`` prefixed entries plus
run metadata, the Python and numpy versions, and SHA-256 digests of
every output file, which is enough to bit-reproduce the run.  Its
``timing.<stage>_s`` entries are wall-clock seconds; no other output
file holds wall-clock data.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from enum import Enum
from operator import attrgetter
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .engine import CONFIG_LEAVES, ExperimentConfig, build_config
from .errors import ConfigError, field_kind
from .stats import Histogram


def _format_value(value: Any) -> str:
    if value is None:
        return "none"
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_to_flat(config: ExperimentConfig) -> dict[str, str]:
    """Flatten a config into dotted-path keys with text values."""
    return {path: _format_value(attrgetter(path)(config)) for path in CONFIG_LEAVES}


def parse_leaf(path: str, text: str) -> Any:
    """The value that config text ``text`` gives the leaf at dotted ``path``."""
    if path not in CONFIG_LEAVES:
        raise ConfigError(f"unknown config key: {path}")
    target, optional = field_kind(CONFIG_LEAVES[path])
    if text == "none":
        if optional:
            return None
        raise ConfigError(f"{path}: 'none' not allowed here")
    if issubclass(target, Enum):
        try:
            return target(text.upper())
        except ValueError as e:
            raise ConfigError(f"{path}: unknown value {text!r}") from e
    if target is int:
        try:
            return int(text)
        except ValueError:
            pass  # integral numbers such as 1e3 are accepted below
    try:
        number = float(text)
    except ValueError:
        number = math.nan
    if not math.isfinite(number) or (target is int and not number.is_integer()):
        kind = "an integer" if target is int else "a finite number"
        raise ConfigError(f"{path}: expected {kind}, got {text!r}")
    return int(number) if target is int else number


def config_from_flat(flat: dict[str, str]) -> ExperimentConfig:
    """Build a config from dotted-path text values; unknown keys fail."""
    return build_config({path: parse_leaf(path, text) for path, text in flat.items()})


def parse_flat(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def flat_config_text(text: str) -> dict[str, str]:
    """The config entries of plain config text or of a manifest, as text."""
    flat = parse_flat(text)
    return {k[len("config."):]: v for k, v in flat.items() if k.startswith("config.")} or flat


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
        "run.salt_null": run["salt_null"],
    }
    lines.update((f"timing.{stage}", repr(seconds)) for stage, seconds in timings.items())
    lines.update((f"config.{k}", v) for k, v in config_to_flat(config).items())
    lines.update((f"digest.{name}", d) for name, d in sorted(digests.items()))
    return "".join(f"{k} = {v}\n" for k, v in lines.items())


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def write_histogram_csv(path: Path, hist: Histogram) -> None:
    rows = ["bin_low,bin_high,count"]
    rows.extend(f"{low!r},{high!r},{count}" for low, high, count in hist.to_csv_rows())
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
    records = []
    with path.open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
