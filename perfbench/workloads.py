"""Workload definitions and the timed set-up shared by every process.

This module imports only the standard library at module level, so that
``timed_setup`` can be the first thing a fresh interpreter does and its
import time is the import time of ``blindsim`` itself.

A workload is a trial mix (the arms run in process, in fixed shares per
chunk) plus a cold command-line call.  Every workload reports every
end-to-end metric.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

DEFAULT_SEED = 1  # the seed `blindsim simulate` uses when none is given


@dataclass(frozen=True)
class Arm:
    strategy: str  # blindsim.selftest.Strategy value
    scenario: str  # blindsim.engine.Scenario value
    per_chunk: int  # trials of this arm in one chunk of the trial phase

    @property
    def key(self) -> str:
        return f"{self.strategy}/{self.scenario}"


@dataclass(frozen=True)
class Workload:
    name: str
    arms: tuple[Arm, ...]
    cli_args: tuple[str, ...]  # `blindsim simulate` arguments for the cold calls
    cli_calls: int  # cold calls per run, spread over the trial phase


# Salt: photon-heavy trials (about 110 clicks per NORMAL trial), in the
# fig4 proportion of 7432 NORMAL to 7686 MANIPULATED trials.  Its cold
# CLI call is a small salt run, where imports, calibration, the salt
# null oracle and manifest writing dominate.
SALT = Workload(
    "salt",
    (Arm("SALT", "NORMAL", 149), Arm("SALT", "MANIPULATED", 154)),
    ("--protocol", "salt", "--scenario", "normal"),
    3,
)
# Short trials (about 10 clicks): per-trial fixed cost dominates, and the
# detector takes its pulse, CW-edge, blinding, recovery and noise paths.
# Its cold CLI call needs no salt calibration and no null oracle.
SHORT_TRIALS = Workload(
    "short-trials",
    (
        Arm("FLAG_PULSE", "NORMAL", 60),
        Arm("FLAG_PULSE", "MANIPULATED", 60),
        Arm("SELF_BLIND", "NORMAL", 60),
        Arm("SELF_BLIND", "MANIPULATED", 60),
        Arm("SELF_BLIND", "RECOVERY_ATTACK", 60),
    ),
    ("--protocol", "flag", "--scenario", "normal"),
    6,
)

WORKLOADS = {w.name: w for w in (SALT, SHORT_TRIALS)}


@dataclass(frozen=True)
class Plan:
    """How much work one run does besides its timed trial phase."""

    setup_samples: int = 3  # fresh-interpreter set-ups; the median is reported
    cli_trials: int = 200  # trials per cold CLI call
    chunk_scale: float = 1.0  # multiplies every arm's per-chunk trials


FULL = Plan()


def chunk_seed(seed: int, chunk: int) -> int:
    """Master seed of one chunk; distinct for every (seed, chunk)."""
    return seed * 100_000 + chunk


def cli_seed(seed: int, call: int) -> int:
    return seed * 100_000 + 90_000 + call


def use_checkout_source() -> None:
    """Put the checkout's ``src`` first on the import path, or exit 2."""
    if not (SRC / "blindsim" / "__init__.py").is_file():
        print(f"perfbench: no blindsim package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def build_configs(workload: Workload, seed: int):
    """The workload's preset configs (one trial each), keyed by arm."""
    from blindsim.engine import Scenario
    from blindsim.presets import preset_config
    from blindsim.selftest import Strategy

    return {
        arm.key: preset_config(
            Scenario(arm.scenario), Strategy(arm.strategy), trials=1, seed=seed
        )
        for arm in workload.arms
    }


def timed_setup(workload: Workload, seed: int, tracer=None):
    """Import blindsim and build the workload's preset configs, timed.

    Returns the configs and ``{"import_s", "build_s", "setup_s"}``.  Only
    the first call in an interpreter measures a cold import.  A tracer,
    when given, wraps the presets calibrations before the build.
    """
    use_checkout_source()
    t0 = time.perf_counter()
    import blindsim  # noqa: F401
    import blindsim.presets  # noqa: F401

    t1 = time.perf_counter()
    if tracer is not None:
        tracer.install_presets()
    configs = build_configs(workload, seed)
    t2 = time.perf_counter()
    src = Path(blindsim.__file__).resolve()
    if SRC.resolve() not in src.parents:
        raise SystemExit(f"perfbench: blindsim imported from {src}, not {SRC}")
    return configs, {"import_s": t1 - t0, "build_s": t2 - t1, "setup_s": t2 - t0}
