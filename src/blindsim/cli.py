"""Command-line front end.

Exit codes: 0 success, 1 usage or configuration problem (the message
names the offending field), 2 I/O failure.  The command group maps every
library error (``BlindsimError``) to exit 1, so no command catches one.
--trials, --seed and the environment variable BLINDSIM_SEED are config
text, like --set: BLINDSIM_SEED overrides the config seed, --seed
overrides both and --set overrides all, and ``config.parse_leaf`` parses
each as it is applied.
"""

from __future__ import annotations

import datetime as _dt
import math
import os
import time
from dataclasses import replace
from decimal import Decimal, InvalidOperation
from pathlib import Path

import click

from . import __version__
from .config import ExperimentConfig, Scenario, config_from_flat, config_to_flat
from .config import flat_config_text, parse_leaf
from .engine import run_experiment, tally_verdicts
from .errors import BlindsimError, ConfigError, require
from .manifest import (
    manifest_digests,
    manifest_text,
    read_trial_records,
    sha256_file,
    write_histogram_csv,
    write_trials_jsonl,
)
from .presets import (
    FIGURE_TRIALS,
    SALT_NULL,
    SIGNAL_RATE,
    WINDOW,
    count_distribution_oracle,
    preset_config,
    reference_detector,
    salt_null,
)
from .rng import stream
from .selftest import Strategy
from .stats import clopper_pearson_interval
from .units import PositiveCount

_SCENARIOS = {
    "normal": Scenario.NORMAL,
    "manipulated": Scenario.MANIPULATED,
    "recovery": Scenario.RECOVERY_ATTACK,
    "custom": Scenario.CUSTOM,
}
_PROTOCOLS = {
    "salt": Strategy.SALT,
    "flag": Strategy.FLAG_PULSE,
    "self-blind": Strategy.SELF_BLIND,
}
_MAX_SWEEP_POINTS = 10_000


class _IOFailure(click.ClickException):
    exit_code = 2


def _now() -> str:
    return _dt.datetime.now(_dt.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _build_flat(
    config_path: str | None,
    scenario: str | None,
    protocol: str | None,
    trials: str | None,
    seed: str | None,
    overrides: tuple[str, ...],
) -> dict[str, str]:
    """The config text of a config file, manifest or preset, with every override applied."""
    if config_path is not None:
        try:
            text = Path(config_path).read_text()
        except (OSError, UnicodeDecodeError) as e:
            raise _IOFailure(f"cannot read config: {e}") from e
        flat = flat_config_text(text)
    else:
        flat = config_to_flat(preset_config(
            _SCENARIOS[scenario or "normal"],
            _PROTOCOLS[protocol or "salt"],
            trials=1000,
            seed=1,
        ))
    if scenario is not None:
        flat["scenario"] = _SCENARIOS[scenario].value
    if protocol is not None:
        flat["plan.strategy"] = _PROTOCOLS[protocol].value
    texts = [("trials", trials), ("seed", os.environ.get("BLINDSIM_SEED")), ("seed", seed)]
    for item in overrides:
        if "=" not in item:
            raise click.ClickException(f"--set expects dotted.path=value, got {item!r}")
        path, _, value = item.partition("=")
        texts.append((path.strip(), value.strip()))
    for path, text in texts:
        if text is not None:
            parse_leaf(path, text)  # parsed now: a later text or sweep point may replace it
            flat[path] = text
    return flat


def _run(outdir: Path, config: ExperimentConfig, threads: int, started: str, config_s: float):
    """Run ``config``, write its trials, histograms and manifest (last) and return its summary.

    First it deletes the files that ``outdir``'s previous manifest names
    and this run will not write; an unreadable manifest deletes nothing.
    A salt run's plan gets the null of ``presets.salt_null``: the frozen
    ``presets.SALT_NULL`` for the reference detector, rate and window,
    otherwise simulated at a fixed seed, never at ``config.seed``.
    """
    t1 = time.perf_counter()
    null, run_config = None, config
    if config.plan.strategy == Strategy.SALT:
        null = salt_null(config)
        plan = replace(config.plan, null_distribution=null, null_mean=None)
        run_config = replace(config, plan=plan)
    t2 = time.perf_counter()
    result = run_experiment(run_config, threads=threads)
    t3 = time.perf_counter()
    hists = {f"hist_{name}.csv": hist for name, hist in result.histograms.items()}
    if null is not None:
        hists["hist_salt_null.csv"] = null
    try:
        stale = manifest_digests((outdir / "manifest.txt").read_text()).keys()
    except (OSError, ValueError, BlindsimError):
        stale = set()
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for name in stale - {"trials.jsonl", *hists}:
            (outdir / name).unlink(missing_ok=True)
        write_trials_jsonl(outdir / "trials.jsonl", result.trials)
        for name, hist in hists.items():
            write_histogram_csv(outdir / name, hist)
        digests = {name: sha256_file(outdir / name) for name in ("trials.jsonl", *hists)}
        timings = {"config_s": config_s, "salt_null_s": t2 - t1, "trials_s": t3 - t2,
                   "write_s": time.perf_counter() - t3}
        run = {
            "started_utc": started,
            "finished_utc": _now(),
            "threads": str(threads),
            "salt_null": (
                "none" if null is None
                else "reference" if null is SALT_NULL
                else "simulated"
            ),
        }
        (outdir / "manifest.txt").write_text(manifest_text(run, timings, config, digests))
    except OSError as e:
        raise _IOFailure(f"cannot write results: {e}") from e
    return result.summary()


def _check_threads(ctx, param, threads: int) -> int:
    require("threads", threads, PositiveCount)
    return threads


_threads_option = click.option(
    "--threads", type=int, default=1, callback=_check_threads,
    help="Worker processes (capped at the CPU count).",
)


class _Commands(click.Group):
    """The command group: a usage or library error from any command exits 1 with its message."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as e:
            e.exit_code = 1
            raise
        except BlindsimError as e:
            raise click.ClickException(str(e)) from e


@click.group(cls=_Commands)
@click.version_option(version=__version__)
def main():
    """Simulate detector blinding attacks and self-testing countermeasures."""


@main.command()
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="Flat key=value config file (or a manifest to re-run).")
@click.option("--seed", default=None, help="Master seed override.")
@click.option("--trials", default=None, help="Trial count override.")
@click.option("--scenario", type=click.Choice(sorted(_SCENARIOS)), default=None)
@click.option("--protocol", type=click.Choice(sorted(_PROTOCOLS)), default=None)
@click.option("--out", "outdir", type=click.Path(), default="out",
              help="Output directory.")
@_threads_option
@click.option("--set", "overrides", multiple=True, metavar="PATH=VALUE",
              help="Override a config field by dotted path.")
def simulate(config_path, seed, trials, scenario, protocol, outdir, threads, overrides):
    """Run an experiment and persist trials, histograms, and a manifest."""
    started = _now()
    t0 = time.perf_counter()
    config = config_from_flat(_build_flat(config_path, scenario, protocol, trials, seed, overrides))
    summary = _run(Path(outdir), config, threads, started, time.perf_counter() - t0)
    for key in sorted(summary):
        click.echo(f"{key} = {summary[key]}")


@main.command()
@click.argument("name")
@click.option("--out", "outdir", type=click.Path(), default="out")
@click.option("--seed", default=None)
@click.option("--trials", default=None, help="Override the preset trial counts (all arms).")
@_threads_option
def figure(name, outdir, seed, trials, threads):
    """Reproduce a bundled data set: fig3b, or fig4-fig6 as a run per arm in <out>/<name>_<arm>/."""
    if name not in FIGURE_TRIALS:
        raise click.ClickException(
            f"unknown figure {name!r}; choose from {', '.join(sorted(FIGURE_TRIALS))}"
        )
    texts = [str(n) if trials is None else trials for n in FIGURE_TRIALS[name]]
    out = Path(outdir)
    if name != "fig3b":
        protocol = {"fig4": "salt", "fig5": "flag", "fig6": "self-blind"}[name]
        arms = {}  # every arm is validated before any runs
        for arm, text in zip(("normal", "manipulated"), texts):
            t0 = time.perf_counter()
            flat = _build_flat(None, arm, protocol, text, seed, ())
            arms[arm] = (config_from_flat(flat), time.perf_counter() - t0)
        for arm, (config, config_s) in arms.items():
            summary = _run(out / f"{name}_{arm}", config, threads, _now(), config_s)
            for key in sorted(summary):
                click.echo(f"{arm}.{key} = {summary[key]}")
        return
    # the salt preset's seed, 1, unless BLINDSIM_SEED or --seed sets it
    config = config_from_flat(_build_flat(None, None, None, texts[0], seed, ()))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise _IOFailure(f"cannot create output directory: {e}") from e
    hist = count_distribution_oracle(
        reference_detector(),
        SIGNAL_RATE,
        WINDOW,
        n_trials=config.trials,
        rng=stream(config.seed, "fig3b"),
    )
    try:
        write_histogram_csv(out / "hist_fig3b_counts.csv", hist)
    except OSError as e:
        raise _IOFailure(f"cannot write results: {e}") from e
    click.echo(f"trials = {config.trials}")
    click.echo(f"mean = {hist.mean():.4f}")
    click.echo(f"variance = {hist.variance():.4f}")


@main.command()
@click.argument("results_dir", type=click.Path())
def analyze(results_dir):
    """Verdict accuracy and decision error estimates for a stored run."""
    root = Path(results_dir)
    manifest_path = root / "manifest.txt"
    if not manifest_path.exists():
        raise _IOFailure(f"missing manifest: {manifest_path}")
    try:
        text = manifest_path.read_text()
        flat = flat_config_text(text)
        if not flat:  # else it would read as the default config
            raise ConfigError("manifest carries no config snapshot")
        config = config_from_flat(flat)
        for name, digest in manifest_digests(text).items():
            if sha256_file(root / name) != digest:
                raise ValueError(f"{name} does not match its digest in the manifest")
        records = read_trial_records(root / "trials.jsonl")
        if len(records) != config.trials:
            raise ValueError(f"trials.jsonl holds {len(records)} records, not {config.trials}")
        decisions, accuracy = tally_verdicts(
            (v["decision"] for rec in records for v in rec["verdicts"]),
            config.scenario,
            config.plan.strategy,
        )
    except (OSError, BlindsimError, ValueError, KeyError, TypeError) as e:
        raise _IOFailure(f"corrupt results directory: {e}") from e

    total = sum(decisions.values())
    click.echo(f"scenario = {config.scenario.value}")
    click.echo(f"strategy = {config.plan.strategy.value}")
    click.echo(f"trials = {len(records)}")
    click.echo(f"verdicts = {total}")
    for d in sorted(decisions):
        click.echo(f"decision.{d} = {decisions[d]}")
    if not math.isnan(accuracy):
        click.echo(f"accuracy = {accuracy:.6f}")
        wrong = round(total * (1 - accuracy))  # accuracy is good/total: rounds back exactly
        low, high = clopper_pearson_interval(wrong, total)
        if config.scenario == Scenario.NORMAL:
            label = "miss_rate"  # healthy detector failing its own self-test
        else:
            label = "undetected_rate"  # manipulation passing as normal
        click.echo(f"{label} = {wrong / total:.6g} ci95 = [{low:.6g}, {high:.6g}]")


@main.command("sweep")
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--scenario", type=click.Choice(sorted(_SCENARIOS)), default=None)
@click.option("--protocol", type=click.Choice(sorted(_PROTOCOLS)), default=None)
@click.option("--seed", default=None)
@click.option("--trials", default=None)
@click.option("--param", required=True, help="Dotted path of the swept field.")
@click.option("--values", required=True,
              help="Comma list (a,b,c) or range (start:stop:step).")
@click.option("--out", "outdir", type=click.Path(), default="out")
@_threads_option
def sweep_cmd(config_path, scenario, protocol, seed, trials, param, values, outdir, threads):
    """Re-run the experiment across parameter values and tabulate metrics."""
    flat = _build_flat(config_path, scenario, protocol, trials, seed, ())
    # each value text applies like --set, and every point is validated before any runs
    points = [config_from_flat({**flat, param: text}) for text in _parse_values(values)]
    rows = []
    for cfg in points:
        counts, accuracy = run_experiment(cfg, threads=threads).tally()
        rows.append((config_to_flat(cfg)[param], accuracy, sorted(counts.items())))
    out = Path(outdir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        lines = ["value,accuracy,error_rate,verdicts"]
        for value, accuracy, decisions in rows:
            verdicts = ";".join(f"{k}:{v}" for k, v in decisions)
            lines.append(f"{value},{accuracy!r},{1.0 - accuracy!r},{verdicts}")
        (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    except OSError as e:
        raise _IOFailure(f"cannot write results: {e}") from e
    for value, accuracy, _ in rows:
        click.echo(f"{param} = {value}: accuracy = {accuracy}")


def _parse_values(text: str) -> list[str]:
    """Value texts of a comma list, or of an inclusive start:stop:step range.

    Range points are stepped in decimal arithmetic, so 0.1:0.3:0.1 gives
    0.1, 0.2, 0.3 without binary floating-point drift.  A range is
    counted before it is built; there must be 1 to ``_MAX_SWEEP_POINTS``
    values.
    """
    if ":" not in text:
        out = [p.strip() for p in text.split(",") if p.strip()]
        if not out:
            raise click.ClickException("values: need at least one value")
        return out
    parts = text.split(":")
    if len(parts) != 3:
        raise click.ClickException("range values need start:stop:step")
    try:
        start, stop, step = (Decimal(p.strip()) for p in parts)
    except InvalidOperation as e:
        raise click.ClickException(f"range values need three numbers, got {text!r}") from e
    if not all(d.is_finite() for d in (start, stop, step)):
        raise click.ClickException(f"range values must be finite, got {text!r}")
    if step <= 0:
        raise click.ClickException("range step must be > 0")
    if stop < start:
        raise click.ClickException("values: need at least one value")
    try:
        n = int((stop - start) // step) + 1
    except InvalidOperation:  # the quotient has more digits than the decimal context
        n = math.inf
    if n > _MAX_SWEEP_POINTS:
        raise click.ClickException(f"values: a range may hold at most {_MAX_SWEEP_POINTS} points")
    out = []
    v = start
    while v <= stop:
        out.append(str(v))
        v += step
    return out


if __name__ == "__main__":
    main()
