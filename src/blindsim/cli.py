"""Command-line front end.

Exit codes: 0 success, 1 usage or configuration problem (the message
names the offending field), 2 I/O failure.  The command group maps every
library error (``BlindsimError``) to exit 1, so no command catches one.
The environment variable BLINDSIM_SEED overrides the config seed; --seed
overrides both.
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
from .config import flat_config_text
from .engine import run_experiment, tally_verdicts
from .errors import BlindsimError, ConfigError, require
from .manifest import (
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
from .units import PositiveCount, TrialCount

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


def _resolve_seed(cli_seed: int | None, default: int | None = None) -> int | None:
    """The --seed value, else BLINDSIM_SEED, else ``default``."""
    if cli_seed is not None:
        return cli_seed
    env = os.environ.get("BLINDSIM_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as e:
            raise click.ClickException(f"BLINDSIM_SEED: expected an integer, got {env!r}") from e
    return default


def _build_flat(
    config_path: str | None,
    scenario: str | None,
    protocol: str | None,
    trials: int | None,
    seed: int | None,
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
    if trials is not None:
        flat["trials"] = str(trials)
    resolved_seed = _resolve_seed(seed)
    if resolved_seed is not None:
        flat["seed"] = str(resolved_seed)
    for item in overrides:
        if "=" not in item:
            raise click.ClickException(f"--set expects dotted.path=value, got {item!r}")
        path, _, value = item.partition("=")
        flat[path.strip()] = value.strip()
    return flat


def _attach_salt_null(config: ExperimentConfig):
    """Attach the salt-test null of the config's detector to the plan.

    The null comes from ``presets.salt_null``: the frozen
    ``presets.SALT_NULL`` for the reference detector, rate and window,
    otherwise simulated at a fixed seed, never at ``config.seed``.
    """
    if config.plan.strategy != Strategy.SALT:
        return config, None
    null = salt_null(config)
    plan = replace(config.plan, null_distribution=null, null_mean=None)
    return replace(config, plan=plan), null


def _write_run(outdir: Path, run: dict[str, str], timings, config, result, extra_hists):
    """Write trials, histograms and the manifest, with digests, write time and finish time."""
    t0 = time.perf_counter()
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        digests: dict[str, str] = {}
        trials_path = outdir / "trials.jsonl"
        write_trials_jsonl(trials_path, result.trials)
        digests["trials.jsonl"] = sha256_file(trials_path)
        hists = dict(result.histograms)
        hists.update(extra_hists)
        for name, hist in sorted(hists.items()):
            path = outdir / f"hist_{name}.csv"
            write_histogram_csv(path, hist)
            digests[path.name] = sha256_file(path)
        timings = {**timings, "write_s": time.perf_counter() - t0}
        text = manifest_text({**run, "finished_utc": _now()}, timings, config, digests)
        (outdir / "manifest.txt").write_text(text)
    except OSError as e:
        raise _IOFailure(f"cannot write results: {e}") from e


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
@click.option("--seed", type=int, default=None, help="Master seed override.")
@click.option("--trials", type=int, default=None, help="Trial count override.")
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
    t1 = time.perf_counter()
    run_config, null_hist = _attach_salt_null(config)
    t2 = time.perf_counter()
    result = run_experiment(run_config, threads=threads)
    t3 = time.perf_counter()
    run = {
        "started_utc": started,
        "threads": str(threads),
        "salt_null": (
            "none" if null_hist is None
            else "reference" if null_hist is SALT_NULL
            else "simulated"
        ),
    }
    timings = {"config_s": t1 - t0, "salt_null_s": t2 - t1, "trials_s": t3 - t2}
    extra = {"salt_null": null_hist} if null_hist is not None else {}
    _write_run(Path(outdir), run, timings, config, result, extra)
    summary = result.summary()
    for key in sorted(summary):
        click.echo(f"{key} = {summary[key]}")


@main.command()
@click.argument("name")
@click.option("--out", "outdir", type=click.Path(), default="out")
@click.option("--seed", type=int, default=None)
@click.option("--trials", type=int, default=None,
              help="Override the preset trial counts (all arms).")
@_threads_option
def figure(name, outdir, seed, trials, threads):
    """Reproduce a bundled demonstration data set (fig3b, fig4, fig5, fig6)."""
    if name not in FIGURE_TRIALS:
        raise click.ClickException(
            f"unknown figure {name!r}; choose from {', '.join(sorted(FIGURE_TRIALS))}"
        )
    if trials is not None:
        require("trials", trials, TrialCount)
    seed = _resolve_seed(seed, default=1)
    out = Path(outdir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise _IOFailure(f"cannot create output directory: {e}") from e
    try:
        if name == "fig3b":
            n = FIGURE_TRIALS[name][0] if trials is None else trials
            hist = count_distribution_oracle(
                reference_detector(),
                SIGNAL_RATE,
                WINDOW,
                n_trials=n,
                rng=stream(seed, "fig3b"),
            )
            write_histogram_csv(out / "hist_fig3b_counts.csv", hist)
            click.echo(f"trials = {n}")
            click.echo(f"mean = {hist.mean():.4f}")
            click.echo(f"variance = {hist.variance():.4f}")
            return
        strategy = {"fig4": Strategy.SALT, "fig5": Strategy.FLAG_PULSE,
                    "fig6": Strategy.SELF_BLIND}[name]
        n_normal, n_manip = FIGURE_TRIALS[name]
        for scenario, n, label in (
            (Scenario.NORMAL, n_normal if trials is None else trials, "normal"),
            (Scenario.MANIPULATED, n_manip if trials is None else trials, "manipulated"),
        ):
            config = preset_config(scenario, strategy, trials=n, seed=seed)
            result = run_experiment(config, threads=threads)
            for hist_name, hist in sorted(result.histograms.items()):
                write_histogram_csv(out / f"hist_{name}_{label}_{hist_name}.csv", hist)
            summary = result.summary()
            for key in sorted(summary):
                click.echo(f"{label}.{key} = {summary[key]}")
    except OSError as e:
        raise _IOFailure(f"cannot write results: {e}") from e


@main.command()
@click.argument("results_dir", type=click.Path())
def analyze(results_dir):
    """Verdict accuracy and decision error estimates for a stored run."""
    root = Path(results_dir)
    manifest_path = root / "manifest.txt"
    if not manifest_path.exists():
        raise _IOFailure(f"missing manifest: {manifest_path}")
    try:
        flat = flat_config_text(manifest_path.read_text())
        if not flat:  # else it would read as the default config
            raise ConfigError("manifest carries no config snapshot")
        config = config_from_flat(flat)
        records = read_trial_records(root / "trials.jsonl")
        decisions, accuracy = tally_verdicts(
            (v["decision"] for rec in records for v in rec["verdicts"]),
            config.scenario,
            config.plan.strategy,
        )
    except (OSError, BlindsimError, ValueError, KeyError) as e:
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
@click.option("--seed", type=int, default=None)
@click.option("--trials", type=int, default=None)
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
