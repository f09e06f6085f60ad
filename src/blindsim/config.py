"""Experiment configs, their settable leaves, and their flat-text form.

A leaf is a scalar field that ``errors.checked_fields`` lists, addressed
by dotted path (``detector.dead_time``).  Flat text is one
``dotted.path = value`` line per leaf, in seconds, watts and joules, with
``none`` for an unset optional leaf; ``config_from_flat`` parses it once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, is_dataclass, replace
from enum import Enum
from operator import attrgetter
from typing import Any

from .detector import DetectorParams
from .errors import ConfigError, ValidationError, checked_fields, require_finite
from .optics import AttackScenario, flag_pulse
from .selftest import SelfTestPlan, Strategy, fit_tests
from .units import MAX_STIMULI, Duration, Fraction, Rate, TrialCount


class Scenario(str, Enum):
    NORMAL = "NORMAL"
    MANIPULATED = "MANIPULATED"
    RECOVERY_ATTACK = "RECOVERY_ATTACK"
    CUSTOM = "CUSTOM"


@dataclass(frozen=True)
class ExperimentConfig:
    detector: DetectorParams = field(default_factory=DetectorParams)
    attack: AttackScenario = field(default_factory=AttackScenario)
    plan: SelfTestPlan = field(default_factory=lambda: SelfTestPlan(strategy=Strategy.SALT))
    signal_rate: Rate = 5.5e4  # legitimate photon arrival rate at the detector
    duty_cycle: Fraction = 0.5
    trial_duration: Duration = 4.0e-4
    trials: TrialCount = 100
    seed: int = 1
    scenario: Scenario = Scenario.NORMAL

    def __post_init__(self) -> None:
        require_finite(self)
        if self.scenario == Scenario.NORMAL and self.attack.blind_power_level > 0:
            raise ValidationError("scenario", "NORMAL scenario cannot carry an attack")
        if (
            self.plan.strategy == Strategy.SELF_BLIND
            and self.plan.self_blind_power < self.detector.blind_power
        ):
            raise ValidationError(
                "self_blind_power", "must reach the detector blinding threshold"
            )
        emitted = flag_pulse(self.plan, 0).energy  # can round 1 ulp above the plan's
        if max(self.plan.flag_pulse_energy, emitted) >= self.detector.fake_energy:
            raise ValidationError(
                "flag_pulse_energy", "must stay below the fake-state energy threshold"
            )
        n_tests = fit_tests(self.trial_duration, self.duty_cycle, self.plan)[0]
        if n_tests == 0:
            name = "trial_duration" if self.trial_duration == 0 else "duty_cycle"
            raise ValidationError(name, "leaves no self-test in a trial")
        require_stimulus_budget(
            _expected_stimuli(self, n_tests),
            self.detector,
            self.trial_duration,
            "a trial would expect {total:.3g} stimuli ({share:.3g} from this leaf)",
        )


def require_stimulus_budget(
    terms: dict[str, float], detector: DetectorParams, span: float, expect: str, spans: int = 1
) -> None:
    """Reject ``spans`` spans of ``span`` seconds whose stimuli sum past ``MAX_STIMULI``.

    ``terms`` holds the expected stimuli by leaf.  At ``afterpulse_prob``
    p, each stimulus sets off a cascade of p/(1-p) afterpulses on
    average, counted under that leaf; dead time follows every click, so
    a span holds at most ``span / dead_time + 1`` of them.  The error
    names the leaf with the largest term.  ``expect`` begins the message
    and is formatted with the ``total`` and that leaf's ``share``.
    """
    p = detector.afterpulse_prob
    cascade = p / (1 - p) * sum(terms.values())
    terms = {**terms, "afterpulse_prob": min(cascade, spans * (span / detector.dead_time + 1))}
    total = sum(terms.values())
    if total > MAX_STIMULI:
        leaf = max(terms, key=terms.get)
        message = expect.format(total=total, share=terms[leaf])
        raise ValidationError(leaf, f"{message}, more than the {MAX_STIMULI:g} allowed")


def _expected_stimuli(config: ExperimentConfig, n_tests: int) -> dict[str, float]:
    """Expected stimuli per trial by leaf: each rate times the span it acts over.

    The tests count too, under ``test_duration``: each fires a flag pulse
    or builds a fragment, and each gets a verdict.
    """
    trial = config.trial_duration
    plan, attack, detector = config.plan, config.attack, config.detector
    fake_span = trial
    if attack.stop_blind_at is not None:
        fake_span = min(trial, attack.stop_blind_at)
    salt = plan.salt_rate * plan.test_duration * n_tests if plan.strategy == Strategy.SALT else 0.0
    return {
        "signal_rate": config.signal_rate * trial,
        "salt_rate": salt,
        "dark_rate": detector.dark_rate * trial,
        "noise_rate": detector.noise_rate * trial,
        "fake_pulse_rate": attack.fake_pulse_rate * fake_span,
        "test_duration": n_tests,
    }


def _leaves(cls, prefix: str = ""):
    """(dotted path, (kind, may be None)) of each leaf below ``cls``, in field order.

    The leaves are the rows of ``checked_fields`` that hold no dataclass.
    A nested config is walked in place.  A ``| None`` dataclass, the salt
    null a run attaches to the plan, has no text form and is skipped.
    """
    for name, kind, optional, *_ in checked_fields(cls):
        if not is_dataclass(kind):
            yield prefix + name, (kind, optional)
        elif not optional:
            yield from _leaves(kind, f"{prefix}{name}.")


# Every settable leaf, dotted path -> (kind, may be None), in field order:
# the paths that configs, manifests, ``--set`` and sweeps address.
CONFIG_LEAVES = dict(_leaves(ExperimentConfig))


def build_config(values: dict[str, Any], base: Any = None) -> Any:
    """A config with the given leaf values, derived from ``base`` or the default config.

    ``values`` maps dotted leaf paths, relative to ``base``, to typed
    values.  A nested object is rebuilt only when a path reaches into
    it; the others stay ``base``'s.
    """
    if base is None:
        base = ExperimentConfig()
    kwargs: dict[str, Any] = {}
    nested: dict[str, dict[str, Any]] = {}
    for path, value in values.items():
        name, dot, rest = path.partition(".")
        if dot:
            nested.setdefault(name, {})[rest] = value
        else:
            kwargs[name] = value
    for name, sub_values in nested.items():
        kwargs[name] = build_config(sub_values, getattr(base, name))
    try:
        return replace(base, **kwargs)
    except TypeError as e:
        raise ConfigError(f"config: {e}") from e


def set_config_value(config: ExperimentConfig, path: str, value: Any) -> ExperimentConfig:
    """Return a config with the dotted-path leaf replaced."""
    if path not in CONFIG_LEAVES:
        raise ValidationError("parameter", f"not a config leaf: {path!r}")
    return build_config({path: value}, config)


def _format_value(value: Any) -> str:
    if value is None:
        return "none"
    if isinstance(value, Enum):
        return value.value
    return str(value)  # a float's str is its shortest round-trip repr


def config_to_flat(config: ExperimentConfig) -> dict[str, str]:
    """Flatten a config into dotted-path keys with text values."""
    return {path: _format_value(attrgetter(path)(config)) for path in CONFIG_LEAVES}


def parse_leaf(path: str, text: str) -> Any:
    """The value that config text ``text`` gives the leaf at dotted ``path``."""
    if path not in CONFIG_LEAVES:
        raise ConfigError(f"unknown config key: {path}")
    target, optional = CONFIG_LEAVES[path]
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
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in first_line:
            raise ConfigError(f"line {lineno}: {key} already set on line {first_line[key]}")
        first_line[key] = lineno
        out[key] = value.strip()
    return out


def flat_config_text(text: str) -> dict[str, str]:
    """The config entries of plain config text or of a manifest, as text."""
    flat = parse_flat(text)
    return {k[len("config."):]: v for k, v in flat.items() if k.startswith("config.")} or flat
