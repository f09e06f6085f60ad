"""Re-keyed per-thread trial streams against independent ``stream`` generators."""

from __future__ import annotations

import struct
import sys
import threading

import numpy as np
import pytest

from blindsim import engine
from blindsim.engine import run_trial
from blindsim.presets import flag_pulse_config
from blindsim.rng import _key, stream, trial_stream

TRIAL_TAGS = ("schedule", "signal", "attack", "le", "detector")

DRAWS = {
    "random": lambda g: g.random(9),
    "poisson": lambda g: g.poisson(3.5, 9),
    "integers_uint32": lambda g: g.integers(0, 1000, 9, dtype=np.uint32),
    "integers_int64": lambda g: g.integers(-(2**40), 2**40, 9),
    "standard_normal": lambda g: g.standard_normal(9),
}


@pytest.mark.parametrize(
    "master_seed, path, key_hex",
    [
        (7, (3, "detector"), "8ffa3f118636ce21dee0361a0adc2172"),
        (0, (), "5feceb66ffc86f38d952786c6d696c79"),
        (42, ("le",), "e9578d1373cae13b58d0fe7d6a3aecde"),
        (-12345, (2, "schedule"), "a386699c733dfff0f12edc3836c50dbc"),
        (2**70, ("σalt-ü", 5), "91f5c5030f20ba97fc58634d92069d04"),
    ],
)
def test_stream_keys_are_frozen(master_seed, path, key_hex):
    # the first 16 bytes of sha256("seed/part/..."): every digest rests on them
    assert struct.pack("=2Q", *_key(master_seed, path)).hex() == key_hex


@pytest.mark.parametrize("draw", sorted(DRAWS))
def test_rekeyed_stream_draws_equal_a_fresh_stream(draw):
    # leave this thread's "le" generator mid-buffer, with a spare 32-bit half
    used = trial_stream(5, 0, "le")
    used.integers(0, 7, 3, dtype=np.uint32)
    used.random()
    for index in (1, 2, 40):
        rekeyed = trial_stream(5, index, "le")
        assert rekeyed is used
        np.testing.assert_array_equal(DRAWS[draw](rekeyed), DRAWS[draw](stream(5, index, "le")))


def test_rekeyed_state_equals_a_fresh_stream_state():
    # a generator mid-buffer, with a spare 32-bit half, re-keyed by int words
    used = trial_stream(6, 0, "signal")
    used.random(2)
    used.integers(0, 7, dtype=np.uint32)
    assert used.bit_generator.state["buffer_pos"] < 4
    assert used.bit_generator.state["has_uint32"] == 1
    rekeyed = trial_stream(6, 9, "signal").bit_generator.state
    fresh = stream(6, 9, "signal").bit_generator.state
    assert rekeyed["bit_generator"] == fresh["bit_generator"] == "Philox"
    for words in ("counter", "key"):
        np.testing.assert_array_equal(rekeyed["state"][words], fresh["state"][words])
    np.testing.assert_array_equal(rekeyed["buffer"], fresh["buffer"])
    for field in ("buffer_pos", "has_uint32", "uinteger"):
        assert rekeyed[field] == fresh[field], field


def test_trial_tags_are_distinct_objects_and_stream_is_always_new():
    per_tag = [trial_stream(3, 0, tag) for tag in TRIAL_TAGS]
    assert len({id(g) for g in per_tag}) == len(TRIAL_TAGS)
    assert stream(3, 0, "le") is not stream(3, 0, "le")
    assert stream(3, 0, "le") is not trial_stream(3, 0, "le")


def test_one_trial_keys_each_tag_once(monkeypatch):
    keyed = []

    def recording(seed, *path):
        rng = trial_stream(seed, *path)
        keyed.append((path[-1], rng))
        return rng

    monkeypatch.setattr(engine, "stream", recording)
    run_trial(flag_pulse_config(engine.Scenario.MANIPULATED, trials=2, seed=4), 1)
    assert sorted(tag for tag, _ in keyed) == sorted(TRIAL_TAGS)
    assert len({id(rng) for _, rng in keyed}) == len(TRIAL_TAGS)


def test_concurrent_threads_match_serial_trials():
    cfg = flag_pulse_config(engine.Scenario.MANIPULATED, trials=40, seed=12)
    serial = [run_trial(cfg, i) for i in range(cfg.trials)]
    results: dict[int, object] = {}
    generators = {}

    def worker(indices):
        generators[threading.get_ident()] = trial_stream(cfg.seed, 0, "detector")
        for i in indices:
            results[i] = run_trial(cfg, i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(range(k, cfg.trials, 2),)) for k in (0, 1)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len({id(g) for g in generators.values()}) == 2
    assert [results[i] for i in range(cfg.trials)] == serial
