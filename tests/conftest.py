from __future__ import annotations

import pytest

from blindsim.presets import SALT_RATE, SIGNAL_RATE, reference_detector


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and item.fspath.basename == "test_acceptance.py":
        verdict = "PASS" if report.passed else "FAIL"
        label = getattr(item.function, "criterion", item.name)
        print(f"\n[acceptance] {label}: {verdict}", flush=True)


@pytest.fixture(scope="session")
def ref_detector():
    return reference_detector()


@pytest.fixture(scope="session")
def ref_signal_rate():
    return SIGNAL_RATE


@pytest.fixture(scope="session")
def ref_salt_rate():
    return SALT_RATE
