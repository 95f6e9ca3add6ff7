"""Prints a one-line pass/fail summary per acceptance criterion; shared fixtures."""

import re
import tracemalloc

import numpy as np
import pytest

_CRITERION = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = {}
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            match = _CRITERION.search(getattr(report, "nodeid", ""))
            if match:
                results[int(match.group(1))] = (outcome, match.group(2))
    if not results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(results):
        outcome, name = results[number]
        status = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(
            f"criterion {number:2d} [{status}] {name.replace('_', ' ')}"
        )


@pytest.fixture
def record_calls(monkeypatch):
    """``record_calls(module, name)``: a list that gets the shape of each call's first argument."""

    def record(module, name):
        calls = []
        real = getattr(module, name)

        def recorded(a, *args, **kwargs):
            calls.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(module, name, recorded)
        return calls

    return record


@pytest.fixture
def traced_peak():
    """``traced_peak(call)``: the most bytes ``tracemalloc`` sees held at once during ``call()``."""

    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
