"""Shared fixtures plus the acceptance-criteria summary hook.

Tests in test_acceptance.py carry a ``criterion(n, description)``
marker; the terminal summary prints one PASS/FAIL line per criterion so
the gate can be read at a glance.
"""
from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from smoa import Matrix

_CRITERIA: dict[int, tuple[str, str]] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(n, description): acceptance criterion covered by this test"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is not None and report.when == "call":
        number, description = marker.args
        status = "PASS" if report.passed else "FAIL"
        _CRITERIA[number] = (description, status)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(_CRITERIA):
        description, status = _CRITERIA[number]
        terminalreporter.write_line(f"criterion {number:2d}: {status}  {description}")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_matrix(rng: np.random.Generator, rows: int, cols: int) -> Matrix:
    return Matrix(rng.standard_normal((rows, cols)))


@pytest.fixture
def count_decompositions(monkeypatch):
    """``run(fn, *args)`` returns ``fn``'s result and how many full and
    values-only decompositions it ran, by name: ``scipy.linalg.svd``
    counts as ``"svd"`` and ``numpy.linalg.svd(..., compute_uv=False)``
    as ``"svdvals"``. A stacked call counts once, however many matrices
    its ``(K, m, n)`` input holds."""
    counts: Counter[str] = Counter()
    real_svd, real_np_svd = scipy.linalg.svd, np.linalg.svd

    def counting_svd(*args, **kwargs):
        counts["svd"] += 1
        return real_svd(*args, **kwargs)

    def counting_np_svd(*args, **kwargs):
        if not kwargs.get("compute_uv", True):
            counts["svdvals"] += 1
        return real_np_svd(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "svd", counting_np_svd)

    def run(fn, *args, **kwargs):
        counts.clear()
        result = fn(*args, **kwargs)
        return result, dict(counts)

    return run
