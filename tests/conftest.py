"""Shared fixtures plus the acceptance-criteria summary hook.

Tests in test_acceptance.py carry a ``criterion(n, description)``
marker; the terminal summary prints one PASS/FAIL line per criterion so
the gate can be read at a glance.
"""
from __future__ import annotations

import builtins
import io
import json
import os
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from smoa import Matrix, load_plan, make_witness, save_matrix
from smoa.fileutil import sha256_bytes

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


def write_witness_bundle(directory: Path, plan_path: Path, rho: int, seed: int) -> None:
    """A witness bundle over the plan file ``plan_path``, its manifest written
    by hand: ``save_witness`` refuses a plan whose gaps overflow, and a
    manifest's recorded gaps and rank are not read back."""
    plan = load_plan(plan_path)
    target = save_matrix(make_witness(plan, rho, seed).target, directory / "target.mat")
    (directory / "witness.json").write_text(json.dumps({
        "format": "SMOA-WITNESS", "version": 5, "seed": seed, "rho": rho,
        "plan": {"path": os.path.relpath(plan_path, directory), "hash": plan.file[1]},
        "target": {"path": "target.mat", "hash": sha256_bytes(target)},
    }))


@pytest.fixture
def count_decompositions(monkeypatch):
    """``run(fn, *args)`` returns ``fn``'s result and how many full and
    values-only decompositions it ran, by name: ``numpy.linalg.svd`` with
    vectors counts as ``"svd"``, as does ``scipy.linalg.svd`` (the fallback
    driver), ``numpy.linalg.svd(..., compute_uv=False)`` as ``"svdvals"``
    and ``numpy.linalg.eigh`` as ``"eigh"``. A stacked call counts once,
    however many matrices its ``(K, m, n)`` input holds. ``run.shapes``
    lists each call of the last run in order as ``(name, input shape)``, so
    a test can tell a ``(K, m, n)`` stack from a dense matrix."""
    counts: Counter[str] = Counter()
    real_svd, real_np_svd, real_eigh = scipy.linalg.svd, np.linalg.svd, np.linalg.eigh

    def record(name, args, kwargs):
        counts[name] += 1
        run.shapes.append((name, np.shape(args[0] if args else kwargs["a"])))

    def counting_svd(*args, **kwargs):
        record("svd", args, kwargs)
        return real_svd(*args, **kwargs)

    def counting_np_svd(*args, **kwargs):
        record("svd" if kwargs.get("compute_uv", True) else "svdvals", args, kwargs)
        return real_np_svd(*args, **kwargs)

    def counting_eigh(*args, **kwargs):
        record("eigh", args, kwargs)
        return real_eigh(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "svd", counting_np_svd)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)

    def run(fn, *args, **kwargs):
        counts.clear()
        run.shapes.clear()
        result = fn(*args, **kwargs)
        return result, dict(counts)

    run.shapes = []
    return run


@pytest.fixture
def count_reads(monkeypatch):
    """``run(fn, *args)`` returns ``fn``'s result, how many times it opened
    each file for reading, and the set of files it wrote, both by resolved
    path. A write is an ``os.replace`` onto its target, as every atomic
    write ends; an open of a file descriptor counts as neither."""
    reads: Counter[Path] = Counter()
    written: set[Path] = set()
    real_open, real_replace = io.open, os.replace

    def counting_open(file, mode="r", *args, **kwargs):
        if not isinstance(file, int) and not set(mode) & set("wax+"):
            reads[Path(file).resolve()] += 1
        return real_open(file, mode, *args, **kwargs)

    def recording_replace(src, dst, *args, **kwargs):
        written.add(Path(dst).resolve())
        return real_replace(src, dst, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(os, "replace", recording_replace)

    def run(fn, *args, **kwargs):
        reads.clear()
        written.clear()
        result = fn(*args, **kwargs)
        return result, dict(reads), set(written)

    return run
