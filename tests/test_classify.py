"""Classification sweeps: byte-identical default reports, one point list
per sweep, and the worker-pool size."""

import hashlib
import json
import multiprocessing
import os
from fractions import Fraction
from pathlib import Path

import pytest

from liecodim import classify
from liecodim.classify import GridSpec, classify_extensions
from liecodim.cli import canonical_json

RECORDED = json.loads(
    (Path(__file__).resolve().parent.parent / "bench" / "report_hashes.json")
    .read_text())

# The four cheapest of the ten default sweeps (about 5.5 s together).
CHEAP_SWEEPS = ("r1/ext1", "r3/ext1", "r2/ext2ad", "h3/ext2ad")


@pytest.mark.parametrize("sweep", CHEAP_SWEEPS)
def test_default_report_matches_recorded_hash(sweep):
    base, mode = sweep.split("/")
    report = classify_extensions(base, mode, GridSpec(seed=RECORDED["seed"]))
    text = canonical_json(report.as_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == RECORDED["sha256"][sweep]


def test_sweep_points_computed_once(monkeypatch):
    calls = []
    original = classify.sweep_points

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(classify, "sweep_points", counting)
    classify_extensions("r1", "ext1")
    assert len(calls) == 1


class _InlinePool:
    """Stands in for multiprocessing.Pool: records its size and runs the
    work in this process."""

    sizes = []

    def __init__(self, size):
        self.sizes.append(size)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, fn, args):
        return [fn(*a) for a in args]


def test_jobs_clamped_to_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing, "Pool", _InlinePool)
    _InlinePool.sizes.clear()
    points = [(Fraction(i - 1000),) for i in range(2000)]
    results = classify._run_sweep("r1", "ext1", points, jobs=64)
    assert _InlinePool.sizes == [2]
    assert results == classify._classify_chunk("r1", "ext1", points)
