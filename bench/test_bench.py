"""Tests for the benchmark's own code.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import json
import signal
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
from liecodim.classify import GoldenMismatch  # noqa: E402
from liecodim.liealg import JacobiViolation  # noqa: E402
from spans import MissingTarget, Tracer, wrap_functions  # noqa: E402

R1 = (("r1", "ext1"),)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    traced_leaf = tracer.wrap("leaf", leaf)

    def outer():
        clock.now += 1.0
        traced_leaf()
        traced_leaf()
        clock.now += 0.5

    tracer.wrap("outer", outer)()
    outer_stats, leaf_stats = tracer.stats["outer"], tracer.stats["leaf"]
    assert (outer_stats.calls, outer_stats.total_s, outer_stats.self_s) == (1, 5.5, 1.5)
    assert (leaf_stats.calls, leaf_stats.total_s, leaf_stats.self_s) == (2, 4.0, 4.0)


def test_raised_calls_are_counted_and_reraised():
    tracer = Tracer(clock=FakeClock())

    def fail():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.wrap("fail", fail)()
    assert (tracer.stats["fail"].calls, tracer.stats["fail"].raised) == (1, 1)


def test_missing_target_fails_before_wrapping():
    module = types.ModuleType("fake")
    module.present = lambda: None
    original = module.present
    with pytest.raises(MissingTarget, match="fake.renamed"):
        wrap_functions(Tracer(), [module], [("a", module, "present"),
                                            ("b", module, "renamed")])
    assert module.present is original


def test_seed_reaches_grid_spec():
    sweep = run.run_pass(R1, seed=12345).sweeps[0]
    assert sweep.problems == []
    assert sweep.report["grid"].endswith("seed 12345")


def test_success_check_rejects_doctored_reports():
    report = run.run_pass(R1, seed=7).sweeps[0].report
    assert run.report_problems(report) == []

    def doctored(edit):
        bad = copy.deepcopy(report)
        edit(bad)
        return run.report_problems(bad)

    assert doctored(lambda r: r["golden"].update(ok=False))
    assert doctored(lambda r: r["families"][0].update(jacobi_ok=False))
    assert doctored(lambda r: r["families"][0].update(membership_ok=False))
    assert doctored(lambda r: r["families"][0].update(indecomposable_ok=False))
    assert doctored(lambda r: r["families"][0].update(verified_points=0))
    assert doctored(lambda r: r["distinctness"].append(
        {"pair": ["a", "b"], "evidence": "UNRESOLVED"}))


@pytest.mark.parametrize("error", [
    GoldenMismatch({"x"}, {"y"}),
    JacobiViolation((0, 1, 2), (Fraction(1),)),
])
def test_raising_sweep_is_a_failed_attempt(monkeypatch, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(run, "classify_extensions", fail)
    passes = run.run_pass(R1 * 2, seed=1)
    assert len(passes.sweeps) == 2
    for sweep in passes.sweeps:
        assert sweep.sha256 is None
        assert sweep.problems and type(error).__name__ in sweep.problems[0]


def test_changed_report_fails_the_repeat_check():
    passes = [run.Pass(1.0, [run.Sweep("r1/ext1", sha)]) for sha in "aab"]
    run.check_repeats(passes)
    assert [p.sweeps[0].problems for p in passes[:2]] == [[], []]
    assert passes[2].sweeps[0].problems


def test_overhead_is_spans_times_span_cost():
    tracer = Tracer(clock=FakeClock())
    noop = tracer.wrap("exactla.rref", lambda: None)
    for _ in range(4):
        noop()
    tracer.wrap("cli.serialize", noop)()
    metrics = run.layer_metrics(tracer, run.Pass(1.0, []), 0.0, 0.0, 0.5)
    assert metrics["exactla.rref.calls"] == (5, "count")
    assert metrics["trace.overhead_s"] == (3.0, "s")


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    empty = run.Pass(1.0, [])
    reported = run.layer_metrics(Tracer(), empty, 0.0, 0.0, 1e-6)
    assert [m["name"] for m in spec["per_layer"]] == list(reported)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in reported.items()}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_host_clock_scales_work_to_the_reference_speed():
    # Every probe reads twice the reference time: the host runs at half speed.
    slow = 2 * hostspeed.REFERENCE_PROBE_S
    previous = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostClock(tick_s=0.01, probe=lambda: slow) as clock:
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
    assert len(clock.probes) >= 5
    assert clock.work_s == pytest.approx(clock.wall_s - slow * len(clock.probes))
    assert clock.speed == 0.5
    assert clock.reference_s == pytest.approx(clock.work_s / 2)
    assert signal.getsignal(signal.SIGALRM) is previous


def test_host_clock_probes_once_after_a_block_shorter_than_a_tick():
    with hostspeed.HostClock(tick_s=10.0) as clock:
        pass
    assert len(clock.probes) == 1
    assert clock.work_s == clock.wall_s
    assert clock.reference_s > 0
