"""Sweep benchmark for ``liecodim``: the default classification sweeps, end
to end and layer by layer.

    python3 bench/run.py --workload structured-ext1 --seed 20250801 \\
        --seconds 50 --trace 0

A workload is a fixed list of default-grid (base, mode) sweeps.  Each sweep
runs in-process through the calls ``liecodim classify`` makes:
``classify_extensions(base, mode, GridSpec(seed=SEED), jobs=1)`` and then
``canonical_json(report.as_dict())``.  A pass runs every sweep of the
workload once.  Passes repeat while the next one is expected to end within
``--seconds`` of sweep time (there is always at least one), and the median
pass is reported.  Set-up is timed in fresh interpreters run between the
passes, and the median is reported.  Times are reported at the reference
host speed (``hostspeed.py``); the wall times are printed beside them.
Every report is checked (see ``report_problems``) and its SHA-256 printed.

With ``--trace 0`` the end-to-end metrics are reported.  With ``--trace 1``
one more pass runs with the layer functions wrapped in spans (``layers.py``)
and the per-layer metrics are reported instead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from hostspeed import HostClock
from setup_probe import SRC, set_up

sys.path.insert(0, str(SRC))

from liecodim.classify import GridSpec, classify_extensions  # noqa: E402
from liecodim.cli import canonical_json  # noqa: E402

from layers import LEAF_SPANS, SPAN_NAMES, install  # noqa: E402
from spans import SpanStats, Tracer, per_call_overhead  # noqa: E402

HERE = Path(__file__).resolve().parent
RECORDED_HASHES = HERE / "report_hashes.json"

SETUP_REPEATS = 9
HOST_PROBE_ITERATIONS = 3_000_000

# The (base, mode) sweeps of one pass.  Why each workload exists is recorded
# in NOTES.md.
WORKLOADS = {
    "structured-ext1": (("r3", "ext1"), ("r_plus_h3", "ext1")),
    "cartesian-ext1": (("r1", "ext1"), ("r2", "ext1"), ("h3", "ext1"),
                       ("g4", "ext1")),
    "ext2ad": (("r2", "ext2ad"), ("r3", "ext2ad"), ("h3", "ext2ad")),
}


@dataclass
class Sweep:
    key: str
    sha256: Optional[str] = None
    report: Optional[dict] = None
    problems: list[str] = field(default_factory=list)


@dataclass
class Pass:
    wall_s: float
    sweeps: list[Sweep]
    reference_s: Optional[float] = None  # at the reference host speed


def serialize(report) -> str:
    return canonical_json(report.as_dict())


def report_problems(report: dict) -> list[str]:
    """Why a sweep report is not a success; empty when it is one."""
    problems = []
    if not report["golden"]["ok"]:
        problems.append("golden list mismatch")
    for fam in report["families"]:
        for flag in ("jacobi_ok", "membership_ok", "indecomposable_ok"):
            if fam.get(flag) is False:
                problems.append(f"{fam['name']}: {flag} is false")
        if fam["verified_points"] == 0:
            problems.append(f"{fam['name']}: no verified points")
    for item in report["distinctness"]:
        if item["evidence"] == "UNRESOLVED":
            problems.append(f"{item['pair']}: distinctness UNRESOLVED")
    return problems


def run_sweeps(sweeps, grid: GridSpec, serialize, done: list) -> None:
    for base, mode in sweeps:
        # Any error (a golden mismatch, a Jacobi or derivation check, a
        # matcher) fails this sweep only; the run goes on and counts it.
        try:
            report = classify_extensions(base, mode, grid, jobs=1)
        except Exception as exc:
            traceback.print_exc()
            done.append((f"{base}/{mode}", None, f"{type(exc).__name__}: {exc}"))
            continue
        done.append((f"{base}/{mode}", serialize(report), None))


def run_pass(sweeps, seed: int, serialize=serialize, adjust=True) -> Pass:
    """Run each (base, mode) sweep once; time them from the first
    ``classify_extensions`` call to the last serialised report.  With
    ``adjust`` the time is also taken at the reference host speed; without
    it no probe runs inside the sweeps (the traced pass)."""
    grid = GridSpec(seed=seed)
    done: list[tuple[str, Optional[str], Optional[str]]] = []
    reference_s = None
    if adjust:
        with HostClock() as clock:
            run_sweeps(sweeps, grid, serialize, done)
        wall_s, reference_s = clock.wall_s, clock.reference_s
    else:
        start = time.perf_counter()
        run_sweeps(sweeps, grid, serialize, done)
        wall_s = time.perf_counter() - start
    checked = []
    for key, text, error in done:
        if text is None:
            checked.append(Sweep(key, problems=[error]))
            continue
        report = json.loads(text)
        checked.append(Sweep(key, hashlib.sha256(text.encode()).hexdigest(),
                             report, report_problems(report)))
    return Pass(wall_s, checked, reference_s)


def check_repeats(passes: list[Pass]) -> None:
    """A report that differs from the same sweep's first report is a failure."""
    first: dict[str, str] = {}
    for p in passes:
        for s in p.sweeps:
            if s.sha256 is None:
                continue
            expected = first.setdefault(s.key, s.sha256)
            if s.sha256 != expected:
                s.problems.append("report differs from the first pass")


def measure_setup(bases: list[str]) -> tuple[float, float]:
    """Set-up time of one fresh interpreter: wall and reference seconds."""
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), *bases],
        capture_output=True, text=True, check=True, timeout=120,
        cwd=HERE.parent)
    wall_s, reference_s = map(float, out.stdout.split()[-2:])
    return wall_s, reference_s


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop; a host-speed diagnostic."""
    start = time.perf_counter()
    total = 0
    for i in range(HOST_PROBE_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


def cpu_seconds() -> tuple[float, float]:
    """CPU seconds of this process and of its finished children."""
    t = os.times()
    return t.user + t.system, t.children_user + t.children_system


def layer_metrics(tracer, traced: Pass, cpu_s: float, children_cpu_s: float,
                  span_cost_s: float) -> dict[str, tuple]:
    """Per-layer metrics from one traced pass, as ``name: (value, unit)``."""
    metrics: dict[str, tuple] = {}
    stats = {name: tracer.stats.get(name, SpanStats()) for name in SPAN_NAMES}
    for name, span in stats.items():
        metrics[f"{name}.calls"] = (span.calls, "count")
        metrics[f"{name}.s"] = (span.total_s, "s")
        if name not in LEAF_SPANS:
            metrics[f"{name}.self_s"] = (span.self_s, "s")
    # eigen_structure raises only UnsupportedSpectrumError on square input.
    metrics["exactla.eigen_structure.unsupported"] = (
        stats["exactla.eigen_structure"].raised, "count")
    reports = [s.report for s in traced.sweeps if s.report is not None]
    totals = {k: sum(r["totals"][k] for r in reports)
              for k in ("points", "members", "skipped_out_of_field",
                        "filtered")}
    points = max(totals["points"], 1)
    metrics["classify.member_ratio"] = (totals["members"] / points, "ratio")
    metrics["classify.skip_ratio"] = (
        totals["skipped_out_of_field"] / points, "ratio")
    metrics["classify.filtered_ratio"] = (totals["filtered"] / points, "ratio")
    metrics["classify.verify.points"] = (
        sum(f["verified_points"] for r in reports for f in r["families"]),
        "count")
    metrics["process.cpu_s"] = (cpu_s, "s")
    metrics["process.children_cpu_s"] = (children_cpu_s, "s")
    # Estimated as the spans recorded times the measured cost of one span.
    spans = sum(span.calls for span in tracer.stats.values())
    metrics["trace.overhead_s"] = (spans * span_cost_s, "s")
    return metrics


def traced_pass(sweeps, seed: int) -> tuple[Pass, dict[str, tuple]]:
    span_cost_s = per_call_overhead()
    tracer = Tracer()
    install(tracer)
    cpu_before, children_before = cpu_seconds()
    traced = run_pass(sweeps, seed,
                      serialize=tracer.wrap("cli.serialize", serialize),
                      adjust=False)
    cpu_after, children_after = cpu_seconds()
    return traced, layer_metrics(tracer, traced, cpu_after - cpu_before,
                                 children_after - children_before, span_cost_s)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sweeps = WORKLOADS[args.workload]
    bases = sorted({base for base, _ in sweeps})
    recorded = json.loads(RECORDED_HASHES.read_text())
    set_up(bases)

    probe_before = host_probe()
    passes: list[Pass] = []
    walls: list[float] = []
    setups: list[tuple[float, float]] = []
    while not walls or sum(walls) + max(walls) <= args.seconds:
        passes.append(run_pass(sweeps, args.seed))
        walls.append(passes[-1].wall_s)
        # The set-up probes are spread over the run.
        due = SETUP_REPEATS * min(sum(walls) / args.seconds, 1.0)
        while not args.trace and len(setups) < due:
            setups.append(measure_setup(bases))
    while not args.trace and len(setups) < SETUP_REPEATS:
        setups.append(measure_setup(bases))
    layer = None
    if args.trace:
        traced, layer = traced_pass(sweeps, args.seed)
        passes.append(traced)
    probe_after = host_probe()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    check_repeats(passes)
    attempted = failed = 0
    for number, p in enumerate(passes, 1):
        for s in p.sweeps:
            attempted += 1
            failed += bool(s.problems)
            expected = (recorded["sha256"].get(s.key)
                        if args.seed == recorded["seed"] else None)
            status = "ok" if not s.problems else "FAILED " + "; ".join(s.problems)
            match = ("n/a" if expected is None or s.sha256 is None
                     else "match" if s.sha256 == expected else "differs")
            print(f"pass {number} {s.key} {status} sha256={s.sha256} "
                  f"recorded={match}")
        reference = ("" if p.reference_s is None
                     else f" reference_s={p.reference_s:.4f}")
        print(f"pass {number} wall_s={p.wall_s:.4f}{reference}")
    print(f"host_probe_s before={probe_before:.4f} after={probe_after:.4f}")
    if setups:
        print("setup wall_s " + " ".join(f"{w:.4f}" for w, _ in setups))
        print("setup reference_s " + " ".join(f"{r:.4f}" for _, r in setups))

    if layer is not None:
        metrics = layer
    else:
        print(f"median wall_s={statistics.median(walls):.4f}")
        metrics = {
            "sweep_s": (statistics.median(p.reference_s for p in passes), "s"),
            "setup_s": (statistics.median(r for _, r in setups), "s"),
            "peak_rss_mb": (rss_mb, "MB")}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
