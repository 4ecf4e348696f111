"""Classification sweeps: byte-identical default reports, one point list
per sweep, the worker-pool size, sweep-space coordinates, the per-point
work of the sweep stage, the shared extension path of both sweep modes, the
abelian family table and its matcher, template sampling, and the names the
traced benchmark wraps."""

import dataclasses
import functools
import hashlib
import json
import multiprocessing
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from liecodim import classify, exactla
from liecodim.canon import AmbiguousMatch, param_str
from liecodim.classify import GridSpec, classify_extensions
from liecodim.cli import canonical_json
from liecodim.exactla import (Matrix, Subspace, UnsupportedSpectrumError,
                              _block_diag, char_poly)

ROOT = Path(__file__).resolve().parent.parent
RECORDED = json.loads((ROOT / "bench" / "report_hashes.json").read_text())

# Eight of the ten default sweeps (about 13 s together); r4/ext1 and
# r_plus_h3/ext1 are marked slow, which tier-1 deselects (run them with
# ``pytest -m slow``).  r3/ext2ad is the ext2ad sweep with the most random
# conjugates (24).
CHEAP_SWEEPS = ("r1/ext1", "r3/ext1", "r2/ext2ad", "h3/ext2ad", "r3/ext2ad",
                "r2/ext1", "h3/ext1", "g4/ext1")
SLOW_SWEEPS = ("r4/ext1", "r_plus_h3/ext1")

# Every catalog sweep space: seven ext1 spaces and three ext2ad spaces.
SWEEP_SPACES = ("r1/ext1", "r2/ext1", "r3/ext1", "r4/ext1", "h3/ext1",
                "r_plus_h3/ext1", "g4/ext1",
                "r2/ext2ad", "r3/ext2ad", "h3/ext2ad")


@pytest.mark.parametrize("sweep", CHEAP_SWEEPS + tuple(
    pytest.param(sweep, marks=pytest.mark.slow) for sweep in SLOW_SWEEPS))
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


def _random_coefficient(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rng.choice((1, -1)))
    return Fraction(rng.randint(-9, 9), rng.randint(2, 9))


def _unit(size, idx):
    return tuple(Fraction(int(i == idx)) for i in range(size))


@pytest.mark.parametrize("sweep", SWEEP_SPACES)
def test_slot_plan_matches_linear_combination(sweep):
    space = classify._sweep_space(*sweep.split("/"))
    size = space.n * space.n
    rng = random.Random(sweep)
    span = Subspace.from_vectors(size, space.basis_flat)
    outside = [i for i in range(size) if not span.contains(_unit(size, i))]
    for _ in range(40):
        coeffs = tuple(_random_coefficient(rng) for _ in range(space.dim))
        plain = [Fraction(0)] * size
        for c, b in zip(coeffs, space.basis_flat):
            for idx, val in enumerate(b):
                plain[idx] += c * val
        flat = space.to_flat(coeffs)
        assert flat == tuple(plain)
        assert all(type(x) is Fraction for x in flat)
        assert space.coeffs_of(space.to_matrix(coeffs)) == coeffs
        if not outside:
            # The space is all of gl(n): no matrix lies outside it.
            assert space.dim == size
            continue
        bumped = [x + y for x, y in
                  zip(flat, _unit(size, rng.choice(outside)))]
        with pytest.raises(ValueError):
            space.coeffs_of(Matrix.unflatten(tuple(bumped), space.n, space.n))


def test_slot_plan_scales_non_unit_entries():
    # Slot 0 copies a coordinate, slot 1 scales one, slot 2 is never
    # touched and slot 3 sums two terms; no catalog space has a slot fed by
    # a single entry other than 1.
    F = Fraction
    space = classify.SweepSpace(2, ((F(1), F(0), F(0), F(3)),
                                    (F(0), F(2), F(0), F(1))), (0, 1))
    assert space.to_flat((F(1, 2), F(-3))) == (F(1, 2), F(-6), F(0), F(-3, 2))


def test_r2_ext1_sweep_takes_no_determinant(monkeypatch):
    points = classify.sweep_points("r2", "ext1", GridSpec(num_max=2, den_max=2))
    calls = []
    det = Matrix.det

    def counting(self):
        calls.append(self)
        return det(self)

    monkeypatch.setattr(Matrix, "det", counting)
    results = classify._run_sweep("r2", "ext1", points, jobs=1)
    assert calls == []
    assert {r[0] for r in results} == {"match", "nonmember", "skip"}


def test_ext2ad_filters_reject_a_zero_row_without_rank(monkeypatch):
    def no_rref(m):
        raise AssertionError("rref called")

    monkeypatch.setattr(exactla, "rref", no_rref)
    # [[A, v], [0, 0]] with A = [[1, 2, 0], [0, 0, 0], [3, 0, 1]]: the zero
    # second row caps the rank at 2 and makes A singular.
    flat = tuple(Fraction(x) for x in (1, 2, 0, 5, 0, 0, 0, 0,
                                       3, 0, 1, 0, 0, 0, 0, 0))
    assert classify._ext2_filters("r3", flat, 4) == {
        "member": False, "outer": True, "indecomposable": True}


def test_ext2ad_sweep_filters_each_point_once(monkeypatch):
    points = classify.sweep_points("r2", "ext2ad", GridSpec())
    calls = []
    filters = classify._ext2_filters

    def counting(*args):
        calls.append(args)
        return filters(*args)

    monkeypatch.setattr(classify, "_ext2_filters", counting)
    classify._run_sweep("r2", "ext2ad", points, jobs=1)
    assert len(calls) == len(points)


def test_ext2ad_template_failing_a_filter_is_rejected():
    entry = classify.catalog()["r2"]
    # Invertible leading block: a decomposable ad-pair extension.
    decomposable = dataclasses.replace(
        entry.ext2_templates[0],
        build=lambda p: Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]]))
    with pytest.raises(AmbiguousMatch, match="indecomposable"):
        classify._verify_template(entry, "ext2ad", decomposable)


@pytest.mark.parametrize("key", ("r2", "r3", "h3"))
def test_ext2ad_conjugation_reuses_cached_spaces(monkeypatch, key):
    classify._entry_spaces(key)
    calls = []
    original = classify.derivation_space

    def counting(alg):
        calls.append(alg)
        return original(alg)

    monkeypatch.setattr(classify, "derivation_space", counting)
    template = classify.catalog()[key].ext2_templates[0]
    m = template.build(template.sample(1)[0])
    rng = random.Random(7)
    for _ in range(3):
        classify.conjugate_in_shape(key, "ext2ad", m, rng)
    assert calls == []


_FLIPPED = {"match": "nonmember", "filtered": "nonmember",
            "nonmember": "match"}


@pytest.mark.parametrize("sweep", ("r1/ext1", "r2/ext2ad"))
def test_crosscheck_flags_a_flipped_outcome(sweep):
    base, mode = sweep.split("/")
    entry = classify.catalog()[base]
    grid = GridSpec()
    points = classify.sweep_points(base, mode, grid)[:40]
    results = classify._classify_chunk(base, mode, points)
    kinds = {r[0] for r in results}
    assert {"match", "nonmember"} <= kinds
    for point, result in zip(points, results):
        if result[0] == "skip":
            continue
        assert classify._crosscheck_conditions(
            entry, mode, grid, [point], [result]) == 1
        flipped = (_FLIPPED[result[0]],)
        with pytest.raises(AssertionError, match="fast membership"):
            classify._crosscheck_conditions(
                entry, mode, grid, [point], [flipped])


def test_pencil_det_matches_char_poly():
    rng = random.Random(11)
    for n in range(1, 5):
        for _ in range(5):
            a = Matrix.from_rows([[_random_coefficient(rng) for _ in range(n)]
                                  for _ in range(n)])
            assert classify._pencil_det(Matrix.identity(n), a.scale(-1)) \
                == char_poly(a)
    zero = Matrix.zero(3, 3)
    assert classify._pencil_det(zero, zero) == (Fraction(0),)
    # det(I + t*diag(1, 0)) = 1 + t: degree 1 for a 2x2 pencil.
    assert classify._pencil_det(Matrix.diagonal([1, 0]), Matrix.identity(2)) \
        == (Fraction(1), Fraction(1))


def test_traced_benchmark_finds_its_targets():
    # Wrapping the traced layer functions and catalog fields, then setting
    # up the ext2ad bases, raises MissingTarget if a wrapped name is gone.
    code = ("import layers, setup_probe, spans\n"
            "layers.install(spans.Tracer())\n"
            "setup_probe.set_up(['r2', 'r3', 'h3'])\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "bench",
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert "MissingTarget" not in done.stderr
    assert done.returncode == 0, done.stderr


ABELIAN_SWEEPS = ("r1/ext1", "r2/ext1", "r3/ext1", "r4/ext1",
                  "r2/ext2ad", "r3/ext2ad")


@pytest.mark.parametrize("sweep", ABELIAN_SWEEPS)
def test_abelian_families_round_trip(sweep):
    base, mode = sweep.split("/")
    entry = classify.catalog()[base]
    classifier = classify._classifier(entry, mode)
    for t in classify._templates(entry, mode):
        for params in t.sample(3):
            outcome = classifier(t.build(params).flatten())
            assert outcome[0] == t.name
            assert classify._params_equal(outcome[1], params)
            assert t.in_domain(outcome[1])


def test_j2_with_negative_eigenvalue_lands_in_its_domain():
    m = _block_diag([Matrix.from_rows([[-1, 1], [0, -1]]),
                     Matrix.from_rows([[-2]]), Matrix.from_rows([[2]])])
    entry = classify.catalog()["r4"]
    name, params = entry.ext1_classifier(m.flatten())
    assert (name, params) == ("j2", (Fraction(2), Fraction(-2)))
    j2 = next(t for t in entry.ext1_templates if t.name == "j2")
    assert j2.in_domain(params)
    assert not j2.in_domain((Fraction(-2), Fraction(2)))


def _outcome(classifier, flat):
    try:
        outcome = classifier(flat)
    except UnsupportedSpectrumError:
        return "skip"
    if outcome is None:
        return None
    return outcome[0], tuple(param_str(p) for p in outcome[1])


def test_gl2_fast_path_agrees_with_table_matcher():
    grid = GridSpec(num_max=2, den_max=2)
    points = classify.sweep_points("r2", "ext1", grid)
    assert len(points) == 2401
    table = functools.partial(classify._classify_abelian, "r2", "ext1")
    sweep = classify._sweep_space("r2", "ext1")
    outcomes = set()
    for coeffs in points:
        flat = sweep.to_flat(coeffs)
        fast = _outcome(classify._classify_gl2_flat, flat)
        assert fast == _outcome(table, flat), coeffs
        outcomes.add(fast if fast in (None, "skip") else fast[0])
    assert outcomes == {None, "skip", "diag", "j2", "cplx"}


def test_template_sample_tests_each_candidate_once():
    calls = []

    def in_domain(p):
        calls.append(p)
        return abs(p[0]) <= 2 and p[1] > 0

    t = classify._template("T", ("a", "b"), "test", lambda p: None, in_domain)
    first = t.sample(24)
    tested = len(calls)
    assert t.sample(20) == first[:20]
    assert t.sample(3) == first[:3]
    assert len(calls) == tested
    assert len(first) == 24 and len(set(calls)) == tested
