"""Classification sweeps: byte-identical default reports, one point sequence
per sweep, the one process a sweep runs in, one classification per line through
the origin at its integer vector, the line table against the per-point oracle,
the integer grid of a Cartesian sweep and the mirror symmetry its line count
rests on, the lazy blocks of a structured sweep against the explicit points and
the line table built without keying the axis-and-pair block, the integer points
of a structured sweep and their line keys, and the scaling invariance that
makes it sound, sweep-space coordinates, the per-point work of the sweep stage,
the shared extension path of both sweep modes, the lazy cross-check draw, the
abelian family table and its matcher, template sampling, the pinned samples of
the shaped families, small-grid sweeps of the two slowest bases, the names the
traced benchmark wraps, and the range of the grid fields."""

import dataclasses
import functools
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import lcm
from pathlib import Path
from types import SimpleNamespace

import pytest

from liecodim import classify, exactla
from liecodim.canon import AmbiguousMatch, ExactScalar
from liecodim.classify import GridSpec, classify_extensions
from liecodim.cli import canonical_json
from liecodim.exactla import (Matrix, Subspace, UnsupportedSpectrumError,
                              _block_diag, char_poly)

from oracles import per_point_outcomes, structured_sweep_integer_points

ROOT = Path(__file__).resolve().parent.parent
RECORDED = json.loads((ROOT / "bench" / "report_hashes.json").read_text())

# Nine of the ten default sweeps (about 1.5 s together in one fresh process
# on a 2-core VM), every sweep of the three benchmark workloads among them;
# r4/ext1 (3.2-3.9 s there, most of it template sampling) is marked slow,
# which tier-1 deselects (run it with ``pytest -m slow``).  r3/ext2ad is the
# ext2ad sweep with the most random conjugates (24).
CHEAP_SWEEPS = ("r1/ext1", "r3/ext1", "r2/ext2ad", "h3/ext2ad", "r3/ext2ad",
                "r2/ext1", "h3/ext1", "g4/ext1", "r_plus_h3/ext1")
SLOW_SWEEPS = ("r4/ext1",)

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


def _outcome_of(base, mode):
    """The outcome of one sweep point, classified on its own."""
    return functools.partial(
        classify._classify_point, base, mode,
        classify._sweep_space(base, mode),
        classify._classifier(classify.catalog()[base], mode))


def test_classify_extensions_accepts_only_one_job():
    grid = GridSpec(seed=RECORDED["seed"])
    report = classify_extensions("r1", "ext1", grid, jobs=1)
    text = canonical_json(report.as_dict())
    assert hashlib.sha256(text.encode()).hexdigest() \
        == RECORDED["sha256"]["r1/ext1"]
    for jobs in (0, 2, -3):
        with pytest.raises(ValueError, match="jobs must be 1"):
            classify_extensions("r1", "ext1", grid, jobs=jobs)


def test_a_line_takes_the_outcome_of_its_first_points_side():
    # diag(1, 1, -1) ties its largest |eigenvalue| between signs, so it and
    # its negative get different r3 diag parameters; the line is classified
    # at its integer vector pointing the way of its first point.
    d = (1, 0, 0, 0, 1, 0, 0, 0, -1)
    minus = tuple(-x for x in d)
    outcome_of = _outcome_of("r3", "ext1")
    assert outcome_of(d)[:2] == outcome_of(minus)[:2]
    assert outcome_of(d) != outcome_of(minus)
    for first, second in ((d, minus), (minus, d)):
        scaled = classify._integer_point([Fraction(3, 2) * x
                                          for x in second])[1]
        assert scaled == tuple(3 * x for x in second)
        points = [first, scaled]
        lines = classify._run_sweep("r3", "ext1", points)
        assert [classify._point_outcome(lines, p) for p in points] \
            == [outcome_of(first)] * 2


# Cartesian sweeps, among them r2/ext1 at a small grid and r3/ext1 on the
# 3^9 = 19,683 points of {-1, 0, 1}, whose lines include diag sign ties;
# then structured sweeps; then a plain list (grid None): the first 8,000
# default r2/ext1 points followed by each of them times -2, so every line
# has points of both orientations.
_LINE_TABLE_SWEEPS = (
    ("r2/ext1", GridSpec(), True), ("h3/ext1", GridSpec(), True),
    ("g4/ext1", GridSpec(), True),
    ("r2/ext1", GridSpec(num_max=2, den_max=2), True),
    ("r3/ext1", GridSpec(num_max=1, den_max=1), True),
    ("r3/ext1", GridSpec(), False), ("r_plus_h3/ext1", GridSpec(), False),
    ("r3/ext2ad", GridSpec(), False), ("r2/ext1", None, False))


@pytest.mark.parametrize("sweep, grid, cartesian", _LINE_TABLE_SWEEPS, ids=(
    "r2/ext1", "h3/ext1", "g4/ext1", "r2/ext1-num2-den2", "r3/ext1-num1-den1",
    "r3/ext1", "r_plus_h3/ext1", "r3/ext2ad", "r2/ext1-list-times-minus-2"))
def test_line_table_agrees_with_the_per_point_oracle(sweep, grid, cartesian):
    # Every point's outcome read through its line, the points per outcome
    # in first-occurrence order, and the point total are those of the
    # per-point loop the line table replaced.
    base, mode = sweep.split("/")
    if grid is None:
        first = list(itertools.islice(
            classify.sweep_points(base, mode, GridSpec()), 8000))
        points = first + [tuple(-2 * x for x in p) for p in first]
    else:
        assert classify._is_cartesian(
            grid, classify._sweep_space(base, mode).dim) == cartesian
        points = classify.sweep_points(base, mode, grid)
    lines = classify._run_sweep(base, mode, points)
    expected = per_point_outcomes(points, classify._line_key,
                                  _outcome_of(base, mode))
    assert [classify._point_outcome(lines, p) for p in points] == expected
    tally = classify._tally_outcomes(lines)
    assert list(tally.items()) == list(Counter(expected).items())
    assert sum(n for n, _ in lines.values()) == len(points)
    assert len(lines) == len({classify._line_key(p) for p in points})
    if grid == GridSpec(num_max=1, den_max=1):
        # The tied line takes the side of its lexicographic minimum.
        d = (1, 0, 0, 0, 1, 0, 0, 0, -1)
        minus = tuple(-x for x in d)
        assert minus in lines
        assert classify._point_outcome(lines, d) \
            == _outcome_of(base, mode)(minus) != _outcome_of(base, mode)(d)


@pytest.mark.parametrize("num_max, den_max",
                         itertools.product(range(1, 4), repeat=2))
def test_cartesian_grid_mirrors_itself(num_max, den_max):
    # The premise of counting a Cartesian sweep's lines on its negative
    # half: the middle point is zero and point -1-i is minus point i.
    grid = GridSpec(num_max=num_max, den_max=den_max)
    assert classify._is_cartesian(grid, 4)
    points = classify.sweep_points("r2", "ext1", grid)
    assert len(points) % 2 == 1
    assert points[len(points) // 2] == (0, 0, 0, 0)
    assert all(points[i] == tuple(-x for x in points[-1 - i])
               for i in range(len(points)))


@pytest.mark.parametrize("grid, dim", [
    (GridSpec(den_max=1), 4), (GridSpec(num_max=2, den_max=4), 3),
    (GridSpec(num_max=2, den_max=5), 4), (GridSpec(), 1), (GridSpec(), 0)])
def test_grid_line_keys_match_line_key(grid, dim, monkeypatch):
    # A Cartesian sweep's points are the integer grid L*values in product
    # order, L the lcm of the value denominators, and each point keys to the
    # line of the integer point of the Fraction grid point it stands for.
    # The grid branch reads only the sweep space's dimension.
    monkeypatch.setattr(classify, "_sweep_space",
                        lambda key, mode: SimpleNamespace(dim=dim))
    values = grid.values()
    scale = lcm(*(v.denominator for v in values))
    grid_points = list(itertools.product(values, repeat=dim))
    points = classify.sweep_points("r1", "ext1", grid)
    assert all((scale * v).denominator == 1 for v in values)
    assert list(points) == [tuple(int(scale * x) for x in p)
                            for p in grid_points]
    assert all(type(v) is int for p in points for v in p)
    keys = list(map(classify._line_key, points))
    assert keys == [classify._line_key(classify._integer_point(p)[1])
                    for p in grid_points]
    assert all(type(v) is int for key in keys[:50] for v in key)


def test_grid_just_under_the_budget_is_cartesian():
    # GridSpec(num_max=2, den_max=5) has 17 values with lcm 60 of their
    # denominators: on h3's four coordinates the grid is 17^4 = 83,521
    # points, Cartesian at the default budget and at a budget of exactly
    # 17^4, structured (integer points too) at one less.
    grid = GridSpec(num_max=2, den_max=5)
    integer_grid = list(itertools.product(
        [int(60 * v) for v in grid.values()], repeat=4))
    assert len(integer_grid) == 83_521
    assert list(classify.sweep_points("h3", "ext1", grid)) == integer_grid
    small = dataclasses.replace(grid, n_template_samples=1, n_conjugates=0,
                                n_random=0)
    at = dataclasses.replace(small, cartesian_budget=17 ** 4)
    assert list(classify.sweep_points("h3", "ext1", at)) == integer_grid
    under = dataclasses.replace(small, cartesian_budget=17 ** 4 - 1)
    structured = classify.sweep_points("h3", "ext1", under)
    assert len(structured) < 17 ** 4
    assert all(type(v) is int for p in structured for v in p)


def test_line_key_examples():
    assert classify._line_key((0, 0, 0)) == (0, 0, 0)
    assert classify._line_key(()) == ()
    assert classify._line_key((0, -2, 4)) == (0, 1, -2)
    assert classify._line_key((3, -2, 0, 5)) == (3, -2, 0, 5)
    assert classify._line_key((-6, 9)) == (2, -3)
    assert classify._line_key((0, -4, 6)) == (0, 2, -3)
    # The integer point of a rational point p is L*p, L the lcm of its
    # denominators.
    F = Fraction
    assert classify._integer_point(()) == (1, ())
    assert classify._integer_point((2, F(1, 3))) == (3, (6, 1))
    assert classify._integer_point((F(1, 2), F(-1, 3), F(0), F(5, 6))) \
        == (6, (3, -2, 0, 5))
    assert classify._integer_point((F(-3, 4), F(9, 8))) == (8, (-6, 9))
    assert all(type(v) is int
               for v in classify._integer_point((F(7, 5), 3))[1])
    # Two points, one integer tuple: the dedupe key tells them apart.
    half = classify._integer_point((F(1, 2), 1))
    whole = classify._integer_point((1, 2))
    assert half[1] == whole[1] == (1, 2)
    assert half != whole


# Small structured grids: num and den from 1 to 3, random, conjugate and
# template counts down to 0, and a zero budget on r1, r2, h3 and g4, whose
# grids would be Cartesian, so that random draws land in the block; then
# the default ext2ad sweeps, whose template points reach into the block.
_LAZY_SWEEPS = (
    ("r1/ext1", GridSpec(num_max=1, den_max=1, cartesian_budget=0,
                         n_random=10, n_template_samples=0, n_conjugates=0,
                         seed=1)),
    ("r2/ext1", GridSpec(num_max=1, den_max=2, cartesian_budget=0,
                         n_random=60, n_template_samples=3, n_conjugates=1,
                         seed=2)),
    ("h3/ext1", GridSpec(num_max=2, den_max=1, cartesian_budget=0,
                         n_random=80, n_template_samples=0, n_conjugates=2,
                         seed=3)),
    ("g4/ext1", GridSpec(num_max=3, den_max=3, cartesian_budget=0,
                         n_random=40, n_template_samples=2, n_conjugates=0,
                         seed=4)),
    ("r3/ext1", GridSpec(num_max=2, den_max=3, n_random=0,
                         n_template_samples=4, n_conjugates=1, seed=5)),
    ("r_plus_h3/ext1", GridSpec(num_max=1, den_max=3, cartesian_budget=0,
                                n_random=30, n_template_samples=1,
                                n_conjugates=0, seed=6)),
    ("r3/ext2ad", GridSpec(num_max=3, den_max=1, n_random=30,
                           n_template_samples=0, n_conjugates=2, seed=7)),
    ("r2/ext2ad", GridSpec()), ("h3/ext2ad", GridSpec()))


@pytest.mark.parametrize("sweep, grid", _LAZY_SWEEPS,
                         ids=[f"{sweep}-{i}" for i, (sweep, _)
                              in enumerate(_LAZY_SWEEPS)])
def test_lazy_sweep_matches_the_explicit_points(sweep, grid, monkeypatch):
    # The blocks hold the oracle's points in its order, point i and point
    # -i decode to them, and the line table is that of the explicit list,
    # built without keying a point of the axis-and-pair block.
    base, mode = sweep.split("/")
    space = classify._sweep_space(base, mode)
    assert not classify._is_cartesian(grid, space.dim)
    points = classify.sweep_points(base, mode, grid)
    expected = structured_sweep_integer_points(
        classify._templates(classify.catalog()[base], mode), space.coeffs_of,
        functools.partial(classify.conjugate_in_shape, base, mode),
        grid.values(), space.dim, grid, random.Random(grid.seed))
    assert list(points) == expected
    assert len(points) == len(expected)
    assert [points[i] for i in range(len(expected))] == expected
    assert [points[-i] for i in range(1, len(expected) + 1)] \
        == expected[::-1]
    for index in (len(expected), -len(expected) - 1):
        with pytest.raises(IndexError):
            points[index]
    explicit, block, randoms = points.blocks
    assert len(block) > 0
    keyed = []
    line_key = classify._line_key

    def counting(coeffs):
        keyed.append(coeffs)
        return line_key(coeffs)

    monkeypatch.setattr(classify, "_line_key", counting)
    lines = classify._sweep_lines(points)
    assert [p for p in keyed if len(p) == space.dim] == explicit + randoms
    monkeypatch.undo()
    assert list(lines.items()) \
        == list(classify._sweep_lines(list(points)).items())


@pytest.mark.parametrize("base, inside", (("r2", 2), ("h3", 1)))
def test_template_points_inside_the_block_are_skipped(base, inside):
    # At the recorded seed some ext2ad template points lie on one or two
    # coordinates at grid values: the block skips them, so each rational
    # point is kept once (the points themselves are checked against the
    # oracle by test_lazy_sweep_matches_the_explicit_points).
    grid = GridSpec(seed=RECORDED["seed"])
    assert grid == GridSpec()
    block = classify.sweep_points(base, "ext2ad", grid).blocks[1]
    assert len(block.skipped) == inside
    assert len(block) == block.size - inside


@pytest.mark.parametrize("sweep", ("r3/ext1", "r3/ext2ad"))
def test_structured_sweep_points_are_integer_points(sweep):
    # A structured sweep keeps each distinct rational point once, as its
    # integer point; distinct rational points may share an integer tuple,
    # and each still counts.  The oracle builds the rational points in the
    # sweep's order, from the same seeded draws, and clears them itself.
    base, mode = sweep.split("/")
    grid = GridSpec()
    points = classify.sweep_points(base, mode, grid)
    assert all(type(v) is int for p in points for v in p)
    sweep_space = classify._sweep_space(base, mode)
    templates = classify._templates(classify.catalog()[base], mode)
    assert list(points) == structured_sweep_integer_points(
        templates, sweep_space.coeffs_of,
        functools.partial(classify.conjugate_in_shape, base, mode),
        grid.values(), sweep_space.dim, grid, random.Random(grid.seed))
    assert len(set(points)) < len(points)
    members = set(points)
    for t in templates:
        for params in t.sample(grid.n_template_samples):
            coeffs = sweep_space.coeffs_of(t.build(params))
            assert classify._integer_point(coeffs)[1] in members, \
                (t.name, params)


def _proportional(p, q):
    return all(p[i] * q[j] == p[j] * q[i]
               for i in range(len(p)) for j in range(len(p)))


def test_line_key_is_shared_exactly_by_proportional_points():
    def key(p):
        return classify._line_key(classify._integer_point(p)[1])

    rng = random.Random(5)
    shared = split = 0
    for _ in range(2000):
        size = rng.randint(1, 4)
        p = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                  for _ in range(size))
        c = Fraction(rng.choice((1, -1)) * rng.randint(1, 9),
                     rng.randint(1, 9))
        assert key(tuple(c * x for x in p)) == key(p)
        q = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                  for _ in range(size))
        # The zero vector is a line of its own.
        same = _proportional(p, q) and (any(p) == any(q))
        assert (key(p) == key(q)) == same
        shared += same
        split += not same
    assert shared > 100 and split > 100


def _sample_by_outcome(outcome_of, points, rng, per_kind=8):
    """Up to ``per_kind`` points of each outcome kind (twice as many
    matches), from a seeded walk over at most 3,000 sweep points."""
    taken = {}
    for coeffs in rng.sample(points, min(3000, len(points))):
        outcome = outcome_of(coeffs)
        quota = 2 * per_kind if outcome[0] == "match" else per_kind
        bucket = taken.setdefault(outcome[0], [])
        if len(bucket) < quota:
            bucket.append((coeffs, outcome))
    return taken


# A known defect of the abelian matcher: when the largest |eigenvalue| is
# tied between signs, D and -D get different canonical parameters (r3 diag
# (1, -1) for diag(1, 1, -1) but (-1, -1) for its negative; likewise r4).
# The kind and family still agree.  There the sweep reports the parameters
# of the first point it meets on the line.
_SIGN_TIE_SWEEPS = ("r3/ext1", "r4/ext1")


@pytest.mark.parametrize("sweep", SWEEP_SPACES)
def test_outcomes_are_invariant_under_scaling(sweep):
    # The sweep classifies one point per line, which rests on this: c*D is
    # proportionally similar to D, so the per-point path should give p and
    # c*p the same outcome, canonical parameters included.
    base, mode = sweep.split("/")
    outcome_of = _outcome_of(base, mode)
    rng = random.Random(f"scale {sweep}")
    points = classify.sweep_points(base, mode, GridSpec())
    taken = _sample_by_outcome(outcome_of, points, rng)
    assert "match" in taken
    tied = []
    for pairs in taken.values():
        for coeffs, outcome in pairs:
            for sign in (1, -1):
                c = Fraction(sign * rng.randint(1, 12), rng.randint(1, 12))
                scaled = outcome_of(tuple(c * x for x in coeffs))
                assert scaled[:2] == outcome[:2], (coeffs, c)
                if scaled != outcome:
                    tied.append((coeffs, c, outcome[2], scaled[2]))
    if tied and sweep in _SIGN_TIE_SWEEPS and all(t[1] < 0 for t in tied):
        pytest.xfail(f"sign-tied parameters {tied[0][2]} and {tied[0][3]}")
    assert tied == []


@pytest.mark.parametrize("sweep", SWEEP_SPACES)
def test_int_vector_outcomes_are_invariant_under_positive_scaling(sweep):
    # The sweep classifies each line at its primitive integer vector, with
    # the orientation of the line's first point, and every point of the
    # line takes that outcome: so an int vector v and c*v (c a positive
    # rational, an integer or not) must give the same outcome.  Every
    # matched parameter is a Fraction or an ExactScalar, never a float.
    base, mode = sweep.split("/")
    entry = classify.catalog()[base]
    space = classify._sweep_space(base, mode)
    classifier = classify._classifier(entry, mode)
    params = []

    def recording(flat):
        outcome = classifier(flat)
        if outcome is not None:
            params.extend(outcome[1])
        return outcome

    outcome_of = functools.partial(classify._classify_point, base, mode,
                                   space, recording)
    zero = (0,) * space.dim
    vectors = sorted({
        key if p > zero else tuple(-v for v in key)
        for p in classify.sweep_points(base, mode, GridSpec())
        for key in [classify._line_key(p)]})
    rng = random.Random(f"int scale {sweep}")
    taken = _sample_by_outcome(outcome_of, vectors, rng)
    assert "match" in taken
    assert params or not any(
        t.param_names for t in classify._templates(entry, mode))
    for pairs in taken.values():
        for v, outcome in pairs:
            assert all(type(x) is int for x in v)
            for c in (Fraction(rng.randint(2, 9)),
                      Fraction(2 * rng.randint(0, 9) + 1, 2),
                      Fraction(rng.randint(1, 12), rng.randint(1, 12))):
                assert outcome_of(tuple(c * x for x in v)) == outcome, (v, c)
    assert all(type(p) in (Fraction, ExactScalar) for p in params)


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
        # Integral plan values are ints: int coordinates give an int flat.
        ints = tuple(rng.randint(-9, 9) for _ in range(space.dim))
        int_flat = space.to_flat(ints)
        assert int_flat == space.to_flat(tuple(map(Fraction, ints)))
        assert all(type(x) is int for x in int_flat)
        # The cross-check's membership test takes the Fraction matrix.
        assert all(type(x) is Fraction
                   for row in space.to_matrix(ints).entries for x in row)
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


@pytest.mark.parametrize("field, value", [
    ("num_max", 0), ("den_max", 0), ("num_max", -1), ("cartesian_budget", -1),
    ("n_random", -1), ("n_template_samples", -1), ("n_conjugates", -1)])
def test_grid_spec_rejects_out_of_range_fields(field, value):
    with pytest.raises(ValueError, match=f"grid field {field} "):
        dataclasses.replace(GridSpec(), **{field: value})


def test_grid_spec_accepts_its_lower_bounds():
    grid = GridSpec(num_max=1, den_max=1, cartesian_budget=0, n_random=0,
                    n_template_samples=0, n_conjugates=0, seed=-5)
    assert grid.values() == [Fraction(-1), Fraction(0), Fraction(1)]


def test_r2_ext1_sweep_takes_no_determinant(monkeypatch):
    grid = GridSpec(num_max=2, den_max=2)
    points = classify.sweep_points("r2", "ext1", grid)
    calls = []
    det = Matrix.det

    def counting(self):
        calls.append(self)
        return det(self)

    monkeypatch.setattr(Matrix, "det", counting)
    lines = classify._run_sweep("r2", "ext1", points)
    assert calls == []
    assert {r[0] for _, r in lines.values()} == {"match", "nonmember", "skip"}


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


def test_ext2ad_sweep_filters_each_line_once(monkeypatch):
    points = classify.sweep_points("r2", "ext2ad", GridSpec())
    calls = []
    filters = classify._ext2_filters

    def counting(*args):
        calls.append(args)
        return filters(*args)

    monkeypatch.setattr(classify, "_ext2_filters", counting)
    classify._run_sweep("r2", "ext2ad", points)
    assert len(calls) == len({classify._line_key(p) for p in points})
    assert len(calls) < len(points)


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


def test_shuffled_indices_are_a_lazy_seeded_permutation():
    for n in (0, 1, 2, 7, 100):
        drawn = list(classify._shuffled_indices(random.Random(n), n))
        assert sorted(drawn) == list(range(n))
        assert drawn == list(classify._shuffled_indices(random.Random(n), n))
    orders = {tuple(classify._shuffled_indices(random.Random(s), 3))
              for s in range(200)}
    assert len(orders) == 6
    # Taking k indices draws k numbers from the generator and no more.
    rng, ref = random.Random(3), random.Random(3)
    assert len(list(itertools.islice(
        classify._shuffled_indices(rng, 50_625), 60))) == 60
    for i in range(60):
        ref.randrange(i, 50_625)
    assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("sweep", ("r1/ext1", "r2/ext2ad"))
def test_crosscheck_flags_a_flipped_outcome(sweep):
    base, mode = sweep.split("/")
    entry = classify.catalog()[base]
    grid = GridSpec()
    points = list(itertools.islice(classify.sweep_points(base, mode, grid),
                                   40))
    lines = classify._run_sweep(base, mode, points)
    kinds = {r[0] for _, r in lines.values()}
    assert {"match", "nonmember"} <= kinds
    for point in points:
        result = classify._point_outcome(lines, point)
        if result[0] == "skip":
            continue
        line = classify._line_key(point)
        assert classify._crosscheck_conditions(
            entry, mode, grid, [point], {line: (1, result)}) == 1
        flipped = (_FLIPPED[result[0]],)
        with pytest.raises(AssertionError, match="fast membership"):
            classify._crosscheck_conditions(
                entry, mode, grid, [point], {line: (1, flipped)})


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
            assert outcome[1] == params
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


def test_fit_matches_a_recipe_constant_with_an_exact_scalar():
    """A rational ExactScalar.of value is a Fraction, so it fits a recipe's
    Fraction constant."""
    assert classify._fit([("r", 1, Fraction(1))],
                         [("r", 1, ExactScalar.of(1))]) == {}
    assert classify._fit([("c", 1, "a", Fraction(1))],
                         [("c", 1, ExactScalar.sqrt(2), ExactScalar.sqrt(1))]
                         ) == {"a": ExactScalar.sqrt(2)}


def _outcome(classifier, flat):
    try:
        outcome = classifier(flat)
    except UnsupportedSpectrumError:
        return "skip"
    if outcome is None:
        return None
    return outcome[0], tuple(map(str, outcome[1]))


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

    def match(p):
        calls.append(p)
        return ("T", p) if abs(p[0]) <= 2 and p[1] > 0 else None

    t = classify._template("T", ("a", "b"), "test", lambda p: None, match)
    first = t.sample(24)
    tested = len(calls)
    assert t.sample(20) == first[:20]
    assert t.sample(3) == first[:3]
    assert len(calls) == tested
    assert len(first) == 24 and len(set(calls)) == tested


def _series(*values):
    return " ".join(str(v) for v in values)


_ALTERNATING = _series(*(s * v for v in range(1, 13) for s in (1, -1)))
_POSITIVE = _series(*range(1, 19))

# sample(24) of every h3, r⊕h3 and g4 template, 165 points in all: points
# are separated by spaces and their coordinates by commas; "()" is the
# point of a family without parameters.
_PINNED_SAMPLES = {
    "h3/ext1": {"A": "1 -1", "B": "()", "C": _POSITIVE},
    "h3/ext2ad": {"F": "()", "G": "()"},
    "r_plus_h3/ext1": {
        "A": " ".join(f"1,{v}" for v in _ALTERNATING.split()),
        "B": "1", "C": _ALTERNATING, "D": _ALTERNATING, "E": "()",
        "F": "()",
        "G": " ".join(f"1,{v}" for v in _ALTERNATING.split()),
        "H": _POSITIVE},
    "g4/ext1": {"I": _ALTERNATING, "J": "()"},
}


def test_shaped_template_samples_are_pinned():
    total = 0
    for sweep, families in _PINNED_SAMPLES.items():
        base, mode = sweep.split("/")
        entry = classify.catalog()[base]
        classifier = classify._classifier(entry, mode)
        templates = classify._templates(entry, mode)
        assert [t.name for t in templates] == list(families)
        for t in templates:
            expected = [tuple(Fraction(x) for x in point.strip("()").split(",")
                              if x)
                        for point in families[t.name].split()]
            assert t.sample(24) == expected, (sweep, t.name)
            for params in expected:
                name, found = classifier(t.build(params).flatten())
                assert name == t.name
                assert found == params
            total += len(expected)
    assert total == 165


# A small grid for the two slowest sweeps at the default grid.
# num_max=1 would make the r_plus_h3 grid Cartesian and miss D, E and F.
_SMALL_GRID = GridSpec(num_max=2, den_max=1, n_random=20,
                       n_template_samples=4, n_conjugates=1)


@pytest.mark.parametrize("sweep", ("r4/ext1", "r_plus_h3/ext1"))
def test_slow_sweep_on_a_small_grid(sweep):
    report = classify_extensions(*sweep.split("/"), _SMALL_GRID).as_dict()
    assert report["golden"]["ok"]
    assert all(f["verified_points"] > 0 for f in report["families"])
    assert all(e["evidence"] != "UNRESOLVED" for e in report["distinctness"])
