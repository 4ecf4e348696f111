"""Exact linear algebra: echelon forms, solving, characteristic polynomials
and spectra."""

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecodim.exactla import (
    IrreducibleFactorDegreeTooHigh,
    Matrix,
    RealIrrationalEigenvalues,
    Subspace,
    UnsupportedSpectrumError,
    _block_diag,
    _factor_over_rationals,
    _sqrt_fraction,
    char_poly,
    eigen_structure,
    nullspace,
    rref,
    solve,
)
from liecodim.deriv import leibniz_system
from liecodim.liealg import heisenberg3

from oracles import (
    char_poly_minors,
    dense_apply,
    dense_matmul,
    dense_reduce,
    dense_rref,
    dense_scale,
    det_cofactor,
    leibniz_equations_h3,
    poly_eval_matrix,
    rank_elimination,
)

F = Fraction


def M(rows):
    return Matrix.from_rows(rows)


small_fractions = st.builds(
    F, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4))


def square_matrices(max_n=4):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.lists(small_fractions, min_size=n, max_size=n),
            min_size=n, max_size=n).map(Matrix.from_rows))


class TestRref:
    def test_identity_is_fixed(self):
        red, rank, pivots = rref(Matrix.identity(2))
        assert red == Matrix.identity(2)
        assert rank == 2
        assert pivots == (0, 1)

    def test_proportional_rows_collapse(self):
        red, rank, _ = rref(M([[1, 2], [2, 4]]))
        assert red == M([[1, 2], [0, 0]])
        assert rank == 1

    def test_h3_leibniz_system_rank(self):
        # oracle: independently assembled system, independently eliminated
        oracle_rows = leibniz_equations_h3()
        assert rank_elimination(oracle_rows) == 3
        system = leibniz_system(heisenberg3())
        assert system.cols == 9
        _, rank, _ = rref(system)
        assert rank == 3
        assert nullspace(system).dim == 6

    @given(square_matrices())
    @settings(max_examples=60, deadline=None)
    def test_rank_nullity(self, m):
        assert m.rank() + nullspace(m).dim == m.cols


class TestSolve:
    def test_identity_system(self):
        assert solve(Matrix.identity(3), (F(1), F(2), F(3))) == (F(1), F(2), F(3))

    def test_inconsistent_system(self):
        assert solve(M([[1, 1], [1, 1]]), (F(0), F(1))) is None

    def test_membership_style_solve(self):
        # does (2, 4) lie in the column span of [[1],[2]]?
        assert solve(M([[1], [2]]), (F(2), F(4))) == (F(2),)
        assert solve(M([[1], [2]]), (F(2), F(5))) is None


class TestSubspace:
    def test_coordinates_agree_with_solve(self):
        rng = random.Random(20250801)

        def entry():
            return F(rng.choice((0, 0, rng.randint(-3, 3))), rng.randint(1, 3))

        seen = {"inside": 0, "outside": 0}
        for _ in range(300):
            n = rng.randint(1, 6)
            gens = [tuple(entry() for _ in range(n))
                    for _ in range(rng.randint(0, n))]
            space = Subspace.from_vectors(n, gens)
            assert space.pivots == (
                rref(Matrix.from_rows(space.basis))[2] if space.basis else ())
            combo = tuple(sum((entry() * g[i] for g in gens), F(0))
                          for i in range(n))
            for v in (combo, tuple(entry() for _ in range(n))):
                columns = Matrix(n, space.dim, tuple(
                    tuple(b[i] for b in space.basis) for i in range(n)))
                expected = solve(columns, v)
                assert space.coordinates(v) == expected
                assert all(x == 0 for x in space.reduce(v)) == \
                    (expected is not None)
                seen["inside" if expected is not None else "outside"] += 1
        assert min(seen.values()) > 50


class TestCharPoly:
    def test_rotation_block(self):
        assert char_poly(M([[0, 1], [-1, 0]])) == (F(1), F(0), F(1))

    def test_diag_2_1_1(self):
        # (t-2)(t-1)^2 = t^3 - 4t^2 + 5t - 2
        assert char_poly(Matrix.diagonal([2, 1, 1])) == (F(-2), F(5), F(-4), F(1))

    def test_two_by_two_block(self):
        # [[1, 0], [0, 2]] from the pair-block parameters: (t-1)(t-2)
        assert char_poly(M([[1, 0], [0, 2]])) == (F(2), F(-3), F(1))

    @given(square_matrices())
    @settings(max_examples=40, deadline=None)
    def test_cayley_hamilton(self, m):
        assert not any(map(any, poly_eval_matrix(char_poly(m), m.entries)))

    @given(square_matrices(3))
    @settings(max_examples=30, deadline=None)
    def test_constant_term_is_det(self, m):
        sign = -1 if m.rows % 2 else 1
        assert char_poly(m)[0] == sign * det_cofactor([list(r) for r in m.entries])


# the rotation pair i, -i with a single Jordan tower of height 2
COMPLEX_TOWER = M([[0, 1, 1, 0],
                   [-1, 0, 0, 1],
                   [0, 0, 0, 1],
                   [0, 0, -1, 0]])


class TestEigenStructure:
    def test_mixed_block_sizes(self):
        st_ = eigen_structure(M([[2, 0, 0], [0, 1, 1], [0, 0, 1]]))
        assert st_.rational_eigenvalues() == {F(2): (1,), F(1): (2,)}

    def test_rotation_pair(self):
        st_ = eigen_structure(M([[0, 1], [-1, 0]]))
        assert st_.complex_pairs() == {(F(0), F(1)): (1,)}

    def test_nilpotent_single_chain(self):
        st_ = eigen_structure(M([[0, 1, 0], [0, 0, 1], [0, 0, 0]]))
        assert st_.rational_eigenvalues() == {F(0): (3,)}

    def test_degree_three_irreducible_rejected(self):
        companion = M([[0, 0, 2], [1, 0, 0], [0, 1, 0]])  # t^3 - 2
        with pytest.raises(IrreducibleFactorDegreeTooHigh):
            eigen_structure(companion)

    def test_real_irrational_pair_rejected(self):
        with pytest.raises(RealIrrationalEigenvalues):
            eigen_structure(M([[0, 2], [1, 0]]))  # t^2 - 2

    def test_complex_jordan_tower(self):
        st_ = eigen_structure(COMPLEX_TOWER)
        assert st_.complex_pairs() == {(F(0), F(1)): (2,)}

    def test_conjugation_invariance(self):
        rng = random.Random(7)
        targets = [
            Matrix.diagonal([2, 1, 1]),
            M([[2, 0, 0], [0, 1, 1], [0, 0, 1]]),
            M([[1, 1, 0], [0, 1, 1], [0, 0, 1]]),
            M([[0, 1, 0], [-1, 0, 0], [0, 0, 3]]),
            COMPLEX_TOWER,
            M([[2, 1, 0, 0], [0, 2, 1, 0], [0, 0, 2, 0], [0, 0, 0, 7]]),
        ]
        for m in targets:
            reference = eigen_structure(m)
            for _ in range(100):
                s = _random_invertible(rng, m.rows)
                assert eigen_structure(s.inverse() @ m @ s) == reference


class TestUnsupportedCause:
    # (t^2 - 2)(t^3 - 2): a real irrational pair and an irreducible cubic.
    PAIR = M([[0, 2], [1, 0]])
    CUBIC = M([[0, 0, 2], [1, 0, 0], [0, 1, 0]])

    @pytest.mark.parametrize("blocks", [(PAIR, CUBIC), (CUBIC, PAIR)])
    def test_real_irrational_pair_wins_over_cubic(self, blocks):
        m = _block_diag(list(blocks))
        assert m.rows == 5
        with pytest.raises(RealIrrationalEigenvalues):
            eigen_structure(m)
        rng = random.Random(3)
        for _ in range(5):
            s = _random_invertible(rng, 5)
            with pytest.raises(RealIrrationalEigenvalues):
                eigen_structure(s.inverse() @ m @ s)


def _random_invertible(rng, n):
    while True:
        m = Matrix.from_rows([[F(rng.randint(-4, 4), rng.randint(1, 3))
                               for _ in range(n)] for _ in range(n)])
        if m.det() != 0:
            return m


class TestMatrixBasics:
    @given(square_matrices(3))
    @settings(max_examples=40, deadline=None)
    def test_det_matches_cofactor_oracle(self, m):
        assert m.det() == det_cofactor([list(r) for r in m.entries])

    def test_inverse_roundtrip(self):
        m = M([[1, 2], [3, 5]])
        assert m @ m.inverse() == Matrix.identity(2)

    def test_flatten_unflatten(self):
        m = M([[1, 2], [3, 4]])
        assert Matrix.unflatten(m.flatten(), 2, 2) == m

    def test_int_entries_stay_exact(self):
        """The pivot inverse is exact: an invertible matrix of ints gives
        only Fractions, never floats."""
        rng = random.Random(11)
        seeds = [((2, 1), (1, 1))] + [
            tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
            for n in (2, 3, 3, 4, 4)]
        for rows in seeds:
            n = len(rows)
            m = Matrix(n, n, rows)
            wide = Matrix(n, n + 1, tuple(row + (1,) for row in rows))
            outputs = [m.det(), *m.inverse().flatten(),
                       *solve(m, (1,) * n), *rref(m)[0].flatten(),
                       *(x for v in nullspace(wide).basis for x in v),
                       *(x for v in Subspace.from_vectors(n, rows).basis for x in v)]
            assert all(type(x) is Fraction for x in outputs), (rows, outputs)
        assert Matrix(2, 2, ((2, 1), (1, 1))).det() == 1

    def test_from_columns_coerces_entries(self):
        m = Matrix.from_columns([(1, 0), (F(1, 2), 3)])
        assert m == Matrix.from_rows([[1, F(1, 2)], [0, 3]])
        assert all(type(x) is Fraction for x in m.flatten())
        with pytest.raises(TypeError):
            Matrix.from_columns([(1, 0.5), (0, 1)])

    def test_from_vectors_coerces_entries(self):
        space = Subspace.from_vectors(2, [(2, 1), (0, 0)])
        assert space.basis == ((F(1), F(1, 2)),)
        assert all(type(x) is Fraction for x in space.basis[0])
        for vectors in ([(0.1, 1)], [(1, 0), (0.5, 0)], [(1, 0.0)]):
            with pytest.raises(TypeError):
                Subspace.from_vectors(2, vectors)


def _sparse_grid(rng, rows, cols, density, kind):
    """A rows x cols grid of ``kind`` entries, each nonzero with probability
    ``density``."""
    def entry():
        if rng.random() >= density:
            return kind(0)
        if kind is int:
            return rng.choice((-3, -2, -1, 1, 2, 3))
        return F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
    return tuple(tuple(entry() for _ in range(cols)) for _ in range(rows))


@pytest.mark.parametrize("kind", [int, Fraction])
@pytest.mark.parametrize("density", [0, 0.1, 0.25, 0.5, 0.75, 1])
def test_kernels_match_dense_oracles(kind, density):
    """The zero-skipping kernels agree with dense loops that form every
    product, and return only Fractions, on raw Matrix grids of ints or
    Fractions at every density."""
    rng = random.Random(f"{kind.__name__}-{density}")
    for _ in range(30):
        n, k, m = (rng.randint(1, 5) for _ in range(3))
        a = Matrix(n, k, _sparse_grid(rng, n, k, density, kind))
        b = Matrix(k, m, _sparse_grid(rng, k, m, density, kind))
        sq = Matrix(n, n, _sparse_grid(rng, n, n, density, kind))
        (v,) = _sparse_grid(rng, 1, k, density, kind)
        c = rng.choice((kind(0), kind(1), kind(-2), F(3, 2)))
        span = Subspace.from_vectors(k, _sparse_grid(rng, rng.randint(1, 4), k,
                                                     density, kind))
        red, rank, pivots = rref(a)
        expected_red, expected_pivots = dense_rref(a.entries)

        assert a.apply(v) == tuple(dense_apply(a.entries, v))
        assert (a @ b).entries == tuple(map(tuple, dense_matmul(a.entries, b.entries)))
        assert a.scale(c).entries == tuple(map(tuple, dense_scale(c, a.entries)))
        assert sq.det() == det_cofactor(sq.entries)
        assert red.entries == tuple(map(tuple, expected_red))
        assert (rank, pivots) == (len(expected_pivots), tuple(expected_pivots))
        assert span.reduce(v) == tuple(dense_reduce(span.basis, v))

        outputs = [*a.apply(v), *(a @ b).flatten(), *a.scale(c).flatten(),
                   sq.det(), *red.flatten(), *span.reduce(v)]
        assert all(type(x) is Fraction for x in outputs), outputs


def _typed_entry(rng, kind):
    """A small nonzero entry: an int, a Fraction, or for "mixed" either."""
    if kind == "mixed":
        kind = rng.choice((int, Fraction))
    if kind is int:
        return rng.choice((-3, -2, -1, 1, 2, 3))
    return F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))


def _typed(x, kind, rng):
    """``x`` as an int for ``int``, a Fraction for ``Fraction``, and for
    "mixed" an integral value as either."""
    if kind is int:
        return int(x)
    if kind == "mixed" and x == int(x) and rng.random() < 0.5:
        return int(x)
    return F(x)


def _deficient_grid(rng, rows, cols, kind):
    """A rows x cols grid B C of rank at most r, with B random (some rows
    zero) and C r x cols with r pivot columns at random places: every other
    column of C combines the pivot columns left of it, so the echelon
    pivots skip columns."""
    r = rng.randint(0, min(rows, cols))
    pivots = sorted(rng.sample(range(cols), r))
    c = [[0] * cols for _ in range(r)]
    for j in range(cols):
        if j in pivots:
            for i in range(r):
                c[i][j] = _typed_entry(rng, kind) if rng.random() < 0.7 else 0
        else:
            for p in (p for p in pivots if p < j):
                f = rng.choice((0, 1, -2) if kind is int else (0, 1, -2, F(1, 2)))
                for i in range(r):
                    c[i][j] += f * c[i][p]
    b = [[_typed_entry(rng, kind) if rng.random() < 0.8 else 0
          for _ in range(r)] if rng.random() < 0.8 else [0] * r
         for _ in range(rows)]
    return tuple(tuple(_typed(sum(b[i][k] * c[k][j] for k in range(r)), kind, rng)
                       for j in range(cols)) for i in range(rows))


@pytest.mark.parametrize("kind", [int, Fraction, "mixed"])
def test_bareiss_rank_and_det_match_oracles(kind):
    """Fraction-free rank and det agree with plain elimination and cofactor
    expansion on square, wide and tall grids, full or rank-deficient, with
    zero rows and skipped pivot columns; so do rref, which back-substitutes
    the same elimination, and the inverse, solve and nullspace built on
    it."""
    rng = random.Random(f"bareiss-{kind}")
    for _ in range(150):
        n = rng.randint(1, 5)
        rows, cols = rng.choice(((n, n), (n, n + rng.randint(1, 3)),
                                 (n + rng.randint(1, 3), n)))
        if rng.random() < 0.5:
            grid = _deficient_grid(rng, rows, cols, kind)
        else:
            grid = tuple(tuple(_typed_entry(rng, kind) if rng.random() < 0.6
                               else _typed(0, kind, rng)
                               for _ in range(cols)) for _ in range(rows))
        m = Matrix(rows, cols, grid)
        rank = m.rank()
        assert rank == rank_elimination(grid), grid
        if rows == cols:
            det = m.det()
            assert det == det_cofactor(grid) and type(det) is Fraction, grid
            if det:
                assert m @ m.inverse() == Matrix.identity(rows), grid
        red, red_rank, pivots = rref(m)
        expected_red, expected_pivots = dense_rref(grid)
        assert red.entries == tuple(map(tuple, expected_red)), grid
        assert (red_rank, list(pivots)) == (rank, expected_pivots), grid
        x = [_typed_entry(rng, kind) for _ in range(cols)]
        b = m.apply(x)
        assert m.apply(solve(m, b)) == b, grid
        kernel = nullspace(m).basis
        assert len(kernel) == cols - rank, grid
        assert all(not any(m.apply(v)) for v in kernel), grid


@pytest.mark.parametrize("kind", [int, Fraction, "mixed"])
def test_char_poly_matches_principal_minors(kind):
    rng = random.Random(f"berkowitz-{kind}")
    for _ in range(60):
        n = rng.randint(1, 5)
        grid = (_deficient_grid(rng, n, n, kind) if rng.random() < 0.3 else
                tuple(tuple(_typed_entry(rng, kind) if rng.random() < 0.7 else 0
                            for _ in range(n)) for _ in range(n)))
        assert char_poly(Matrix(n, n, grid)) == char_poly_minors(grid), grid


def test_eigen_structure_scales_with_positive_rationals():
    """eigen_structure(c M) scales every block: lam by c, p by c and q2 by
    c^2, in the same order; c has a denominator, so the integer kernels
    run at d != 1."""
    rng = random.Random(29)
    targets = [
        Matrix.diagonal([2, 1, 1]),
        M([[2, 0, 0], [0, 1, 1], [0, 0, 1]]),
        M([[0, 1, 0], [-1, 0, 0], [0, 0, 3]]),
        M([[1, 2], [-1, 1]]),
        COMPLEX_TOWER,
        M([[2, 1, 0, 0], [0, 2, 1, 0], [0, 0, 2, 0], [0, 0, 0, F(-7, 3)]]),
    ]
    for m in targets:
        blocks = eigen_structure(m).blocks
        for _ in range(10):
            c = F(rng.randrange(1, 40, 2), 2 ** rng.randint(1, 4))
            s = _random_invertible(rng, m.rows)
            scaled = eigen_structure((s.inverse() @ m @ s).scale(c))
            assert scaled.blocks == tuple(
                (kind, size, c * vals[0]) if kind == "r" else
                (kind, size, c * vals[0], c * c * vals[1])
                for kind, size, *vals in blocks)


def _forged(m, rows):
    """A copy of ``m`` whose entries are set to ``rows`` past the
    constructor's check, so a kernel's own check of its input is tested."""
    forged = Matrix(m.rows, m.cols, m.entries)
    object.__setattr__(forged, "entries", tuple(map(tuple, rows)))
    return forged


def test_spectral_kernels_return_fractions_and_reject_floats():
    """On raw Matrix grids of ints, det, char_poly, the eigenvalue data of
    eigen_structure, rref, nullspace, solve, inverse, Subspace.from_vectors,
    Subspace.reduce, Subspace.coordinates, trace, transpose, +, -, scale,
    apply and @ (either factor) give Fractions, rank is an int and
    Subspace.contains a bool.  A single float entry, zero or not, makes the
    raw Matrix constructor, Matrix.unflatten and submatrix raise TypeError,
    so no Matrix holds a float; each kernel still raises TypeError on a
    matrix whose float was forged in past the constructor (trace reads only
    the diagonal, so there the float is on it; apply and the Subspace
    methods also take the float in their vector)."""
    rng = random.Random(31)
    kernels = (Matrix.det, Matrix.rank, char_poly, eigen_structure, rref,
               nullspace, Matrix.inverse, Matrix.transpose,
               lambda m: solve(m, (0,) * m.rows),
               lambda m: Subspace.from_vectors(m.cols, m.entries),
               lambda m: m + Matrix.zero(m.rows, m.cols),
               lambda m: Matrix.zero(m.rows, m.cols) - m,
               lambda m: m.scale(3),
               lambda m: m.apply((1,) * m.cols),
               lambda m: Matrix.identity(m.rows * m.cols).apply(m.flatten()),
               lambda m: m @ Matrix.identity(m.cols),
               lambda m: Matrix.identity(m.rows) @ m)
    for _ in range(40):
        n = rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) if rng.random() < 0.5 or i <= j else 0
                 for j in range(n)] for i in range(n)]
        m = Matrix(n, n, tuple(map(tuple, rows)))
        outputs = [m.det(), *char_poly(m), m.trace()]
        try:
            outputs += [x for block in eigen_structure(m).blocks for x in block[2:]]
        except UnsupportedSpectrumError:
            pass
        if outputs[0]:
            outputs += m.inverse().flatten()
        b = tuple(sum(x for x in row) for row in rows)
        outputs += solve(m, b) + rref(m)[0].flatten() + m.transpose().flatten()
        outputs += [x for v in nullspace(m).basis for x in v]
        space = Subspace.from_vectors(n, rows)
        outputs += [x for v in space.basis for x in v]
        outputs += space.reduce(b) + space.coordinates(rows[0])
        assert type(space.contains(b)) is bool
        outputs += (m + m).flatten() + (m - m).flatten()
        outputs += m.scale(2).flatten() + m.apply(b) + (m @ m).flatten()
        assert all(type(x) is Fraction for x in outputs), (rows, outputs)
        assert type(m.rank()) is int
        i, j = rng.randrange(n), rng.randrange(n)
        value = rng.choice((0.0, 0.5, float(rows[i][j])))
        rows[i][j] = value
        floating = _forged(m, rows)
        for kernel in kernels:
            with pytest.raises(TypeError):
                kernel(floating)
        for method in (space.contains, space.coordinates, space.reduce):
            with pytest.raises(TypeError):
                method(floating.entries[i])
        rows[i][j], rows[i][i] = 0, value
        with pytest.raises(TypeError):
            _forged(m, rows).trace()
        grid = tuple(map(tuple, rows))
        with pytest.raises(TypeError, match="as a rational"):
            Matrix(n, n, grid)
        with pytest.raises(TypeError, match="as a rational"):
            Matrix.unflatten(sum(grid, ()), n, n)
        with pytest.raises(TypeError, match="as a rational"):
            _forged(m, rows).submatrix(range(i + 1), range(n))
    with pytest.raises(TypeError, match="cannot interpret 0.5 as a rational"):
        Matrix(2, 2, ((0.5, 1), (1, 1)))
    with pytest.raises(TypeError):
        Subspace.from_vectors(2, [(0.0, 0.0), (1, 2)])


class TestSqrtFraction:
    @pytest.mark.parametrize("x, root", [
        (F(9, 4), F(3, 2)),
        (F(2), None),
        (F(2, 9), None),
        (F(-4), None),
        (F(0), F(0)),
    ])
    def test_exact_root_or_none(self, x, root):
        assert _sqrt_fraction(x) == root

    def test_int_root_is_an_int(self):
        assert [_sqrt_fraction(x) for x in (0, 1, 49, 2, -4)] \
            == [0, 1, 7, None, None]
        assert type(_sqrt_fraction(49)) is int
        assert type(_sqrt_fraction(F(49))) is Fraction


def _poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_power(a, k):
    out = [F(1)]
    for _ in range(k):
        out = _poly_mul(out, a)
    return out


def _factor_order(factors):
    return sorted(factors, key=lambda f: (len(f[0]), f[0]))


def _sympy_factors(sympy, coeffs):
    """Monic irreducible factors of an ascending Fraction polynomial by
    sympy's ``factor_list`` over QQ, in ``_factor_over_rationals`` order."""
    poly = sympy.Poly.from_list(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)],
        sympy.Symbol("x"), domain=sympy.QQ)
    return _factor_order(
        [(tuple(F(int(c.p), int(c.q)) for c in reversed(f.monic().all_coeffs())), k)
         for f, k in poly.factor_list()[1]])


def _factor_cases(rng, per_kind):
    """Seeded rational polynomials of degree 1-6, ``per_kind`` of each kind."""
    def rational(bits, nonzero=False):
        while True:
            x = F(rng.randint(-2 ** bits, 2 ** bits), rng.randint(1, 2 ** bits))
            if x or not nonzero:
                return x

    def monic(degree, bits):
        return [rational(bits) for _ in range(degree)] + [F(1)]

    def pair(bits):  # t^2 - 2p t + p^2 + q^2 with q != 0: a complex pair
        p, q = rational(bits), rational(bits, nonzero=True)
        return [p * p + q * q, -2 * p, F(1)]

    def moved(poly, bits):  # poly(s t + r) / lead, irreducible with poly
        s, r = rational(bits, nonzero=True), rational(bits)
        out = poly[-1:]
        for c in reversed(poly[:-1]):
            out = _poly_mul(out, [r, s])
            out[0] += c
        return [c / out[-1] for c in out]

    def irreducible(degree, bits):  # Eisenstein at 2, 3 or 5, then moved
        if degree == 2 and rng.random() < 0.5:
            return pair(bits)
        p = rng.choice((2, 3, 5))
        poly = [F(p * rng.choice((1, -1)) * rng.choice((1, 7, 11, 13)))] + \
            [F(p * rng.randint(-3, 3)) for _ in range(degree - 1)] + [F(1)]
        return moved(poly, bits)

    def repeated():  # linear powers, a root at 0, a squared quadratic
        poly, degree = [F(0), F(1)], 1
        while degree < 6:
            base = ([-F(rng.randint(-3, 3))] if rng.random() < 0.7
                    else monic(2, 3)[:2]) + [F(1)]
            k = rng.randint(1, (6 - degree) // (len(base) - 1) or 1)
            if degree + k * (len(base) - 1) > 6:
                break
            poly, degree = _poly_mul(poly, _poly_power(base, k)), degree + k * (len(base) - 1)
            if rng.random() < 0.3:
                break
        return poly

    def nonmonic():  # up to three factors with rationals of up to 20 bits, scaled
        bits = rng.choice((4, 8, 12, 20))
        degree = rng.randint(1, 6)
        poly = [rational(bits, nonzero=True)]
        while degree:
            d = rng.randint(1, min(3, degree))
            poly, degree = _poly_mul(poly, monic(d, bits)), degree - d
        return poly

    def tower():  # Jordan and complex-pair towers
        bits = rng.choice((2, 4, 8))
        lam = [-rational(bits), F(1)]
        shape = rng.choice(((0, 2), (0, 3), (1, 2), (2, 2), (3, 1), (4, 1)))
        return _poly_mul(_poly_power(lam, shape[0]), _poly_power(pair(bits), shape[1]))

    def product(degree):  # two irreducible factors, scaled
        bits = rng.choice((2, 4, 8))
        scale = rational(bits, nonzero=True)
        return [scale * c for c in
                _poly_mul(irreducible(degree, bits), irreducible(degree, bits))]

    def quartic():
        return product(2)

    def sextic():
        return product(3)

    def anything():
        return [rational(rng.choice((1, 3, 6))) for _ in range(rng.randint(1, 6))] \
            + [rational(3, nonzero=True)]

    kinds = (repeated, nonmonic, tower, quartic, sextic, anything)
    for _ in range(per_kind):
        for kind in kinds:
            yield kind()


def _check_factors_against_sympy(per_kind, min_count, min_per_class):
    """``_factor_over_rationals`` against sympy on the first ``per_kind``
    seeded polynomials of each kind; every counted class must occur at
    least ``min_per_class`` times."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20250801)
    checked = {"cubic x cubic": 0, "quadratic x quadratic": 0, "repeated": 0}
    count = 0
    for poly in _factor_cases(rng, per_kind):
        assert 2 <= len(poly) <= 7 and poly[-1] != 0
        got = _factor_over_rationals(tuple(poly))
        assert got == _factor_order(got)
        assert got == _sympy_factors(sympy, poly), poly
        degrees = sorted(len(f) - 1 for f, _ in got)
        checked["cubic x cubic"] += degrees == [3, 3]
        checked["quadratic x quadratic"] += degrees == [2, 2]
        checked["repeated"] += any(k > 1 for _, k in got)
        count += 1
    assert count >= min_count
    assert min(checked.values()) >= min_per_class, checked


class TestFactorOverRationals:
    def test_agrees_with_sympy(self):
        # The first tenth of the full run below, every class still met.
        _check_factors_against_sympy(170, 1_000, 10)

    @pytest.mark.slow
    def test_agrees_with_sympy_in_full(self):
        _check_factors_against_sympy(1700, 10_000, 100)

    def test_char_poly_factors_agree_with_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(20250802)
        blocks = [M([[2]]), M([[0, 1], [-1, 0]]), M([[1, 1], [0, 1]]),
                  M([[0, -5], [1, 2]]), COMPLEX_TOWER, M([[0, 2], [1, 0]]),
                  M([[0, 0, 2], [1, 0, 0], [0, 1, 0]]), M([[-1, 1, 0], [0, -1, 1], [0, 0, -1]])]
        for trial in range(400):
            n = rng.randint(1, 5)
            if trial % 2:
                m = Matrix.from_rows([[F(rng.randint(-4, 4), rng.randint(1, 3))
                                       for _ in range(n)] for _ in range(n)])
            else:
                chosen, size = [], 0
                while size < n:
                    block = rng.choice([b for b in blocks if b.rows <= n - size])
                    chosen.append(block)
                    size += block.rows
                s = _random_invertible(rng, n)
                m = s.inverse() @ _block_diag(chosen) @ s
            poly = char_poly(m)
            oracle = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                                    for x in row] for row in m.entries]).charpoly()
            assert poly == tuple(F(int(c.p), int(c.q))
                                 for c in reversed(oracle.all_coeffs()))
            assert _factor_over_rationals(poly) == _sympy_factors(sympy, poly)

    def test_constants_and_zero_leading_coefficients(self):
        assert _factor_over_rationals((F(3),)) == []
        assert _factor_over_rationals((F(0), F(0))) == []
        # 2t^2 - 1 written with a zero t^3 coefficient
        assert _factor_over_rationals((F(-1), F(0), F(2), F(0))) == \
            [((F(-1, 2), F(0), F(1)), 1)]


ROOT = Path(__file__).resolve().parent.parent

NO_SYMPY_SCRIPT = textwrap.dedent("""
    import sys
    sys.modules["sympy"] = None  # any import of sympy now raises ImportError
    from liecodim.classify import GridSpec, classify_extensions, fingerprint
    from liecodim.exactla import Matrix, eigen_structure
    from liecodim.liealg import make_algebra

    pair = eigen_structure(Matrix.from_rows(
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 2, 1], [0, 0, 0, 2]]))
    assert pair.complex_pairs() == {(0, 1): (1,)}, pair
    jordan = eigen_structure(Matrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 3]]))
    assert jordan.rational_eigenvalues() == {1: (2,), 3: (1,)}, jordan
    report = classify_extensions("r1", "ext1", GridSpec())
    assert report.as_dict()["golden"]["ok"]
    # R^2 extended by z = diag(1, 2) and y = diag(1, -1): derived codimension
    # two, pencil det(y + t z) = (1 + t)(2t - 1).
    L = make_algebra(4, {(1, 3): {1: -1}, (2, 3): {2: -2},
                         (1, 4): {1: -1}, (2, 4): {2: 1}})
    shape = fingerprint(L).pencil_shape
    assert [s for s in shape if isinstance(s[0], int)] == [(1, 1), (1, 1)], shape
    assert sys.modules["sympy"] is None
    assert not [name for name in sys.modules if name.startswith("sympy.")]
    print("ok")
""")


def test_liecodim_never_imports_sympy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", NO_SYMPY_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
