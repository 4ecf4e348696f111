"""Exact linear algebra: echelon forms, solving, characteristic polynomials
and spectra."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecodim.exactla import (
    IrreducibleFactorDegreeTooHigh,
    Matrix,
    RealIrrationalEigenvalues,
    Subspace,
    _sqrt_fraction,
    char_poly,
    eigen_structure,
    nullspace,
    poly_eval_matrix,
    rref,
    solve,
)
from liecodim.deriv import leibniz_system
from liecodim.liealg import heisenberg3

from oracles import det_cofactor, leibniz_equations_h3, rank_elimination

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
        assert poly_eval_matrix(char_poly(m), m).is_zero()

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
