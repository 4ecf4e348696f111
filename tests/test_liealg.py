"""Structure-constant algebras: construction, series, centers, induced
operators on quotients."""

import math
import random
import time
from fractions import Fraction

import pytest

from liecodim.exactla import Matrix, Subspace
from liecodim.liealg import (
    JacobiViolation,
    LieAlgebra,
    abelian,
    adjoint_matrix,
    bracket,
    center,
    derived_series,
    derived_subalgebra,
    direct_sum,
    filiform4,
    heisenberg3,
    induced_operator_on_quotient,
    is_nilpotent,
    is_solvable,
    lower_central_series,
    make_algebra,
    r_plus_heisenberg,
    restrict_operator,
    validate_jacobi,
)
from liecodim.deriv import derivation_space, leibniz_residual
from liecodim.ext import extend_by_derivation

from oracles import jacobi_first_violation, jacobi_residual

F = Fraction


def vec(*xs):
    return tuple(F(x) for x in xs)


CATALOG = [abelian(1), abelian(2), abelian(3), abelian(4),
           heisenberg3(), r_plus_heisenberg(), filiform4()]


class TestConstruction:
    def test_heisenberg(self):
        h3 = make_algebra(3, {(2, 3): {1: 1}})
        assert h3.bracket_basis(1, 2) == vec(1, 0, 0)

    def test_filiform(self):
        g4 = make_algebra(4, {(2, 4): {1: 1}, (3, 4): {2: 1}})
        assert g4.bracket_basis(1, 3) == vec(1, 0, 0, 0)
        assert g4.bracket_basis(2, 3) == vec(0, 1, 0, 0)

    def test_two_dim_solvable_is_fine(self):
        make_algebra(2, {(1, 2): {1: 1}})

    def test_jacobi_violation_reported(self):
        bad = {(1, 2): {3: 1}, (1, 3): {1: 1}, (2, 3): {2: 1}}
        residual = jacobi_residual(bad, 3, 1, 2, 3)
        assert residual != [F(0)] * 3  # oracle: genuinely violating table
        with pytest.raises(JacobiViolation) as err:
            make_algebra(3, bad)
        assert err.value.triple == (1, 2, 3)
        assert list(err.value.residual) == residual

    def test_skip_jacobi_for_negative_paths(self):
        bad = {(1, 2): {3: 1}, (1, 3): {1: 1}, (2, 3): {2: 1}}
        alg = make_algebra(3, bad, skip_jacobi=True)
        with pytest.raises(JacobiViolation):
            validate_jacobi(alg)

    def test_bad_indices_rejected(self):
        with pytest.raises(ValueError):
            make_algebra(2, {(2, 1): {1: 1}})


class TestSparseJacobi:
    def test_empty_table_of_dimension_60_is_fast(self):
        start = time.perf_counter()
        make_algebra(60, {})
        assert time.perf_counter() - start < 1.0

    def test_agrees_with_full_triple_check(self):
        rng = random.Random(20250801)
        seen = {"holds": 0, "fails": 0}
        for trial in range(200):
            dim = rng.randint(3, 12)
            pairs = [(i, j) for i in range(1, dim + 1) for j in range(i + 1, dim + 1)]
            if trial % 2:
                # brackets into a central set hold Jacobi (two-step nilpotent)
                central = set(rng.sample(range(1, dim + 1), rng.randint(1, dim - 2)))
                pairs = [(i, j) for i, j in pairs if i not in central and j not in central]
                targets = sorted(central)
            else:
                targets = list(range(1, dim + 1))
            brackets = {
                pair: {t: rng.choice((-2, -1, 1, 3)) for t in rng.sample(
                    targets, rng.randint(1, min(2, len(targets))))}
                for pair in rng.sample(pairs, rng.randint(1, min(4, len(pairs))))}
            expected = jacobi_first_violation(brackets, dim)
            alg = make_algebra(dim, brackets, skip_jacobi=True)
            if expected is None:
                validate_jacobi(alg)
                seen["holds"] += 1
            else:
                with pytest.raises(JacobiViolation) as err:
                    validate_jacobi(alg)
                assert err.value.triple == expected[0]
                assert list(err.value.residual) == expected[1]
                seen["fails"] += 1
        assert min(seen.values()) >= 50, seen


class TestBracket:
    def test_heisenberg_defining_bracket(self):
        h3 = heisenberg3()
        assert bracket(h3, h3.basis_vector(1), h3.basis_vector(2)) == vec(1, 0, 0)

    def test_alternating(self):
        h3 = heisenberg3()
        u = vec(1, 2, 3)
        assert bracket(h3, u, u) == vec(0, 0, 0)

    def test_antisymmetry(self):
        h3 = heisenberg3()
        assert bracket(h3, h3.basis_vector(2), h3.basis_vector(1)) == vec(-1, 0, 0)

    def test_entries_are_coerced(self):
        # int entries give Fractions; a float raises instead of leaking,
        # also through adjoint_matrix.
        h3 = heisenberg3()
        out = bracket(h3, (0, 2, 0), (0, F(1, 3), 1))
        assert out == vec(2, 0, 0)
        assert all(type(x) is Fraction for x in out)
        for u, v in (((0, 0.5, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, 1.0)),
                     ((0.5, 0, 0), (0, 0, 1))):
            with pytest.raises(TypeError):
                bracket(h3, u, v)
        assert adjoint_matrix(h3, (0, 1, 0)) \
            == adjoint_matrix(h3, h3.basis_vector(1))
        with pytest.raises(TypeError):
            adjoint_matrix(h3, (0, 0.5, 0))


def test_lie_layer_returns_fractions_and_rejects_floats():
    """On int vectors and raw int matrices, bracket, adjoint_matrix,
    leibniz_residual, extend_by_derivation, restrict_operator and
    induced_operator_on_quotient (of a derivation, on the derived algebra
    and on the whole space) give Fractions.  One float entry, zero or not,
    makes Matrix.unflatten raise TypeError, and makes each of them raise
    TypeError, in its vector or in a matrix whose float was forged in past
    the constructor."""
    rng = random.Random(37)
    violations = 0
    for alg in CATALOG:
        n = alg.dim
        derivations = derivation_space(alg).full.basis
        for _ in range(6):
            u = [rng.randint(-3, 3) for _ in range(n)]
            v = [rng.randint(-3, 3) for _ in range(n)]
            flat = [F(0)] * n * n
            for b in derivations:
                c = rng.randint(-2, 2)
                flat = [x + c * y for x, y in zip(flat, b)]
            scale = math.lcm(*(x.denominator for x in flat))
            flat = [int(x * scale) for x in flat]
            moved = list(flat)
            moved[rng.randrange(n * n)] += 1
            violation = leibniz_residual(alg, Matrix.unflatten(tuple(moved), n, n))
            violations += violation is not None
            D = Matrix.unflatten(tuple(flat), n, n)
            L = extend_by_derivation(alg, D)
            der = derived_subalgebra(alg)
            outputs = [*bracket(alg, u, v), *adjoint_matrix(alg, u).flatten(),
                       *(violation[1] if violation else ()),
                       *(x for _, w in L.table for x in w),
                       *restrict_operator(D, der).flatten(),
                       *restrict_operator(D, Subspace.full(n)).flatten(),
                       *induced_operator_on_quotient(D, der).flatten()]
            assert all(type(x) is Fraction for x in outputs)

            def floated(entries):
                out = list(entries)
                k = rng.randrange(len(out))
                out[k] = rng.choice((0.0, 0.5, float(out[k])))
                return out

            floating = tuple(floated(flat))
            with pytest.raises(TypeError, match="as a rational"):
                Matrix.unflatten(floating, n, n)
            d = Matrix.unflatten(tuple(flat), n, n)
            object.__setattr__(d, "entries", tuple(
                floating[i * n:(i + 1) * n] for i in range(n)))
            calls = (lambda: bracket(alg, floated(u), v),
                     lambda: bracket(alg, u, floated(v)),
                     lambda: adjoint_matrix(alg, floated(u)),
                     lambda: leibniz_residual(alg, d),
                     lambda: extend_by_derivation(alg, d),
                     lambda: restrict_operator(d, Subspace.full(n)),
                     lambda: induced_operator_on_quotient(d, der))
            for call in calls:
                with pytest.raises(TypeError):
                    call()
    assert violations >= 10


class TestSeries:
    def test_heisenberg_derived(self):
        der = derived_subalgebra(heisenberg3())
        assert der == Subspace.from_vectors(3, [vec(1, 0, 0)])

    def test_abelian_derived_zero(self):
        assert derived_subalgebra(abelian(4)).dim == 0

    def test_filiform_derived(self):
        der = derived_subalgebra(filiform4())
        assert der == Subspace.from_vectors(
            4, [vec(1, 0, 0, 0), vec(0, 1, 0, 0)])

    def test_heisenberg_series_dims(self):
        h3 = heisenberg3()
        assert [i.dim for i in derived_series(h3)] == [3, 1, 0]
        assert is_solvable(h3) and is_nilpotent(h3)

    def test_abelian_series(self):
        assert [i.dim for i in derived_series(abelian(5))] == [5, 0]

    def test_extension_solvable_not_nilpotent(self):
        # adjoin a generator acting by the nilpotent-plus-scalar form
        d = Matrix.from_rows([[2, 0, 0], [0, 1, 1], [0, 0, 1]])
        ext = extend_by_derivation(heisenberg3(), d)
        assert is_solvable(ext)
        assert not is_nilpotent(ext)
        assert lower_central_series(ext)[-1].dim == 3


class TestCenter:
    def test_heisenberg_center(self):
        assert center(heisenberg3()) == Subspace.from_vectors(
            3, [vec(1, 0, 0)])

    def test_abelian_center_everything(self):
        assert center(abelian(3)).dim == 3

    def test_filiform_center(self):
        assert center(filiform4()) == Subspace.from_vectors(
            4, [vec(1, 0, 0, 0)])

    def test_inner_dimension_count(self):
        for alg in CATALOG:
            inner = Subspace.from_vectors(alg.dim ** 2, [
                adjoint_matrix(alg, alg.basis_vector(i)).flatten()
                for i in range(alg.dim)])
            assert inner.dim == alg.dim - center(alg).dim


class TestAdjoint:
    def test_heisenberg_ad_x2(self):
        h3 = heisenberg3()
        expected = Matrix.zero(3, 3)
        expected = Matrix.from_rows([[0, 0, 1], [0, 0, 0], [0, 0, 0]])
        assert adjoint_matrix(h3, h3.basis_vector(1)) == expected

    def test_central_vector_acts_trivially(self):
        h3 = heisenberg3()
        assert adjoint_matrix(h3, h3.basis_vector(0)).is_zero()

    def test_filiform_restricted_adjoint(self):
        g4 = filiform4()
        restricted = restrict_operator(adjoint_matrix(g4, g4.basis_vector(3)),
                                       derived_subalgebra(g4))
        assert restricted == Matrix.from_rows([[0, -1], [0, 0]])
        assert restricted @ restricted == Matrix.zero(2, 2)


class TestSumsAndQuotients:
    def test_direct_sum_line_plus_heisenberg(self):
        alg = r_plus_heisenberg()
        assert alg.dim == 4
        assert alg.table == ((((1, 2), vec(1, 0, 0, 0))),)

    def test_derived_is_ideal(self):
        for alg in CATALOG:
            der = derived_subalgebra(alg)
            for i in range(alg.dim):
                for w in der.basis:
                    assert der.contains(
                        bracket(alg, alg.basis_vector(i), w))
