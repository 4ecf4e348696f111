"""Derivation spaces, inner derivations, and cohomology transversals."""

import math
import random
from fractions import Fraction

import pytest

from liecodim.classify import catalog
from liecodim.deriv import (
    NotADerivation,
    derivation_space,
    is_outer,
    leibniz_residual,
    leibniz_system,
    project_to_h1,
)
from liecodim.exactla import Matrix, Subspace, nullspace
from liecodim.ext import change_of_basis, extend_by_derivation
from liecodim.liealg import (
    abelian,
    adjoint_matrix,
    derived_subalgebra,
    filiform4,
    heisenberg3,
    induced_operator_on_quotient,
    r_plus_heisenberg,
    center,
    direct_sum,
)

from oracles import leibniz_first_violation, leibniz_rows_dense

F = Fraction


def rational_basis(rng, alg):
    """``alg`` in a seeded basis: the columns of a lower triangular matrix
    with a nonzero diagonal and entries in thirds, so invertible and, on a
    non-abelian algebra, typically giving non-integer structure constants."""
    n = alg.dim
    p = Matrix.from_rows([[
        F(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3)) if i == j
        else F(rng.randint(-2, 2), 3) if i > j else 0
        for j in range(n)] for i in range(n)])
    return change_of_basis(alg, p)


def table_scale(alg):
    """The lcm of the denominators of ``alg``'s structure constants."""
    return math.lcm(*(F(x).denominator for _, v in alg.table for x in v))


def h3_general_derivation(a, b, c, e, f, g) -> Matrix:
    return Matrix.from_rows([[a + b, f, g], [0, a, c], [0, e, b]])


class TestDimensions:
    def test_heisenberg(self):
        sp = derivation_space(heisenberg3())
        assert (sp.dim_full, sp.dim_inner, sp.dim_h1) == (6, 2, 4)

    def test_abelian_full_matrix_space(self):
        sp = derivation_space(abelian(3))
        assert (sp.dim_full, sp.dim_inner, sp.dim_h1) == (9, 0, 9)

    def test_line_plus_heisenberg(self):
        sp = derivation_space(r_plus_heisenberg())
        assert sp.dim_h1 == 8

    def test_filiform(self):
        sp = derivation_space(filiform4())
        assert sp.dim_h1 == 4


class TestShapes:
    def test_heisenberg_general_form(self):
        """Every derivation is [[a+b, f, g], [0, a, c], [0, e, b]]."""
        sp = derivation_space(heisenberg3())
        probes = [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0),
                  (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1),
                  (2, -1, 3, 5, -2, 7)]
        for args in probes:
            m = h3_general_derivation(*map(F, args))
            assert sp.full.contains(m.flatten())
        expected = Subspace.from_vectors(9, [
            h3_general_derivation(*map(F, p)).flatten() for p in probes])
        assert expected == sp.full

    def test_heisenberg_transversal_kills_inner_slots(self):
        """The distinguished representatives zero the (1,2) and (1,3) slots."""
        sp = derivation_space(heisenberg3())
        for m in sp.h1_basis_matrices():
            assert m.entries[0][1] == 0 and m.entries[0][2] == 0

    def test_line_plus_heisenberg_transversal_shape(self):
        sp = derivation_space(r_plus_heisenberg())

        def shaped(a, b, c, e, f, g, h, k):
            z = F(0)
            return Matrix.from_rows([
                [a + b, z, z, k], [z, a, e, z], [z, f, b, z], [z, g, h, c]])

        probes = [tuple(F(x) for x in p) for p in (
            (1, 0, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0, 0),
            (0, 0, 1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0, 0, 0),
            (0, 0, 0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 0, 1, 0, 0),
            (0, 0, 0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 0, 0, 1))]
        expected = Subspace.from_vectors(
            16, [shaped(*p).flatten() for p in probes])
        assert expected == sp.complement

    def test_filiform_transversal_shape(self):
        sp = derivation_space(filiform4())

        def shaped(a, b, c, e):
            z = F(0)
            return Matrix.from_rows([
                [a + 2 * b, z, e, z], [z, a + b, z, z],
                [z, z, a, c], [z, z, z, b]])

        expected = Subspace.from_vectors(16, [
            shaped(F(1), F(0), F(0), F(0)).flatten(),
            shaped(F(0), F(1), F(0), F(0)).flatten(),
            shaped(F(0), F(0), F(1), F(0)).flatten(),
            shaped(F(0), F(0), F(0), F(1)).flatten()])
        assert expected == sp.complement

    def test_inner_space_is_adjoint_span(self):
        h3 = heisenberg3()
        sp = derivation_space(h3)
        assert sp.inner == Subspace.from_vectors(9, [
            adjoint_matrix(h3, h3.basis_vector(1)).flatten(),
            adjoint_matrix(h3, h3.basis_vector(2)).flatten()])

    def test_leibniz_holds_on_full_basis(self):
        for alg in (heisenberg3(), r_plus_heisenberg(), filiform4()):
            sp = derivation_space(alg)
            for v in sp.full.basis:
                assert leibniz_residual(alg, sp.matrix_from_flat(v)) is None


class TestProjection:
    def test_inner_projects_to_zero(self):
        h3 = heisenberg3()
        sp = derivation_space(h3)
        cls = project_to_h1(sp, adjoint_matrix(h3, (F(2), F(-1), F(3))))
        assert cls.is_zero()

    def test_upper_slots_are_quotiented_away(self):
        sp = derivation_space(heisenberg3())
        with_fg = h3_general_derivation(F(1), F(2), F(0), F(0), F(5), F(-7))
        without = h3_general_derivation(F(1), F(2), F(0), F(0), F(0), F(0))
        assert project_to_h1(sp, with_fg) == project_to_h1(sp, without)

    def test_inner_shift_preserves_class(self):
        h3 = heisenberg3()
        sp = derivation_space(h3)
        d = h3_general_derivation(F(1), F(2), F(3), F(0), F(0), F(0))
        shifted = d + adjoint_matrix(h3, h3.basis_vector(1))
        assert project_to_h1(sp, d) == project_to_h1(sp, shifted)

    def test_rejects_non_derivations(self):
        sp = derivation_space(heisenberg3())
        bad = Matrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
        with pytest.raises(NotADerivation):
            project_to_h1(sp, bad)

    def test_projection_linear_and_idempotent(self):
        rng = random.Random(3)
        h3 = heisenberg3()
        sp = derivation_space(h3)
        for _ in range(30):
            args = [F(rng.randint(-4, 4)) for _ in range(6)]
            d = h3_general_derivation(*args)
            rep = project_to_h1(sp, d).representative
            assert project_to_h1(sp, rep).representative == rep
            d2 = h3_general_derivation(*[F(rng.randint(-4, 4))
                                         for _ in range(6)])
            lhs = project_to_h1(sp, d + d2).representative
            rhs = rep + project_to_h1(sp, d2).representative
            assert lhs == rhs

    def test_kernel_is_exactly_inner(self):
        h3 = heisenberg3()
        sp = derivation_space(h3)
        rng = random.Random(5)
        for _ in range(20):
            u = tuple(F(rng.randint(-3, 3)) for _ in range(3))
            assert project_to_h1(sp, adjoint_matrix(h3, u)).is_zero()
        d = Matrix.diagonal([2, 1, 1])
        assert not project_to_h1(sp, d).is_zero()


class TestLeibnizResidual:
    def test_first_violation_matches_dense_oracle(self):
        """On seeded int and Fraction matrices, derivations and not, of every
        catalog base K, of K + R, of extensions of K by seeded derivations
        and, for a non-abelian K, of K in a seeded rational basis (so the
        table's denominators matter, and K's own blocks would give other
        residuals), the first violating pair and its residual are those of
        a dense expansion visiting the pairs in the same order."""
        rng = random.Random(12)
        basis_rng = random.Random(30)
        seen = {"derivation": 0, "violation": 0}

        def seeded(sp, integral, changes):
            n = sp.algebra.dim
            flat = [F(0)] * n * n
            for b in sp.full.basis:
                c = rng.randint(-2, 2)
                flat = [x + c * y for x, y in zip(flat, b)]
            if integral:
                scale = math.lcm(*(x.denominator for x in flat))
                flat = [int(x * scale) for x in flat]
            for _ in range(changes):
                step = rng.randint(1, 3)
                flat[rng.randrange(n * n)] += \
                    step if integral else F(step, rng.randint(1, 2))
            return Matrix.unflatten(tuple(flat), n, n)

        for entry in catalog().values():
            base = entry.algebra
            extensions = [extend_by_derivation(
                base, seeded(derivation_space(base), False, 0)) for _ in range(2)]
            moved = [rational_basis(basis_rng, base)] if base.table else []
            assert all(table_scale(alg) > 1 for alg in moved), base.name
            for alg in ([base, direct_sum(base, abelian(1))] + extensions
                        + moved):
                sp = derivation_space(alg)
                n = alg.dim
                table = {ij: list(v) for ij, v in alg.table}
                violations = 0
                for trial in range(12):
                    d = seeded(sp, trial % 2, rng.choice((0, 1, 1, 2, 3)))
                    expected = leibniz_first_violation(
                        n, table, [list(row) for row in d.entries])
                    got = leibniz_residual(alg, d)
                    if expected is None:
                        assert got is None
                        seen["derivation"] += 1
                        continue
                    violations += 1
                    seen["violation"] += 1
                    assert got == (expected[0], tuple(expected[1]))
                    assert all(type(x) is Fraction for x in got[1])
                if alg.table:
                    assert violations > 0, alg.name
                with pytest.raises(ValueError):
                    leibniz_residual(alg, Matrix.zero(n, n + 1))
        assert min(seen.values()) >= 50, seen


    def test_integer_leibniz_rows_keep_the_derivation_spaces(self):
        """For every catalog base K, K + R and K in a seeded rational basis
        (non-integer structure constants on the non-abelian bases), the
        Leibniz system is s times the dense Fraction system, s the lcm of
        the table's denominators, so it keeps its kernel, and the full,
        inner and complement bases of ``derivation_space`` are the ones
        that kernel gives."""
        rng = random.Random(28)
        algebras = []
        for entry in catalog().values():
            base = entry.algebra
            algebras += [base, direct_sum(base, abelian(1)),
                         rational_basis(rng, base)]
        fractional = 0
        for alg in algebras:
            n = alg.dim
            s = table_scale(alg)
            fractional += s > 1
            dense = leibniz_rows_dense(n, dict(alg.table)) \
                or [[F(0)] * (n * n)]
            system = leibniz_system(alg)
            assert system.entries == tuple(tuple(s * x for x in row)
                                           for row in dense)
            assert all(type(x) is int for row in system.entries for x in row)
            full = nullspace(Matrix.from_rows(dense))
            inner = Subspace.from_vectors(n * n, [
                adjoint_matrix(alg, alg.basis_vector(i)).flatten()
                for i in range(n)])
            sp = derivation_space(alg)
            assert sp.full.basis == full.basis
            assert sp.inner.basis == inner.basis
            assert sp.complement.basis == Subspace.from_vectors(
                n * n, [inner.reduce(v) for v in full.basis]).basis
        assert fractional >= 3


class TestOuter:
    def test_adjoint_is_not_outer(self):
        h3 = heisenberg3()
        sp = derivation_space(h3)
        assert not is_outer(sp, adjoint_matrix(h3, h3.basis_vector(2)))

    def test_diagonal_derivation_is_outer(self):
        sp = derivation_space(heisenberg3())
        assert is_outer(sp, Matrix.diagonal([2, 1, 1]))

    def test_zero_is_not_outer(self):
        sp = derivation_space(heisenberg3())
        assert not is_outer(sp, Matrix.zero(3, 3))


class TestInducedMaps:
    def test_heisenberg_quotient_block(self):
        h3 = heisenberg3()
        d = h3_general_derivation(F(1), F(2), F(3), F(4), F(0), F(0))
        induced = induced_operator_on_quotient(d, derived_subalgebra(h3))
        assert induced == Matrix.from_rows([[1, 3], [4, 2]])

    def test_identity_induces_identity(self):
        h3 = heisenberg3()
        induced = induced_operator_on_quotient(
            Matrix.identity(3), derived_subalgebra(h3))
        assert induced == Matrix.identity(2)

    def test_double_extension_induced_map(self):
        """The z-action on (R*y + Heisenberg)/[H,H] has a zero tail row."""
        k = r_plus_heisenberg()
        a, b, c, e, h = F(1), F(-1), F(2), F(3), F(5)
        d = Matrix.from_rows([
            [a + b, 0, 0, h], [0, a, c, 0], [0, e, b, 0], [0, 0, 0, 0]])
        der_h_in_k = derived_subalgebra(k)  # [H, H] = span{x_1}
        assert der_h_in_k == Subspace.from_vectors(4, [(F(1), F(0), F(0), F(0))])
        induced = induced_operator_on_quotient(d, der_h_in_k)
        assert induced == Matrix.from_rows(
            [[a, c, 0], [e, b, 0], [0, 0, 0]])

    def test_derived_always_invariant(self):
        rng = random.Random(9)
        for alg in (heisenberg3(), r_plus_heisenberg(), filiform4()):
            sp = derivation_space(alg)
            der = derived_subalgebra(alg)
            for _ in range(20):
                coeffs = [F(rng.randint(-3, 3)) for _ in sp.full.basis]
                flat = [F(0)] * alg.dim ** 2
                for cf, basis_vec in zip(coeffs, sp.full.basis):
                    for i, x in enumerate(basis_vec):
                        flat[i] += cf * x
                d = sp.matrix_from_flat(tuple(flat))
                assert all(der.contains(d.apply(b)) for b in der.basis)

    def test_commutator_closure(self):
        for alg in (heisenberg3(), filiform4()):
            sp = derivation_space(alg)
            mats = [sp.matrix_from_flat(v) for v in sp.full.basis]
            for i, d1 in enumerate(mats):
                for d2 in mats[i + 1:]:
                    assert leibniz_residual(alg, d1 @ d2 - d2 @ d1) is None

    def test_inner_dim_matches_center(self):
        for alg in (heisenberg3(), r_plus_heisenberg(), filiform4(),
                    abelian(3)):
            sp = derivation_space(alg)
            assert sp.dim_inner == alg.dim - center(alg).dim
