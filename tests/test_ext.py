"""Extensions, membership conditions, decomposability, witnesses."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from liecodim.classify import catalog
from liecodim.deriv import NotADerivation, derivation_space, leibniz_system
from liecodim.exactla import Matrix, NotInvertible, Subspace, nullspace
from liecodim import ext
from liecodim.ext import (
    IdentityFails,
    LieCSpec,
    NotAutomorphism,
    PreconditionViolated,
    assemble_extension_witness,
    build_double_extension,
    change_of_basis,
    check_codim1_condition,
    check_codim2_condition,
    decompose_inner_extension,
    double_extension_matrix,
    extend_by_derivation,
    is_decomposable_double,
    lie_c_iso_check,
    verify_iso_witness_full,
    verify_weak_similarity_witness,
    witness_from_triple,
)
from liecodim.liealg import (
    JacobiViolation,
    LieAlgebra,
    abelian,
    adjoint_matrix,
    bracket,
    center,
    derived_subalgebra,
    direct_sum,
    filiform4,
    heisenberg3,
    make_algebra,
    product_space,
    r_plus_heisenberg,
)

from oracles import (bracket_basis_scan, dense_matmul, dense_rref,
                     jacobi_first_violation, leibniz_first_violation,
                     rank_elimination)

F = Fraction


def vec(*xs):
    return tuple(F(x) for x in xs)


def rp_shape(a, b, c, e, f, g, h, k):
    z = F(0)
    return Matrix.from_rows([
        [a + b, z, z, k], [z, a, e, z], [z, f, b, z], [z, g, h, c]])


def combined_derivation(sp, coeffs):
    """The combination of the derivation basis with ``coeffs``."""
    flat = [F(0)] * sp.algebra.dim ** 2
    for b, c in zip(sp.full.basis, coeffs, strict=True):
        for i, x in enumerate(b):
            flat[i] += c * x
    return sp.matrix_from_flat(tuple(flat))


def random_derivation(rng, sp):
    """A combination of the derivation basis with coefficients in [-2, 2]."""
    return combined_derivation(sp, [F(rng.randint(-2, 2))
                                    for _ in sp.full.basis])


def fraction_coefficient(rng):
    """A rational in [-2, 2] with denominator 2, 3 or 5, mostly not an
    integer."""
    q = rng.choice((2, 3, 5))
    return F(rng.randint(-2 * q, 2 * q), q)


def fraction_derivation(rng, sp, zeros=0.0):
    """A combination of the derivation basis with ``fraction_coefficient``
    coefficients, each left out with probability ``zeros``."""
    return combined_derivation(sp, [
        F(0) if rng.random() < zeros else fraction_coefficient(rng)
        for _ in sp.full.basis])


class TestExtendByDerivation:
    def test_abelian_with_diagonal(self):
        d = Matrix.diagonal([1, 1, F(1, 2)])
        ext = extend_by_derivation(abelian(3), d)
        assert ext.dim == 4
        assert check_codim1_condition(abelian(3), d).member

    def test_zero_derivation_gives_direct_sum(self):
        ext = extend_by_derivation(heisenberg3(), Matrix.zero(3, 3))
        assert ext.table == direct_sum(heisenberg3(), abelian(1)).table

    def test_named_family_brackets(self):
        ext = extend_by_derivation(heisenberg3(), Matrix.diagonal([2, 1, 1]))
        # [x4, x1] = 2 x1, [x4, x2] = x2, [x4, x3] = x3 (stored as i < j)
        assert ext.bracket_basis(0, 3) == vec(-2, 0, 0, 0)
        assert ext.bracket_basis(1, 3) == vec(0, -1, 0, 0)
        assert ext.bracket_basis(2, 3) == vec(0, 0, -1, 0)
        assert ext.bracket_basis(1, 2) == vec(1, 0, 0, 0)

    def test_rejects_non_derivation(self):
        with pytest.raises(NotADerivation):
            extend_by_derivation(
                heisenberg3(),
                Matrix.from_rows([[0, 0, 0], [1, 0, 0], [0, 0, 0]]))


class TestAgainstOracles:
    """The indexed table and the Jacobi check of an extension by parts,
    each against a brute-force oracle."""

    def test_bracket_basis_matches_linear_scan(self):
        """On every catalog base K, K + R and extensions of K by seeded
        derivations."""
        rng = random.Random(41)
        for entry in catalog().values():
            base = entry.algebra
            sp = derivation_space(base)
            for alg in (base, direct_sum(base, abelian(1)),
                        extend_by_derivation(base, random_derivation(rng, sp))):
                n = alg.dim
                for i, j in itertools.product(range(n), repeat=2):
                    got = alg.bracket_basis(i, j)
                    assert list(got) == bracket_basis_scan(alg.table, n, i, j)
                    assert all(type(x) is Fraction for x in got)
                assert alg.zero_vector() == (0,) * n
                assert [alg.basis_vector(i) for i in range(n)] \
                    == [tuple(int(k == i) for k in range(n)) for i in range(n)]
                # The index takes no part in equality, hashing or repr.
                twin = LieAlgebra(n, alg.table, alg.name)
                assert twin == alg and hash(twin) == hash(alg)
                assert "_brackets" not in repr(alg)

    def test_extension_of_a_broken_base_fails_as_the_full_check_does(self):
        """On seeded tables loaded with skip_jacobi and seeded int or
        Fraction matrices, extending by a non-derivation raises the dense
        oracle's first Leibniz failure, and extending by a derivation raises
        the first failing triple of the whole extension, with its residual,
        or builds the table that make_algebra validates on every triple."""
        rng = random.Random(43)
        seen = {"not_derivation": 0, "violation": 0, "holds": 0}
        for _ in range(150):
            n = rng.randint(3, 5)
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            brackets = {
                pair: {t: rng.choice((-2, -1, 1, 3))
                       for t in rng.sample(range(1, n + 1), rng.randint(1, 2))}
                for pair in rng.sample(pairs, rng.randint(1, 3))}
            K = make_algebra(n, brackets, skip_jacobi=True)
            flat = [F(0)] * n * n
            for b in nullspace(leibniz_system(K)).basis:
                c = rng.randint(-2, 2)
                flat = [x + c * y for x, y in zip(flat, b)]
            if rng.random() < 0.5:
                scale = math.lcm(*(x.denominator for x in flat))
                flat = [int(x * scale) for x in flat]
            if rng.random() < 0.3:
                flat[rng.randrange(n * n)] += rng.randint(1, 3)
            rows = [flat[i * n:(i + 1) * n] for i in range(n)]
            d = Matrix.unflatten(tuple(flat), n, n)
            violation = leibniz_first_violation(
                n, {ij: list(v) for ij, v in K.table}, rows)
            if violation is not None:
                with pytest.raises(NotADerivation) as err:
                    extend_by_derivation(K, d)
                assert (err.value.pair, list(err.value.residual)) == violation
                seen["not_derivation"] += 1
                continue
            whole = dict(brackets)
            for j in range(n):
                column = {k + 1: -F(rows[k][j]) for k in range(n) if rows[k][j]}
                if column:
                    whole[(j + 1, n + 1)] = column
            expected = jacobi_first_violation(whole, n + 1)
            if expected is None:
                assert extend_by_derivation(K, d) == make_algebra(n + 1, whole)
                seen["holds"] += 1
                continue
            with pytest.raises(JacobiViolation) as err:
                extend_by_derivation(K, d)
            assert err.value.triple == expected[0]
            assert list(err.value.residual) == expected[1]
            assert all(type(x) is Fraction for x in err.value.residual)
            seen["violation"] += 1
        assert min(seen.values()) >= 20, seen


class TestCodimOneCondition:
    def test_heisenberg_invertible_block(self):
        d = Matrix.from_rows([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
        verdict = check_codim1_condition(heisenberg3(), d)
        assert verdict.member
        assert verdict.lower_block_rank == 2

    def test_inner_derivations_never_members(self):
        h3 = heisenberg3()
        rng = random.Random(1)
        for _ in range(20):
            u = tuple(F(rng.randint(-3, 3)) for _ in range(3))
            verdict = check_codim1_condition(h3, adjoint_matrix(h3, u))
            assert not verdict.member

    def test_abelian_reads_invertibility(self):
        assert check_codim1_condition(
            abelian(3), Matrix.diagonal([1, 2, 3])).member
        assert not check_codim1_condition(
            abelian(3), Matrix.diagonal([1, 2, 0])).member

    def test_derived_algebra_identity(self):
        """The derived algebra of the extension is d(K) + [K, K]."""
        rng = random.Random(4)
        for alg in (heisenberg3(), r_plus_heisenberg(), filiform4(),
                    abelian(3)):
            sp = derivation_space(alg)
            for _ in range(15):
                d = random_derivation(rng, sp)
                ext = extend_by_derivation(alg, d)
                der_ext = derived_subalgebra(ext)
                expected = Subspace.from_vectors(alg.dim, [
                    d.column(j) for j in range(alg.dim)] + list(
                        derived_subalgebra(alg).basis))
                padded = Subspace.from_vectors(ext.dim, [
                    v + (F(0),) for v in expected.basis])
                assert der_ext == padded

    def test_derived_algebra_misses_the_new_generator(self):
        """[L, L] <= K by construction: every derived basis vector has a
        zero y coordinate, for each catalog base K and for K + R."""
        rng = random.Random(5)
        for entry in catalog().values():
            for alg in (entry.algebra, direct_sum(entry.algebra, abelian(1))):
                sp = derivation_space(alg)
                for _ in range(10):
                    ext = extend_by_derivation(alg, random_derivation(rng, sp))
                    assert all(v[-1] == 0
                               for v in derived_subalgebra(ext).basis)

    def test_derived_algebra_is_the_span_of_the_table(self):
        """derived_subalgebra, the span of the table's brackets, is the
        span of all brackets of basis vectors."""
        rng = random.Random(6)
        for entry in catalog().values():
            for alg in (entry.algebra, direct_sum(entry.algebra, abelian(1))):
                sp = derivation_space(alg)
                exts = [extend_by_derivation(alg, random_derivation(rng, sp))
                        for _ in range(5)]
                for L in [alg] + exts:
                    full = Subspace.full(L.dim)
                    assert derived_subalgebra(L) \
                        == product_space(L, full, full)

    def test_verdicts_match_independent_oracles(self):
        """On every catalog base K, and K in a seeded basis where the echelon
        basis of [K, K] has non-integer entries, with seeded derivations
        with non-integer entries (dense, sparse and so often singular on
        K/[K, K], and inner): ``member`` says whether the derived algebra
        of the extension is K, and ``lower_block_rank`` is the rank, by
        plain elimination, of the rows of P^-1 d P below [K, K], P the
        basis [K, K] + complement units multiplied out densely."""
        rng = random.Random(29)
        bases = []
        for entry in catalog().values():
            K = entry.algebra
            bases.append(K)
            while K.table:  # [K, K] = 0 in every basis of an abelian K
                q = Matrix.from_rows([[rng.randint(-2, 2) for _ in range(K.dim)]
                                      for _ in range(K.dim)])
                if q.det() == 0:
                    continue
                moved = change_of_basis(K, q)
                if any(x.denominator > 1 for v in
                       derived_subalgebra(moved).basis for x in v):
                    bases.append(moved)
                    break
        for K in bases:
            n = K.dim
            sp = derivation_space(K)
            der = derived_subalgebra(K)
            m = der.dim
            cols = list(der.basis) + [
                K.basis_vector(i) for i in range(n)
                if i not in der.pivots]
            p = [[c[i] for c in cols] for i in range(n)]
            reduced, _ = dense_rref(
                [row + [F(int(i == j)) for j in range(n)]
                 for i, row in enumerate(p)])
            p_inv = [row[n:] for row in reduced]
            members = nonmembers = singular = 0
            for k in range(60):
                if k % 3 == 0:
                    d = fraction_derivation(rng, sp)
                elif k % 3 == 1:
                    d = fraction_derivation(rng, sp, zeros=0.6)
                else:
                    u = tuple(fraction_coefficient(rng) for _ in range(n))
                    d = adjoint_matrix(K, u)
                verdict = check_codim1_condition(K, d)
                L = extend_by_derivation(K, d)
                assert verdict.member == (derived_subalgebra(L).dim == n)
                adapted = dense_matmul(dense_matmul(p_inv, d.entries), p)
                assert verdict.lower_block_rank == rank_elimination(adapted[m:])
                assert verdict.lower_block_full == verdict.member
                assert verdict.quotient_invertible == verdict.member
                members += verdict.member
                nonmembers += not verdict.member
                singular += not verdict.member and k % 3 != 2
            assert members >= 10 and nonmembers >= 10 and singular >= 1

    def test_member_extension_has_full_codim_one(self):
        d = Matrix.diagonal([2, 1, 1])
        ext = extend_by_derivation(heisenberg3(), d)
        assert derived_subalgebra(ext).dim == ext.dim - 1


class TestDoubleExtension:
    def test_tail_chain_member(self):
        h = abelian(2)
        d_on_h = Matrix.from_rows([[1, 0], [0, 0]])
        zy = vec(0, 1)
        ext = build_double_extension(h, Matrix.zero(2, 2), d_on_h, zy)
        assert ext.dim == 4
        d_full = double_extension_matrix(h, d_on_h, zy)
        assert check_codim2_condition(h, Matrix.zero(2, 2), d_full).member

    def test_trivial_double_extension(self):
        h = heisenberg3()
        ext = build_double_extension(
            h, Matrix.zero(3, 3), Matrix.zero(3, 3), vec(0, 0, 0))
        # only the Heisenberg bracket survives: a direct sum with a plane
        assert ext.table == direct_sum(h, abelian(2)).table

    def test_heisenberg_indecomposable_form(self):
        h = heisenberg3()
        d_on_h = Matrix.diagonal([0, 1, -1])
        ext = build_double_extension(h, Matrix.zero(3, 3), d_on_h, vec(1, 0, 0))
        assert ext.dim == 5
        d_full = double_extension_matrix(h, d_on_h, vec(1, 0, 0))
        assert check_codim2_condition(h, Matrix.zero(3, 3), d_full).member

    def test_inner_pair_is_never_member(self):
        h = heisenberg3()
        d_prime = adjoint_matrix(h, h.basis_vector(1))
        k = extend_by_derivation(h, d_prime)
        u = vec(0, 1, 1, 0)
        d_full = adjoint_matrix(k, u)
        assert all(d_full.entries[3][j] == 0 for j in range(4))
        verdict = check_codim2_condition(
            h, d_prime, d_full)
        assert not verdict.member

    def test_membership_rank_two_examples(self):
        h = abelian(2)
        good = double_extension_matrix(
            h, Matrix.from_rows([[1, 0], [0, 0]]), vec(0, 1))
        assert check_codim2_condition(h, Matrix.zero(2, 2), good).member
        bad = double_extension_matrix(
            h, Matrix.from_rows([[1, 0], [0, 0]]), vec(1, 0))
        assert not check_codim2_condition(h, Matrix.zero(2, 2), bad).member


    def test_bad_d_prime_raises_on_every_call(self):
        h = heisenberg3()
        not_a_derivation = Matrix.identity(3)
        d_full = double_extension_matrix(h, Matrix.zero(3, 3), vec(0, 0, 0))
        for _ in range(3):
            with pytest.raises(NotADerivation):
                check_codim2_condition(h, not_a_derivation, d_full)

    def test_cached_verdicts_match_the_uncached_path(self):
        """Verdicts on a warm base cache equal those after clearing it, and
        both say whether [L, L] of the double extension is all of H, on
        inputs with non-integer entries."""
        rng = random.Random(23)
        verdicts = set()
        for h in (abelian(2), abelian(3), heisenberg3(), filiform4(),
                  r_plus_heisenberg()):
            n = h.dim
            sp = derivation_space(h)
            center_basis = center(h).basis
            for _ in range(12):
                if rng.random() < 0.5:
                    # d' = 0: z acts on H by a derivation, [z, y] central
                    d_prime = Matrix.zero(n, n)
                    zy = [F(0)] * n
                    for b in center_basis:
                        c = fraction_coefficient(rng)
                        zy = [x + c * y for x, y in zip(zy, b)]
                    d_full = double_extension_matrix(
                        h, fraction_derivation(rng, sp, zeros=0.3), tuple(zy))
                else:
                    # z acts as ad_u, u in H, on K = R*y + H by d'
                    d_prime = fraction_derivation(rng, sp, zeros=0.3)
                    u = tuple(fraction_coefficient(rng)
                              for _ in range(n)) + (F(0),)
                    d_full = adjoint_matrix(extend_by_derivation(h, d_prime), u)
                warm = [check_codim2_condition(h, d_prime, d_full)
                        for _ in range(2)]
                ext._codim2_base.cache_clear()
                cold = check_codim2_condition(h, d_prime, d_full)
                d_on_h = d_full.submatrix(range(n), range(n))
                built = build_double_extension(h, d_prime, d_on_h,
                                               d_full.column(n)[:n])
                assert warm == [cold, cold]
                assert cold.member == (derived_subalgebra(built).dim == n)
                verdicts.add(cold.member)
        assert verdicts == {True, False}

    def test_membership_checks_reject_forged_floats(self):
        """One float entry, zero or not, forged past the constructor into
        the matrix makes both membership checks raise TypeError, on every
        catalog base, the abelian ones included."""
        rng = random.Random(31)
        for entry in catalog().values():
            h = entry.algebra
            n = h.dim
            sp = derivation_space(h)
            for _ in range(4):
                d = fraction_derivation(rng, sp)
                d_full = double_extension_matrix(
                    h, fraction_derivation(rng, sp), (F(0),) * n)
                checks = ((d, lambda m: check_codim1_condition(h, m)),
                          (d_full, lambda m: check_codim2_condition(
                              h, Matrix.zero(n, n), m)))
                for m, check in checks:
                    rows = [list(row) for row in m.entries]
                    i, j = rng.randrange(m.rows), rng.randrange(m.cols)
                    rows[i][j] = rng.choice((0.0, 0.5, float(rows[i][j])))
                    object.__setattr__(m, "entries", tuple(map(tuple, rows)))
                    with pytest.raises(TypeError):
                        check(m)


class TestDecomposability:
    def test_abelian_nonsingular_decomposable(self):
        h = abelian(3)
        d_full = double_extension_matrix(
            h, Matrix.diagonal([1, 2, 3]), vec(0, 0, 1))
        cert = is_decomposable_double(h, d_full)
        assert cert.decomposable
        assert cert.center_preimage is not None

    def test_heisenberg_offdiagonal_indecomposable(self):
        h = heisenberg3()
        d_full = double_extension_matrix(
            h, Matrix.diagonal([0, 1, -1]), vec(1, 0, 0))
        assert not is_decomposable_double(h, d_full).decomposable

    def test_zero_bracket_always_decomposable(self):
        h = heisenberg3()
        d_full = double_extension_matrix(
            h, Matrix.diagonal([0, 1, -1]), vec(0, 0, 0))
        assert is_decomposable_double(h, d_full).decomposable

    def test_abelian_agreement_suite(self):
        rng = random.Random(17)
        for n in (2, 3):
            h = abelian(n)
            for _ in range(200):
                d_on_h = Matrix.from_rows(
                    [[F(rng.randint(-3, 3)) for _ in range(n)]
                     for _ in range(n)])
                zy = tuple(F(rng.randint(-3, 3)) for _ in range(n))
                d_full = double_extension_matrix(h, d_on_h, zy)
                cert = is_decomposable_double(h, d_full)
                if d_full.rank() == n:
                    assert cert.decomposable == (d_on_h.det() != 0)

    def test_cached_centre_gives_the_certificates_of_a_fresh_one(
            self, monkeypatch):
        """Bases of one dimension with different centres (R^3, h3 and h3
        in a seeded basis), called in alternation with the centre cached,
        get the certificates of a centre recomputed on every call."""
        rng = random.Random(28)
        p = Matrix.from_rows([[2, F(1, 2), 0], [0, 1, F(-1, 3)], [1, 0, 1]])
        bases = [abelian(3), heisenberg3(), change_of_basis(heisenberg3(), p)]
        assert len({center(h) for h in bases}) == 3
        calls = [(bases[k % 3], double_extension_matrix(
            bases[k % 3],
            Matrix.from_rows([[F(rng.randint(-2, 2), rng.randint(1, 2))
                               for _ in range(3)] for _ in range(3)]),
            tuple(F(rng.choice((0, rng.randint(-2, 2)))) for _ in range(3))))
            for k in range(90)]
        cached = [is_decomposable_double(h, d) for h, d in calls]
        monkeypatch.setattr(ext, "_decomposable_base",
                            lambda h: center(h).basis)
        assert cached == [is_decomposable_double(h, d) for h, d in calls]
        assert {c.decomposable for c in cached} == {True, False}
        assert any(c.center_preimage is not None and any(c.center_preimage)
                   for c in cached)

    def test_nonzero_y_row_rejected(self):
        h = abelian(2)
        d_full = Matrix.from_rows([[1, 0, 0], [0, 1, 1], [0, 1, 0]])
        with pytest.raises(ValueError, match="into H"):
            is_decomposable_double(h, d_full)


class TestFullWitness:
    def test_identity(self):
        h3 = heisenberg3()
        assert verify_iso_witness_full(h3, h3, Matrix.identity(3))

    def test_singular_rejected(self):
        h3 = heisenberg3()
        with pytest.raises(NotInvertible):
            verify_iso_witness_full(h3, h3, Matrix.zero(3, 3))

    def test_sign_flip_relating_parameter_signs(self):
        """diag(-1,-1,1,1,-1) carries the rotation-pair family at (lam, c)
        onto the one at (-lam, -c)."""
        base = r_plus_heisenberg()
        lam, c = F(2), F(3)
        d1 = rp_shape(lam, lam, c, F(1), F(-1), F(0), F(0), F(0))
        d2 = rp_shape(-lam, -lam, -c, F(1), F(-1), F(0), F(0), F(0))
        l1 = extend_by_derivation(base, d1)
        l2 = extend_by_derivation(base, d2)
        t = Matrix.diagonal([-1, -1, 1, 1, -1])
        assert verify_iso_witness_full(l1, l2, t)

    def test_wrong_target_fails(self):
        base = r_plus_heisenberg()
        d1 = rp_shape(F(2), F(2), F(3), F(1), F(-1), F(0), F(0), F(0))
        d2 = rp_shape(F(2), F(2), F(5), F(1), F(-1), F(0), F(0), F(0))
        l1 = extend_by_derivation(base, d1)
        l2 = extend_by_derivation(base, d2)
        t = Matrix.diagonal([-1, -1, 1, 1, -1])
        assert not verify_iso_witness_full(l1, l2, t)


class TestTripleWitness:
    def test_inner_shift(self):
        h3 = heisenberg3()
        d2 = Matrix.diagonal([2, 1, 1])
        u = vec(0, 1, -2)
        d1 = d2 + adjoint_matrix(h3, u)
        t, ok = witness_from_triple(
            h3, d1, d2, Matrix.identity(3), F(1), u)
        assert ok
        assert t == assemble_extension_witness(Matrix.identity(3), F(1), u)

    def test_reciprocal_parameter_fold(self):
        """sigma = (pair rotation) + tail scaling links the diagonal family
        at (alpha, beta) with the one at (1/alpha, beta/alpha)."""
        base = r_plus_heisenberg()
        alpha, beta = F(2), F(3)
        d1 = rp_shape(F(1), alpha, beta, 0, 0, 0, 0, 0)
        d2 = rp_shape(F(1), 1 / alpha, beta / alpha, 0, 0, 0, 0, 0)
        sigma = Matrix.from_rows([
            [1, 0, 0, 0],
            [0, 0, -1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1 / alpha]])
        t, ok = witness_from_triple(base, d1, d2, sigma, alpha, vec(0, 0, 0, 0))
        assert ok
        l1 = extend_by_derivation(base, d1)
        l2 = extend_by_derivation(base, d2)
        assert verify_iso_witness_full(l1, l2, t)

    def test_identity_failure_reported(self):
        h3 = heisenberg3()
        d1 = Matrix.diagonal([2, 1, 1])
        d2 = Matrix.diagonal([3, 2, 1])
        with pytest.raises(IdentityFails):
            witness_from_triple(h3, d1, d2, Matrix.identity(3), F(1),
                                vec(0, 0, 0))

    def test_non_automorphism_rejected(self):
        h3 = heisenberg3()
        sigma = Matrix.diagonal([1, 1, 2])  # det scaling breaks the bracket
        with pytest.raises(NotAutomorphism):
            witness_from_triple(h3, Matrix.diagonal([2, 1, 1]),
                                Matrix.diagonal([2, 1, 1]), sigma, F(1),
                                vec(0, 0, 0))


class TestInnerExtensionCollapse:
    def test_basis_change_reaches_direct_sum(self):
        rng = random.Random(31)
        for alg in (heisenberg3(), r_plus_heisenberg(), filiform4()):
            for _ in range(10):
                u = tuple(F(rng.randint(-3, 3)) for _ in range(alg.dim))
                rewritten, split = decompose_inner_extension(alg, u)
                assert rewritten.table == split.table


class TestWeakSimilarity:
    def test_identity_pair(self):
        a = Matrix.diagonal([1, 2])
        b = Matrix.from_rows([[0, 1], [0, 0]])
        assert verify_weak_similarity_witness(
            (a, b), (a, b), Matrix.identity(2), Matrix.identity(2))

    def test_generate_then_verify(self):
        rng = random.Random(41)
        for _ in range(20):
            n = rng.choice([2, 3])
            a = Matrix.from_rows([[F(rng.randint(-3, 3)) for _ in range(n)]
                                  for _ in range(n)])
            b = Matrix.from_rows([[F(rng.randint(-3, 3)) for _ in range(n)]
                                  for _ in range(n)])
            while True:
                s = Matrix.from_rows([[F(rng.randint(-2, 2))
                                       for _ in range(n)] for _ in range(n)])
                if s.det() != 0:
                    break
            while True:
                coeffs = Matrix.from_rows(
                    [[F(rng.randint(-2, 2)) for _ in range(2)]
                     for _ in range(2)])
                if coeffs.det() != 0:
                    break
            al, be = coeffs.entries[0]
            ga, de = coeffs.entries[1]
            s_inv = s.inverse()
            pair2 = (s_inv @ (a.scale(al) + b.scale(be)) @ s,
                     s_inv @ (a.scale(ga) + b.scale(de)) @ s)
            assert verify_weak_similarity_witness((a, b), pair2, s, coeffs)

    def test_requires_invertible_components(self):
        a = Matrix.diagonal([1, 2])
        with pytest.raises(NotInvertible):
            verify_weak_similarity_witness(
                (a, a), (a, a), Matrix.zero(2, 2), Matrix.identity(2))


def _commuting_outer_pair(rng, n):
    """A random commuting, non-proportional matrix pair spanning R^n."""
    while True:
        d = Matrix.from_rows([[F(rng.randint(-2, 2)) for _ in range(n)]
                              for _ in range(n)])
        c0, c1 = F(rng.randint(-2, 2)), F(rng.randint(1, 2))
        d_prime = Matrix.identity(n).scale(c0) + d.scale(c1) @ d
        span = Subspace.from_vectors(
            n * n, [d.flatten(), d_prime.flatten()])
        cover = Subspace.from_vectors(n, [d.column(j) for j in range(n)]
                                      + [d_prime.column(j) for j in range(n)])
        if (span.dim == 2 and cover.dim == n
                and not d.is_zero() and not d_prime.is_zero()):
            return d, d_prime


class TestPairExtensionIso:
    def test_identity_witness(self):
        rng = random.Random(53)
        d, d_prime = _commuting_outer_pair(rng, 2)
        spec = LieCSpec(2, d, d_prime)
        assert lie_c_iso_check(spec, spec, Matrix.identity(2),
                               Matrix.identity(2))

    def test_scaled_pair(self):
        rng = random.Random(59)
        d, d_prime = _commuting_outer_pair(rng, 3)
        spec1 = LieCSpec(3, d.scale(2), d_prime.scale(2))
        spec2 = LieCSpec(3, d, d_prime)
        coeffs = Matrix.identity(2).scale(2)
        assert lie_c_iso_check(spec1, spec2, Matrix.identity(3), coeffs)

    def test_generate_then_verify(self):
        rng = random.Random(61)
        for _ in range(10):
            n = rng.choice([2, 3])
            d2, d2_prime = _commuting_outer_pair(rng, n)
            while True:
                s = Matrix.from_rows([[F(rng.randint(-2, 2))
                                       for _ in range(n)] for _ in range(n)])
                if s.det() != 0:
                    break
            while True:
                coeffs = Matrix.from_rows(
                    [[F(rng.randint(-2, 2)) for _ in range(2)]
                     for _ in range(2)])
                al, be = coeffs.entries[0]
                ga, de = coeffs.entries[1]
                if coeffs.det() != 0 and be != 0 and ga != 0:
                    break
            s_inv = s.inverse()
            spec1 = LieCSpec(n, s_inv @ (d2.scale(al) + d2_prime.scale(be)) @ s,
                             s_inv @ (d2.scale(ga) + d2_prime.scale(de)) @ s)
            spec2 = LieCSpec(n, d2, d2_prime)
            assert lie_c_iso_check(spec1, spec2, s, coeffs)

    def test_proportional_pair_rejected(self):
        d = Matrix.diagonal([1, 2])
        with pytest.raises(PreconditionViolated):
            LieCSpec(2, d, d.scale(3)).build()
        with pytest.raises(PreconditionViolated):
            lie_c_iso_check(LieCSpec(2, d, Matrix.from_rows([[0, 1], [0, 0]])),
                            LieCSpec(2, d, d.scale(3)),
                            Matrix.identity(2), Matrix.identity(2))

    def test_noncommuting_pair_rejected(self):
        a = Matrix.from_rows([[0, 1], [0, 0]])
        b = Matrix.from_rows([[0, 0], [1, 0]])
        with pytest.raises(PreconditionViolated):
            LieCSpec(2, a, b)

    def test_non_2x2_coefficients_rejected(self):
        # Both witness checks reject a malformed coefficient matrix alike.
        rng = random.Random(67)
        d, d_prime = _commuting_outer_pair(rng, 2)
        spec = LieCSpec(2, d, d_prime)
        with pytest.raises(ValueError, match="2x2"):
            lie_c_iso_check(spec, spec, Matrix.identity(2), Matrix.identity(3))
        with pytest.raises(ValueError, match="2x2"):
            verify_weak_similarity_witness((d, d_prime), (d, d_prime),
                                           Matrix.identity(2),
                                           Matrix.identity(3))

    def test_singular_witness_components_rejected(self):
        rng = random.Random(71)
        spec = LieCSpec(2, *_commuting_outer_pair(rng, 2))
        for sigma, coeffs in ((Matrix.zero(2, 2), Matrix.identity(2)),
                              (Matrix.identity(2), Matrix.zero(2, 2))):
            with pytest.raises(NotInvertible,
                               match="witness components must be invertible"):
                lie_c_iso_check(spec, spec, sigma, coeffs)


class TestChangeOfBasis:
    def test_roundtrip(self):
        h3 = heisenberg3()
        p = Matrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 2]])
        moved = change_of_basis(h3, p)
        back = change_of_basis(moved, p.inverse())
        assert back.table == h3.table
