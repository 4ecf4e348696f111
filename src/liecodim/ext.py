"""One- and two-step extensions of nilpotent algebras, membership
conditions, decomposability, and witness-based isomorphism checks.

An extension by a derivation d adjoins one generator y acting by
[y, x] = d(x).  The double extension adjoins z on top of R*y + H, with the
bracket [z, y] stored explicitly as a vector in H.  Membership of the
result in the class "derived algebra has full expected dimension" is
decided by several independently implemented conditions whose agreement is
asserted at runtime; a disagreement is an internal contradiction, never a
user error.

Both membership checks run in integer arithmetic.  What depends on the base
alone (the echelon rows of its derived algebra, the adapted basis change,
the quotient map) is built once per base as integer rows; a call clears the
denominators of its matrix once (``_integer_rows``) and decides each
condition by ``_bareiss`` ranks, integer products and a fraction-free
reduction modulo the derived algebra.  The conditions are still computed
separately, each from its own integer rows, and their agreement is still
asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .exactla import (
    Matrix,
    NotInvertible,
    Subspace,
    Vector,
    _block_diag,
    _int_matmul,
    _integer_point,
    _integer_rows,
    _rank,
    solve,
    vec_is_zero,
)
from .deriv import _require_derivation
from .liealg import (
    JacobiViolation,
    LieAlgebra,
    NotAnIdeal,
    _bracket,
    _normalize_table,
    adjoint_matrix,
    center,
    complement_coordinates,
    derived_subalgebra,
    direct_sum,
    make_algebra,
    quotient_map_matrix,
    validate_jacobi,
)


class ConditionDisagreement(Exception):
    """Independently implemented equivalent conditions disagreed.

    This is an internal consistency trap; it must be unreachable.
    """


class NotAutomorphism(Exception):
    pass


class IdentityFails(Exception):
    def __init__(self, residual: Matrix):
        self.residual = residual
        super().__init__("witness identity does not hold exactly")


class PreconditionViolated(Exception):
    pass


def extend_by_derivation(K: LieAlgebra, d: Matrix,
                         name: Optional[str] = None) -> LieAlgebra:
    """The (dim K + 1)-dimensional algebra L = R*y + K with new generator y,
    [y, x] = d(x).

    Jacobi holds on L if and only if it holds on K and d is a derivation,
    and that is what is checked; L's triples are not re-run.  A triple of L
    inside K is a triple of K with the same brackets.  A triple through y,
    (x_i, x_j, y), has Jacobi sum [[x_i, x_j], y] + [[x_j, y], x_i] +
    [[y, x_i], x_j] = -(d([x_i, x_j]) - [d(x_i), x_j] - [x_i, d(x_j)]), the
    Leibniz residual of d on (i, j) negated, which
    ``deriv._require_derivation`` has just found zero.  So the first
    failing triple of L is K's, with K's residual and a zero in y's slot,
    and a non-derivation raises :class:`NotADerivation` before K is looked
    at.  Every bracket lands in
    K, the span of x_1..x_n, so [L, L] <= K and dim [L, L] <= dim L - 1
    hold by construction.
    """
    n = K.dim
    _require_derivation(K, d)
    try:
        validate_jacobi(K)
    except JacobiViolation as err:
        raise JacobiViolation(err.triple, err.residual + (Fraction(0),)) from None
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (i, j), v in K.table:
        brackets[(i + 1, j + 1)] = {k + 1: c for k, c in enumerate(v) if c != 0}
    for j in range(n):
        col = d.column(j)
        entry = {k + 1: -c for k, c in enumerate(col) if c != 0}
        if entry:
            brackets[(j + 1, n + 1)] = entry  # [x_j, y] = -d(x_j)
    return LieAlgebra(n + 1, _normalize_table(n + 1, brackets), name)


@dataclass(frozen=True)
class CodimOneVerdict:
    """All evaluated membership conditions for a single extension, plus the
    common verdict (derived algebra of the extension is the whole base)."""

    member: bool
    span_inclusion: bool
    lower_block_rank: int
    lower_block_full: bool
    quotient_invertible: bool


def _reduce_modulo(w: list[int], rows: tuple[tuple[int, ...], ...],
                   pivots: tuple[int, ...]) -> list[int]:
    """``w`` reduced fraction-free against the integer echelon rows
    ``rows`` of a subspace, each row the reduced-echelon basis row cleared
    of its denominators, so pivot ``p > 0`` and zeros at the other pivots:
    w -> p*w - w[c]*row at each pivot column c.  The result is a nonzero
    multiple of the exact reduction, zero exactly when w lies in the
    subspace."""
    for row, c in zip(rows, pivots):
        f = w[c]
        if f:
            p = row[c]
            w = [p * x - f * y for x, y in zip(w, row)]
    return w


def _echelon_rows(space: Subspace) -> tuple[tuple[int, ...], ...]:
    """The echelon basis of ``space`` as integer rows, each cleared of its
    own denominators."""
    return tuple(_integer_point(v)[1] for v in space.basis)


@lru_cache(maxsize=32)
def _codim1_base(K: LieAlgebra) -> tuple:
    """What ``check_codim1_condition`` needs of K alone, as integer rows:
    the echelon basis of [K, K] and its pivots, the coordinates of its
    complement, and the rows of P^-1 below [K, K] with the rows of P, P the
    basis change putting [K, K] on the leading coordinates (each scaled by
    the lcm of its denominators)."""
    der = derived_subalgebra(K)
    comp = tuple(complement_coordinates(der))
    p = Matrix.from_columns(list(der.basis)
                            + [K.basis_vector(i) for i in comp])
    return (_echelon_rows(der), der.pivots, comp,
            _integer_rows(p.inverse())[0][der.dim:], _integer_rows(p)[0])


def check_codim1_condition(K: LieAlgebra, d: Matrix) -> CodimOneVerdict:
    """Decide whether R*y extended by d has derived algebra equal to K.

    Three conditions are evaluated independently (a span inclusion, the
    rank of the lower block of d in a basis adapted to [K, K], and the
    invertibility of the map induced on K/[K, K]); their agreement is
    asserted before the verdict is returned.  Each is decided in integer
    arithmetic, by ``_bareiss`` ranks of the integer matrix s*d (s the lcm
    of d's denominators, which changes no rank) against the integer rows
    ``_codim1_base`` keeps of K alone.
    """
    _require_derivation(K, d)
    n = K.dim
    der_rows, pivots, comp, p_inv_lower, p = _codim1_base(K)
    m = len(der_rows)
    a, _ = _integer_rows(d)

    # span inclusion: complement directions of [K,K] lie in d(K) + [K,K].
    # [K,K] and the complement directions span K, so adding them to
    # d(K) + [K,K] gives rank n, and the inclusion holds exactly when
    # d(K) + [K,K] already has rank n.
    cond_span = _rank([*zip(*a), *der_rows]) == n

    # lower-block rank in an adapted basis (abelian case reads rank d = n)
    rank = _rank(_int_matmul(_int_matmul(p_inv_lower, a), p))
    cond_rank = rank == n - m

    # induced map on K/[K,K] is invertible: d preserves [K,K], and the
    # images of the complement directions, reduced modulo [K,K], are
    # independent at the complement coordinates
    for b in der_rows:
        image = [sum(x * y for x, y in zip(row, b)) for row in a]
        if any(_reduce_modulo(image, der_rows, pivots)):
            raise NotAnIdeal("operator does not preserve the ideal")
    induced = [[w[i] for i in comp]
               for w in (_reduce_modulo([row[j] for row in a], der_rows, pivots)
                         for j in comp)]
    cond_quot = _rank(induced) == n - m

    if not (cond_span == cond_rank == cond_quot):
        raise ConditionDisagreement(
            f"span={cond_span} rank={cond_rank} quotient={cond_quot}")
    return CodimOneVerdict(cond_span, cond_span, rank, cond_rank, cond_quot)


def double_extension_matrix(H: LieAlgebra, d_on_h: Matrix, bracket_zy: Vector) -> Matrix:
    """Assemble the action of z on R*y + H: d_on_h on H, bracket_zy as the
    image of y, zero row for y (the image lies inside H)."""
    n = H.dim
    if d_on_h.rows != n or d_on_h.cols != n or len(bracket_zy) != n:
        raise ValueError("double extension data has wrong shape")
    rows = []
    for i in range(n):
        rows.append(d_on_h.entries[i] + (bracket_zy[i],))
    rows.append(tuple(Fraction(0) for _ in range(n + 1)))
    return Matrix(n + 1, n + 1, tuple(rows))


def build_double_extension(H: LieAlgebra, d_prime: Matrix, d_on_h: Matrix,
                           bracket_zy: Vector, name: Optional[str] = None) -> LieAlgebra:
    """R*z extended over (R*y extended over H): a (dim H + 2)-dim algebra.

    d_prime is the action of y on H; d_on_h with bracket_zy gives the
    action of z (z maps the intermediate algebra into H).  Both steps are
    ``extend_by_derivation``, so Jacobi holds on the assembled algebra.
    """
    K = extend_by_derivation(H, d_prime)
    d_full = double_extension_matrix(H, d_on_h, bracket_zy)
    return extend_by_derivation(K, d_full, name)


@dataclass(frozen=True)
class CodimTwoVerdict:
    member: bool
    span_inclusion: bool
    quotient_images_cover: bool


@lru_cache(maxsize=32)
def _codim2_base(H: LieAlgebra, d_prime: Matrix) -> tuple:
    """What ``check_codim2_condition`` needs of (H, d') alone, as integer
    rows: the extension K = R*y + H, built and Jacobi-validated once per
    pair, the columns of d' with the echelon basis of [H, H], the quotient
    map q of K onto K/[H, H], the q-images of the action of y (the columns
    of q*d'), and the rank of the q-images of H.  A bad d' raises
    ``NotADerivation`` on every call: ``lru_cache`` keeps no exception."""
    n = H.dim
    K = extend_by_derivation(H, d_prime)
    der_h = derived_subalgebra(H)
    q_k, _ = _integer_rows(quotient_map_matrix(Subspace.from_vectors(
        n + 1, [v + (Fraction(0),) for v in der_h.basis])))
    dprime, _ = _integer_rows(d_prime)
    dprime_ext = [row + [0] for row in dprime] + [[0] * (n + 1)]
    span_rows = (*zip(*dprime), *_echelon_rows(der_h))
    return (K, span_rows, q_k, _int_matmul(q_k, dprime_ext),
            _rank([row[:n] for row in q_k]))


def check_codim2_condition(H: LieAlgebra, d_prime: Matrix,
                           d_full: Matrix) -> CodimTwoVerdict:
    """Decide whether the double extension has derived algebra equal to H.

    ``d_full`` is the (n+1)-square action of z on R*y + H with zero y-row.
    Two conditions are evaluated independently: a span inclusion inside H,
    and coverage of H/[H,H] by the images of the two induced quotient
    maps.  Their agreement is asserted.  Each is one comparison of
    ``_bareiss`` ranks of integer rows: the integer matrix s*d_full (s the
    lcm of its denominators) against what ``_codim2_base`` keeps of (H, d')
    alone.
    """
    n = H.dim
    K, span_rows, q_k, dprime_tilde, h_rank = _codim2_base(H, d_prime)
    _require_derivation(K, d_full)
    a, _ = _integer_rows(d_full)
    if any(a[n]):
        raise ValueError("the action of z must map everything into H")

    # condition: complement of [H,H] inside d(K) + d'(H) + [H,H]; [H,H]
    # and its complement directions span H, so this is rank n
    cond_span = _rank([*zip(*a[:n]), *span_rows]) == n

    # condition: images of the induced maps cover H/[H,H].  Both maps send
    # K into H, so their q-images lie in the span of H's, and they cover it
    # exactly when they reach its rank
    d_tilde = _int_matmul(q_k, a)
    cond_quot = _rank([x + y for x, y in zip(d_tilde, dprime_tilde)]) == h_rank

    if cond_span != cond_quot:
        raise ConditionDisagreement(f"span={cond_span} quotient images={cond_quot}")
    return CodimTwoVerdict(cond_span, cond_span, cond_quot)


@dataclass(frozen=True)
class DecomposabilityCertificate:
    decomposable: bool
    center_preimage: Optional[Vector]  # x' in Z(H) with d(x') = [z, y]


@lru_cache(maxsize=32)
def _decomposable_base(H: LieAlgebra) -> tuple[Vector, ...]:
    """What ``is_decomposable_double`` needs of H alone: the echelon basis
    of the centre Z(H)."""
    return center(H).basis


def is_decomposable_double(H: LieAlgebra, d_full: Matrix) -> DecomposabilityCertificate:
    """Decide decomposability of a double extension in normalized form.

    The y-action on H has been normalized to zero, and ``d_full`` is the
    (n+1)-square action of z on R*y + H with zero y-row: its leading block
    acts on H and its last column is [z, y].  The criterion is membership
    of [z, y] in the image of the center of H under the z-action; for
    abelian H the result is cross-checked against invertibility of that
    action.  The basis of Z(H) is built once per base
    (``_decomposable_base``); the solve, the certificate and the
    cross-check run on every call.
    """
    n = H.dim
    if d_full.rows != n + 1 or d_full.cols != n + 1:
        raise ValueError("double extension data has wrong shape")
    if not vec_is_zero(d_full.row(n)):
        raise ValueError("the action of z must map everything into H")
    d_on_h = d_full.submatrix(range(n), range(n))
    zy = d_full.column(n)[:n]
    z_basis = _decomposable_base(H)
    cols = [d_on_h.apply(b) for b in z_basis]
    preimage_coords = None
    if cols:
        system = Matrix.from_columns(cols)
        preimage_coords = solve(system, zy)
    decomposable = (vec_is_zero(zy) or
                    (preimage_coords is not None))
    certificate = None
    if decomposable and preimage_coords:
        certificate = tuple(
            sum(preimage_coords[k] * z_basis[k][i]
                for k in range(len(preimage_coords)))
            for i in range(n))
    elif decomposable:
        certificate = tuple(Fraction(0) for _ in range(n))

    if not H.table:
        # Abelian base: once the extension really has full derived algebra,
        # decomposability is equivalent to the z-action being nonsingular.
        member = d_full.rank() == n
        if member:
            nonsingular = d_on_h.det() != 0
            if nonsingular != decomposable:
                raise ConditionDisagreement(
                    f"center-image test={decomposable} nonsingular={nonsingular}")
    return DecomposabilityCertificate(decomposable, certificate)


def verify_iso_witness_full(L1: LieAlgebra, L2: LieAlgebra, T: Matrix) -> bool:
    """Exact check that T transports brackets: T[u,v]_1 = [Tu, Tv]_2."""
    if L1.dim != L2.dim or T.rows != L1.dim or T.cols != L1.dim:
        raise ValueError("dimension mismatch")
    if T.det() == 0:
        raise NotInvertible("witness matrix is singular")
    for i in range(L1.dim):
        for j in range(i + 1, L1.dim):
            lhs = T.apply(L1.bracket_basis(i, j))
            rhs = _bracket(L2, T.column(i), T.column(j))
            if lhs != rhs:
                return False
    return True


def assemble_extension_witness(sigma: Matrix, alpha: Fraction, u: Vector) -> Matrix:
    """Full witness on the extensions from base data: x -> sigma(x) on the
    base, y -> alpha*y + u on the new generator."""
    n = sigma.rows
    rows = []
    for i in range(n):
        rows.append(sigma.entries[i] + (u[i],))
    rows.append(tuple(Fraction(0) for _ in range(n)) + (alpha,))
    return Matrix(n + 1, n + 1, tuple(rows))


def witness_from_triple(K: LieAlgebra, d1: Matrix, d2: Matrix, sigma: Matrix,
                        alpha: Fraction, u: Vector) -> tuple[Matrix, bool]:
    """Check sigma d1 sigma^-1 = alpha d2 + ad_u and assemble the full
    isomorphism between the two extensions.

    Raises :class:`NotAutomorphism` if sigma does not preserve brackets,
    :class:`IdentityFails` with the exact residual if the identity is off.
    The assembled witness is cross-validated on the full extensions.
    """
    if alpha == 0:
        raise PreconditionViolated("alpha must be nonzero")
    if not verify_iso_witness_full(K, K, sigma):
        raise NotAutomorphism("sigma does not preserve the brackets")
    lhs = sigma @ d1 @ sigma.inverse()
    rhs = d2.scale(alpha) + adjoint_matrix(K, u)
    if lhs != rhs:
        raise IdentityFails(lhs - rhs)
    T = assemble_extension_witness(sigma, alpha, u)
    L1 = extend_by_derivation(K, d1)
    L2 = extend_by_derivation(K, d2)
    ok = verify_iso_witness_full(L1, L2, T)
    if not ok:
        raise ConditionDisagreement("triple identity held but the assembled witness failed")
    return T, ok


def decompose_inner_extension(K: LieAlgebra, u: Vector) -> tuple[LieAlgebra, LieAlgebra]:
    """Extend K by the inner derivation ad_u, rewrite y -> y - u, and return
    (rewritten algebra, direct sum with a line) for bit-exact comparison."""
    d = adjoint_matrix(K, u)
    L = extend_by_derivation(K, d)
    n = K.dim
    cols = [L.basis_vector(i) for i in range(n)]
    cols.append(tuple(-u[i] for i in range(n)) + (Fraction(1),))
    rewritten = change_of_basis(L, Matrix.from_columns(cols))
    return rewritten, direct_sum(K, make_algebra(1, {}))


def change_of_basis(alg: LieAlgebra, P: Matrix) -> LieAlgebra:
    """Structure constants of the same algebra in the basis given by the
    columns of P."""
    if P.det() == 0:
        raise NotInvertible("basis change must be invertible")
    p_inv = P.inverse()
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            w = p_inv.apply(_bracket(alg, P.column(i), P.column(j)))
            entry = {k + 1: c for k, c in enumerate(w) if c != 0}
            if entry:
                brackets[(i + 1, j + 1)] = entry
    return make_algebra(alg.dim, brackets, alg.name)


def verify_weak_similarity_witness(pair1: tuple[Matrix, Matrix],
                                   pair2: tuple[Matrix, Matrix],
                                   S: Matrix, coeffs: Matrix) -> bool:
    """Exact check of the pair identity
    (A', B') = S^-1 (alpha*A + beta*B, gamma*A + delta*B) S
    with coeffs = [[alpha, beta], [gamma, delta]] invertible."""
    if coeffs.rows != 2 or coeffs.cols != 2:
        raise ValueError("coefficient matrix must be 2x2")
    if S.det() == 0 or coeffs.det() == 0:
        raise NotInvertible("witness components must be invertible")
    a, b = pair1
    a2, b2 = pair2
    al, be = coeffs.entries[0]
    ga, de = coeffs.entries[1]
    s_inv = S.inverse()
    first = s_inv @ (a.scale(al) + b.scale(be)) @ S
    second = s_inv @ (a.scale(ga) + b.scale(de)) @ S
    return first == a2 and second == b2


@dataclass(frozen=True)
class LieCSpec:
    """A pair extension of an abelian algebra with [z, y] = 0: the data is
    just the two matrices (z-action, y-action).

    Preconditions, checked on construction (:class:`PreconditionViolated`
    otherwise): both actions are outer, i.e. nonzero on the abelian base;
    the pair is non-proportional (a proportional pair is decomposable and
    lies outside the class); and the two actions commute.
    """

    n: int
    d: Matrix        # action of z
    d_prime: Matrix  # action of y

    def __post_init__(self) -> None:
        if self.d.is_zero() or self.d_prime.is_zero():
            raise PreconditionViolated("pair must consist of outer (nonzero) actions")
        if _is_proportional(self.d, self.d_prime):
            raise PreconditionViolated("pair must be non-proportional")
        if self.d @ self.d_prime != self.d_prime @ self.d:
            raise PreconditionViolated("pair actions must commute")

    def build(self) -> LieAlgebra:
        from .liealg import abelian

        h = abelian(self.n)
        return build_double_extension(
            h, self.d_prime, self.d, tuple(Fraction(0) for _ in range(self.n)))


def _is_proportional(a: Matrix, b: Matrix) -> bool:
    flat_a, flat_b = a.flatten(), b.flatten()
    return Subspace.from_vectors(len(flat_a), [flat_a, flat_b]).dim <= 1


def lie_c_iso_check(spec1: LieCSpec, spec2: LieCSpec,
                    sigma: Matrix, coeffs: Matrix) -> bool:
    """Verify a pair-extension isomorphism witness two independent ways.

    ``coeffs = [[alpha, beta], [gamma, delta]]`` uses the row layout of
    :func:`verify_weak_similarity_witness`: row i gives the combination of
    the target pair (d_2, d_2') for the i-th member of the source pair
    (d_1, d_1'), so the matrix condition is

        sigma d_1 sigma^-1  = alpha*d_2 + beta*d_2'
        sigma d_1' sigma^-1 = gamma*d_2 + delta*d_2'

    and the assembled witness is x -> sigma(x) on the base,
    z -> alpha*z + beta*y, y -> gamma*z + delta*y.  Identity coefficients
    are the identity on y and z.

    The matrix condition and the assembled algebra-level isomorphism are
    both evaluated; agreement is asserted.  The preconditions on the pairs
    are enforced by :class:`LieCSpec`; a malformed witness raises as in
    :func:`verify_weak_similarity_witness` (``ValueError`` for ``coeffs``
    that is not 2x2, ``NotInvertible`` for a singular component).
    """
    if spec1.n != spec2.n:
        raise ValueError("dimension mismatch")

    # sigma d sigma^-1 = alpha*d_2 + beta*d_2' is
    # d = sigma^-1 (alpha*d_2 + beta*d_2') sigma: the pair identity.
    cond = verify_weak_similarity_witness((spec2.d, spec2.d_prime),
                                          (spec1.d, spec1.d_prime),
                                          sigma, coeffs)

    al, be = coeffs.entries[0]
    ga, de = coeffs.entries[1]
    # basis order x_1..x_n, y, z: columns are the images of y and of z
    t_full = _block_diag([sigma, Matrix.from_rows([[de, be], [ga, al]])])
    l1 = spec1.build()
    l2 = spec2.build()
    try:
        full = verify_iso_witness_full(l1, l2, t_full)
    except NotInvertible:
        full = False
    if cond != full:
        raise ConditionDisagreement(f"matrix condition={cond} full witness={full}")
    return cond
