"""Lie algebras over the rationals, given by structure constants.

An algebra of dimension n stores brackets of basis pairs [x_i, x_j] for
1 <= i < j <= n only; antisymmetry is implicit.  ``make_algebra`` validates
the Jacobi identity on every basis triple through a table pair (a triple
through none holds trivially), which is the central safety net for
everything built on top (wrong extension data typically fails exactly
here).  An extension R*y + K by a derivation is validated by parts instead
(``ext.extend_by_derivation``): its triples inside K are K's own, and its
triples through y are the Leibniz identities of the derivation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional

from .exactla import (
    _ZERO,
    Matrix,
    Scalar,
    Subspace,
    Vector,
    frac,
    nullspace,
    vec,
    vec_add,
    vec_is_zero,
)

BracketTable = Mapping[tuple[int, int], Mapping[int, Scalar]]


class JacobiViolation(Exception):
    """The Jacobi identity fails on a basis triple."""

    def __init__(self, triple: tuple[int, int, int], residual: Vector):
        self.triple = triple
        self.residual = residual
        super().__init__(f"Jacobi identity fails on basis triple {triple}; "
                         f"residual {residual}")


class NotAnIdeal(Exception):
    """An operator does not preserve the ideal it must induce a map on."""


@dataclass(frozen=True)
class LieAlgebra:
    """Finite-dimensional Lie algebra with exact rational structure constants.

    ``table[(i, j)]`` (0-based, i < j) is the coordinate vector of
    [x_i, x_j] in the ambient basis.

    The table is indexed once, at construction, in three private fields
    that take no part in equality or hashing: ``_brackets`` maps both
    (i, j) and (j, i) of every table pair to [x_i, x_j] and its negation,
    ``_zero`` is the zero vector and ``_basis`` the tuple of basis vectors.
    ``bracket_basis``, ``zero_vector`` and ``basis_vector`` return these
    shared immutable tuples.
    """

    dim: int
    table: tuple[tuple[tuple[int, int], Vector], ...]
    name: Optional[str] = None
    _brackets: dict = field(init=False, repr=False, compare=False)
    _zero: Vector = field(init=False, repr=False, compare=False)
    _basis: tuple[Vector, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        brackets = {}
        for (i, j), v in self.table:
            brackets[(i, j)] = v
            brackets[(j, i)] = tuple([-x for x in v])
        zero = (_ZERO,) * self.dim
        one = Fraction(1)
        object.__setattr__(self, "_brackets", brackets)
        object.__setattr__(self, "_zero", zero)
        object.__setattr__(self, "_basis", tuple(
            zero[:i] + (one,) + zero[i + 1:] for i in range(self.dim)))

    def bracket_basis(self, i: int, j: int) -> Vector:
        """[x_i, x_j] for 0-based indices, any order."""
        return self._brackets.get((i, j), self._zero)

    def zero_vector(self) -> Vector:
        return self._zero

    def basis_vector(self, i: int) -> Vector:
        return self._basis[i]


def _normalize_table(dim: int, brackets: BracketTable) -> tuple[tuple[tuple[int, int], Vector], ...]:
    """1-based sparse bracket input to the internal 0-based dense-vector table."""
    items = []
    for (i, j), coeffs in brackets.items():
        if not (1 <= i < j <= dim):
            raise ValueError(f"bracket indices must satisfy 1 <= i < j <= dim, got ({i},{j})")
        v = [Fraction(0)] * dim
        for k, c in coeffs.items():
            if not (1 <= k <= dim):
                raise ValueError(f"bracket target index {k} out of range")
            v[k - 1] = frac(c)
        if not vec_is_zero(tuple(v)):
            items.append(((i - 1, j - 1), tuple(v)))
    items.sort(key=lambda kv: kv[0])
    return tuple(items)


def make_algebra(dim: int, brackets: BracketTable, name: Optional[str] = None,
                 skip_jacobi: bool = False) -> LieAlgebra:
    """Construct a Lie algebra and validate Jacobi on all basis triples.

    ``skip_jacobi`` exists only so tests and the CLI can load deliberately
    broken tables; everything else must leave it False.
    """
    alg = LieAlgebra(dim, _normalize_table(dim, brackets), name)
    if not skip_jacobi:
        validate_jacobi(alg)
    return alg


def validate_jacobi(alg: LieAlgebra) -> None:
    """Raise :class:`JacobiViolation` on the first failing basis triple
    i < j < k in lexicographic order.

    A triple none of whose pairs is in the table has three zero brackets and
    satisfies Jacobi, so only the triples through a table pair are visited:
    at most (table size) x dim of them instead of dim^3 / 6.
    """
    triples = sorted({tuple(sorted((a, b, c))) for (a, b), _ in alg.table
                      for c in range(alg.dim) if c != a and c != b})
    for i, j, k in triples:
        r1 = _bracket(alg, alg.bracket_basis(i, j), alg.basis_vector(k))
        r2 = _bracket(alg, alg.bracket_basis(j, k), alg.basis_vector(i))
        r3 = _bracket(alg, alg.bracket_basis(k, i), alg.basis_vector(j))
        residual = vec_add(vec_add(r1, r2), r3)
        if not vec_is_zero(residual):
            raise JacobiViolation((i + 1, j + 1, k + 1), residual)


def bracket(alg: LieAlgebra, u: Vector, v: Vector) -> Vector:
    """Bilinear extension of the structure constants to arbitrary vectors.

    The entries are coerced by ``frac``: ``int`` entries give ``Fraction``
    results, a ``float`` raises ``TypeError``."""
    if len(u) != alg.dim or len(v) != alg.dim:
        raise ValueError("vector length mismatch")
    return _bracket(alg, vec(u), vec(v))


def _bracket(alg: LieAlgebra, u: Vector, v: Vector) -> Vector:
    """``bracket`` of two Fraction vectors of the right length, unchecked.

    Like the ``exactla`` kernels it skips zero terms: a product with a zero
    factor is never formed."""
    zero = Fraction(0)
    out = [zero] * alg.dim
    for (i, j), w in alg.table:
        c = u[i] * v[j] if u[i] and v[j] else zero
        if u[j] and v[i]:
            c = c - u[j] * v[i]
        if c:
            for k, x in enumerate(w):
                if x:
                    out[k] += c * x
    return tuple(out)


def product_space(alg: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    """span{[u, v] : u in a, v in b}."""
    vectors = [_bracket(alg, u, v) for u in a.basis for v in b.basis]
    return Subspace.from_vectors(alg.dim, vectors)


def derived_subalgebra(alg: LieAlgebra) -> Subspace:
    """[L, L], returned with its canonical reduced basis: the span of the
    table's brackets [x_i, x_j], since every other bracket of basis
    vectors is zero or the negative of one of them."""
    return Subspace.from_vectors(alg.dim, [v for _, v in alg.table])


def derived_series(alg: LieAlgebra) -> list[Subspace]:
    """L >= [L,L] >= [[L,L],[L,L]] >= ..., down to stabilization; [L, L]
    is ``derived_subalgebra``, the span of the table's brackets."""
    series = [Subspace.full(alg.dim)]
    nxt = derived_subalgebra(alg)
    while nxt.dim < series[-1].dim:
        series.append(nxt)
        if nxt.dim == 0:
            break
        nxt = product_space(alg, nxt, nxt)
    return series


def lower_central_series(alg: LieAlgebra) -> list[Subspace]:
    """L >= [L,L] >= [L,[L,L]] >= ..., down to stabilization."""
    full = Subspace.full(alg.dim)
    series = [full]
    while True:
        prev = series[-1]
        nxt = product_space(alg, full, prev)
        if nxt.dim == prev.dim:
            break
        series.append(nxt)
        if nxt.dim == 0:
            break
    return series


def is_solvable(alg: LieAlgebra) -> bool:
    return derived_series(alg)[-1].dim == 0


def is_nilpotent(alg: LieAlgebra) -> bool:
    return lower_central_series(alg)[-1].dim == 0


def center(alg: LieAlgebra) -> Subspace:
    """{v : [v, x_i] = 0 for all i}: the kernel of the adjoint matrices of
    the x_i stacked, whose rows express [x_i, v]."""
    rows = tuple(row for i in range(alg.dim)
                 for row in adjoint_matrix(alg, alg.basis_vector(i)).entries)
    return nullspace(Matrix(len(rows), alg.dim, rows))


def adjoint_matrix(alg: LieAlgebra, v: Vector) -> Matrix:
    """Matrix of u -> [v, u] in the ambient basis; ``v`` is coerced as in
    ``bracket``."""
    if len(v) != alg.dim:
        raise ValueError("vector length mismatch")
    v = vec(v)
    cols = [_bracket(alg, v, alg.basis_vector(j)) for j in range(alg.dim)]
    return Matrix.from_columns(cols)


def restrict_operator(op: Matrix, space: Subspace) -> Matrix:
    """Matrix of an operator restricted to an invariant subspace, in the
    subspace's echelon basis."""
    cols = []
    for b in space.basis:
        img = op.apply(b)
        coords = space.coordinates(img)
        if coords is None:
            raise ValueError("subspace is not invariant under the operator")
        cols.append(coords)
    return Matrix.from_columns(cols) if cols else Matrix.zero(0, 0)


def direct_sum(a: LieAlgebra, b: LieAlgebra, name: Optional[str] = None) -> LieAlgebra:
    """Blockwise direct sum; the first summand keeps the low indices."""
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (i, j), v in a.table:
        brackets[(i + 1, j + 1)] = {k + 1: c for k, c in enumerate(v) if c != 0}
    off = a.dim
    for (i, j), v in b.table:
        brackets[(i + 1 + off, j + 1 + off)] = {k + 1 + off: c for k, c in enumerate(v) if c != 0}
    return make_algebra(a.dim + b.dim, brackets, name)


def complement_coordinates(space: Subspace) -> list[int]:
    """Ambient coordinates not used as pivots by the echelon basis."""
    return [i for i in range(space.ambient_dim) if i not in space.pivots]


def quotient_map_matrix(space: Subspace) -> Matrix:
    """Matrix of the projection V -> V/S, S = ``space``, in the complement
    coordinates: column j is the unit vector e_j reduced against the
    echelon basis of S, read off at the coordinates no pivot uses."""
    comp = complement_coordinates(space)
    units = Matrix.identity(space.ambient_dim).entries
    return Matrix.from_columns([[w[i] for i in comp]
                                for w in map(space.reduce, units)])


def induced_operator_on_quotient(op: Matrix, space: Subspace) -> Matrix:
    """Matrix of the operator induced on V/S, S = ``space``, in the
    complement coordinates: the quotient map times ``op``, at the
    complement columns.  Requires op(S) <= S."""
    for b in space.basis:
        if not space.contains(op.apply(b)):
            raise NotAnIdeal("operator does not preserve the ideal")
    comp = complement_coordinates(space)
    image = quotient_map_matrix(space) @ op
    return image.submatrix(range(image.rows), comp)


# ---------------------------------------------------------------------------
# stock algebras
# ---------------------------------------------------------------------------

def abelian(n: int, name: Optional[str] = None) -> LieAlgebra:
    return make_algebra(n, {}, name or f"r{n}")


def heisenberg3() -> LieAlgebra:
    """Heisenberg algebra: [x2, x3] = x1."""
    return make_algebra(3, {(2, 3): {1: 1}}, "h3")


def filiform4() -> LieAlgebra:
    """Four-dimensional filiform algebra: [x2, x4] = x1, [x3, x4] = x2."""
    return make_algebra(4, {(2, 4): {1: 1}, (3, 4): {2: 1}}, "g4")


def r_plus_heisenberg() -> LieAlgebra:
    """Direct sum of the Heisenberg algebra and a line: [x2, x3] = x1."""
    return direct_sum(heisenberg3(), abelian(1), "r_plus_h3")
