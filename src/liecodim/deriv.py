"""Derivation algebras, inner derivations, and first cohomology.

A derivation of L is a linear map d with d([x,y]) = [d(x),y] + [x,d(y)].
The full derivation space is the kernel of one integer linear system (one
block of n equations per basis pair i < j, n^2 unknowns), and the Leibniz
residual of a matrix, which decides whether it is a derivation, is read off
the same system; inner derivations are the span of the adjoint matrices.
First cohomology is realized as a concrete transversal of the inner
derivations inside the full space, chosen deterministically from echelon
data, so every class has one distinguished matrix representative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .exactla import Matrix, Subspace, Vector, _integer_point, nullspace
from .liealg import LieAlgebra, adjoint_matrix


class NotADerivation(Exception):
    def __init__(self, pair: tuple[int, int], residual: Vector):
        self.pair = pair
        self.residual = residual
        super().__init__(
            f"Leibniz identity fails on basis pair {pair}; residual {residual}")


def _leibniz_rows(alg: LieAlgebra) -> list[list[int]]:
    """The Leibniz system of ``alg`` as integer rows over the n^2 row-major
    entries of d: for each pair i < j (i outer), the n coordinates of
    s*(sum_k c_ij^k d(x_k) - [d(x_i), x_j] - [x_i, d(x_j)]), with s the
    lcm of the table's denominators, which changes no kernel and no rank.
    Only the nonzero terms of the table are read: ``through[t]`` lists,
    for each (u, t) that ``LieAlgebra._brackets`` holds, u with the
    nonzero ``(k, s*c)`` terms of [x_u, x_t]."""
    n = alg.dim
    s = _integer_point(x for _, v in alg.table for x in v)[0]
    through: list[list] = [[] for _ in range(n)]
    for (u, t), v in alg._brackets.items():
        through[t].append((u, [(k, int(x * s)) for k, x in enumerate(v) if x]))
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            block = [[0] * (n * n) for _ in range(n)]
            for k, c in enumerate(alg.bracket_basis(i, j)):
                if c:
                    c = int(c * s)
                    for r in range(n):
                        block[r][r * n + k] += c
            # [d(x_i), x_j] = sum_t d_ti [x_t, x_j]
            for t, terms in through[j]:
                for r, x in terms:
                    block[r][t * n + i] -= x
            # [x_i, d(x_j)] = -sum_t d_tj [x_t, x_i]
            for t, terms in through[i]:
                for r, x in terms:
                    block[r][t * n + j] += x
            rows += block
    return rows or [[0] * (n * n)]


@lru_cache(maxsize=32)
def _leibniz_blocks(alg: LieAlgebra) -> tuple[int, tuple]:
    """``(s, blocks)``: s as in ``_leibniz_rows``, and its rows as one
    block of n rows per basis pair, in the same order, each with its
    1-based pair and each row as its nonzero ``(column, entry)`` terms;
    all-zero blocks are dropped."""
    n = alg.dim
    rows = _leibniz_rows(alg)
    s = _integer_point(x for _, v in alg.table for x in v)[0]
    pairs = [(i + 1, j + 1) for i in range(n) for j in range(i + 1, n)]
    blocks = ((pair, tuple(tuple((c, x) for c, x in enumerate(row) if x)
                           for row in rows[p * n:p * n + n]))
              for p, pair in enumerate(pairs))
    return s, tuple(b for b in blocks if any(b[1]))


def leibniz_system(alg: LieAlgebra) -> Matrix:
    """Linear system whose kernel (in row-major matrix coordinates) is the
    space of derivations: ``_leibniz_rows`` as a ``Matrix`` of ints."""
    rows = _leibniz_rows(alg)
    return Matrix(len(rows), alg.dim ** 2, tuple(map(tuple, rows)))


def leibniz_residual(alg: LieAlgebra, d: Matrix) -> Optional[tuple[tuple[int, int], Vector]]:
    """First basis pair violating Leibniz, with its residual, else None.

    Pairs are visited in the order i < j, i outer, and the first pair whose
    residual d([x_i, x_j]) - [d(x_i), x_j] - [x_i, d(x_j)] is nonzero is
    returned as 1-based ``(i, j)`` with that residual.  d(x_i) is read as
    column i of d.  Raises ValueError unless d is dim x dim; the entries of
    d are coerced through ``frac``, so a ``float`` raises ``TypeError``.

    d is cleared of its denominators once, L*d with L their lcm, and a
    pair's residual is its cached integer block (``_leibniz_blocks``)
    times L*d, over s*L; a pair with no block has residual 0.
    """
    n = alg.dim
    if d.rows != n or d.cols != n:
        raise ValueError("derivation matrix has wrong shape")
    scale, flat = _integer_point(d.flatten())
    s, blocks = _leibniz_blocks(alg)
    for pair, block in blocks:
        acc = [sum([x * flat[c] for c, x in row]) for row in block]
        if any(acc):
            return pair, tuple([Fraction(a, s * scale) for a in acc])
    return None


def _require_derivation(alg: LieAlgebra, d: Matrix) -> None:
    """Raise :class:`NotADerivation` on ``leibniz_residual``'s violation."""
    violation = leibniz_residual(alg, d)
    if violation is not None:
        raise NotADerivation(*violation)


@dataclass(frozen=True)
class DerivationSpace:
    """Der, ad, and a distinguished cohomology transversal for one algebra.

    ``full`` and ``inner`` live in row-major matrix coordinates.  The
    transversal keeps exactly the full-space coefficients that are not
    consumed by the echelon pivots of the inner space, so representatives
    are unique and reproducible.
    """

    algebra: LieAlgebra
    full: Subspace
    inner: Subspace
    complement: Subspace

    @property
    def dim_full(self) -> int:
        return self.full.dim

    @property
    def dim_inner(self) -> int:
        return self.inner.dim

    @property
    def dim_h1(self) -> int:
        return self.full.dim - self.inner.dim

    def matrix_from_flat(self, v: Vector) -> Matrix:
        n = self.algebra.dim
        return Matrix.unflatten(v, n, n)

    def h1_basis_matrices(self) -> list[Matrix]:
        return [self.matrix_from_flat(v) for v in self.complement.basis]


@dataclass(frozen=True)
class CohomologyClass:
    """A cohomology class held by its distinguished transversal representative."""

    space: DerivationSpace
    representative: Matrix

    def is_zero(self) -> bool:
        return self.representative.is_zero()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CohomologyClass):
            return NotImplemented
        return (self.space.algebra is other.space.algebra
                and self.representative == other.representative)


def derivation_space(alg: LieAlgebra) -> DerivationSpace:
    """Compute Der, ad and the cohomology transversal of an algebra."""
    full = nullspace(leibniz_system(alg))
    inner_vectors = [adjoint_matrix(alg, alg.basis_vector(i)).flatten()
                     for i in range(alg.dim)]
    inner = Subspace.from_vectors(alg.dim ** 2, inner_vectors)
    complement = Subspace.from_vectors(
        alg.dim ** 2, [inner.reduce(v) for v in full.basis])
    space = DerivationSpace(alg, full, inner, complement)
    if space.dim_h1 != complement.dim:
        raise AssertionError("internal: transversal dimension mismatch")
    return space


def project_to_h1(space: DerivationSpace, d: Matrix) -> CohomologyClass:
    """Unique transversal representative of d modulo inner derivations.

    Requires d to be a derivation; raises :class:`NotADerivation` otherwise.
    """
    _require_derivation(space.algebra, d)
    reduced = space.inner.reduce(d.flatten())
    rep = space.matrix_from_flat(reduced)
    if not space.complement.contains(reduced):
        raise AssertionError("internal: projected representative left the transversal")
    return CohomologyClass(space, rep)


def is_outer(space: DerivationSpace, d: Matrix) -> bool:
    """True iff d is a derivation whose class modulo ad is nonzero."""
    return not project_to_h1(space, d).is_zero()
