"""Exact rational linear algebra.

Everything here computes over ``fractions.Fraction``; no floating point is
used anywhere.  Matrices are immutable, row-major grids of rationals.
Characteristic polynomials are factored over Q exactly, by the package's own
factoriser in ``Fraction`` and integer arithmetic (no computer algebra
system).  Spectral computations support rational eigenvalues plus
complex-conjugate pairs coming from irreducible quadratic factors; anything
outside that field (real irrational eigenvalues, irreducible factors of
degree >= 3) raises a clean error instead of approximating.

A spectrum is one tuple of real Jordan blocks, ``("r", size, lam)`` for a
rational eigenvalue lam and ``("c", size, p, q2)`` for the pair
p +- sqrt(q2) i, sorted as :class:`EigenStructure` documents; canon scales
these blocks and classify matches them as they are.

Every elimination runs on one kernel, ``_bareiss``: Bareiss's
fraction-free elimination of integer rows (Math. Comp. 22, 1968).
``Matrix.det``, ``Matrix.rank`` and the rank tests of ``eigen_structure``
run it on d*M, d the lcm of M's denominators (1 for a sweep point);
``_rank``, the one rank of integer rows, runs it on a copy of the rows
(``ext``'s membership conditions, ``classify.fingerprint``); ``rref``
runs it on the rows of M, each cleared of its own denominators, and
back-substitutes in integers.  ``char_poly`` is Berkowitz's division-free
recurrence on d*M.  One helper, ``_integer_point``, clears denominators for
all of them and for the sweep's integer points.  No ``Fraction`` is formed
until the output, and every entry is coerced through ``frac`` on the way
in, so a ``float`` raises ``TypeError``.

The rational kernels (``Matrix.apply``, ``@`` and ``scale``, and
``Subspace.reduce``) skip zero terms and never multiply them: each loop
runs over the nonzero entries of the vector, and for ``@`` over the nonzero
entries of the left row and of the right row it meets.  The matrices met
here (derivations of nilpotent algebras, basis vectors, structure tables)
are mostly zeros.  ``apply``, ``@`` and ``scale`` coerce every entry of
their operands through ``frac``, zeros included, so a ``float`` raises
``TypeError``, and every entry they return is a ``Fraction``, also where
the input held ``int``s.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

Scalar = Union[int, str, Fraction]
Vector = tuple[Fraction, ...]


class ExactLAError(Exception):
    """Base class for errors raised by the exact linear algebra layer."""


class UnsupportedSpectrumError(ExactLAError):
    """Spectrum falls outside rationals + complex quadratic pairs."""


class IrreducibleFactorDegreeTooHigh(UnsupportedSpectrumError):
    """The characteristic polynomial has an irreducible factor of degree >= 3."""


class RealIrrationalEigenvalues(UnsupportedSpectrumError):
    """A real irrational eigenvalue pair, which the exact engine does not
    represent: raised by ``eigen_structure`` for an irreducible quadratic
    factor with positive discriminant, and by the hand matchers of
    ``classify`` for a 2x2 block whose discriminant is not a rational
    square."""


class NotInvertible(ExactLAError):
    """A matrix required to be invertible is singular."""


# An optional sign, digits and an optional "/digits": no exponent and no
# decimal point, so a short string never stands for a huge number.
_RATIONAL_TEXT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


_ZERO = Fraction(0)
_INT_OR_FRACTION = (int, Fraction)


def frac(x: Scalar) -> Fraction:
    """Coerce an int, Fraction or 'p/q' string to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if not _RATIONAL_TEXT.fullmatch(x.strip()):
            raise ValueError(f"not a rational 'p' or 'p/q': {x!r}")
        return Fraction(x.strip())
    raise TypeError(f"cannot interpret {x!r} as a rational")


_RATIONAL_CLASSES = frozenset((int, Fraction))
_INT_ONLY = frozenset((int,))


def _fractions(v: Iterable) -> list[Fraction]:
    """The entries of ``v`` coerced through ``frac``; a ``Fraction`` is kept
    as it is."""
    return [x if x.__class__ is Fraction else frac(x) for x in v]


def _nonzero(v: Sequence) -> list[tuple[int, Fraction]]:
    """The ``(index, entry)`` pairs of the nonzero entries of ``v``, each
    entry a Fraction; every entry, zero or not, is coerced as in
    ``_fractions``."""
    return [(j, x) for j, x in enumerate(_fractions(v)) if x]


def vec(entries: Iterable[Scalar]) -> Vector:
    return tuple(frac(e) for e in entries)


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_is_zero(u: Vector) -> bool:
    return not any(u)


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix over the rationals."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        # Every entry is an int or a Fraction, so no constructor, not even
        # the raw one, stores a float.
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("column count mismatch")
            if not _RATIONAL_CLASSES.issuperset(map(type, row)):
                bad = next(x for x in row if type(x) not in _RATIONAL_CLASSES)
                raise TypeError(f"cannot interpret {bad!r} as a rational")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Scalar]]) -> "Matrix":
        ent = tuple(tuple(frac(x) for x in row) for row in rows)
        nrows = len(ent)
        ncols = len(ent[0]) if nrows else 0
        return Matrix(nrows, ncols, ent)

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        z = Fraction(0)
        return Matrix(rows, cols, tuple(tuple(z for _ in range(cols)) for _ in range(rows)))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, tuple(
            tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)))

    @staticmethod
    def diagonal(values: Sequence[Scalar]) -> "Matrix":
        vals = [frac(v) for v in values]
        n = len(vals)
        return Matrix(n, n, tuple(
            tuple(vals[i] if i == j else Fraction(0) for j in range(n)) for i in range(n)))

    @staticmethod
    def from_columns(cols: Sequence[Sequence[Scalar]]) -> "Matrix":
        ncols = len(cols)
        nrows = len(cols[0]) if ncols else 0
        return Matrix(nrows, ncols, tuple(
            tuple(frac(cols[j][i]) for j in range(ncols)) for i in range(nrows)))

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def column(self, j: int) -> Vector:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not any(map(any, self.entries))

    def transpose(self) -> "Matrix":
        rows = [_fractions(row) for row in self.entries]
        return Matrix(self.cols, self.rows, tuple(
            tuple(rows[i][j] for i in range(self.rows)) for j in range(self.cols)))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(self.rows, self.cols, tuple(
            tuple(a + b for a, b in zip(_fractions(r1), _fractions(r2)))
            for r1, r2 in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(self.rows, self.cols, tuple(
            tuple(a - b for a, b in zip(_fractions(r1), _fractions(r2)))
            for r1, r2 in zip(self.entries, other.entries)))

    def __neg__(self) -> "Matrix":
        return self.scale(Fraction(-1))

    def scale(self, c: Scalar) -> "Matrix":
        cc = frac(c)
        if not cc:
            return Matrix.zero(self.rows, self.cols)
        return Matrix(self.rows, self.cols, tuple(
            tuple([cc * x if x else _ZERO for x in _fractions(row)])
            for row in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        # A slot still holding the shared _ZERO has no term yet: it takes
        # its first product as it is, with no addition to zero.
        right = [_nonzero(row) for row in other.entries]
        out = []
        for row in self.entries:
            acc = [_ZERO] * other.cols
            for a, terms in zip(_fractions(row), right):
                if a:
                    for j, b in terms:
                        s = acc[j]
                        acc[j] = a * b if s is _ZERO else s + a * b
            out.append(tuple(acc))
        return Matrix(self.rows, other.cols, tuple(out))

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        terms = _nonzero(v)
        out = []
        for row in map(_fractions, self.entries):
            s = _ZERO
            for j, x in terms:
                a = row[j]
                if a:
                    s = a * x if s is _ZERO else s + a * x
            out.append(s)
        return tuple(out)

    def trace(self) -> Fraction:
        if not self.is_square():
            raise ValueError("trace of a non-square matrix")
        return sum(_fractions(self.entries[i][i] for i in range(self.rows)), _ZERO)

    def det(self) -> Fraction:
        """Determinant by one Bareiss elimination on the integer matrix d*M,
        d the lcm of the denominators: det M = det(d*M) / d^n."""
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        a, d = _integer_rows(self)
        rank, det, _ = _bareiss(a)
        if rank < self.rows:
            return _ZERO
        return Fraction(det, d ** self.rows)

    def inverse(self) -> "Matrix":
        if not self.is_square():
            raise NotInvertible("not square")
        n = self.rows
        red, rank, _ = rref(self.hstack(Matrix.identity(n)))
        if rank < n or any(red.entries[i][i] != 1 for i in range(n)):
            raise NotInvertible("singular matrix")
        return Matrix(n, n, tuple(row[n:] for row in red.entries))

    def rank(self) -> int:
        """Rank by Bareiss elimination on the integer matrix d*M."""
        return _bareiss(_integer_rows(self)[0])[0]

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return Matrix(self.rows, self.cols + other.cols, tuple(
            r1 + r2 for r1, r2 in zip(self.entries, other.entries)))

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "Matrix":
        return Matrix(len(row_idx), len(col_idx), tuple(
            tuple(self.entries[i][j] for j in col_idx) for i in row_idx))

    def flatten(self) -> Vector:
        """Row-major vectorization."""
        return tuple(x for row in self.entries for x in row)

    @staticmethod
    def unflatten(v: Vector, rows: int, cols: int) -> "Matrix":
        if len(v) != rows * cols:
            raise ValueError("length mismatch in unflatten")
        return Matrix(rows, cols, tuple(
            tuple(v[i * cols + j] for j in range(cols)) for i in range(rows)))

    def _check_same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __str__(self) -> str:
        grid = [[str(x) for x in row] for row in self.entries]
        widths = [max(len(grid[i][j]) for i in range(self.rows)) for j in range(self.cols)] \
            if self.rows else []
        return "\n".join(
            "[" + "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) + "]"
            for row in grid)


def _integer_point(v: Iterable) -> tuple[int, tuple[int, ...]]:
    """``(L, L*v)`` for the rational vector v, L the lcm of its denominators.

    L*v is the integer vector on v's line with v's orientation; the pair
    identifies v exactly, where L*v alone does not: (1/2, 1) and (1, 2)
    share L*v = (1, 2).  An all-``int`` v is its own integer point, with
    L = 1; any other entries are coerced through ``frac``, so a ``float``
    raises ``TypeError``."""
    v = v if v.__class__ is tuple else tuple(v)
    if _INT_ONLY.issuperset(map(type, v)):
        return 1, v
    pairs = [(x if x.__class__ in _INT_OR_FRACTION else frac(x)).as_integer_ratio()
             for x in v]
    scale = math.lcm(*[d for _, d in pairs])
    return scale, tuple([n * (scale // d) for n, d in pairs])


def _integer_rows(m: Matrix) -> tuple[list[list[int]], int]:
    """``(rows, d)``: the integer matrix d*m as lists of ints, d the lcm of
    all of m's denominators (1 when every entry is integral)."""
    d, flat = _integer_point(itertools.chain.from_iterable(m.entries))
    c = m.cols
    return [list(flat[i * c:(i + 1) * c]) for i in range(m.rows)], d


def _bareiss(a: list[list[int]]) -> tuple[int, int, list[int]]:
    """Bareiss's fraction-free elimination of the integer rows ``a``, in
    place: ``(rank, det, pivot_columns)``, where det is the last pivot,
    signed by the row swaps; for a square ``a`` of full rank it is the
    determinant.

    After the pivots in columns c_1 < ... < c_r every entry below them is
    the (r+1)-minor on rows 1..r, i and columns c_1..c_r, j, so the division
    by the previous pivot is exact (Sylvester's identity), also when a
    column holds no pivot and is skipped (Math. Comp. 22, 1968).  The
    column being eliminated is not written: left of its pivot a row holds
    stale entries, and only ``a[k][c_k:]`` is its echelon form."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    r, prev, sign = 0, 1, 1
    pivots = []
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if a[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            sign = -sign
        prow = a[r]
        p = prow[col]
        for i in range(r + 1, nrows):
            row = a[i]
            f = row[col]
            for c in range(col + 1, ncols):
                row[c] = (p * row[c] - f * prow[c]) // prev
        prev = p
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return r, sign * prev, pivots


def _rank(rows: Sequence[Sequence[int]]) -> int:
    """The rank of integer rows; ``_bareiss`` eliminates a copy, so cached
    rows are never written."""
    return _bareiss([list(r) for r in rows])[0]


def _int_matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """The product of two integer matrices given as lists of rows."""
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for x, brow in zip(row, b):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] += x * y
        out.append(acc)
    return out


def rref(m: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """Reduced row echelon form.

    Returns ``(reduced, rank, pivot_columns)``.  Pivots are 1 and the only
    nonzero entries of their columns, so the output is the unique RREF of
    ``m``.

    Each row is cleared of its own denominators, which leaves the RREF
    unchanged, the zero rows are set aside (they are the RREF's last rows),
    and ``_bareiss`` brings the other integer rows to echelon rows E_k
    with pivots p_k in columns c_k, read from c_k on.  The back substitution
    runs from the last pivot up, in integers: with D = +-p_r, the last pivot
    as ``_bareiss`` returns it, the integer row
    X_k = (D*E_k - sum over j > k of E_k[c_j]*X_j) / p_k is D times the k-th
    row of the RREF, and the division is exact (Cramer's rule).  The only
    ``Fraction``s formed are the entries X_k[c] / D.
    """
    a = [list(v) for v in (_integer_point(row)[1] for row in m.entries)
         if any(v)]
    rank, last, pivots = _bareiss(a)
    terms: list[list[tuple[int, int]]] = [[]] * rank
    for k in range(rank - 1, -1, -1):
        row, start = a[k], pivots[k]
        p = row[start]
        x = [last * y for y in row[start:]]
        for j in range(k + 1, rank):
            f = row[pivots[j]]
            if f:
                for c, y in terms[j]:
                    x[c - start] -= f * y
        terms[k] = [(start + i, y // p) for i, y in enumerate(x) if y]
    reduced = []
    for nonzero in terms:
        out = [_ZERO] * m.cols
        for c, y in nonzero:
            out[c] = Fraction(y, last)
        reduced.append(tuple(out))
    reduced += [(_ZERO,) * m.cols] * (m.rows - rank)
    return Matrix(m.rows, m.cols, tuple(reduced)), rank, tuple(pivots)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace given by its unique reduced-echelon basis.

    Basis vectors are the nonzero rows of the RREF of any spanning set, so
    two equal subspaces always carry identical bases.
    """

    ambient_dim: int
    basis: tuple[Vector, ...]
    pivots: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "pivots", tuple(
            next(i for i, x in enumerate(row) if x != 0) for row in self.basis))

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Sequence[Vector]) -> "Subspace":
        """The span of ``vectors``, every entry coerced through ``frac``
        (``int`` becomes ``Fraction``, ``float`` raises ``TypeError``, also
        in a zero vector)."""
        vecs = [v for v in map(_fractions, vectors) if any(v)]
        if not vecs:
            return Subspace(ambient_dim, ())
        red, rank, _ = rref(Matrix(len(vecs), ambient_dim, tuple(vecs)))
        return Subspace(ambient_dim, tuple(red.entries[:rank]))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.identity(ambient_dim).entries)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Vector) -> bool:
        return self.coordinates(v) is not None

    def reduce(self, v: Vector) -> Vector:
        """``v`` reduced against the echelon basis: zero at every pivot, and
        zero altogether exactly when ``v`` lies in the subspace."""
        w = _fractions(v)
        for row, p in zip(self.basis, self.pivots):
            f = w[p]
            if f:
                for c, y in enumerate(row):
                    if y:
                        w[c] -= f * y
        return tuple(w)

    def coordinates(self, v: Vector) -> Optional[Vector]:
        """Coefficients of ``v`` in the echelon basis, or None if outside."""
        if len(v) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if not vec_is_zero(self.reduce(v)):
            return None
        return tuple(Fraction(v[p]) for p in self.pivots)


def nullspace(m: Matrix) -> Subspace:
    """Canonical basis of the right kernel {v : m v = 0}."""
    red, rank, pivots = rref(m)
    free_cols = [j for j in range(m.cols) if j not in pivots]
    basis = []
    for f in free_cols:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red.entries[r][f]
        basis.append(tuple(v))
    return Subspace.from_vectors(m.cols, basis)


def solve(m: Matrix, rhs: Vector) -> Optional[Vector]:
    """One exact solution of ``m x = rhs``, or None if inconsistent."""
    if len(rhs) != m.rows:
        raise ValueError("rhs length mismatch")
    aug = m.hstack(Matrix(m.rows, 1, tuple((r,) for r in rhs)))
    red, rank, pivots = rref(aug)
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for r, p in enumerate(pivots):
        x[p] = red.entries[r][m.cols]
    return tuple(x)


# ---------------------------------------------------------------------------
# polynomials (coefficient tuples, ascending degree)
# ---------------------------------------------------------------------------

Poly = tuple[Fraction, ...]


def poly_degree(p: Poly) -> int:
    return len(p) - 1


def char_poly(m: Matrix) -> Poly:
    """Monic characteristic polynomial det(tI - m), ascending coefficients.

    Berkowitz's division-free recurrence (Inf. Process. Lett. 18, 1984) on
    the integer matrix A = d*m, d the lcm of m's denominators: bordering
    the leading r x r block A_r by the column C, the row R and the corner a
    multiplies the descending coefficients by the lower-triangular Toeplitz
    matrix with first column 1, -a, -R C, -R A_r C, ..., -R A_r^(r-1) C.
    The coefficient c_k of t^(n-k) of det(tI - A) becomes c_k / d^k, the
    only ``Fraction``s formed.
    """
    if not m.is_square():
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.rows
    a, d = _integer_rows(m)
    desc = [1]
    for r in range(n):
        column = [a[i][r] for i in range(r)]
        row = a[r][:r]
        toeplitz = [1, -a[r][r]]
        for k in range(r):
            toeplitz.append(-sum(x * y for x, y in zip(row, column)))
            if k < r - 1:  # A_r C: zip stops at the r entries of C
                column = [sum(x * y for x, y in zip(a[i], column))
                          for i in range(r)]
        desc = [sum(toeplitz[i - j] * c for j, c in enumerate(desc[:i + 1]))
                for i in range(r + 2)]
    return tuple(Fraction(desc[k], d ** k) for k in range(n, -1, -1))


# ---------------------------------------------------------------------------
# factoring over Q
#
# Inside the factoriser a polynomial is a list of ints, ascending and
# without trailing zeros (the zero polynomial is []); ``Fraction``s appear
# only at its entry and exit.  The ``_z_*`` helpers work modulo an integer m,
# a prime p or a power of it.
# ---------------------------------------------------------------------------


def _trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _derivative(a: list) -> list:
    return [k * c for k, c in enumerate(a)][1:]


def _primitive(a: Sequence) -> list[int]:
    """The integer multiple of a nonzero rational polynomial whose
    coefficients are coprime and whose leading coefficient is positive."""
    ints = _integer_point(a)[1]
    g = math.gcd(*ints) * (1 if ints[-1] > 0 else -1)
    return [c // g for c in ints]


def _exact_quotient(a: list[int], b: list[int]) -> Optional[list[int]]:
    """a / b when b divides a over the integers, else None."""
    a = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(a) - len(b), -1, -1):
        c, r = divmod(a[i + len(b) - 1], b[-1])
        if r:
            return None
        q[i] = c
        if c:
            for j, y in enumerate(b):
                a[i + j] -= c * y
    return None if any(a) else q


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd over Z, leading coefficient positive, by primitive
    pseudo-remainder sequences; a is nonzero."""
    a = _primitive(a)
    while b:
        b = _primitive(b)
        while len(a) >= len(b):
            shift, c = len(a) - len(b), a[-1]
            a = [x * b[-1] for x in a]
            for j, y in enumerate(b):
                a[shift + j] -= c * y
            _trim(a)
        a, b = b, a
    return a


def _squarefree_parts(f: list[int]) -> list[tuple[list[int], int]]:
    """Yun's squarefree decomposition of an integer f of degree >= 1: the
    pairwise coprime, primitive squarefree parts a_i with f = c prod a_i^i,
    as (a_i, i) for every nonconstant a_i."""
    df = _derivative(f)
    g = _int_gcd(f, df)
    b, c = _exact_quotient(f, g), _exact_quotient(df, g)
    parts = []
    mult = 1
    while len(b) > 1:
        d = _trim([x - y for x, y in
                   itertools.zip_longest(c, _derivative(b), fillvalue=0)])
        a = _int_gcd(b, d)
        if len(a) > 1:
            parts.append((a, mult))
        b, c = _exact_quotient(b, a), _exact_quotient(d, a)
        mult += 1
    return parts


def _sign_at(h: list, x: int) -> int:
    acc = 0
    for c in reversed(h):
        acc = acc * x + c
    return (acc > 0) - (acc < 0)


def _split_at_sign_changes(h: list, cuts: list[int]) -> list[int]:
    """Refine ``cuts``, sorted integers between which h is monotone where
    they are more than 1 apart, at each sign change of h by exact
    bisection: an integer root of h becomes a cut, and a sign change
    between k and k + 1 the cuts k and k + 1."""
    signs = [_sign_at(h, x) for x in cuts]
    out = set(cuts)
    for lo, hi, s_lo, s_hi in zip(cuts, cuts[1:], signs, signs[1:]):
        if hi - lo < 2 or s_lo * s_hi >= 0:
            continue
        while hi - lo > 1:
            mid = (lo + hi) // 2
            s_mid = _sign_at(h, mid)
            if s_mid == 0:
                lo = hi = mid
            elif s_mid == s_lo:
                lo = mid
            else:
                hi = mid
        out.update((lo, hi))
    return sorted(out)


def _integer_roots(g: list[int]) -> list[int]:
    """Integer roots of the monic integer polynomial g, ascending.

    Every root lies in [-B, B] with B a power of two at or above Fujiwara's
    bound 2 max |g_(n-k)|^(1/k).  The (n-1)-th derivative of g is linear,
    so it is monotone on [-B, B]; splitting at its sign change leaves pieces
    on which the (n-2)-th derivative is monotone, and so on down to g,
    whose integer roots then are cuts.  Every step is an exact bisection,
    so no integer is factored and the work grows with the bits of B.
    """
    n = len(g) - 1
    bound = 2 ** (1 + max(((abs(c).bit_length() + k - 1) // k
                           for k, c in zip(range(n, 0, -1), g)), default=0))
    derivatives = [g]
    for _ in range(n - 1):
        derivatives.append(_derivative(derivatives[-1]))
    cuts = [-bound, bound]
    for h in reversed(derivatives):
        cuts = _split_at_sign_changes(h, cuts)
    return [x for x in cuts if _sign_at(g, x) == 0]


def _rational_roots(f: list[int]) -> list[Fraction]:
    """Rational roots of an integer polynomial f of degree n with leading
    coefficient c: c^(n-1) f(y / c) is monic with integer coefficients, and
    its integer roots are c times those of f."""
    n, c = len(f) - 1, f[-1]
    g = [a * c ** (n - 1 - k) for k, a in enumerate(f[:-1])] + [1]
    return [Fraction(y, c) for y in _integer_roots(g)]


def _z_mul(a: list[int], b: list[int], m: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim([c % m for c in out])


def _z_add(a: list[int], b: list[int], m: int) -> list[int]:
    return _trim([(x + y) % m for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def _z_sub(a: list[int], b: list[int], m: int) -> list[int]:
    return _trim([(x - y) % m for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def _z_divmod(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder mod m; the leading coefficient of b is a unit."""
    a = [c % m for c in a]
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv = pow(b[-1], -1, m)
    for i in range(len(a) - len(b), -1, -1):
        c = q[i] = a[i + len(b) - 1] * inv % m
        if c:
            for j, y in enumerate(b):
                a[i + j] = (a[i + j] - c * y) % m
    return _trim(q), _trim(a[:len(b) - 1])


def _z_monic(a: list[int], m: int) -> list[int]:
    inv = pow(a[-1], -1, m)
    return [c * inv % m for c in a]


def _z_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd mod the prime p; a is nonzero mod p."""
    a, b = _trim([c % p for c in a]), _trim([c % p for c in b])
    while b:
        a, b = b, _z_divmod(a, b, p)[1]
    return _z_monic(a, p)


def _z_powmod(a: list[int], e: int, f: list[int], m: int) -> list[int]:
    """a^e mod (f, m); f is monic."""
    result, base = [1], _z_divmod(a, f, m)[1]
    while e:
        if e & 1:
            result = _z_divmod(_z_mul(result, base, m), f, m)[1]
        base = _z_divmod(_z_mul(base, base, m), f, m)[1]
        e >>= 1
    return result


def _z_bezout(g: list[int], h: list[int], p: int) -> tuple[list[int], list[int]]:
    """s, t with s g + t h = 1 mod the prime p, deg s < deg h, deg t < deg g,
    for g and h coprime mod p and h monic."""
    r0, r1, s0, s1 = g, h, [1], []
    while r1:
        quo, rem = _z_divmod(r0, r1, p)
        r0, r1, s0, s1 = r1, rem, s1, _z_sub(s0, _z_mul(quo, s1, p), p)
    s = _z_divmod(_z_mul(s0, [pow(r0[0], -1, p)], p), h, p)[1]
    t = _z_divmod(_z_sub([1], _z_mul(s, g, p), p), h, p)[0]
    return s, t


def _z_equal_degree(g: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """Cantor-Zassenhaus: the monic irreducible factors, all of degree d, of
    the monic squarefree g mod the odd prime p."""
    if len(g) - 1 == d:
        return [g]
    while True:
        a = [rng.randrange(p) for _ in range(len(g) - 1)]
        b = _z_sub(_z_powmod(a, (p ** d - 1) // 2, g, p), [1], p)
        f = _z_gcd(g, b, p) if b else g
        if 1 < len(f) < len(g):
            return (_z_equal_degree(f, d, p, rng)
                    + _z_equal_degree(_z_divmod(g, f, p)[0], d, p, rng))


def _z_factor(f: list[int], p: int) -> list[list[int]]:
    """Monic irreducible factors of the monic squarefree f mod the odd prime
    p, by distinct-degree then equal-degree splitting."""
    rng = random.Random(0)
    factors: list[list[int]] = []
    x_power, d = [0, 1], 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        x_power = _z_powmod(x_power, p, f, p)
        g = _z_gcd(f, _z_sub(x_power, [0, 1], p), p)
        if len(g) > 1:
            factors += _z_equal_degree(g, d, p, rng)
            f = _z_divmod(f, g, p)[0]
            x_power = _z_divmod(x_power, f, p)[1]
    if len(f) > 1:
        factors.append(f)
    return factors


def _hensel_lift(f: list[int], factors: list[list[int]], p: int,
                 modulus: int) -> list[list[int]]:
    """Lift f = lc(f) prod(factors) mod p, the factors monic and pairwise
    coprime mod p, to monic factors mod ``modulus``, a power p^(2^j), by a
    factor tree of quadratic Hensel steps (von zur Gathen and Gerhard,
    Modern Computer Algebra, Algorithm 15.10)."""
    if len(factors) == 1:
        return [_z_monic(f, modulus)]
    half = len(factors) // 2
    g = [f[-1] % p]
    for a in factors[:half]:
        g = _z_mul(g, a, p)
    h = [1]
    for a in factors[half:]:
        h = _z_mul(h, a, p)
    s, t = _z_bezout(g, h, p)
    m = p
    while m < modulus:
        m *= m
        e = _z_sub(f, _z_mul(g, h, m), m)
        quo, rem = _z_divmod(_z_mul(s, e, m), h, m)
        g = _z_add(g, _z_add(_z_mul(t, e, m), _z_mul(quo, g, m), m), m)
        h = _z_add(h, rem, m)
        b = _z_sub(_z_add(_z_mul(s, g, m), _z_mul(t, h, m), m), [1], m)
        quo, rem = _z_divmod(_z_mul(s, b, m), h, m)
        s = _z_sub(s, rem, m)
        t = _z_sub(_z_sub(t, _z_mul(t, b, m), m), _z_mul(quo, g, m), m)
    return (_hensel_lift(g, factors[:half], p, modulus)
            + _hensel_lift(h, factors[half:], p, modulus))


def _split_rootfree(f: list[int]) -> list[list[int]]:
    """Irreducible factors over Q of a primitive squarefree integer
    polynomial with no rational root, by Zassenhaus's method: factor mod a
    prime p that keeps it squarefree, Hensel-lift the factors past twice
    Mignotte's bound on the coefficients of lc(f) times any factor, then try
    products of ever more lifted factors until each divides exactly."""
    p = 3
    while (f[-1] % p == 0 or any(p % k == 0 for k in range(3, math.isqrt(p) + 1, 2))
           or len(_z_gcd(f, _derivative(f), p)) > 1):
        p += 2
    lifted = _z_factor(_z_monic(f, p), p)
    if len(lifted) == 1:
        return [f]
    bound = abs(f[-1]) * 2 ** (len(f) - 1) * (math.isqrt(sum(c * c for c in f)) + 1)
    modulus = p
    while modulus <= 2 * bound:
        modulus *= modulus
    lifted = _hensel_lift(f, lifted, p, modulus)
    found = []
    size = 1
    while 2 * size <= len(lifted):
        for subset in itertools.combinations(range(len(lifted)), size):
            candidate = [f[-1]]
            for i in subset:
                candidate = _z_mul(candidate, lifted[i], modulus)
            candidate = _primitive([c - modulus if 2 * c > modulus else c
                                    for c in candidate])
            quotient = _exact_quotient(f, candidate)
            if quotient is not None:
                found.append(candidate)
                f = quotient
                lifted = [a for i, a in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return found + [f]


def _split_squarefree(f: list[int]) -> list[list[int]]:
    """Irreducible primitive factors over Q of a primitive squarefree
    integer polynomial."""
    if len(f) == 3:
        root = _sqrt_fraction(f[1] * f[1] - 4 * f[0] * f[2])
        roots = ([Fraction(-f[1] + root, 2 * f[2]), Fraction(-f[1] - root, 2 * f[2])]
                 if root is not None else [])
    else:
        roots = _rational_roots(f) if len(f) > 3 else []
    linear = [[-r.numerator, r.denominator] for r in roots]
    for factor in linear:
        f = _exact_quotient(f, factor)
    if len(f) < 5:
        return linear + ([f] if len(f) > 1 else [])
    return linear + _split_rootfree(f)


def _factor_order(factor: tuple[Poly, int]) -> tuple:
    return len(factor[0]), factor[0]


def _factor_over_rationals(p: Poly) -> list[tuple[Poly, int]]:
    """Monic irreducible factors over Q of a nonzero rational polynomial,
    with multiplicities; a constant has none.

    Exact throughout, in integer arithmetic on the primitive integer
    multiple of p, and complete at every degree:

    1. Yun's squarefree decomposition splits p into coprime squarefree
       parts, one per multiplicity.
    2. A part of degree 1 is a factor; a part of degree 2 splits into
       rational roots exactly when its discriminant is a square.  From a
       part of higher degree the rational roots are split off
       (``_rational_roots``: exact bisection, no integer factoring).
    3. A root-free remainder of degree 2 or 3 is irreducible; one of degree
       4 or more is split by ``_split_rootfree`` (Zassenhaus: factors mod
       a prime, Hensel lifting, recombination), which also separates a
       sextic into two cubics.

    The factors come back sorted by degree, then by their coefficient
    tuple, constant term first.
    """
    f = _trim(list(p))
    if len(f) < 2:
        return []
    return sorted(((tuple(Fraction(c, g[-1]) for c in g), mult)
                   for part, mult in _squarefree_parts(_primitive(f))
                   for g in _split_squarefree(part)), key=_factor_order)


@dataclass(frozen=True)
class EigenStructure:
    """Complete spectral data: the real Jordan blocks of a rational matrix.

    Each block is ``("r", size, lam)`` for a Jordan block of size ``size``
    at the rational eigenvalue lam, or ``("c", size, p, q2)`` for a real
    Jordan block of ``size`` 2x2 tiles at the pair p +- sqrt(q2) i, q2 > 0.
    Blocks are sorted by :func:`_block_key`: rational first, then by lam
    or (p, q2), then by decreasing size.
    """

    dim: int
    blocks: tuple[tuple, ...]

    def rational_eigenvalues(self) -> dict[Fraction, tuple[int, ...]]:
        out: dict[Fraction, tuple[int, ...]] = {}
        for kind, size, *vals in self.blocks:
            if kind == "r":
                out[vals[0]] = out.get(vals[0], ()) + (size,)
        return out

    def complex_pairs(self) -> dict[tuple[Fraction, Fraction], tuple[int, ...]]:
        out: dict[tuple[Fraction, Fraction], tuple[int, ...]] = {}
        for kind, size, *vals in self.blocks:
            if kind == "c":
                out[tuple(vals)] = out.get(tuple(vals), ()) + (size,)
        return out


def _block_key(block: tuple) -> tuple:
    """Rational blocks first, then by eigenvalue data, then by decreasing
    size; the values need only compare with == and <."""
    return block[0] == "c", block[2:], -block[1]


def eigen_structure(m: Matrix) -> EigenStructure:
    """Real Jordan blocks of ``m``, via exact rank tests.

    For an irreducible factor f of the characteristic polynomial, of
    multiplicity ``mult``, the nullity of f(m)^k divided by deg f is
    N_k = sum over the blocks of f of min(size, k), so 2 N_k - N_(k-1) -
    N_(k+1) blocks have size k.  The powers stop once N_k reaches ``mult``,
    after at most ``mult`` of them.

    The rank tests run on integer matrices, each a nonzero multiple of f(m)
    with A = d*m, d the lcm of m's denominators: q*A - p*d*I for the factor
    t - p/q, and L*(A^2 + c1*d*A + c0*d^2*I) for t^2 + c1*t + c0, L the lcm
    of the denominators of c0 and c1.  Powers are integer products and
    ranks Bareiss eliminations, so no ``Fraction`` is formed after the
    factorisation but the block data.

    The spectrum is unsupported when an irreducible factor of the
    characteristic polynomial is a quadratic with positive discriminant
    (:class:`RealIrrationalEigenvalues`) or has degree >= 3
    (:class:`IrreducibleFactorDegreeTooHigh`).  The first unsupported factor
    in ``_factor_over_rationals`` order, lowest degree first, names the
    cause, so a real irrational pair wins over a factor of degree >= 3.
    Nothing is computed before every factor has been checked.
    """
    if not m.is_square():
        raise ValueError("eigen structure of a non-square matrix")
    n = m.rows
    factors = _factor_over_rationals(char_poly(m))
    for factor, _ in factors:
        deg = poly_degree(factor)
        disc = factor[1] * factor[1] - 4 * factor[0] if deg == 2 else -1
        if disc >= 0:
            raise RealIrrationalEigenvalues(
                f"irreducible quadratic with non-negative discriminant {disc}")
        if deg >= 3:
            raise IrreducibleFactorDegreeTooHigh(
                f"irreducible factor of degree {deg} in the characteristic polynomial")
    a, d = _integer_rows(m)
    blocks: list[tuple] = []
    for factor, mult in factors:
        deg = poly_degree(factor)
        if deg == 1:
            kind, vals = "r", (-factor[0],)
            # q*d*(m - p/q) = q*A - p*d*I, for the eigenvalue p/q
            p, q = vals[0].numerator, vals[0].denominator
            g = [[q * x for x in row] for row in a]
            for i in range(n):
                g[i][i] -= p * d
        else:
            kind, vals = "c", (-factor[1] / 2, factor[0] - factor[1] * factor[1] / 4)
            # L*d^2*f(m) = L*A^2 + L*c1*d*A + L*c0*d^2*I, L clearing c0, c1
            scale, (b0, b1) = _integer_point(factor[:2])
            g = [[scale * x + b1 * d * y for x, y in zip(row2, row)]
                 for row2, row in zip(_int_matmul(a, a), a)]
            for i in range(n):
                g[i][i] += b0 * d * d
        nullities = [0]
        power = g
        for _ in range(mult):
            nullities.append((n - _bareiss([list(row) for row in power])[0]) // deg)
            if nullities[-1] == mult:
                break
            power = _int_matmul(power, g)
        nullities.append(mult)
        for k in range(len(nullities) - 2, 0, -1):
            blocks += [(kind, k, *vals)] * (
                2 * nullities[k] - nullities[k - 1] - nullities[k + 1])
    blocks.sort(key=_block_key)
    if sum(size * (1 if kind == "r" else 2) for kind, size, *_ in blocks) != n:
        raise ExactLAError("internal: Jordan sizes do not fill the dimension")
    return EigenStructure(n, tuple(blocks))


def _sqrt_fraction(x: Fraction) -> Optional[Fraction]:
    """Exact square root of a non-negative rational, or None; the root of
    an ``int`` is an ``int``."""
    if x < 0:
        return None
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn != x.numerator or rd * rd != x.denominator:
        return None
    return rn if x.__class__ is int else Fraction(rn, rd)


def _block_diag(blocks: list[Matrix]) -> Matrix:
    total = sum(b.rows for b in blocks)
    m = [[Fraction(0)] * total for _ in range(total)]
    offset = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                m[offset + i][offset + j] = b.entries[i][j]
        offset += b.rows
    return Matrix(total, total, tuple(tuple(row) for row in m))
