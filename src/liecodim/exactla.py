"""Exact rational linear algebra.

Everything here computes over ``fractions.Fraction``; no floating point is
used anywhere.  Matrices are immutable, row-major grids of rationals.
Spectral computations support rational eigenvalues plus complex-conjugate
pairs coming from irreducible quadratic factors; anything outside that field
(real irrational eigenvalues, irreducible factors of degree >= 3) raises a
clean error instead of approximating.
"""

from __future__ import annotations

import math
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
    """An irreducible quadratic factor has positive discriminant (real
    irrational roots), which the exact engine does not represent."""


class NotInvertible(ExactLAError):
    """A matrix required to be invertible is singular."""


# An optional sign, digits and an optional "/digits": no exponent and no
# decimal point, so a short string never stands for a huge number.
_RATIONAL_TEXT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


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


def format_frac(x: Fraction) -> str:
    """Render a rational as 'p' or 'p/q' (never as a float)."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def vec(entries: Iterable[Scalar]) -> Vector:
    return tuple(frac(e) for e in entries)


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_scale(c: Fraction, u: Vector) -> Vector:
    return tuple(c * a for a in u)


def vec_is_zero(u: Vector) -> bool:
    return all(a == 0 for a in u)


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix over the rationals."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("column count mismatch")

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
    def from_columns(cols: Sequence[Vector]) -> "Matrix":
        ncols = len(cols)
        nrows = len(cols[0]) if ncols else 0
        return Matrix(nrows, ncols, tuple(
            tuple(cols[j][i] for j in range(ncols)) for i in range(nrows)))

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
        return all(x == 0 for row in self.entries for x in row)

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, tuple(
            tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols)))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(self.rows, self.cols, tuple(
            tuple(a + b for a, b in zip(r1, r2))
            for r1, r2 in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(self.rows, self.cols, tuple(
            tuple(a - b for a, b in zip(r1, r2))
            for r1, r2 in zip(self.entries, other.entries)))

    def __neg__(self) -> "Matrix":
        return self.scale(Fraction(-1))

    def scale(self, c: Scalar) -> "Matrix":
        cc = frac(c)
        return Matrix(self.rows, self.cols, tuple(
            tuple(cc * x for x in row) for row in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        ot = other.transpose().entries
        return Matrix(self.rows, other.cols, tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in ot)
            for row in self.entries))

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)

    def trace(self) -> Fraction:
        if not self.is_square():
            raise ValueError("trace of a non-square matrix")
        return sum((self.entries[i][i] for i in range(self.rows)), Fraction(0))

    def det(self) -> Fraction:
        """Determinant by fraction-preserving Gaussian elimination."""
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        a = [list(row) for row in self.entries]
        det = Fraction(1)
        for col in range(n):
            pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
            if pivot is None:
                return Fraction(0)
            if pivot != col:
                a[col], a[pivot] = a[pivot], a[col]
                det = -det
            det *= a[col][col]
            inv = 1 / a[col][col]
            for r in range(col + 1, n):
                if a[r][col] != 0:
                    f = a[r][col] * inv
                    for c in range(col, n):
                        a[r][c] -= f * a[col][c]
        return det

    def inverse(self) -> "Matrix":
        if not self.is_square():
            raise NotInvertible("not square")
        n = self.rows
        aug = Matrix(n, 2 * n, tuple(
            row + tuple(Fraction(1 if i == j else 0) for j in range(n))
            for i, row in enumerate(self.entries)))
        red, rank, _ = rref(aug)
        if rank < n or any(red.entries[i][i] != 1 for i in range(n)):
            raise NotInvertible("singular matrix")
        return Matrix(n, n, tuple(row[n:] for row in red.entries))

    def rank(self) -> int:
        return rref(self)[1]

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return Matrix(self.rows, self.cols + other.cols, tuple(
            r1 + r2 for r1, r2 in zip(self.entries, other.entries)))

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ValueError("column mismatch in vstack")
        return Matrix(self.rows + other.rows, self.cols, self.entries + other.entries)

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
        grid = [[format_frac(x) for x in row] for row in self.entries]
        widths = [max(len(grid[i][j]) for i in range(self.rows)) for j in range(self.cols)] \
            if self.rows else []
        return "\n".join(
            "[" + "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) + "]"
            for row in grid)


def rref(m: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """Reduced row echelon form.

    Returns ``(reduced, rank, pivot_columns)``.  Pivots are normalized to 1
    and cleared above and below, so the output is the unique RREF of ``m``.
    """
    a = [list(row) for row in m.entries]
    nrows, ncols = m.rows, m.cols
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, nrows) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][col]
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    reduced = Matrix(nrows, ncols, tuple(tuple(row) for row in a))
    return reduced, len(pivots), tuple(pivots)


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
        vecs = [v for v in vectors if not vec_is_zero(v)]
        if not vecs:
            return Subspace(ambient_dim, ())
        red, rank, _ = rref(Matrix(len(vecs), ambient_dim, tuple(vecs)))
        return Subspace(ambient_dim, tuple(red.entries[:rank]))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace.from_vectors(
            ambient_dim,
            [tuple(Fraction(1 if i == j else 0) for j in range(ambient_dim))
             for i in range(ambient_dim)])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Vector) -> bool:
        return self.coordinates(v) is not None

    def reduce(self, v: Vector) -> Vector:
        """``v`` reduced against the echelon basis: zero at every pivot, and
        zero altogether exactly when ``v`` lies in the subspace."""
        w = list(v)
        for row, p in zip(self.basis, self.pivots):
            f = w[p]
            if f != 0:
                w = [x - f * y for x, y in zip(w, row)]
        return tuple(w)

    def coordinates(self, v: Vector) -> Optional[Vector]:
        """Coefficients of ``v`` in the echelon basis, or None if outside."""
        if len(v) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if not vec_is_zero(self.reduce(v)):
            return None
        return tuple(Fraction(v[p]) for p in self.pivots)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Subspace.from_vectors(self.ambient_dim, self.basis + other.basis)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis


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


def poly_eval_matrix(p: Poly, m: Matrix) -> Matrix:
    acc = Matrix.zero(m.rows, m.cols)
    for c in reversed(p):
        acc = acc @ m + Matrix.identity(m.rows).scale(c)
    return acc


def char_poly(m: Matrix) -> Poly:
    """Monic characteristic polynomial det(tI - m), ascending coefficients.

    Uses the Faddeev-LeVerrier recurrence, which stays in exact rational
    arithmetic throughout.
    """
    if not m.is_square():
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.rows
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    mk = Matrix.zero(n, n)
    c = Fraction(1)
    for k in range(1, n + 1):
        mk = m @ (mk + Matrix.identity(n).scale(c))
        c = -mk.trace() / k
        coeffs[n - k] = c
    return tuple(coeffs)


def _factor_over_rationals(p: Poly) -> list[tuple[Poly, int]]:
    """Irreducible monic factors of a rational polynomial with multiplicities.

    Delegates the factorization itself to sympy (exact over QQ); imported
    lazily so the common linear-algebra paths never pay the import cost.
    """
    import sympy

    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** k
               for k, c in enumerate(p))
    _, factors = sympy.Poly(expr, x, domain="QQ").factor_list()
    result = []
    for fac, mult in factors:
        monic = fac.monic()
        coeffs = monic.all_coeffs()  # descending
        asc = tuple(Fraction(int(c.p), int(c.q)) for c in reversed(coeffs))
        result.append((asc, int(mult)))
    return result


@dataclass(frozen=True)
class QuadraticEigenvalue:
    """One eigenvalue of a rational matrix, within the supported field.

    ``kind`` is either 'rational' (value stored exactly) or 'complex_pair'
    for a conjugate pair p +- q*i where p and q^2 are rational and q^2 > 0.
    ``multiplicity`` counts occurrences (pairs count once per conjugate
    pair).
    """

    kind: str
    multiplicity: int
    value: Optional[Fraction] = None
    real_part: Optional[Fraction] = None
    imag_sq: Optional[Fraction] = None

    def __post_init__(self) -> None:
        if self.kind == "rational":
            if self.value is None:
                raise ValueError("rational eigenvalue needs a value")
        elif self.kind == "complex_pair":
            if self.real_part is None or self.imag_sq is None:
                raise ValueError("complex pair needs (p, q^2)")
            if self.imag_sq <= 0:
                raise ValueError("complex pair requires q^2 > 0")
        else:
            raise ValueError(f"unknown eigenvalue kind {self.kind!r}")

    def sort_key(self) -> tuple:
        if self.kind == "rational":
            return (0, self.value, Fraction(0))
        return (1, self.real_part, self.imag_sq)

    def describe(self) -> str:
        if self.kind == "rational":
            return format_frac(self.value)
        return f"{format_frac(self.real_part)}+-sqrt({format_frac(self.imag_sq)})i"


@dataclass(frozen=True)
class EigenStructure:
    """Complete spectral data: eigenvalues with Jordan block size partitions.

    Entries are sorted by (kind, value) to make the structure canonical;
    block sizes are listed in descending order.
    """

    dim: int
    entries: tuple[tuple[QuadraticEigenvalue, tuple[int, ...]], ...]

    def rational_eigenvalues(self) -> dict[Fraction, tuple[int, ...]]:
        return {ev.value: sizes for ev, sizes in self.entries if ev.kind == "rational"}

    def complex_pairs(self) -> dict[tuple[Fraction, Fraction], tuple[int, ...]]:
        return {(ev.real_part, ev.imag_sq): sizes
                for ev, sizes in self.entries if ev.kind == "complex_pair"}


def _block_sizes_from_nullities(nullities: list[int]) -> tuple[int, ...]:
    """Jordan block sizes from the nullity sequence of successive powers."""
    counts = []
    prev = 0
    for nl in nullities:
        counts.append(nl - prev)
        prev = nl
    # counts[k] = number of blocks of size >= k+1
    sizes = []
    for k in range(len(counts) - 1, -1, -1):
        extra = counts[k] - (counts[k + 1] if k + 1 < len(counts) else 0)
        sizes.extend([k + 1] * extra)
    return tuple(sorted(sizes, reverse=True))


def eigen_structure(m: Matrix) -> EigenStructure:
    """Eigenvalues with Jordan block partitions, via exact rank tests.

    Raises :class:`IrreducibleFactorDegreeTooHigh` when some irreducible
    factor of the characteristic polynomial has degree >= 3, and
    :class:`RealIrrationalEigenvalues` for irreducible quadratics with
    positive discriminant.
    """
    if not m.is_square():
        raise ValueError("eigen structure of a non-square matrix")
    n = m.rows
    entries: list[tuple[QuadraticEigenvalue, tuple[int, ...]]] = []
    for factor, mult in _factor_over_rationals(char_poly(m)):
        deg = poly_degree(factor)
        if deg == 1:
            lam = -factor[0]
            nm = m - Matrix.identity(n).scale(lam)
            nullities = []
            power = Matrix.identity(n)
            for _ in range(mult):
                power = power @ nm
                nullities.append(n - power.rank())
                if nullities[-1] == mult:
                    break
            sizes = _block_sizes_from_nullities(nullities)
            ev = QuadraticEigenvalue("rational", mult, value=lam)
            entries.append((ev, sizes))
        elif deg == 2:
            b, c = factor[1], factor[0]
            disc = b * b - 4 * c
            if disc >= 0:
                raise RealIrrationalEigenvalues(
                    f"irreducible quadratic with non-negative discriminant {disc}")
            p = -b / 2
            q2 = -disc / 4
            g = poly_eval_matrix(factor, m)
            nullities = []
            power = Matrix.identity(n)
            for _ in range(mult):
                power = power @ g
                nullities.append((n - power.rank()) // 2)
                if nullities[-1] == mult:
                    break
            sizes = _block_sizes_from_nullities(nullities)
            ev = QuadraticEigenvalue("complex_pair", mult, real_part=p, imag_sq=q2)
            entries.append((ev, sizes))
        else:
            raise IrreducibleFactorDegreeTooHigh(
                f"irreducible factor of degree {deg} in the characteristic polynomial")
    entries.sort(key=lambda pair: pair[0].sort_key())
    total = sum(sum(sizes) for ev, sizes in entries
                if ev.kind == "rational") + \
        2 * sum(sum(sizes) for ev, sizes in entries if ev.kind == "complex_pair")
    if total != n:
        raise ExactLAError("internal: Jordan sizes do not fill the dimension")
    return EigenStructure(n, tuple(entries))


def _sqrt_fraction(x: Fraction) -> Optional[Fraction]:
    """Exact square root of a non-negative rational, or None."""
    if x < 0:
        return None
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


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
