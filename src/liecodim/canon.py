"""Canonicalization up to proportional similarity, and family templates.

Two square matrices A, B are proportionally similar when c*A = C^-1 B C for
some nonzero scalar c and invertible C.  Classification of the supported
spectra reduces to normal-form data plus a scaling normalization; the
conventions are:

* diagonalizable blocks: the eigenvalue of largest absolute value (ties
  preferring the positive one) is scaled to 1;
* a real Jordan block of size >= 2 with nonzero eigenvalue outranks plain
  diagonal data: its eigenvalue is scaled to 1;
* complex pairs outrank everything: the designated pair's imaginary part is
  scaled to 1, and comparisons use the rational invariant p^2/q^2 together
  with the sign of p.

Scalars produced by the complex normalization may be quadratic irrationals
u*sqrt(v); they are carried exactly by :class:`ExactScalar`, never floats.

Blocks keep the shape of :class:`~liecodim.exactla.EigenStructure` blocks:
``("r", size, v)`` and ``("c", size, re, q)``.  After scaling a value is a
``Fraction`` when it is rational and an :class:`ExactScalar` otherwise, and a
pair carries its imaginary part q itself, not q^2; ``exactla._block_key``
orders them, as it orders the unscaled blocks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .exactla import (
    EigenStructure,
    Matrix,
    _block_key,
    _sqrt_fraction,
    eigen_structure,
    frac,
    nullspace,
)


class AmbiguousMatch(Exception):
    """Two templates claimed the same matrix (internal bug trap)."""


def _pivot_sorted(items: Sequence, value: Callable = lambda v: v) -> list:
    """Largest absolute ``value`` first; ties prefer the positive value.
    This is the one pivot rule of the scaling conventions."""
    return sorted(items, key=lambda x: (-abs(value(x)), value(x) < 0))


def _pivot(reals) -> Fraction:
    """The scale of a real spectrum, given as (eigenvalue, block size)
    pairs: the pivot of its nonzero Jordan-chain eigenvalues, else of all
    its nonzero ones, else 1."""
    pool = [v for v, s in reals if s > 1 and v] or [v for v, _ in reals if v]
    return _pivot_sorted(pool)[0] if pool else Fraction(1)


def _square_free_split(n: int) -> tuple[int, int]:
    """n = s^2 * f with f squarefree (n > 0); trial division, desk scale."""
    s, f = 1, 1
    d = 2
    m = n
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                f *= d
        d += 1 if d == 2 else 2
    f *= m
    return s, f


@dataclass(frozen=True)
class ExactScalar:
    """An exact irrational real scalar rat * sqrt(rad).

    ``rat`` is a nonzero ``Fraction`` and ``rad`` a squarefree ``int`` above
    1, so the representation is canonical and equality is structural.  A
    rational value is always a ``Fraction``: :meth:`of`, :meth:`sqrt` and
    ``*`` return one, and the constructor refuses rad <= 1 and rat == 0.
    Both classes order by one key, the signed square (see
    :func:`_signed_square`), so ``<`` works with a ``Fraction`` on either
    side; a ``Fraction`` never equals an ``ExactScalar``.
    """

    rat: Fraction
    rad: int

    def __post_init__(self):
        if self.rad <= 1 or self.rat == 0:
            raise ValueError(f"not an irrational r*sqrt(k): {self.rat!r}, "
                             f"{self.rad!r}")

    @staticmethod
    def of(rat, rad=1) -> "ParamValue":
        """rat * sqrt(rad) in canonical form: a ``Fraction`` when it is
        rational, zero included.  ``rat`` and ``rad`` are coerced through
        ``frac``, so a float raises TypeError; a negative rad raises
        ValueError."""
        r, v = frac(rat), frac(rad)
        if not r or not v:
            return Fraction(0)
        if v < 0:
            raise ValueError("radicand must be positive")
        # rat*sqrt(p/q) = (rat/q)*sqrt(p*q)
        q = v.denominator
        if q != 1:
            r = r / q
        s, f = _square_free_split(v.numerator * q)
        r = r if s == 1 else r * s
        return r if f == 1 else ExactScalar(r, f)

    @staticmethod
    def sqrt(x) -> "ParamValue":
        return ExactScalar.of(1, x)

    def __neg__(self) -> "ExactScalar":
        return ExactScalar(-self.rat, self.rad)

    def __abs__(self) -> "ExactScalar":
        return ExactScalar(abs(self.rat), self.rad)

    def __mul__(self, other) -> "ParamValue":
        if other.__class__ is ExactScalar:
            return ExactScalar.of(self.rat * other.rat, self.rad * other.rad)
        if other.__class__ is Fraction or other.__class__ is int:
            return ExactScalar.of(self.rat * other, self.rad)
        return NotImplemented

    __rmul__ = __mul__

    def __lt__(self, other) -> bool:
        return _signed_square(self) < _signed_square(other)

    def __le__(self, other) -> bool:
        return _signed_square(self) <= _signed_square(other)

    def __gt__(self, other) -> bool:
        return _signed_square(self) > _signed_square(other)

    def __ge__(self, other) -> bool:
        return _signed_square(self) >= _signed_square(other)

    def __str__(self) -> str:
        if self.rat == 1:
            return f"sqrt({self.rad})"
        if self.rat == -1:
            return f"-sqrt({self.rad})"
        return f"{self.rat}*sqrt({self.rad})"


ParamValue = Union[Fraction, ExactScalar]


def _signed_square(x: ParamValue) -> Fraction:
    """x * |x|, the order key of both scalar classes: it is strictly
    increasing in x and rational for an ``ExactScalar``."""
    if x.__class__ is ExactScalar:
        return x.rat * abs(x.rat) * x.rad
    return x * abs(x)


@dataclass(frozen=True)
class CanonicalForm:
    """Scaling-normalized spectral data of a matrix: its blocks, scaled."""

    blocks: tuple[tuple, ...]

    def describe(self) -> str:
        return " + ".join(f"[{vals[0]}]x{size}" if kind == "r" else
                          f"[{vals[0]}+-{vals[1]}i]x{size}"
                          for kind, size, *vals in self.blocks)


def _nonzero_rationals(st: EigenStructure) -> list[Fraction]:
    return [v for kind, _, v, *_ in st.blocks if kind == "r" and v != 0]


def _candidate_scalings(st: EigenStructure) -> list[ParamValue]:
    """Designated scaling candidates per the normalization conventions,
    with both sign choices when signs are free."""
    pairs = st.complex_pairs()
    if pairs:
        base = ExactScalar.sqrt(Fraction(1) / max(q2 for _, q2 in pairs))
        return [base, -base]
    reals = [(v, size) for kind, size, v, *_ in st.blocks if kind == "r"]
    return [Fraction(1) / _pivot(reals)]


def _scaled_blocks(st: EigenStructure, c: ParamValue) -> tuple[tuple, ...]:
    """The blocks of ``st`` with every eigenvalue times c, sorted by
    :func:`_block_key`."""
    c2 = c * c
    return tuple(sorted(
        ((kind, size, vals[0] * c) if kind == "r" else
         (kind, size, vals[0] * c, ExactScalar.sqrt(vals[1] * c2))
         for kind, size, *vals in st.blocks), key=_block_key))


def proportional_normalize(m: Matrix) -> CanonicalForm:
    """Normal-form data of ``m`` with the scaling conventions applied.

    When the sign of the scalar is free, the lexicographically smallest
    block tuple wins, so the output is deterministic.
    """
    st = eigen_structure(m)
    return CanonicalForm(min(
        (_scaled_blocks(st, c) for c in _candidate_scalings(st)),
        key=lambda blocks: [_block_key(b) for b in blocks]))


def _intertwiner(x: Matrix, y: Matrix) -> Matrix:
    """An invertible C with y C = C x, for x and y known to be similar.

    The solutions C form a linear space (the nullspace of an n^2 x n^2
    system in row-major C) that contains an invertible matrix, so det is a
    nonzero polynomial of degree n on it.  A seeded random combination of
    the basis with integer coefficients in [-10n, 10n] is therefore
    singular with probability at most n / (20n + 1) < 1/20 (Schwartz,
    JACM 1980); failing 100 draws is an internal error.
    """
    n = x.rows
    system = []
    for i in range(n):
        for j in range(n):
            row = [Fraction(0)] * (n * n)
            for k in range(n):
                row[k * n + j] += y[i, k]
                row[i * n + k] -= x[k, j]
            system.append(tuple(row))
    basis = nullspace(Matrix(n * n, n * n, tuple(system))).basis
    rng = random.Random(0)
    for _ in range(100):
        coeffs = [rng.randint(-10 * n, 10 * n) for _ in basis]
        flat = tuple(sum((c * v[i] for c, v in zip(coeffs, basis)), Fraction(0))
                     for i in range(n * n))
        candidate = Matrix.unflatten(flat, n, n)
        if candidate.det() != 0:
            return candidate
    raise AssertionError(
        f"internal: no invertible intertwiner in 100 draws from a "
        f"{len(basis)}-dimensional solution space")


def proportional_similar(a: Matrix, b: Matrix
                         ) -> Optional[tuple[Fraction, Matrix]]:
    """A verified witness (c, C) with c*a = C^-1 b C, or None.

    Candidate scalars are enumerated from eigenvalue ratios; each candidate
    is tested by comparing exact normal forms.  Only rational scalars are
    searched: a pair of rational matrices that are proportionally similar
    over the reals but only via an irrational scalar (possible when the
    whole spectrum is irrational complex) is reported as None, consistent
    with the no-algebraic-number-tower policy.

    Matching eigenvalues and Jordan block sizes make c*a and b similar over
    the rationals, so the witness for the first passing candidate is an
    invertible solution of the linear condition b C = C (c*a), drawn by
    :func:`_intertwiner`.
    """
    if a.rows != b.rows or not a.is_square() or not b.is_square():
        return None
    st_a, st_b = eigen_structure(a), eigen_structure(b)
    candidates: set[Fraction] = set()
    ra, rb = _nonzero_rationals(st_a), _nonzero_rationals(st_b)
    for la in ra:
        for lb in rb:
            candidates.add(lb / la)
    for (pa, qa2) in st_a.complex_pairs():
        for (pb, qb2) in st_b.complex_pairs():
            root = _sqrt_fraction(qb2 / qa2)
            if root is not None:
                candidates.add(root)
                candidates.add(-root)
            if pa != 0 and pb != 0:
                candidates.add(pb / pa)
    if not candidates:
        # fully nilpotent spectra: any nonzero scalar preserves the form
        candidates = {Fraction(1)}
    blocks_b = _scaled_blocks(st_b, Fraction(1))
    for c in sorted(candidates):
        if c == 0 or _scaled_blocks(st_a, c) != blocks_b:
            continue
        scaled = a.scale(c)
        witness = _intertwiner(scaled, b)
        if witness.inverse() @ b @ witness != scaled:
            raise AssertionError("internal: intertwiner fails to verify")
        return c, witness
    return None


@dataclass(frozen=True)
class FamilyTemplate:
    """A named parameterized canonical matrix with its parameter domain.

    ``build`` instantiates the canonical matrix at a rational parameter
    point (in the coordinate shape of the base algebra's cohomology
    transversal); ``in_domain`` decides rational points and rejects every
    irrational one, although a classifier may return quadratic irrationals;
    ``sample`` yields deterministic in-domain rational parameter points.
    Recognizing an arbitrary shaped matrix is the job of the base algebra's
    classifier in the catalog.
    """

    name: str
    param_names: tuple[str, ...]
    domain_desc: str
    build: Callable[[tuple[Fraction, ...]], Matrix]
    in_domain: Callable[[tuple[ParamValue, ...]], bool]
    sample: Callable[[int], list[tuple[Fraction, ...]]]
