"""Catalog-driven classification of one- and two-step extensions.

For each catalog base algebra the classification sweep enumerates rational
points in cohomology coordinates, filters them by the membership (and, for
the ad-pair sweeps, indecomposability) conditions, canonicalizes the
survivors into named family templates, and compares the discovered family
set against the built-in golden list.  Points whose spectra leave the
supported field are counted and skipped, never approximated.  The
classifier raises the cause as a typed ``UnsupportedSpectrumError``:
``RealIrrationalEigenvalues`` for a real irrational eigenvalue pair, from
``eigen_structure`` or from the hand matchers' one root helper
(``_real_root``), and ``IrreducibleFactorDegreeTooHigh`` for an
irreducible factor of degree 3 or more.

Both sweep modes extend one algebra by a single derivation, the sweep
matrix.  An ext1 point is a derivation of the base.  An ext2ad point is a
derivation of base ⊕ R with a zero y-row: the ad-pair double extension with
its inner y-action normalized to zero, so the z-action is the matrix's
leading block and [z, y] its last column.  The modes differ only in the
automorphisms used for conjugation and in the membership condition
(codimension one or two) that applies.

Each sweep point travels as its flat row-major matrix (a ``Vector``): the
sweep space maps coordinates to slots through a plan computed once, and a
classifier builds a ``Matrix`` only where it needs a determinant, rank or
spectrum.  The sweep classifies each class of points once: D and c*D (c a
nonzero rational) are proportionally similar and give isomorphic
extensions, in codimension one and for the ad-pair extensions alike, so a
point's class can be read off the point at any nonzero multiple.  A
(base, mode) may key its points by the matcher's exact invariants
(``_LINE_KEYS``), read off a point's ``int`` coordinates and their gcd g in
integer arithmetic: the key is projective, equal at every nonzero multiple
of a point, and points with equal keys have equal outcomes.  Without a key
a point's class is its line through the origin.  The matcher runs once per
class, at the primitive integer vector of its first point's line in ``int``
arithmetic, and every point of the class shares the outcome.  The sweep's
points form a lazy sequence of blocks, indexed without being stored: on a
Cartesian grid the integer grid itself, and otherwise the template and
conjugate points, the block of points supported on one or two coordinates,
and the random points.  A Cartesian
grid mirrors itself through zero, so its points are folded into classes on
its negative half, with no line table.  A structured sweep first builds a
table of lines with their point counts, block by block: the axis-and-pair
block's lines are one line per axis and one table of value-pair lines per
pair of axes, in closed form; the explicit points are keyed one by one.
Every sweep point is an integer vector, a positive multiple L*p of the
rational point p it stands for (L the lcm of p's denominators, or of the
grid values' denominators on a Cartesian grid), so it lies on the same line
with the same orientation, and its line costs one ``gcd``.  The class
table lives for one sweep call; nothing is cached across calls.  The
matchers are exact on ``int`` and ``Fraction`` entries alike, and every
parameter they return has one form: a ``Fraction`` when it is rational,
else an ``ExactScalar`` r*sqrt(k), so parameters compare with ``==`` and
print with ``str``.

Every family is one table row: on an abelian base a block recipe of real
Jordan and complex blocks (``_ABELIAN_FAMILIES``), on h3, r⊕h3 and g4 a
template matrix in the base's coordinate shape (``_SHAPED_FAMILIES``).  On
an abelian base one matcher scales a point's spectrum to its normal form
and picks the fitting recipe with the fewest parameters; r2/ext1 and h3's
pair block take a 2x2 fast path with the same answers.  The matchers of h3,
r⊕h3 and g4 read exact invariants off their coordinate shapes: discriminant
signs, Jordan chain ranks, and the coupling slots that survive the
basis-change rewrites.  Each reads a 2x2 pair block's determinant, trace
and discriminant from one helper (``_spectrum2``).  One constructor turns
each row into a template whose domain is the rational points its matcher
maps back to themselves.
Every matched point carries canonical parameter values, rational or exact
quadratic irrationals.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .canon import (
    AmbiguousMatch,
    ExactScalar,
    FamilyTemplate,
    ParamValue,
    _pivot,
    _pivot_sorted,
    proportional_normalize,
    proportional_similar,
)
from .deriv import (
    DerivationSpace,
    _leibniz_rows,
    derivation_space,
    project_to_h1,
)
from .exactla import (
    Matrix,
    Poly,
    RealIrrationalEigenvalues,
    Subspace,
    UnsupportedSpectrumError,
    Vector,
    _bareiss,
    _block_diag,
    _factor_over_rationals,
    _integer_point,
    _rank,
    _sqrt_fraction,
    eigen_structure,
    frac,
    nullspace,
    solve,
)
from .ext import (
    check_codim1_condition,
    check_codim2_condition,
    extend_by_derivation,
    is_decomposable_double,
    verify_iso_witness_full,
)
from .liealg import (
    LieAlgebra,
    abelian,
    adjoint_matrix,
    bracket,
    complement_coordinates,
    derived_series,
    direct_sum,
    filiform4,
    heisenberg3,
    induced_operator_on_quotient,
    is_nilpotent,
    lower_central_series,
    r_plus_heisenberg,
    restrict_operator,
    validate_jacobi,
)


class GoldenMismatch(Exception):
    """The classification sweep disagrees with the built-in golden list."""

    def __init__(self, found, expected):
        self.found = set(found)
        self.expected = set(expected)
        super().__init__(f"found families {sorted(found)} but expected "
                         f"{sorted(expected)}")


# ---------------------------------------------------------------------------
# sweep spaces (cohomology coordinates)
# ---------------------------------------------------------------------------

_ZERO = Fraction(0)


@dataclass
class SweepSpace:
    """Coordinates for a classification sweep: a basis of flat (row-major)
    matrices spanning the relevant transversal, with their pivot slots.

    The slot plan, computed once, records for each flat slot the
    ``(coordinate, value)`` terms that feed it: ``None`` for a slot no basis
    vector touches, the coordinate itself for a slot fed by one basis entry
    equal to 1, and the terms to sum otherwise.  An integral value is held
    as an ``int``, so ``int`` coordinates give an ``int`` flat (the sweep
    classifies each line at its primitive integer vector) and ``Fraction``
    coordinates a ``Fraction`` flat.  A summed term of value +1 or -1
    copies or negates its coordinate; the sum starts from its first term."""

    n: int
    basis_flat: tuple[Vector, ...]
    pivots: tuple[int, ...]
    _slots: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        slots = []
        for idx in range(self.n * self.n):
            terms = tuple((i, b[idx]) for i, b in enumerate(self.basis_flat)
                          if b[idx] != 0)
            if not terms:
                slots.append(None)
            elif len(terms) == 1 and terms[0][1] == 1:
                slots.append(terms[0][0])
            else:
                slots.append(tuple((i, int(v) if v.denominator == 1 else v)
                                   for i, v in terms))
        self._slots = tuple(slots)

    @property
    def dim(self) -> int:
        return len(self.basis_flat)

    def to_flat(self, coeffs: Sequence[Fraction]) -> Vector:
        """The row-major matrix with these coordinates, all ``Fraction`` or
        all ``int``; its entries are of the same kind."""
        zero = 0 if coeffs and coeffs[0].__class__ is int else _ZERO
        flat = []
        for slot in self._slots:
            if slot is None:
                flat.append(zero)
            elif slot.__class__ is int:
                flat.append(coeffs[slot])
            else:
                acc = None
                for i, val in slot:
                    c = coeffs[i]
                    if val == -1:
                        c = -c
                    elif val != 1:
                        c = c * val
                    acc = c if acc is None else acc + c
                flat.append(acc)
        return tuple(flat)

    def to_matrix(self, coeffs: Sequence[Fraction]) -> Matrix:
        """The matrix with these coordinates, its entries ``Fraction``s."""
        return Matrix.unflatten(tuple(map(frac, self.to_flat(coeffs))),
                                self.n, self.n)

    def coeffs_of(self, m: Matrix) -> tuple[Fraction, ...]:
        flat = m.flatten()
        coeffs = tuple(flat[p] for p in self.pivots)
        if self.to_flat(coeffs) != flat:
            raise ValueError("matrix does not lie in the sweep space")
        return coeffs


def _sweep_space_ext1(space: DerivationSpace) -> SweepSpace:
    return SweepSpace(space.algebra.dim, space.complement.basis,
                      space.complement.pivots)


def _sweep_space_ext2(space: DerivationSpace) -> SweepSpace:
    """Transversal of the inner derivations inside the derivations mapping
    everything into the base (zero action row for the adjoined generator)."""
    n = space.algebra.dim
    if not space.full.basis:
        return SweepSpace(n, (), ())
    # Columns are the derivation basis; constraint rows are the y-row slots.
    full = Matrix(len(space.full.basis), n * n, space.full.basis).transpose()
    constraint = full.submatrix(range((n - 1) * n, n * n), range(full.cols))
    sub = Subspace.from_vectors(n * n, [
        space.inner.reduce(full.apply(coeffs))
        for coeffs in nullspace(constraint).basis])
    return SweepSpace(n, sub.basis, sub.pivots)


# ---------------------------------------------------------------------------
# stratum classifiers (one per catalog base and mode)
# ---------------------------------------------------------------------------

# A matcher's answer: None for a non-member, FILTERED for an ad-pair member
# that splits as a direct sum, or the family name with canonical parameters.
FILTERED = "filtered"
MatchResult = Optional[tuple[str, tuple[ParamValue, ...]] | str]


def _spectrum2(a, b, c, d) -> tuple:
    """Determinant, trace and discriminant of the 2x2 block [[a, b], [c, d]],
    in the arithmetic of its entries: its eigenvalues are
    (trace +- sqrt(disc))/2."""
    return a * d - b * c, a + d, (a - d) * (a - d) + 4 * b * c


def _real_root(disc):
    """The exact square root of a non-negative discriminant, in the
    arithmetic of ``disc`` (``_sqrt_fraction``); raises
    :class:`RealIrrationalEigenvalues` when the root is irrational, the one
    spectrum the hand matchers skip."""
    r = _sqrt_fraction(disc)
    if r is None:
        raise RealIrrationalEigenvalues("real irrational eigenvalue pair")
    return r


_H3_EXT1_NAMES = {"diag": "A", "j2": "B", "cplx": "C"}


def _classify_h3_ext1(flat: Sequence[Fraction]) -> MatchResult:
    """Strata of [[a+b,0,0],[0,a,c],[0,e,b]]: the gl(2) strata of the
    pair block [[a,c],[e,b]], with diag, j2, cplx named A, B, C."""
    outcome = _classify_gl2_flat((flat[4], flat[5], flat[7], flat[8]))
    if outcome is None:
        return None
    name, params = outcome
    return _H3_EXT1_NAMES[name], params


def _classify_rp_ext1(flat: Sequence[Fraction]) -> MatchResult:
    """Strata of [[a+b,0,0,k],[0,a,e,0],[0,f,b,0],[0,g,h,c]] with c != 0 and
    invertible pair block M = [[a,e],[f,b]].

    The coupling parameter k matters exactly when c equals the trace slot
    value a+b (otherwise a basis shear eliminates it); the pair-to-tail
    coupling row (g, h) matters exactly when c is an eigenvalue of M and the
    row leaves the row space of M - c.  Exact on ``int`` and ``Fraction``
    entries alike: every quotient is a ``Fraction``.
    """
    k = flat[3]
    a, e = flat[5], flat[6]
    f, b = flat[9], flat[10]
    g, h, c = flat[13], flat[14], flat[15]
    det_m, s, disc = _spectrum2(a, e, f, b)
    if c == 0 or det_m == 0:
        return None
    k_active = (k != 0 and c == s)

    if disc < 0:
        # M has the pair (s +- sqrt(disc))/2; at unit imaginary part its
        # real part is |s|/sqrt(-disc) and c is 2c/sqrt(-disc).
        q = -disc
        lam = ExactScalar.of(Fraction(abs(s), q), q)
        if k_active:
            return "H", (lam,)
        sgn = 1 if (s > 0 or (s == 0 and c > 0)) else -1
        return "G", (lam, ExactScalar.of(Fraction(2 * sgn * c, q), q))

    r = _real_root(disc)
    lam1, lam2 = _pivot_sorted([Fraction(s + r, 2), Fraction(s - r, 2)])
    coupled = c in (lam1, lam2) and (
        Matrix.from_rows([[a - c, e, 0], [f, b - c, 0], [g, h, 0]]).rank()
        > Matrix.from_rows([[a - c, e], [f, b - c]]).rank())
    if disc == 0 and not (e == 0 and f == 0):  # a Jordan pair
        if c == lam1:
            return ("F", ()) if coupled else ("D", (Fraction(1),))
        if k_active:
            return "E", ()
        return "D", (c / lam1,)
    if coupled:
        if lam1 == lam2:
            alpha = Fraction(1)
        else:
            alpha = (lam1 if lam2 == c else lam2) / c
        return "C", (alpha,)
    if k_active:
        return "B", (lam2 / lam1,)
    alpha = lam2 / lam1
    beta = c / lam1
    if alpha == -1 and beta < 0:
        beta = -beta  # residual fold: swapping the opposite pair flips beta
    return "A", (alpha, beta)


def _classify_g4_ext1(flat: Sequence[Fraction]) -> MatchResult:
    """Strata of [[a+2b,0,e,0],[0,a+b,0,0],[0,0,a,c],[0,0,0,b]], ab != 0.

    The tail coordinates are ordered (the coupling slot sits strictly above
    the diagonal), so the two tail eigenvalues are never interchangeable and
    the ratio a/b is a full invariant.  The comparisons run in the
    arithmetic of the entries (``int`` or ``Fraction``); the ratio is a
    ``Fraction``.
    """
    a, c, b = flat[10], flat[11], flat[15]
    if a == 0 or b == 0:
        return None
    if a == b and c != 0:
        return "J", ()
    return "I", (Fraction(a, b),)


def _classify_h3_ext2(flat: Sequence[Fraction]) -> MatchResult:
    """Strata of [[a+b,0,0,h],[0,a,c,0],[0,e,b,0],[0,0,0,0]]: a member has
    an invertible pair block, and an indecomposable member a+b = 0, h != 0."""
    h = flat[3]
    a, c = flat[5], flat[6]
    e, b = flat[9], flat[10]
    det_m, trace, disc = _spectrum2(a, c, e, b)
    if det_m == 0:
        return None
    if trace != 0 or h == 0:
        return FILTERED
    if det_m > 0:
        return "G", ()
    _real_root(disc)  # the opposite pair +-sqrt(disc)/2
    return "F", ()


def _cc_canonical(pairs: Sequence[tuple[Fraction, Fraction]]
                  ) -> tuple[ParamValue, ParamValue, ParamValue]:
    """Canonical parameters for two complex pair blocks.

    The pair with the larger imaginary part is scaled to unit imaginary
    part (so the other pair keeps q in (0, 1]); the free scalar sign and
    any remaining tie are resolved by lexicographic minimum.  Each value is
    a ``Fraction`` when it is rational, so a recipe's constant 1 fits q.
    """
    c2 = Fraction(1) / max(q2 for _, q2 in pairs)
    # Per pair: scaled q^2, then the order key of its scaled real part
    # p*sqrt(c2), the signed square p*|p|*c2 (canon._signed_square).
    rel = [(q2 * c2, p * abs(p) * c2, p) for (p, q2) in pairs]
    best = None
    for sgn in (1, -1):
        # normalized (largest) pair first, then smaller imaginary parts
        scaled = sorted(((q, sgn * sq, sgn * p) for q, sq, p in rel),
                        key=lambda t: (-t[0], t[1]))
        if best is None or [t[:2] for t in scaled] < [t[:2] for t in best]:
            best = scaled
    (q2_a, _, p_a), (q2_b, _, p_b) = best
    if q2_a != 1:
        raise AssertionError("internal: designated pair not normalized")
    inv = ExactScalar.sqrt(c2)
    return p_a * inv, p_b * inv, ExactScalar.sqrt(q2_b)


def _classify_gl2_flat(flat: Sequence[Fraction]) -> MatchResult:
    """The r2/ext1 table matcher's answer, from trace and discriminant.

    Determinant, discriminant sign and squareness are decided in the
    arithmetic of the entries (``int`` or ``Fraction``); only a matched
    parameter is built as a ``Fraction`` or ``ExactScalar``.  With t the
    absolute trace, the eigenvalues are (+-t +- sqrt(disc))/2: a real pair
    divided by its pivot, the one of larger modulus, has ratio
    (t - r)/(t + r), and a complex pair scaled to unit imaginary part has
    real part t/sqrt(-disc)."""
    a, b, c, d = flat[:4]
    det_m, trace, disc = _spectrum2(a, b, c, d)
    if det_m == 0:
        return None
    t = abs(trace)
    if disc > 0:
        r = _real_root(disc)
        return "diag", (Fraction(t - r, t + r),)
    if disc == 0:
        if b == 0 and c == 0:
            return "diag", (Fraction(1),)
        return "j2", ()
    return "cplx", (ExactScalar.of(Fraction(t, -disc), -disc),)


# Class keys (used by ``_run_sweep``): a sweep point's class is read off its
# ``int`` coordinates c and g = gcd(c) (1 for the zero point) in integer
# arithmetic, and equals the key of the line's primitive vector c // g, so a
# key is projective: equal at every nonzero multiple of a point, negatives
# included.  Two points with equal keys have equal ``_classify_flat``
# outcomes (a skip included); ``None`` means the point's class is its line,
# ``_line_key`` (``_point_class``).  A key names the invariants the matcher
# reads: |trace| and the discriminant of an invertible 2x2 pair block
# (which fix its spectrum up to sign), and whether a zero-discriminant
# block is scalar; g4's two nonzero tail eigenvalues up to a common sign and
# whether its coupling slot is nonzero.  A singular pair block or g4 tail
# is a nonmember, one key.  On the abelian bases of dimension n >= 3 a
# point with fewer than n nonzero coordinates has fewer than n nonzero flat
# entries (the slot plan copies each coordinate to one slot), so rank below
# n: a nonmember in both modes, one key too.  Each coordinate reader is
# written out by hand from the slot plan; a reader compiled from the plan
# is several times slower.
_SINGULAR = "singular"
_RANK_DEFICIENT = "rank-deficient"


def _h3_pair(c: Sequence[int]) -> tuple[int, int, int, int]:
    return c[1], c[2], c[3], c[0] - c[1]  # h3/ext1 flat slots 4, 5, 7, 8


def _g4_tail(c: Sequence[int]) -> tuple[int, int, int]:
    return 2 * c[2] - c[0], c[0] - c[2], c[3]  # g4/ext1 slots 10, 15, 11


def _gl2_key(block: Sequence[int], g: int):
    """The key of a 2x2 pair block (a, b, c, d), row-major."""
    a, b, c, d = block
    if a * d == b * c:
        return _SINGULAR
    disc = (a - d) * (a - d) + 4 * b * c
    return abs(a + d) // g, disc // (g * g), disc == 0 and b == c == 0


def _g4_key(c: Sequence[int], g: int):
    a, b, coupling = _g4_tail(c)
    if a * b == 0:
        return _SINGULAR
    if a < 0:
        g = -g
    return a // g, b // g, coupling != 0


def _rank_key(n: int, c: Sequence[int], g: int) -> Optional[str]:
    return _RANK_DEFICIENT if len(c) - c.count(0) < n else None


_LINE_KEYS: dict[tuple[str, str], Callable[[Sequence[int], int], object]] = {
    ("r2", "ext1"): _gl2_key,  # the coordinates are flat slots 0, 1, 2, 3
    ("h3", "ext1"): lambda c, g: _gl2_key(_h3_pair(c), g),
    ("g4", "ext1"): _g4_key,
    ("r3", "ext1"): partial(_rank_key, 3),
    ("r4", "ext1"): partial(_rank_key, 4),
    ("r3", "ext2ad"): partial(_rank_key, 3),
}


# ---------------------------------------------------------------------------
# abelian bases: one block-recipe table and one matcher
# ---------------------------------------------------------------------------
# On R^n an ext1 point is invertible and an ext2ad point [[A, v], [0, 0]]
# has rank n, so its image is the base and every similarity between two
# points preserves it: either way a class is one matrix up to proportional
# similarity, and a family is a block recipe.  "Jk(v)" is a real Jordan
# block of size k, "Ck(a,q)" is k blocks [[a, q], [-q, a]] chained by
# identity blocks (k = 1 is left out, and "J(v)" is written "v"); each value
# is a constant or a parameter name.  Constant blocks come first in a shape.
_ABELIAN_FAMILIES = {
    ("r1", "ext1"): (
        ("one", "no parameters", "1"),
    ),
    ("r2", "ext1"): (
        ("diag", "0 < |alpha| <= 1", "1 alpha"),
        ("j2", "no parameters", "J2(1)"),
        ("cplx", "lam >= 0", "C(lam,1)"),
    ),
    ("r3", "ext1"): (
        ("diag", "0 < |beta| <= |alpha| <= 1", "1 alpha beta"),
        ("j2", "beta != 0", "J2(1) beta"),
        ("j3", "no parameters", "J3(1)"),
        ("cplx", "lam >= 0; m != 0, m > 0 when lam = 0", "C(lam,1) m"),
    ),
    ("r4", "ext1"): (
        ("diag", "0 < |gamma| <= |beta| <= |alpha| <= 1",
         "1 alpha beta gamma"),
        ("j2", "alpha, beta distinct, nonzero, != 1, pivot-ordered",
         "J2(1) alpha beta"),
        ("j2_eq1", "alpha != 0, 1", "J2(1) 1 alpha"),
        ("j2_eq2", "no parameters", "J2(1) 1 1"),
        ("j2_pair", "alpha != 0, 1", "J2(1) alpha alpha"),
        ("j2j2", "0 < |alpha| <= 1, alpha != 1", "J2(1) J2(alpha)"),
        ("j2j2_eq", "no parameters", "J2(1) J2(1)"),
        ("j3", "alpha != 0, 1", "J3(1) alpha"),
        ("j3_eq", "no parameters", "J3(1) 1"),
        ("j4", "no parameters", "J4(1)"),
        ("c_diag", "lam >= 0; m1, m2 != 0, pivot-ordered", "C(lam,1) m1 m2"),
        ("c_j2", "lam >= 0, m != 0", "C(lam,1) J2(m)"),
        ("cc", "first pair normalized, q > 0, lexicographic minimum",
         "C(a,1) C(b,q)"),
        ("cj", "lam >= 0", "C2(lam,1)"),
    ),
    ("r2", "ext2ad"): (
        ("A", "no parameters", "1 J2(0)"),
        ("B", "no parameters", "J3(0)"),
    ),
    ("r3", "ext2ad"): (
        ("A", "0 < |lam| <= 1", "1 lam J2(0)"),
        ("B", "no parameters", "J2(1) J2(0)"),
        ("C", "no parameters", "1 J3(0)"),
        ("D", "no parameters", "J4(0)"),
        ("E", "lam >= 0", "C(lam,1) J2(0)"),
    ),
}


def _signature(blocks) -> tuple:
    return tuple(sorted(block[:2] for block in blocks))


@lru_cache(maxsize=None)
def _abelian_table(key: str, mode: str) -> tuple[list, dict]:
    """The rows as (name, domain, parameter names, blocks), and the rows by
    block-shape signature, fewest parameters first.  A block is ("r", size,
    v) or ("c", size, a, q): a constant Fraction or a parameter name each."""
    rows, lookup = [], {}
    for name, domain, text in _ABELIAN_FAMILIES[key, mode]:
        blocks = []
        for token in text.split():
            head, _, args = token.rstrip(")").rpartition("(")
            blocks.append(("c" if head[:1] == "C" else "r", int(head[1:] or 1),
                           *(v if v.isidentifier() else Fraction(v)
                             for v in args.split(","))))
        params = tuple(dict.fromkeys(
            v for b in blocks for v in b[2:] if isinstance(v, str)))
        rows.append((name, domain, params, blocks))
    for row in sorted(rows, key=lambda row: len(row[2])):
        lookup.setdefault(_signature(row[3]), []).append(row)
    return rows, lookup


def _normal_blocks(spectrum) -> list[tuple]:
    """A spectrum scaled to its normal form, complex blocks first and real
    blocks in pivot order: one complex pair to unit imaginary part with the
    sign of its real part, else of the pivot real eigenvalue; two pairs by
    ``_cc_canonical``; a real spectrum by 1/``_pivot``."""
    reals = [(b[2], b[1]) for b in spectrum if b[0] == "r"]
    pairs = [(b[2], b[3], b[1]) for b in spectrum if b[0] == "c"]
    if len(pairs) == 2:
        a, b, q = _cc_canonical([(p, q2) for p, q2, _ in pairs])
        return [("c", 1, a, Fraction(1)), ("c", 1, b, q)]
    if pairs:
        (p, q2, size), = pairs
        inv = ExactScalar.sqrt(Fraction(1) / q2)
        lead = p or (_pivot_sorted([v for v, _ in reals]) or [1])[0]
        factor = 1 if lead > 0 else -1
        head = [("c", size, abs(p) * inv, Fraction(1))]
    else:
        factor = Fraction(1) / _pivot(reals)
        head = []
    scaled = _pivot_sorted([(v * factor, s) for v, s in reals],
                           lambda vs: vs[0])
    return head + [("r", s, v * inv if pairs else v) for v, s in scaled]


def _fit(recipe, blocks) -> Optional[dict[str, ParamValue]]:
    """Parameter values that turn the recipe into ``blocks``, or None.  Each
    recipe block takes the first remaining block of its shape whose
    constants agree; a real block's parameter is never zero."""
    rest = list(blocks)
    values: dict[str, ParamValue] = {}
    for kind, size, *spec in recipe:
        i = next((i for i, b in enumerate(rest) if b[:2] == (kind, size)
                  and all(isinstance(w, str) or x == w
                          for w, x in zip(spec, b[2:]))), None)
        if i is None:
            return None
        for w, x in zip(spec, rest.pop(i)[2:]):
            if isinstance(w, str) and (kind == "r" and x == 0 or
                                       values.setdefault(w, x) != x):
                return None
    return values


def _match_spectrum(key: str, mode: str, spectrum) -> MatchResult:
    """The first recipe of the normal form's shape, fewest parameters
    first, that the normal form fits, with its parameter values."""
    normal = _normal_blocks(spectrum)
    for name, _, params, recipe in _abelian_table(key, mode)[1].get(
            _signature(normal), ()):
        values = _fit(recipe, normal)
        if values is not None:
            return name, tuple(values[p] for p in params)
    return None


def _classify_abelian(key: str, mode: str, flat: Vector) -> MatchResult:
    """The table matcher on a sweep point of an abelian base R^n.  An ext1
    point is a member when invertible.  An ext2ad point [[A, v], [0, 0]] is
    a member when [A, v] has rank n, and indecomposable when A is singular.

    Membership is decided by one ``_bareiss`` of the point's integer rows
    (``_integer_point``; an ``int`` flat is used as it is).  For a member
    [A, v], det A != 0 exactly when all n pivots lie left of column n.
    Only a member is built as a ``Matrix``, for ``eigen_structure``."""
    size = math.isqrt(len(flat))
    ints = _integer_point(flat)[1]
    rows = [list(ints[i * size:(i + 1) * size]) for i in range(size)]
    if mode == "ext1":
        if _bareiss(rows)[0] < size:
            return None
    else:
        n = size - 1
        # A zero row of [A, v] caps the rank below n, with no elimination.
        if not all(map(any, rows[:n])):
            return None
        rank, _, pivots = _bareiss(rows[:n])
        if rank != n:
            return None
        if pivots[-1] < n:
            return FILTERED
    st = eigen_structure(Matrix.unflatten(flat, size, size))
    outcome = _match_spectrum(key, mode, st.blocks)
    if outcome is None:
        raise AssertionError(f"no {key}/{mode} family fits {st}")
    return outcome


def _recipe_at(recipe, params, point) -> list[tuple]:
    """The recipe's blocks with its parameters set to ``point``."""
    values = dict(zip(params, point))
    return [(kind, size, *(values[w] if isinstance(w, str) else w
                           for w in spec))
            for kind, size, *spec in recipe]


def _recipe_matrix(blocks) -> Matrix:
    mats = []
    for kind, size, *vals in blocks:
        # size copies of the unit block, chained by identity blocks
        unit = [vals] if kind == "r" else [vals, [-vals[1], vals[0]]]
        d = len(unit)
        mats.append(Matrix.from_rows([
            [unit[i % d][j % d] if i // d == j // d else
             int(j == i + d) for j in range(d * size)]
            for i in range(d * size)]))
    return _block_diag(mats)


def _recipe_match(key: str, mode: str, blocks) -> MatchResult:
    """The table matcher on a recipe's own blocks, with no eigen
    computation; None where the blocks cannot be a normal form."""
    if any(b[0] == "c" and b[3] <= 0 for b in blocks):
        return None  # the normal form's q is always positive
    # A real spectrum is divided by its pivot, so a fixed point of the
    # matcher has pivot 1.
    if all(b[0] == "r" for b in blocks) and _pivot(
            [(b[2], b[1]) for b in blocks]) != 1:
        return None
    return _match_spectrum(key, mode, [
        b if b[0] == "r" else b[:3] + (b[3] * b[3],) for b in blocks])


# ---------------------------------------------------------------------------
# shaped bases: one row per family
# ---------------------------------------------------------------------------

def _shape_h3(a, b, c, e) -> Matrix:
    return Matrix.from_rows([[a + b, 0, 0], [0, a, c], [0, e, b]])


def _shape_rp(a, b, c, e, f, g, h, k) -> Matrix:
    return Matrix.from_rows([
        [a + b, 0, 0, k], [0, a, e, 0], [0, f, b, 0], [0, g, h, c]])


def _shape_g4(a, b, c, e) -> Matrix:
    return Matrix.from_rows([
        [a + 2 * b, 0, e, 0], [0, a + b, 0, 0], [0, 0, a, c], [0, 0, 0, b]])


def _shape_h3_ext2(a, b, c, e, h) -> Matrix:
    return Matrix.from_rows([
        [a + b, 0, 0, h], [0, a, c, 0], [0, e, b, 0], [0, 0, 0, 0]])


# The families of h3, r⊕h3 and g4: name, domain text, parameter names and
# the template matrix at a point, in the coordinate shape of the base's
# classifier; a domain is the points that classifier maps to themselves.
_SHAPED_FAMILIES = {
    ("h3", "ext1"): (
        ("A", "0 < |lam| <= 1", ("lam",), lambda p: _shape_h3(1, p[0], 0, 0)),
        ("B", "no parameters", (), lambda p: _shape_h3(1, 1, 1, 0)),
        ("C", "lam >= 0", ("lam",), lambda p: _shape_h3(p[0], p[0], 1, -1)),
    ),
    ("h3", "ext2ad"): (
        ("F", "no parameters", (), lambda p: _shape_h3_ext2(1, -1, 0, 0, 1)),
        ("G", "no parameters", (), lambda p: _shape_h3_ext2(0, 0, 1, -1, 1)),
    ),
    ("r_plus_h3", "ext1"): (
        ("A", "0 < |alpha| <= 1, beta != 0", ("alpha", "beta"),
         lambda p: _shape_rp(1, p[0], p[1], 0, 0, 0, 0, 0)),
        ("B", "alpha in (-1, 1], alpha != 0", ("alpha",),
         lambda p: _shape_rp(1, p[0], 1 + p[0], 0, 0, 0, 0, 1)),
        ("C", "alpha != 0", ("alpha",),
         lambda p: _shape_rp(p[0], 1, 1, 0, 0, 0, 1, 0)),
        ("D", "beta != 0", ("beta",),
         lambda p: _shape_rp(1, 1, p[0], 0, 1, 0, 0, 0)),
        ("E", "no parameters", (), lambda p: _shape_rp(1, 1, 2, 0, 1, 0, 0, 1)),
        ("F", "no parameters", (), lambda p: _shape_rp(1, 1, 1, 0, 1, 0, 1, 0)),
        ("G", "lam >= 0, c > 0", ("lam", "c"),
         lambda p: _shape_rp(p[0], p[0], p[1], 1, -1, 0, 0, 0)),
        ("H", "lam > 0", ("lam",),
         lambda p: _shape_rp(p[0], p[0], 2 * p[0], 1, -1, 0, 0, 1)),
    ),
    ("g4", "ext1"): (
        ("I", "lam != 0", ("lam",), lambda p: _shape_g4(p[0], 1, 0, 0)),
        ("J", "no parameters", (), lambda p: _shape_g4(1, 1, 1, 0)),
    ),
}


# ---------------------------------------------------------------------------
# templates
# ---------------------------------------------------------------------------

# Template parameter values; candidates are their k-fold product, in order.
_SAMPLE_VALUES = tuple(Fraction(s * v) for v in range(1, 19) for s in (1, -1))


def _template(name, param_names, domain_desc, build, match) -> FamilyTemplate:
    """A family whose domain is the fixed points of its matcher: a rational
    point p is in it when ``match(p)`` returns ``(name, p)``."""
    candidates = itertools.product(_SAMPLE_VALUES, repeat=len(param_names))
    accepted: list[tuple[Fraction, ...]] = []

    def in_domain(point) -> bool:
        return (all(x.__class__ is Fraction for x in point)
                and match(point) == (name, point))

    def sample(count: int) -> list[tuple[Fraction, ...]]:
        """The first ``count`` (at least one) in-domain candidates."""
        count = max(count, 1)
        while len(accepted) < count and (
                point := next(candidates, None)) is not None:
            if in_domain(point):
                accepted.append(point)
        return accepted[:count]

    return FamilyTemplate(name, tuple(param_names), domain_desc,
                          build, in_domain, sample)


def _family_templates(key: str, mode: str,
                      classifier: Optional[Callable[[Vector], MatchResult]]
                      ) -> tuple[FamilyTemplate, ...]:
    """The templates of one (base, mode), one per table row.  An abelian
    row builds and matches its block recipe; a shaped row is matched by the
    base's classifier."""

    def from_recipe(name, domain, params, recipe):
        at = partial(_recipe_at, recipe, params)
        return _template(name, params, domain, lambda p: _recipe_matrix(at(p)),
                         lambda p: _recipe_match(key, mode, at(p)))

    def from_shape(name, domain, params, build):
        return _template(name, params, domain, build,
                         lambda p: classifier(build(p).flatten()))

    if (key, mode) in _ABELIAN_FAMILIES:
        return tuple(from_recipe(*row) for row in _abelian_table(key, mode)[0])
    return tuple(from_shape(*row) for row in _SHAPED_FAMILIES.get((key, mode), ()))


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

@dataclass
class CatalogEntry:
    """One base algebra with everything its classifications need.

    A classifier receives a sweep point as its flat row-major matrix (a
    ``Vector`` of length n*n in the coordinate shape of the sweep space,
    with ``int`` entries in the sweep and ``Fraction`` entries elsewhere) and
    decides membership itself: it returns ``None`` for a non-member,
    ``FILTERED`` for an ad-pair member that is decomposable, and otherwise
    the matched family name with canonical parameters.  No classifier
    tests outerness: every ad-pair member is outer, as A = 0 caps the rank
    of [A, v] at 1 on R^n and h3's invertible pair block is nonzero."""

    key: str
    algebra: LieAlgebra
    ext1_templates: tuple[FamilyTemplate, ...]
    ext2_templates: tuple[FamilyTemplate, ...]
    ext1_classifier: Callable[[Vector], MatchResult]
    ext2_classifier: Optional[Callable[[Vector], MatchResult]]

    def supports_ext2(self) -> bool:
        return bool(self.ext2_templates)


@lru_cache(maxsize=None)
def catalog() -> dict[str, CatalogEntry]:
    entries: dict[str, CatalogEntry] = {}

    def add(key, algebra, ext1_classifier, ext2_classifier=None):
        if not is_nilpotent(algebra):
            raise AssertionError(f"catalog base {key} must be nilpotent")
        entries[key] = CatalogEntry(
            key, algebra, _family_templates(key, "ext1", ext1_classifier),
            _family_templates(key, "ext2ad", ext2_classifier),
            ext1_classifier, ext2_classifier)

    add("r1", abelian(1, "r1"), partial(_classify_abelian, "r1", "ext1"))
    add("r2", abelian(2, "r2"), _classify_gl2_flat,
        partial(_classify_abelian, "r2", "ext2ad"))
    add("r3", abelian(3, "r3"), partial(_classify_abelian, "r3", "ext1"),
        partial(_classify_abelian, "r3", "ext2ad"))
    add("r4", abelian(4, "r4"), partial(_classify_abelian, "r4", "ext1"))
    add("h3", heisenberg3(), _classify_h3_ext1, _classify_h3_ext2)
    add("r_plus_h3", r_plus_heisenberg(), _classify_rp_ext1)
    add("g4", filiform4(), _classify_g4_ext1)
    return entries


@lru_cache(maxsize=None)
def _entry_spaces(key: str) -> dict[str, tuple[DerivationSpace, SweepSpace]]:
    """Per sweep mode, the derivation space of the algebra that mode extends
    beside the sweep space of its points: the base for ``"ext1"``, and
    base ⊕ R for ``"ext2ad"`` (only when the base has ad-pair templates).
    The cached dict is shared; callers must not modify it."""
    entry = catalog()[key]
    ext1_space = derivation_space(entry.algebra)
    spaces = {"ext1": (ext1_space, _sweep_space_ext1(ext1_space))}
    if entry.supports_ext2():
        ext2_space = derivation_space(direct_sum(entry.algebra, abelian(1)))
        spaces["ext2ad"] = (ext2_space, _sweep_space_ext2(ext2_space))
    return spaces


def _mode_spaces(key: str, mode: str) -> tuple[DerivationSpace, SweepSpace]:
    spaces = _entry_spaces(key).get(mode)
    if spaces is None:
        raise ValueError(f"{key} has no {mode} classification")
    return spaces


# The per-mode choices below read the entry's fields on every call, so a
# classifier or template replaced on a cached entry (wrapped for tracing,
# say) takes effect.

def _sweep_space(key: str, mode: str) -> SweepSpace:
    return _mode_spaces(key, mode)[1]


def _classifier(entry: CatalogEntry, mode: str) -> Callable[[Vector], MatchResult]:
    return entry.ext1_classifier if mode == "ext1" else entry.ext2_classifier


def _templates(entry: CatalogEntry, mode: str) -> tuple[FamilyTemplate, ...]:
    return entry.ext1_templates if mode == "ext1" else entry.ext2_templates


# ---------------------------------------------------------------------------
# random automorphisms (for conjugation sampling)
# ---------------------------------------------------------------------------

def _random_fraction(rng: random.Random, allow_zero=True) -> Fraction:
    while True:
        v = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if allow_zero or v != 0:
            return v


def _random_invertible(rng: random.Random, n: int) -> Matrix:
    while True:
        m = Matrix.from_rows([[_random_fraction(rng) for _ in range(n)]
                              for _ in range(n)])
        if m.det() != 0:
            return m


def _random_block_triangular(rng: random.Random, n: int) -> Matrix:
    """Invertible [[A, 0], [v, f]] preserving the leading coordinate block."""
    a = _random_invertible(rng, n - 1)
    v = [_random_fraction(rng) for _ in range(n - 1)]
    f = _random_fraction(rng, allow_zero=False)
    rows = [a.entries[i] + (Fraction(0),) for i in range(n - 1)]
    rows.append(tuple(v) + (f,))
    return Matrix.from_rows(rows)


def _random_h3_rows(rng: random.Random) -> list[list[Fraction]]:
    """The rows of a random automorphism of h3 ([x2, x3] = x1): an
    invertible [[a, b], [c, d]] on x2, x3, drawn until invertible, then
    x2, x3 shifted by p*x1, q*x1, and x1 scaled by ad - bc."""
    while True:
        a, b, c, d = (_random_fraction(rng) for _ in range(4))
        if a * d - b * c != 0:
            break
    p, q = _random_fraction(rng), _random_fraction(rng)
    return [[a * d - b * c, p, q], [0, a, b], [0, c, d]]


def random_automorphism(key: str, rng: random.Random) -> Matrix:
    """A random automorphism of the catalog algebra, checked by
    ``verify_iso_witness_full``."""
    entry = catalog()[key]
    alg = entry.algebra
    n = alg.dim
    if key in ("r1", "r2", "r3", "r4"):
        sigma = _random_invertible(rng, n)
    elif key == "h3":
        sigma = Matrix.from_rows(_random_h3_rows(rng))
    elif key == "r_plus_h3":
        top, mid, low = _random_h3_rows(rng)
        s1, s2, e = (_random_fraction(rng) for _ in range(3))
        f = _random_fraction(rng, allow_zero=False)
        sigma = Matrix.from_rows(
            [top + [e], mid + [0], low + [0], [0, s1, s2, f]])
    elif key == "g4":
        a4 = _random_fraction(rng, allow_zero=False)
        e3 = _random_fraction(rng, allow_zero=False)
        col4 = (_random_fraction(rng), _random_fraction(rng),
                _random_fraction(rng), a4)
        col3 = (_random_fraction(rng), _random_fraction(rng), e3, Fraction(0))
        x2 = bracket(alg, col3, col4)
        x1 = bracket(alg, x2, col4)
        sigma = Matrix.from_columns([x1, x2, col3, col4])
    else:
        raise ValueError(f"no automorphism generator for {key}")
    if not verify_iso_witness_full(alg, alg, sigma):
        raise AssertionError("internal: generated map is not an automorphism")
    return sigma


def conjugate_in_shape(key: str, mode: str, m: Matrix,
                       rng: random.Random) -> Matrix:
    """A random same-class representative: conjugate by an automorphism of
    the mode's algebra, rescale, and project back to the transversal.  For
    ext2ad the automorphism keeps the base invariant; on h3 ⊕ R it is
    checked by ``verify_iso_witness_full``.

    The projection reduces modulo the inner derivations, a linear map that
    is zero on them, so an inner shift ad_u would not reach the point, and
    none is added.  The n rationals of u are still drawn from ``rng``, so
    every seeded sweep keeps its points."""
    space, _ = _mode_spaces(key, mode)
    alg = space.algebra
    if mode == "ext1":
        sigma = random_automorphism(key, rng)
    elif key == "h3":
        # the r_plus_h3 automorphism with x2, x3 kept off the line
        top, mid, low = _random_h3_rows(rng)
        e, f = _random_fraction(rng), _random_fraction(rng, allow_zero=False)
        sigma = Matrix.from_rows(
            [top + [e], mid + [0], low + [0], [0, 0, 0, f]])
        if not verify_iso_witness_full(alg, alg, sigma):
            raise AssertionError(
                "internal: generated map is not an automorphism")
    else:
        sigma = _random_block_triangular(rng, alg.dim)
    conj = sigma @ m @ sigma.inverse()
    for _ in range(alg.dim):  # u, drawn to keep the seeded points
        _random_fraction(rng)
    c = _random_fraction(rng, allow_zero=False)
    return project_to_h1(space, conj.scale(c)).representative


# ---------------------------------------------------------------------------
# grids and sweeps
# ---------------------------------------------------------------------------

# The range of each grid field but the seed, checked when a grid is built,
# before ``GridSpec.values`` or a sweep can run.  The upper bounds keep the
# largest sweep near two million points: at |p|, q <= 10 the grid has 127
# values, and r4/ext1's 120 coordinate pairs hold 1,905,120 points on two
# coordinates; a Cartesian sweep is at most the budget.
_GRID_RANGES = {
    "num_max": (1, 10), "den_max": (1, 10),
    "cartesian_budget": (0, 1_000_000), "n_random": (0, 10_000),
    "n_template_samples": (0, 240), "n_conjugates": (0, 30)}


@dataclass(frozen=True)
class GridSpec:
    """Deterministic sweep description.

    When the full Cartesian grid over the value set fits the budget the
    sweep is that grid, one block; otherwise it is three blocks of distinct
    points: template instantiations with random in-shape conjugates of
    them, the axis-and-pair block of all points supported on one or two
    coordinates, and the seeded random points outside both.
    """

    num_max: int = 3
    den_max: int = 3
    cartesian_budget: int = 100_000
    n_random: int = 200
    n_template_samples: int = 24
    n_conjugates: int = 3
    seed: int = 20250801

    def __post_init__(self) -> None:
        for name, (low, high) in _GRID_RANGES.items():
            value = getattr(self, name)
            if value < low:
                raise ValueError(
                    f"grid field {name} must be at least {low}, got {value}")
            if value > high:
                raise ValueError(
                    f"grid field {name} must be at most {high}, got {value}")

    def values(self) -> list[Fraction]:
        return sorted({Fraction(p, q)
                       for p in range(-self.num_max, self.num_max + 1)
                       for q in range(1, self.den_max + 1)})

    def describe(self) -> str:
        return (f"values p/q with |p|<={self.num_max}, 1<=q<={self.den_max}; "
                f"cartesian budget {self.cartesian_budget}; "
                f"{self.n_random} random points; "
                f"{self.n_template_samples} samples per template; "
                f"seed {self.seed}")

    @staticmethod
    def parse(text: str) -> "GridSpec":
        """A grid from ``name=value`` parts joined by commas, each field at
        most once; a ``ValueError`` names the field that is unknown,
        repeated or not given an integer."""
        spec = GridSpec()
        if not text:
            return spec
        kwargs = {}
        for part in text.split(","):
            name, _, value = part.partition("=")
            field_name = {
                "num": "num_max", "den": "den_max",
                "budget": "cartesian_budget", "random": "n_random",
                "samples": "n_template_samples", "conj": "n_conjugates",
                "seed": "seed"}.get(name.strip())
            if field_name is None:
                raise ValueError(f"unknown grid field {name!r}")
            if field_name in kwargs:
                raise ValueError(f"grid field {name.strip()!r} given twice")
            try:
                kwargs[field_name] = int(value)
            except ValueError:
                raise ValueError(f"grid field {name.strip()!r} needs an "
                                 f"integer value, got {value!r}") from None
        return dataclasses.replace(spec, **kwargs)


def _is_cartesian(grid: GridSpec, dim: int) -> bool:
    """Whether a sweep of ``dim`` coordinates enumerates the full Cartesian
    grid over the values: when it fits the budget."""
    return len(grid.values()) ** dim <= grid.cartesian_budget


class _LazyPoints(Sequence):
    """A sequence of sweep points computed on demand: ``points[i]``, with a
    negative ``i`` counting from the end, decodes index ``i`` (``_at``)."""

    def __getitem__(self, index: int) -> tuple[int, ...]:
        size = len(self)
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError(f"sweep point index out of range: {index}")
        return self._at(index)


class _IntegerGrid(_LazyPoints):
    """A Cartesian sweep: every ``dim``-tuple over the integer grid values
    in ``itertools.product`` order, point i decoded in mixed radix."""

    def __init__(self, values: Sequence[int], dim: int) -> None:
        self.values = tuple(values)
        self.dim = dim

    def __len__(self) -> int:
        return len(self.values) ** self.dim

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(self.values, repeat=self.dim)

    def _at(self, index: int) -> tuple[int, ...]:
        digits = []
        for _ in range(self.dim):
            index, digit = divmod(index, len(self.values))
            digits.append(self.values[digit])
        return tuple(reversed(digits))


class _AxisPairBlock(_LazyPoints):
    """The structured sweep's points supported on one or two coordinates,
    as integer points: n/d on axis i becomes n*e_i, and (n1/d1, n2/d2) on
    axes i < j becomes n1*l/d1*e_i + n2*l/d2*e_j with l = lcm(d1, d2).
    The axes come first, then the pairs (i, j) in order, each over the
    nonzero grid values in order.  Block indices of points already in
    ``earlier`` (the ``_integer_point`` keys of the points before the
    block) are skipped, so each rational point is kept once."""

    def __init__(self, dim: int, vals: Sequence[Fraction],
                 earlier: Iterable[tuple[int, tuple[int, ...]]]) -> None:
        nonzero = [v for v in vals if v]
        ratios = [v.as_integer_ratio() for v in nonzero]
        self.dim = dim
        self.numerators = [n for n, _ in ratios]
        self.pairs = []
        for n1, d1 in ratios:
            for n2, d2 in ratios:
                lcm = math.lcm(d1, d2)
                self.pairs.append((n1 * (lcm // d1), n2 * (lcm // d2)))
        self.axes = list(itertools.combinations(range(dim), 2))
        m = len(nonzero)
        self.size = dim * m + len(self.axes) * m * m
        row = {v: r for r, v in enumerate(nonzero)}
        skipped = []
        for scale, coeffs in earlier:
            support = [k for k, c in enumerate(coeffs) if c]
            if not 1 <= len(support) <= 2:
                continue
            rows = [row.get(Fraction(coeffs[k], scale)) for k in support]
            if None in rows:
                continue
            if len(support) == 1:
                skipped.append(support[0] * m + rows[0])
            else:
                pair = self.axes.index(tuple(support))
                skipped.append(dim * m + (pair * m + rows[0]) * m + rows[1])
        self.skipped = sorted(skipped)

    def __len__(self) -> int:
        return self.size - len(self.skipped)

    def _at(self, index: int) -> tuple[int, ...]:
        for b in self.skipped:
            if b > index:
                break
            index += 1
        m = len(self.numerators)
        if index < self.dim * m:
            i, r = divmod(index, m)
            return self._embed((i,), (self.numerators[r],))
        pair, r = divmod(index - self.dim * m, m * m)
        return self._embed(self.axes[pair], self.pairs[r])

    def _embed(self, axes: Sequence[int], values: Sequence[int]
               ) -> tuple[int, ...]:
        coeffs = [0] * self.dim
        for k, v in zip(axes, values):
            coeffs[k] = v
        return tuple(coeffs)

    def add_lines(self, table: dict[tuple[int, ...], list]) -> None:
        """Add the block's lines to a ``_sweep_lines`` table without
        visiting the points: axis i is one line, and every pair of axes
        holds the lines of one plane table over the value pairs, embedded at
        (i, j).  A line not yet in the table takes its first point's
        orientation; skipped points were counted where they came first."""
        dim, m = self.dim, len(self.numerators)
        plane: dict[tuple[int, ...], list] = {}
        for point in self.pairs:
            line = _line_key(point)
            entry = plane.setdefault(
                line, [line if point > (0, 0) else (-line[0], -line[1]), 0])
            entry[1] += 1
        counted: Counter = Counter()
        for b in self.skipped:
            if b < dim * m:
                counted[(b // m,), (1,)] += 1
            else:
                pair, r = divmod(b - dim * m, m * m)
                counted[self.axes[pair], _line_key(self.pairs[r])] += 1
        first = (1 if self.numerators[0] > 0 else -1,)
        lines = [((i,), (1,), first, m) for i in range(dim)]
        lines += [(pair, line, oriented, n) for pair in self.axes
                  for line, (oriented, n) in plane.items()]
        for axes, line, oriented, n in lines:
            key = self._embed(axes, line)
            entry = table.get(key)
            if entry is None:
                table[key] = [self._embed(axes, oriented), n]
            else:
                entry[1] += n - counted[axes, line]


class _SweepPoints(_LazyPoints):
    """A structured sweep's points: the template and conjugate points, the
    axis-and-pair block, then the random points, as one sequence."""

    def __init__(self, blocks: Sequence[Sequence[tuple[int, ...]]]) -> None:
        self.blocks = tuple(blocks)

    def __len__(self) -> int:
        return sum(map(len, self.blocks))

    def _at(self, index: int) -> tuple[int, ...]:
        for block in self.blocks:
            if index < len(block):
                return block[index]
            index -= len(block)


def sweep_points(key: str, mode: str,
                 grid: GridSpec) -> Sequence[tuple[int, ...]]:
    """The deterministic sequence of integer coefficient tuples for one
    sweep, built lazily block by block.

    Each point is the integer point L*p of the rational point p it stands
    for, a positive multiple on the same line with the same orientation, so
    the sweep's outcomes and point count are those of the rational points.
    When the grid is Cartesian (``_is_cartesian``), the points are the
    integer grid, ``itertools.product`` of the values times L, the lcm of
    their denominators, indexed without being stored.  The values are
    sorted and symmetric about zero, so the grid mirrors itself: its middle
    point is zero, point total-1-i is the negative of point i, and every
    point before the middle has a negative first nonzero entry;
    ``_run_sweep`` folds that half into its projective classes for the
    one call (``_point_class``).  Otherwise the sweep
    keeps each distinct rational point once, as its ``_integer_point``, in
    three blocks: the template samples and their in-shape conjugates, the
    ``_AxisPairBlock`` of every point supported on one or two coordinates
    (less those the first block holds), and the seeded random points the
    first two blocks do not hold."""
    entry = catalog()[key]
    sweep = _sweep_space(key, mode)
    dim = sweep.dim
    vals = grid.values()
    if _is_cartesian(grid, dim):
        return _IntegerGrid(_integer_point(vals)[1], dim)

    seen: set[tuple[int, tuple[int, ...]]] = set()

    def push(coeffs: Sequence[Fraction], points: list) -> None:
        # One hash per point, of ints only: a tuple does not cache its hash.
        exact = _integer_point(coeffs)
        size = len(seen)
        seen.add(exact)
        if len(seen) > size:
            points.append(exact[1])

    explicit: list[tuple[int, ...]] = []
    templates = _templates(entry, mode)
    rng = random.Random(grid.seed)
    for t in templates:
        for params in t.sample(grid.n_template_samples):
            push(sweep.coeffs_of(t.build(params)), explicit)
    for t in templates:
        for params in t.sample(max(1, grid.n_conjugates)):
            m = t.build(params)
            for _ in range(grid.n_conjugates):
                rep = conjugate_in_shape(key, mode, m, rng)
                try:
                    push(sweep.coeffs_of(rep), explicit)
                except ValueError:
                    continue
    block = _AxisPairBlock(dim, vals, seen)
    randoms: list[tuple[int, ...]] = []
    for _ in range(grid.n_random):
        coeffs = tuple(rng.choice(vals) for _ in range(dim))
        # A random point on one or two coordinates is in the block.
        if not 1 <= dim - coeffs.count(0) <= 2:
            push(coeffs, randoms)
    return _SweepPoints((explicit, block, randoms))


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fingerprint:
    """Basis-independent isomorphism invariants of a solvable algebra.

    The spectral component is the proportional normal form of the map the
    distinguished generator induces on (derived algebra)/(its derived
    algebra); for derived codimension two, the pencil component records the
    factorization shape of the determinant of the induced operator pencil,
    which is invariant under basis mixing of the two generators.
    """

    derived_dims: tuple[int, ...]
    lower_central_dims: tuple[int, ...]
    center_dim: int
    der_dim: int
    h1_dim: int
    spectral: str
    pencil_shape: tuple = ()


def _pencil_det(a: Matrix, b: Matrix) -> Poly:
    """det(b + t*a) as ascending coefficients without trailing zeros (the
    zero polynomial is ``(0,)``): the determinant at t = 0..n, interpolated
    by an exact Vandermonde solve."""
    n = a.rows
    ts = range(n + 1)
    values = tuple((b + a.scale(t)).det() for t in ts)
    vandermonde = Matrix.from_rows([[t ** k for k in ts] for t in ts])
    coeffs = solve(vandermonde, values)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return coeffs


def _abelianized_actions(L: LieAlgebra, series: Sequence[Subspace],
                         vectors: Sequence[Vector]) -> list[Matrix]:
    """The actions induced by ad_v on D/[D, D], D = [L, L], for each v in
    ``vectors``, read from L's ``derived_series``: ad_v restricted to
    ``series[1]`` = D, in D's echelon coordinates, and then induced modulo
    ``series[2]`` = [D, D], written in the same coordinates."""
    der = series[1]
    der2 = Subspace.from_vectors(
        der.dim, [der.coordinates(w) for w in series[2].basis])
    return [induced_operator_on_quotient(
        restrict_operator(adjoint_matrix(L, v), der), der2) for v in vectors]


def fingerprint(L: LieAlgebra) -> Fingerprint:
    """Compute the invariant fingerprint of a solvable algebra L of
    dimension n; raises ``ValueError`` when L is not solvable.

    One ``derived_series`` call gives solvability (the series ends at 0),
    the derived dimensions, [L, L] and [[L, L], [L, L]].  The other
    dimensions are ranks of integer rows (``_rank``), not bases of
    subspaces:

    - dim Z(L) = n - the rank of the rows ad(x_i), i = 1..n, each the
      brackets [x_i, x_1], ..., [x_i, x_n] laid end to end;
    - dim Der(L) = n^2 - the rank of the Leibniz system's integer rows
      (``_leibniz_rows``, the table scaled by the lcm of its denominators,
      which changes no rank); its zero and repeated rows are dropped
      first, as they change no rank either and ``_bareiss`` would rewrite
      them at every pivot;
    - dim H^1 = dim Der(L) - (n - dim Z(L)), since the inner derivations
      ad(L) are isomorphic to L/Z(L).

    The spectral and pencil components read the action of the complement
    of [L, L] on D/[D, D], D = [L, L]: both D and [D, D] are terms of the
    same derived series (``_abelianized_actions``), so no algebra is built
    on D.
    """
    series = derived_series(L)
    if series[-1].dim:
        raise ValueError("fingerprint requires a solvable algebra")
    n = L.dim
    ds = tuple(i.dim for i in series)
    lcs = tuple(i.dim for i in lower_central_series(L))
    zdim = n - _rank([_integer_point(itertools.chain.from_iterable(
        L.bracket_basis(i, j) for j in range(n)))[1] for i in range(n)])
    der_dim = n * n - _rank(list(dict.fromkeys(
        tuple(row) for row in _leibniz_rows(L) if any(row))))
    der = series[min(1, len(series) - 1)]  # [L, L]; L itself when L = 0
    codim = n - der.dim
    spectral = ""
    pencil: tuple = ()
    comp = complement_coordinates(der)
    if codim == 1 and der.dim > 0:
        y = L.basis_vector(comp[0])
        try:
            spectral = proportional_normalize(
                _abelianized_actions(L, series, [y])[0]).describe()
        except UnsupportedSpectrumError:
            spectral = "outside supported spectrum"
    elif codim == 2 and der.dim > 0:
        z = L.basis_vector(comp[0])
        y = L.basis_vector(comp[1])
        a, b = _abelianized_actions(L, series, [z, y])
        det_poly = _pencil_det(a, b)
        m = a.rows
        shape: list[tuple] = []
        if all(c == 0 for c in det_poly):
            shape.append(("zero", m))
        else:
            inf_mult = m - (len(det_poly) - 1)
            if inf_mult > 0:
                shape.append(("inf", inf_mult))
            if len(det_poly) > 1:
                for fac, mult in _factor_over_rationals(det_poly):
                    shape.append((len(fac) - 1, mult))
        pencil = tuple(sorted(shape, key=str))
    return Fingerprint(ds, lcs, zdim, der_dim, der_dim - (n - zdim),
                       spectral, pencil)


# ---------------------------------------------------------------------------
# reports and drivers
# ---------------------------------------------------------------------------

# Template parameter points instantiated and re-verified per family.
_VERIFY_SAMPLES = 20
# Swept points whose fast membership outcome is re-checked by the full
# condition.
_CROSSCHECK_POINTS = 60


def _json_data(value):
    """The JSON data of a report value: a dataclass is an object with a key
    per field, its name, leaving out each field whose value is None; lists,
    tuples and dicts are serialised item by item; anything else is
    returned as it is."""
    if dataclasses.is_dataclass(value):
        return {f.name: _json_data(v) for f in dataclasses.fields(value)
                if (v := getattr(value, f.name)) is not None}
    if isinstance(value, (list, tuple)):
        return [_json_data(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_data(v) for k, v in value.items()}
    return value


@dataclass
class FamilyReport:
    """What ``_verify_template`` checked of one family.  ``jacobi_ok`` is
    always true in a returned report: a Jacobi failure raises
    ``NotADerivation`` or ``JacobiViolation`` instead, and the field stays
    so the report JSON keeps its key.  ``indecomposable_ok`` is None, so
    no key, in ext1, which checks no decomposability."""

    name: str
    domain: str
    param_names: tuple[str, ...]
    matched_points: int
    sample_params: list[str]
    verified_points: int
    jacobi_ok: bool
    membership_ok: bool
    indecomposable_ok: Optional[bool]


@dataclass
class ClassificationReport:
    """One sweep's outcome, shaped as its JSON.  ``as_dict`` applies the one
    rule of ``_json_data``: each field is a key of its name, a nested
    report (family, fingerprint) an object of its fields, and a field whose
    value is None is left out.  So an opt-in section, such as sweep
    statistics or per-family isomorphism witnesses, is a field that
    defaults to None, and the default report's bytes do not change."""

    base: str
    mode: str
    grid: str
    totals: dict[str, int]  # points, members, skipped_out_of_field, filtered
    families: list[FamilyReport]
    fingerprints: dict[str, Fingerprint]
    distinctness: list[dict]
    crosscheck_points: int
    golden: dict  # expected and found family names, sorted, and ok

    def as_dict(self) -> dict:
        return _json_data(self)


def _line_key(coeffs: Sequence[int]) -> tuple[int, ...]:
    """The primitive integer vector on the line through the integer point
    ``coeffs``, signed so that its first nonzero entry is positive; the zero
    vector is its own key.  Two points share a key exactly when one is a
    nonzero rational multiple of the other."""
    g = math.gcd(*coeffs)
    for v in coeffs:
        if v:
            if v < 0:
                g = -g
            break
    else:
        return tuple(coeffs)
    if g == 1:
        return tuple(coeffs)
    return tuple(map(g.__rfloordiv__, coeffs))


def _classify_flat(classifier: Callable[[Vector], MatchResult],
                   flat: Vector) -> tuple:
    """The outcome of one sweep point, given as its flat matrix:
    ``("nonmember",)``, ``("filtered",)``, ``("skip",)`` or ``("match",
    name, params)`` with the parameters as ``str`` texts."""
    try:
        outcome = classifier(flat)
    except UnsupportedSpectrumError:
        return ("skip",)
    if outcome is None:
        return ("nonmember",)
    if outcome is FILTERED:
        return ("filtered",)
    name, params = outcome
    return ("match", name, tuple(map(str, params)))


def _sweep_lines(points: Sequence[tuple[int, ...]]
                 ) -> dict[tuple[int, ...], list]:
    """A structured sweep's lines through the origin, in the order of their
    first points: each line's ``_line_key`` mapped to [its primitive integer
    vector oriented like its first point, the number of its points].

    Each point of the explicit blocks is keyed by ``_line_key``, and the
    axis-and-pair block's lines are added in closed form.  Any other
    sequence is one explicit block.  A Cartesian grid has no line table:
    ``_run_sweep`` folds its points into classes directly."""
    table: dict[tuple[int, ...], list] = {}
    blocks = points.blocks if isinstance(points, _SweepPoints) else (points,)
    for block in blocks:
        if isinstance(block, _AxisPairBlock):
            block.add_lines(table)
            continue
        for p, line in zip(block, map(_line_key, block)):
            entry = table.get(line)
            if entry is None:
                zero = (0,) * len(p)
                table[line] = [line if p > zero else tuple(-v for v in line),
                               1]
            else:
                entry[1] += 1
    return table


def _point_class(key: str, mode: str, point: Sequence[int]) -> object:
    """The class of an integer sweep point: its (base, mode) key
    (``_LINE_KEYS``) at the point's coordinates and the gcd g of them (1
    for the zero point), or the point's line (``_line_key``) where there is
    no key or the key is ``None``.  Every nonzero multiple of a point has
    its class, and points of one class have one outcome."""
    class_key = _LINE_KEYS.get((key, mode))
    found = None if class_key is None else class_key(
        point, math.gcd(*point) or 1)
    return _line_key(point) if found is None else found


def _run_sweep(key: str, mode: str, points: Sequence[tuple[int, ...]]
               ) -> dict[object, tuple[int, tuple]]:
    """Fold every sweep point into its class (``_point_class``) and
    classify each class once, at the oriented primitive integer vector of
    its first point's line, so the matchers run on ``int`` entries.

    Returns the class table, each class mapped to (number of points,
    outcome), in the order of the classes' first points.  A point c*D (c a
    nonzero rational) is proportionally similar to D, so both give
    isomorphic algebras with the same outcome, and a class key names the
    matcher's invariants, so every point of a class takes the outcome of
    its first line.  An integer grid (a Cartesian sweep) mirrors itself
    (see ``sweep_points``), so it is folded on its negative half, where a
    point p lies on the line p // gcd(p), oriented like the line's first
    point; each counts twice, for its mirror image, and the zero point, the
    middle one, once.  A structured sweep folds the oriented lines of
    ``_sweep_lines`` with their point counts.  One matcher defect makes the
    orientation a choice: when the largest |eigenvalue| of an r3 or r4
    diagonal point is tied between signs, D and -D get different canonical
    parameters of the same family, and such a point's class is its line (no
    key), which takes those of the side of its first point in the sweep.

    The table lives for this one call; nothing is cached across calls.  It
    is keyed by the (base, mode), not by the classifier, so a classifier
    replaced on the catalog entry (wrapped for tracing, say) is still
    called once per class."""
    sweep = _sweep_space(key, mode)
    outcome_of = partial(_classify_flat, _classifier(catalog()[key], mode))
    class_key = _LINE_KEYS.get((key, mode), lambda c, g: None)
    # (point, gcd, number of points, its line's _line_key or None); the
    # loop applies _point_class with the gcd and line key it already has.
    if isinstance(points, _IntegerGrid):
        middle = len(points) // 2
        half = itertools.islice(points, middle)
        gcds = itertools.starmap(math.gcd, itertools.islice(points, middle))
        folded = itertools.chain(
            zip(half, gcds, itertools.repeat(2), itertools.repeat(None)),
            ((points[middle], 1, 1, None),))
    else:
        folded = ((p, 1, n, line)
                  for line, (p, n) in _sweep_lines(points).items())
    classes: dict[object, tuple[int, tuple]] = {}
    for p, g, n, line in folded:
        c = class_key(p, g)
        if c is None:
            c = _line_key(p) if line is None else line
        entry = classes.get(c)
        if entry is None:
            primitive = p if g == 1 else tuple(v // g for v in p)
            classes[c] = (n, outcome_of(sweep.to_flat(primitive)))
        else:
            classes[c] = (entry[0] + n, entry[1])
    return classes


def _tally_outcomes(classes: dict[object, tuple[int, tuple]]) -> Counter:
    """The number of points of each outcome, in the order of the outcome's
    first point: the classes are in the order of their first points."""
    tally: Counter = Counter()
    for n, outcome in classes.values():
        tally[outcome] += n
    return tally


def _point_outcome(key: str, mode: str, classes: dict[object, tuple],
                   point: tuple[int, ...]) -> tuple:
    """The outcome of a sweep point, read through its class in the table
    ``_run_sweep`` returns."""
    return classes[_point_class(key, mode, point)][1]


def _is_member(entry: CatalogEntry, mode: str, m: Matrix) -> bool:
    """The slow membership condition of a sweep matrix: codimension one
    for ext1, codimension two with zero y-action for ext2ad."""
    if mode == "ext1":
        return check_codim1_condition(entry.algebra, m).member
    n = entry.algebra.dim
    return check_codim2_condition(entry.algebra, Matrix.zero(n, n), m).member


def _verify_template(entry: CatalogEntry, mode: str,
                     t: FamilyTemplate) -> FamilyReport:
    """Instantiate sample parameter points and re-verify everything slow:
    Jacobi, the full membership condition, indecomposability, and the
    exact parameter round trip through the matcher.

    The round trip takes one matcher call per sample.  ``sample`` keeps
    only in-domain points, and the domain is the matcher's fixed points, so
    returned parameters equal to the sample are in the domain exactly when
    each is a ``Fraction``: an equal ``int`` is not a domain point.

    Jacobi is checked without building the extension of the mode algebra K
    by each sample m: ``validate_jacobi(K)`` once per template, and the
    Leibniz identity of m on K once per sample, by the membership check
    (``_is_member``), whose condition first runs
    ``deriv._require_derivation`` on K: the base in ext1, and base ⊕ R
    with y last, K's own coordinates, in ext2ad.  These are the two checks
    ``extend_by_derivation`` runs, and its docstring shows they are
    equivalent to Jacobi on the extension: a triple through the new
    generator has the Leibniz residual of m as its Jacobi sum, and every
    other triple is a triple of K.  A failure raises ``NotADerivation`` or
    ``JacobiViolation``; no report is returned."""
    samples = t.sample(_VERIFY_SAMPLES)
    mem_ok = True
    indec_ok: Optional[bool] = None if mode == "ext1" else True
    verified = 0
    classifier = _classifier(entry, mode)
    space, _ = _mode_spaces(entry.key, mode)
    validate_jacobi(space.algebra)
    for params in samples:
        m = t.build(params)
        # Not short-circuited: the check is the sample's Leibniz check.
        mem_ok = _is_member(entry, mode, m) and mem_ok
        if mode == "ext2ad":
            cert = is_decomposable_double(entry.algebra, m)
            indec_ok = indec_ok and not cert.decomposable
        outcome = classifier(m.flatten())
        if outcome is FILTERED:
            raise AmbiguousMatch(
                f"template {t.name} instantiation is not indecomposable")
        if outcome is None or outcome[0] != t.name:
            raise AmbiguousMatch(
                f"template {t.name} instantiation matched {outcome}")
        if outcome[1] != params:
            raise AmbiguousMatch(
                f"template {t.name} parameter round trip failed: "
                f"{list(map(str, params))} -> {list(map(str, outcome[1]))}")
        if not all(x.__class__ is Fraction for x in outcome[1]):
            raise AmbiguousMatch(
                f"template {t.name} produced out-of-domain parameters")
        verified += 1
    return FamilyReport(t.name, t.domain_desc, t.param_names, 0,
                        [], verified, True, mem_ok, indec_ok)


def distinctness_evidence(entry: CatalogEntry, mode: str,
                          templates: Sequence[FamilyTemplate]
                          ) -> tuple[list[dict], dict[str, Fingerprint]]:
    """Pairwise evidence that distinct templates give non-isomorphic
    algebras at reference parameters: a fingerprint difference, or a failed
    proportional-similarity search on the representatives.  Pairs with
    neither are flagged UNRESOLVED, never merged."""
    space, _ = _mode_spaces(entry.key, mode)
    reps = {}
    prints = {}
    for t in templates:
        params = t.sample(1)[0]
        m = t.build(params)
        reps[t.name] = m
        prints[t.name] = fingerprint(extend_by_derivation(space.algebra, m))
    evidence = []
    names = [t.name for t in templates]
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if prints[a] != prints[b]:
                evidence.append({"pair": [a, b], "evidence": "fingerprint"})
            elif proportional_similar(reps[a], reps[b]) is None:
                evidence.append({"pair": [a, b],
                                 "evidence": "representatives-not-similar"})
            else:
                evidence.append({"pair": [a, b], "evidence": "UNRESOLVED"})
    return evidence, prints


def _shuffled_indices(rng: random.Random, n: int) -> Iterator[int]:
    """A seeded random permutation of ``range(n)``, drawn lazily by a
    Fisher-Yates shuffle that records only the positions it has swapped."""
    moved: dict[int, int] = {}
    for i in range(n):
        j = rng.randrange(i, n)
        yield moved.get(j, j)
        moved[j] = moved.pop(i, i)


def _crosscheck_conditions(entry: CatalogEntry, mode: str, grid: GridSpec,
                           points: Sequence[tuple[int, ...]],
                           classes: dict[object, tuple[int, tuple]]) -> int:
    """Re-run the slow membership condition on a deterministic subsample of
    swept points and insist it agrees with the outcome recorded for the
    point's class (every outcome but ``"nonmember"`` passed the fast
    membership test)."""
    sweep = _sweep_space(entry.key, mode)
    rng = random.Random(grid.seed + 1)
    checked = 0
    for i in _shuffled_indices(rng, len(points)):
        if checked >= _CROSSCHECK_POINTS:
            break
        kind = _point_outcome(entry.key, mode, classes, points[i])[0]
        if kind == "skip":
            continue
        m = sweep.to_matrix(points[i])
        if _is_member(entry, mode, m) != (kind != "nonmember"):
            raise AssertionError(
                "fast membership disagrees with the full condition check")
        checked += 1
    return checked


def classify_extensions(key: str, mode: str, grid: Optional[GridSpec] = None,
                        jobs: int = 1) -> ClassificationReport:
    """Run one classification sweep and return the full report.

    The sweep folds its points into outcome classes and classifies each
    class once (``_run_sweep``), in this process; the report counts points,
    each point taking its class's outcome, and samples parameters in the
    order of the classes' first points.  Raises :class:`GoldenMismatch`
    when the discovered family set differs from the catalog's golden list.

    ``jobs`` must be 1 (``ValueError`` otherwise).  The keyword exists only
    because the benchmark harness passes ``jobs=1``; it goes when the
    harness stops passing it.
    """
    if jobs != 1:
        raise ValueError(f"jobs must be 1: sweeps run in one process, "
                         f"got {jobs}")
    grid = grid or GridSpec()
    entry = catalog().get(key)
    if entry is None:
        raise KeyError(f"unknown catalog key {key!r}")
    if mode not in ("ext1", "ext2ad"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "ext2ad" and not entry.supports_ext2():
        raise ValueError(f"{key} has no ad-pair classification")
    templates = _templates(entry, mode)
    points = sweep_points(key, mode, grid)
    classes = _run_sweep(key, mode, points)

    # Distinct outcomes of one family have distinct parameter texts.
    tally = _tally_outcomes(classes)
    counts: dict[str, int] = {}
    samples: dict[str, list[str]] = {}
    for r, n in tally.items():
        if r[0] == "match":
            counts[r[1]] = counts.get(r[1], 0) + n
            bucket = samples.setdefault(r[1], [])
            if len(bucket) < 5:
                bucket.append("(" + ", ".join(r[2]) + ")")

    found = set(counts)
    expected = {t.name for t in templates}
    if found != expected:
        raise GoldenMismatch(found, expected)

    family_reports = [dataclasses.replace(
        _verify_template(entry, mode, t), matched_points=counts[t.name],
        sample_params=samples[t.name]) for t in templates]
    crosschecked = _crosscheck_conditions(entry, mode, grid, points, classes)
    evidence, prints = distinctness_evidence(entry, mode, templates)

    return ClassificationReport(
        base=key, mode=mode, grid=grid.describe(),
        totals={"points": len(points), "members": sum(counts.values()),
                "skipped_out_of_field": tally[("skip",)],
                "filtered": tally[("filtered",)]},
        families=family_reports, fingerprints=prints,
        distinctness=evidence, crosscheck_points=crosschecked,
        golden={"expected": sorted(expected), "found": sorted(found),
                "ok": found == expected})

