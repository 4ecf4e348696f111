"""Catalog-driven classification of one- and two-step extensions.

For each catalog base algebra the classification sweep enumerates rational
points in cohomology coordinates, filters them by the membership (and, for
the two-step drivers, indecomposability and outerness) conditions,
canonicalizes the survivors into named family templates, and compares the
discovered family set against the built-in golden list.  Points whose
spectra leave the supported field (real irrational eigenvalues) are
counted and skipped, never approximated.

Both sweep modes extend one algebra by a single derivation, the sweep
matrix.  An ext1 point is a derivation of the base.  An ext2ad point is a
derivation of base ⊕ R with a zero y-row: the ad-pair double extension with
its inner y-action normalized to zero, so the z-action is the matrix's
leading block and [z, y] its last column.  The modes differ only in the
automorphisms used for conjugation and in the membership condition
(codimension one or two) that applies.

Each sweep point travels as its flat row-major matrix (a ``Vector``): the
sweep space maps coordinates to slots through a plan computed once, the
two-step filters run once per point, and a classifier builds a ``Matrix``
only where it needs a determinant, rank or spectrum.

On an abelian base every family is a row of one table: a block recipe of
real Jordan and complex blocks.  One matcher scales a point's spectrum to
its normal form and picks the fitting recipe with the fewest parameters;
the same table builds each template and decides its domain.  r2/ext1 and
h3's pair block take a 2x2 fast path with the same answers.  The matchers
of h3, r⊕h3 and g4 read exact invariants off their coordinate shapes:
discriminant signs, Jordan chain ranks, and the coupling slots that
survive the basis-change rewrites.  Every matched point carries canonical
parameter values, rational or exact quadratic irrationals.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Optional, Sequence

from .canon import (
    AmbiguousMatch,
    ExactScalar,
    FamilyTemplate,
    ParamValue,
    as_exact,
    param_str,
    proportional_normalize,
    proportional_similar,
)
from .deriv import (
    DerivationSpace,
    _reduce_against_pivots,
    derivation_space,
    project_to_h1,
)
from .exactla import (
    EigenStructure,
    Matrix,
    Poly,
    Subspace,
    UnsupportedSpectrumError,
    Vector,
    _block_diag,
    _sqrt_fraction,
    eigen_structure,
    nullspace,
    solve,
)
from .ext import (
    ExtensionSpec,
    check_codim1_condition,
    check_codim2_condition,
    extend_by_derivation,
    is_decomposable_double,
    verify_iso_witness_full,
)
from .liealg import (
    Ideal,
    LieAlgebra,
    abelian,
    adjoint_matrix,
    bracket,
    center,
    complement_coordinates,
    derived_series,
    derived_subalgebra,
    direct_sum,
    filiform4,
    heisenberg3,
    induced_operator_on_quotient,
    is_nilpotent,
    is_solvable,
    lower_central_series,
    r_plus_heisenberg,
    restrict_operator,
    subalgebra,
)


class GoldenMismatch(Exception):
    """The classification sweep disagrees with the built-in golden list."""

    def __init__(self, found, expected, detail=""):
        self.found = set(found)
        self.expected = set(expected)
        super().__init__(f"found families {sorted(found)} but expected "
                         f"{sorted(expected)}{'; ' + detail if detail else ''}")


def _pivot_sorted(values: Sequence[Fraction]) -> list[Fraction]:
    """Largest absolute value first; ties prefer the positive value."""
    return sorted(values, key=lambda v: (-abs(v), v < 0))


def _inv_q(q2: Fraction) -> ExactScalar:
    return ExactScalar.sqrt(Fraction(1) / q2)


def _rational_point(p: Sequence[ParamValue]) -> bool:
    return all(isinstance(x, Fraction) or x.is_rational() for x in p)


def _as_fraction(p: ParamValue) -> Fraction:
    return p if isinstance(p, Fraction) else p.to_fraction()


def _sgn(p: ParamValue) -> int:
    if isinstance(p, Fraction):
        return (p.numerator > 0) - (p.numerator < 0)
    return p.sign()


def _params_equal(a: Sequence[ParamValue], b: Sequence[ParamValue]) -> bool:
    # Within one class values compare directly (ExactScalar is canonical).
    return len(a) == len(b) and all(
        x == y if x.__class__ is y.__class__ else as_exact(x) == as_exact(y)
        for x, y in zip(a, b))


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
    equal to 1, and the terms to sum otherwise."""

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
                slots.append(terms)
        self._slots = tuple(slots)

    @property
    def dim(self) -> int:
        return len(self.basis_flat)

    def to_flat(self, coeffs: Sequence[Fraction]) -> Vector:
        """The row-major matrix with these (Fraction) coordinates."""
        flat = []
        for slot in self._slots:
            if slot is None:
                flat.append(_ZERO)
            elif slot.__class__ is int:
                flat.append(coeffs[slot])
            else:
                acc = _ZERO
                for i, val in slot:
                    acc += coeffs[i] * val
                flat.append(acc)
        return tuple(flat)

    def to_matrix(self, coeffs: Sequence[Fraction]) -> Matrix:
        return Matrix.unflatten(self.to_flat(coeffs), self.n, self.n)

    def coeffs_of(self, m: Matrix) -> tuple[Fraction, ...]:
        flat = m.flatten()
        coeffs = tuple(flat[p] for p in self.pivots)
        if self.to_flat(coeffs) != flat:
            raise ValueError("matrix does not lie in the sweep space")
        return coeffs


def _sweep_space_ext1(space: DerivationSpace) -> SweepSpace:
    pivots = tuple(next(i for i, x in enumerate(row) if x != 0)
                   for row in space.complement.basis)
    return SweepSpace(space.algebra.dim, space.complement.basis, pivots)


def _sweep_space_ext2(space: DerivationSpace) -> SweepSpace:
    """Transversal of the inner derivations inside the derivations mapping
    everything into the base (zero action row for the adjoined generator)."""
    k = space.algebra
    n = k.dim
    y = n - 1
    row_slots = [y * n + j for j in range(n)]
    if not space.full.basis:
        return SweepSpace(n, (), ())
    constraint = Matrix(len(row_slots), len(space.full.basis), tuple(
        tuple(b[slot] for b in space.full.basis) for slot in row_slots))
    restricted = []
    for coeffs in nullspace(constraint).basis:
        v = [Fraction(0)] * (n * n)
        for c, b in zip(coeffs, space.full.basis):
            if c != 0:
                for idx, val in enumerate(b):
                    if val != 0:
                        v[idx] += c * val
        restricted.append(_reduce_against_pivots(tuple(v), space._inner_pivot_data))
    sub = Subspace.from_vectors(n * n, restricted)
    pivots = tuple(next(i for i, x in enumerate(row) if x != 0) for row in sub.basis)
    return SweepSpace(n, sub.basis, pivots)


# ---------------------------------------------------------------------------
# stratum classifiers (one per catalog base and mode)
# ---------------------------------------------------------------------------

MatchResult = Optional[tuple[str, tuple[ParamValue, ...]]]


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
    row leaves the row space of M - c.
    """
    k = flat[3]
    a, e = flat[5], flat[6]
    f, b = flat[9], flat[10]
    g, h, c = flat[13], flat[14], flat[15]
    det_m = a * b - e * f
    if c == 0 or det_m == 0:
        return None
    disc = (a - b) ** 2 + 4 * e * f
    k_active = (k != 0 and c == a + b)

    if disc < 0:
        p = (a + b) / 2
        q2 = -disc / 4
        lam = ExactScalar.of(abs(p)).times(_inv_q(q2))
        if k_active:
            return "H", (lam,)
        sgn = 1 if (p > 0 or (p == 0 and c > 0)) else -1
        cpar = ExactScalar.of(sgn * c).times(_inv_q(q2))
        return "G", (lam, cpar)

    if disc == 0 and not (e == 0 and f == 0):
        lam = (a + b) / 2
        if c == lam:
            d_shift = Matrix.from_rows([
                [a - lam, e, 0], [f, b - lam, 0], [g, h, 0]])
            if d_shift.rank() > 1:  # M - lam has rank 1 for a Jordan pair
                return "F", ()
            return "D", (Fraction(1),)
        if k != 0 and c == 2 * lam:
            return "E", ()
        return "D", (c / lam,)

    if disc == 0:
        lam1 = lam2 = (a + b) / 2
    else:
        r = _sqrt_fraction(disc)
        if r is None:
            raise UnsupportedSpectrumError("real irrational eigenvalue pair")
        lam1, lam2 = _pivot_sorted([(a + b + r) / 2, (a + b - r) / 2])
    if c in (lam1, lam2):
        m_shift = Matrix.from_rows([[a - c, e], [f, b - c]])
        d_shift = Matrix.from_rows([[a - c, e, 0], [f, b - c, 0], [g, h, 0]])
        if d_shift.rank() > m_shift.rank():
            if lam1 == lam2 == c:
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
    the ratio a/b is a full invariant.
    """
    a, c, b = flat[10], flat[11], flat[15]
    if a == 0 or b == 0:
        return None
    if a == b and c != 0:
        return "J", ()
    return "I", (a / b,)


def _classify_h3_ext2(flat: Sequence[Fraction]) -> MatchResult:
    """Strata of [[a+b,0,0,h],[0,a,c,0],[0,e,b,0],[0,0,0,0]] after the
    membership (invertible pair block), outerness and indecomposability
    (a+b = 0, h != 0) filters."""
    a, c = flat[5], flat[6]
    e, b = flat[9], flat[10]
    det_m = a * b - c * e
    if det_m > 0:
        return "G", ()
    if _sqrt_fraction(-det_m) is None:
        raise UnsupportedSpectrumError("real irrational opposite pair")
    return "F", ()


def _cc_canonical(pairs: Sequence[tuple[Fraction, Fraction]]
                  ) -> tuple[ParamValue, ParamValue, ExactScalar]:
    """Canonical parameters for two complex pair blocks.

    The pair with the larger imaginary part is scaled to unit imaginary
    part (so the other pair keeps q in (0, 1]); the free scalar sign and
    any remaining tie are resolved by lexicographic minimum.
    """
    c2 = Fraction(1) / max(q2 for _, q2 in pairs)
    # Per pair: scaled q^2, then ExactScalar._cmp_key data of its real part.
    rel = [(q2 * c2, _sgn(p), p * p * c2, p) for (p, q2) in pairs]
    best = None
    for sgn in (1, -1):
        # normalized (largest) pair first, then smaller imaginary parts
        scaled = sorted(((q, (sgn * s, sq if sgn * s >= 0 else -sq), sgn * p)
                         for q, s, sq, p in rel), key=lambda t: (-t[0], t[1]))
        if best is None or [t[:2] for t in scaled] < [t[:2] for t in best]:
            best = scaled
    (q2_a, _, p_a), (q2_b, _, p_b) = best
    if q2_a != 1:
        raise AssertionError("internal: designated pair not normalized")
    inv = ExactScalar.sqrt(c2)
    return (ExactScalar.of(p_a).times(inv), ExactScalar.of(p_b).times(inv),
            ExactScalar.sqrt(q2_b))


def _expand_blocks(st: EigenStructure) -> list[tuple]:
    """Blocks ("r", size, value) and ("c", size, p, q^2) of a spectrum."""
    return [("r", s, ev.value) if ev.kind == "rational" else
            ("c", s, ev.real_part, ev.imag_sq)
            for ev, sizes in st.entries for s in sizes]


def _classify_gl2_flat(flat: Sequence[Fraction]) -> MatchResult:
    """The r2/ext1 table matcher's answer, from trace and discriminant."""
    a, b = flat[0], flat[1]
    c, d = flat[2], flat[3]
    if a * d - b * c == 0:
        return None
    disc = (a - d) ** 2 + 4 * b * c
    if disc > 0:
        r = _sqrt_fraction(disc)
        if r is None:
            raise UnsupportedSpectrumError("real irrational eigenvalue pair")
        lam1, lam2 = _pivot_sorted([(a + d + r) / 2, (a + d - r) / 2])
        return "diag", (lam2 / lam1,)
    if disc == 0:
        if b == 0 and c == 0:
            return "diag", (Fraction(1),)
        return "j2", ()
    p = (a + d) / 2
    q2 = -disc / 4
    return "cplx", (ExactScalar.of(abs(p)).times(_inv_q(q2)),)


def _ext2_filters(key: str, flat: Sequence[Fraction], size: int) -> dict[str, bool]:
    """Membership, outerness and indecomposability as fast exact tests."""
    n = size - 1
    if key in ("r2", "r3"):
        rows = [flat[i * size:(i + 1) * size] for i in range(n)]
        outer = any(x != 0 for row in rows for x in row[:n])
        if not all(any(x != 0 for x in row) for row in rows):
            # A zero row of [A, v] caps the rank below n and makes A singular.
            return {"member": False, "outer": outer, "indecomposable": True}
        m = Matrix.unflatten(tuple(flat), size, size)
        member = m.rank() == n
        indecomposable = m.submatrix(range(n), range(n)).det() == 0
        return {"member": member, "outer": outer, "indecomposable": indecomposable}
    if key == "h3":
        a, c = flat[5], flat[6]
        e, b = flat[9], flat[10]
        h = flat[3]
        member = a * b - c * e != 0
        outer = not (a == 0 and b == 0 and c == 0 and e == 0)
        indecomposable = (a + b == 0 and h != 0)
        return {"member": member, "outer": outer, "indecomposable": indecomposable}
    raise ValueError(f"no ad-pair filters for base {key}")


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


def _pivot(reals) -> Fraction:
    """The scale of a real spectrum: the pivot of its nonzero Jordan-chain
    eigenvalues, else of all its nonzero ones, else 1."""
    pool = [v for v, s in reals if s > 1 and v] or [v for v, _ in reals if v]
    return _pivot_sorted(pool)[0] if pool else Fraction(1)


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
        inv = _inv_q(q2)
        lead = p or (_pivot_sorted([v for v, _ in reals]) or [1])[0]
        factor = 1 if lead > 0 else -1
        head = [("c", size, ExactScalar.of(abs(p)).times(inv), Fraction(1))]
    else:
        factor = Fraction(1) / _pivot(reals)
        head = []
    scaled = sorted(((v * factor, s) for v, s in reals),
                    key=lambda vs: (-abs(vs[0]), vs[0] < 0))
    # A zero stays a Fraction, equal to a recipe's constant 0.
    return head + [("r", s, ExactScalar.of(v).times(inv) if pairs and v else v)
                   for v, s in scaled]


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
            if isinstance(w, str) and (kind == "r" and _sgn(x) == 0 or
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
    """The table matcher on a sweep point of an abelian base: an ext1 point
    must be invertible, an ext2ad point comes through the filters."""
    size = math.isqrt(len(flat))
    m = Matrix.unflatten(flat, size, size)
    if mode == "ext1" and m.det() == 0:
        return None
    st = eigen_structure(m)
    outcome = _match_spectrum(key, mode, _expand_blocks(st))
    if outcome is None:
        raise AssertionError(f"no {key}/{mode} family fits {st}")
    return outcome


def _abelian_templates(key: str, mode: str) -> tuple[FamilyTemplate, ...]:
    """Templates whose ``build`` is the recipe's block diagonal; a rational
    point is in the domain if the matcher maps those blocks back to it."""

    def template(name, domain, params, recipe):
        def blocks(point) -> list[tuple]:
            values = dict(zip(params, point))
            return [(kind, size, *(values[w] if isinstance(w, str) else w
                                   for w in spec))
                    for kind, size, *spec in recipe]

        def build(point) -> Matrix:
            mats = []
            for kind, size, *vals in blocks(point):
                # size copies of the unit block, chained by identity blocks
                unit = [vals] if kind == "r" else [vals, [-vals[1], vals[0]]]
                d = len(unit)
                mats.append(Matrix.from_rows([
                    [unit[i % d][j % d] if i // d == j // d else
                     int(j == i + d) for j in range(d * size)]
                    for i in range(d * size)]))
            return _block_diag(mats)

        def in_domain(point) -> bool:
            if not _rational_point(point):
                return False
            point = tuple(map(_as_fraction, point))
            at = blocks(point)
            if any(b[0] == "c" and b[3] <= 0 for b in at):
                return False  # the normal form's q is always positive
            # A real spectrum is divided by its pivot, so a fixed point of
            # the matcher has pivot 1.
            if all(b[0] == "r" for b in at) and _pivot(
                    [(b[2], b[1]) for b in at]) != 1:
                return False
            outcome = _match_spectrum(key, mode, [
                b if b[0] == "r" else b[:3] + (b[3] * b[3],) for b in at])
            return (outcome is not None and outcome[0] == name
                    and _params_equal(outcome[1], point))

        return _template(name, params, domain, build, in_domain)

    return tuple(template(*row) for row in _abelian_table(key, mode)[0])


# ---------------------------------------------------------------------------
# template tables
# ---------------------------------------------------------------------------

def _shape_h3(a, b, c, e) -> Matrix:
    z = Fraction(0)
    return Matrix.from_rows([[a + b, z, z], [z, a, c], [z, e, b]])


def _shape_rp(a, b, c, e, f, g, h, k) -> Matrix:
    z = Fraction(0)
    return Matrix.from_rows([
        [a + b, z, z, k], [z, a, e, z], [z, f, b, z], [z, g, h, c]])


def _shape_g4(a, b, c, e) -> Matrix:
    z = Fraction(0)
    return Matrix.from_rows([
        [a + 2 * b, z, e, z], [z, a + b, z, z], [z, z, a, c], [z, z, z, b]])


def _shape_h3_ext2(a, b, c, e, h) -> Matrix:
    z = Fraction(0)
    return Matrix.from_rows([
        [a + b, z, z, h], [z, a, c, z], [z, e, b, z], [z, z, z, z]])


# Template parameter values; candidates are their k-fold product, in order.
_SAMPLE_VALUES = tuple(Fraction(s * v) for v in range(1, 19) for s in (1, -1))


def _template(name, param_names, domain_desc, build, in_domain) -> FamilyTemplate:
    candidates = itertools.product(_SAMPLE_VALUES, repeat=len(param_names))
    accepted: list[tuple[Fraction, ...]] = []

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


def _h3_ext1_templates() -> tuple[FamilyTemplate, ...]:
    one = Fraction(1)
    return (
        _template(
            "A", ("lam",), "0 < |lam| <= 1",
            lambda p: _shape_h3(one, p[0], 0, 0),
            lambda p: _rational_point(p) and 0 < abs(_as_fraction(p[0])) <= 1),
        _template(
            "B", (), "no parameters",
            lambda p: _shape_h3(one, one, one, 0),
            lambda p: True),
        _template(
            "C", ("lam",), "lam >= 0",
            lambda p: _shape_h3(p[0], p[0], one, -one),
            lambda p: _sgn(p[0]) >= 0),
    )


def _rp_ext1_templates() -> tuple[FamilyTemplate, ...]:
    one = Fraction(1)
    z = Fraction(0)

    def a_domain(p) -> bool:
        if not _rational_point(p):
            return False
        al, be = _as_fraction(p[0]), _as_fraction(p[1])
        if not (0 < abs(al) <= 1 and be != 0):
            return False
        return not (al == -1 and be < 0)

    def g_domain(p) -> bool:
        if _sgn(p[0]) < 0 or _sgn(p[1]) == 0:
            return False
        return not (_sgn(p[0]) == 0 and _sgn(p[1]) < 0)

    return (
        _template(
            "A", ("alpha", "beta"),
            "0 < |alpha| <= 1, beta != 0",
            lambda p: _shape_rp(one, p[0], p[1], z, z, z, z, z),
            a_domain),
        _template(
            "B", ("alpha",),
            "alpha in (-1, 1], alpha != 0",
            lambda p: _shape_rp(one, p[0], one + p[0], z, z, z, z, one),
            lambda p: _rational_point(p) and
            -1 < _as_fraction(p[0]) <= 1 and _as_fraction(p[0]) != 0),
        _template(
            "C", ("alpha",), "alpha != 0",
            lambda p: _shape_rp(p[0], one, one, z, z, z, one, z),
            lambda p: _sgn(p[0]) != 0),
        _template(
            "D", ("beta",), "beta != 0",
            lambda p: _shape_rp(one, one, p[0], z, one, z, z, z),
            lambda p: _sgn(p[0]) != 0),
        _template(
            "E", (), "no parameters",
            lambda p: _shape_rp(one, one, 2 * one, z, one, z, z, one),
            lambda p: True),
        _template(
            "F", (), "no parameters",
            lambda p: _shape_rp(one, one, one, z, one, z, one, z),
            lambda p: True),
        _template(
            "G", ("lam", "c"), "lam >= 0, c > 0",
            lambda p: _shape_rp(p[0], p[0], p[1], one, -one, z, z, z),
            g_domain),
        _template(
            "H", ("lam",), "lam > 0",
            lambda p: _shape_rp(p[0], p[0], 2 * p[0], one, -one, z, z, one),
            lambda p: _sgn(p[0]) > 0),
    )


def _g4_ext1_templates() -> tuple[FamilyTemplate, ...]:
    one = Fraction(1)
    z = Fraction(0)
    return (
        _template(
            "I", ("lam",), "lam != 0",
            lambda p: _shape_g4(p[0], one, z, z),
            lambda p: _sgn(p[0]) != 0),
        _template(
            "J", (), "no parameters",
            lambda p: _shape_g4(one, one, one, z),
            lambda p: True),
    )


def _h3_ext2_templates() -> tuple[FamilyTemplate, ...]:
    one = Fraction(1)
    return (
        _template("F", (), "no parameters",
                  lambda p: _shape_h3_ext2(one, -one, 0, 0, one),
                  lambda p: True),
        _template("G", (), "no parameters",
                  lambda p: _shape_h3_ext2(0, 0, one, -one, one),
                  lambda p: True),
    )


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

@dataclass
class CatalogEntry:
    """One base algebra with everything its classifications need.

    A classifier receives a sweep point as its flat row-major matrix (a
    ``Vector`` of length n*n in the coordinate shape of the sweep space) and
    returns the matched family name with canonical parameters, or ``None``
    for a non-member.  The ext2ad classifier assumes the point has passed
    the base's ``_ext2_filters``."""

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

    def add(key, algebra, ext1_templates, ext1_classifier,
            ext2_templates=(), ext2_classifier=None):
        if not is_nilpotent(algebra):
            raise AssertionError(f"catalog base {key} must be nilpotent")
        entries[key] = CatalogEntry(
            key, algebra, tuple(ext1_templates), tuple(ext2_templates),
            ext1_classifier, ext2_classifier)

    add("r1", abelian(1, "r1"), _abelian_templates("r1", "ext1"),
        partial(_classify_abelian, "r1", "ext1"))
    add("r2", abelian(2, "r2"), _abelian_templates("r2", "ext1"),
        _classify_gl2_flat, _abelian_templates("r2", "ext2ad"),
        partial(_classify_abelian, "r2", "ext2ad"))
    add("r3", abelian(3, "r3"), _abelian_templates("r3", "ext1"),
        partial(_classify_abelian, "r3", "ext1"),
        _abelian_templates("r3", "ext2ad"),
        partial(_classify_abelian, "r3", "ext2ad"))
    add("r4", abelian(4, "r4"), _abelian_templates("r4", "ext1"),
        partial(_classify_abelian, "r4", "ext1"))
    add("h3", heisenberg3(), _h3_ext1_templates(), _classify_h3_ext1,
        _h3_ext2_templates(), _classify_h3_ext2)
    add("r_plus_h3", r_plus_heisenberg(), _rp_ext1_templates(),
        _classify_rp_ext1)
    add("g4", filiform4(), _g4_ext1_templates(), _classify_g4_ext1)
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
# random automorphisms (for conjugation sampling and stability tests)
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


def random_automorphism(key: str, rng: random.Random,
                        preserve_base: bool = False) -> Matrix:
    """A random automorphism of the catalog algebra.

    ``preserve_base`` applies to ``r_plus_h3`` (that is, h3 ⊕ R): the
    subalgebra spanned by all but the last coordinate stays invariant, so
    conjugation preserves the coordinate shape of the h3 two-step sweep.
    """
    entry = catalog()[key]
    alg = entry.algebra
    n = alg.dim
    if key in ("r1", "r2", "r3", "r4"):
        sigma = _random_invertible(rng, n)
    elif key == "h3":
        while True:
            a, b, c, d = (_random_fraction(rng) for _ in range(4))
            if a * d - b * c != 0:
                break
        det = a * d - b * c
        p, q = _random_fraction(rng), _random_fraction(rng)
        sigma = Matrix.from_rows([
            [det, p, q],
            [0, a, b],
            [0, c, d]])
    elif key == "r_plus_h3":
        while True:
            a, b, c, d = (_random_fraction(rng) for _ in range(4))
            if a * d - b * c != 0:
                break
        det = a * d - b * c
        p, q = _random_fraction(rng), _random_fraction(rng)
        s1, s2 = (Fraction(0), Fraction(0)) if preserve_base else (
            _random_fraction(rng), _random_fraction(rng))
        e = _random_fraction(rng)
        f = _random_fraction(rng, allow_zero=False)
        sigma = Matrix.from_rows([
            [det, p, q, e],
            [0, a, b, 0],
            [0, c, d, 0],
            [0, s1, s2, f]])
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
    the mode's algebra, add an inner derivation, rescale, and project back
    to the transversal.  For ext2ad the automorphism keeps the base
    invariant (h3 ⊕ R is the catalog's r_plus_h3)."""
    space, _ = _mode_spaces(key, mode)
    alg = space.algebra
    if mode == "ext1":
        sigma = random_automorphism(key, rng)
    elif key == "h3":
        sigma = random_automorphism("r_plus_h3", rng, preserve_base=True)
    else:
        sigma = _random_block_triangular(rng, alg.dim)
    conj = sigma @ m @ sigma.inverse()
    u = tuple(_random_fraction(rng) for _ in range(alg.dim))
    shifted = conj + adjoint_matrix(alg, u)
    c = _random_fraction(rng, allow_zero=False)
    return project_to_h1(space, shifted.scale(c)).representative


# ---------------------------------------------------------------------------
# grids and sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Deterministic sweep description.

    When the full Cartesian grid over the value set fits the budget it is
    enumerated exhaustively; otherwise the sweep takes a structured union of
    template instantiations, random in-shape conjugates of them, all points
    supported on at most two coordinates, and seeded random dense points.
    """

    num_max: int = 3
    den_max: int = 3
    cartesian_budget: int = 100_000
    n_random: int = 200
    n_template_samples: int = 24
    n_conjugates: int = 3
    seed: int = 20250801

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
            kwargs[field_name] = int(value)
        return dataclasses.replace(spec, **kwargs)


def sweep_points(key: str, mode: str, grid: GridSpec) -> list[tuple[Fraction, ...]]:
    """The deterministic list of coefficient tuples for one sweep."""
    entry = catalog()[key]
    sweep = _sweep_space(key, mode)
    dim = sweep.dim
    vals = grid.values()
    if len(vals) ** dim <= grid.cartesian_budget:
        return [tuple(p) for p in itertools.product(vals, repeat=dim)]

    points: list[tuple[Fraction, ...]] = []
    seen: set[tuple[Fraction, ...]] = set()

    def push(coeffs: tuple[Fraction, ...]) -> None:
        if coeffs not in seen:
            seen.add(coeffs)
            points.append(coeffs)

    templates = _templates(entry, mode)
    rng = random.Random(grid.seed)
    for t in templates:
        for params in t.sample(grid.n_template_samples):
            push(sweep.coeffs_of(t.build(params)))
    for t in templates:
        for params in t.sample(max(1, grid.n_conjugates)):
            m = t.build(params)
            for _ in range(grid.n_conjugates):
                rep = conjugate_in_shape(key, mode, m, rng)
                try:
                    push(sweep.coeffs_of(rep))
                except ValueError:
                    continue
    zero = Fraction(0)
    nonzero_vals = [v for v in vals if v != 0]
    for i in range(dim):
        for v in nonzero_vals:
            coeffs = [zero] * dim
            coeffs[i] = v
            push(tuple(coeffs))
    for i in range(dim):
        for j in range(i + 1, dim):
            for v1 in nonzero_vals:
                for v2 in nonzero_vals:
                    coeffs = [zero] * dim
                    coeffs[i], coeffs[j] = v1, v2
                    push(tuple(coeffs))
    for _ in range(grid.n_random):
        push(tuple(rng.choice(vals) for _ in range(dim)))
    return points


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

    def as_dict(self) -> dict:
        return {
            "derived_dims": list(self.derived_dims),
            "lower_central_dims": list(self.lower_central_dims),
            "center_dim": self.center_dim,
            "der_dim": self.der_dim,
            "h1_dim": self.h1_dim,
            "spectral": self.spectral,
            "pencil_shape": [list(x) for x in self.pencil_shape],
        }


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


def _abelianized_action(L: LieAlgebra, v: Vector) -> Matrix:
    """Action induced by ad_v on derived/(derived of derived)."""
    der = derived_subalgebra(L)
    sub = subalgebra(L, der.space)
    op = restrict_operator(adjoint_matrix(L, v), der.space)
    der2 = derived_subalgebra(sub)
    if der2.dim == 0:
        return op
    return induced_operator_on_quotient(sub, op, Ideal(sub, der2.space))


def fingerprint(L: LieAlgebra) -> Fingerprint:
    """Compute the invariant fingerprint; requires a solvable algebra."""
    if not is_solvable(L):
        raise ValueError("fingerprint requires a solvable algebra")
    ds = tuple(i.dim for i in derived_series(L))
    lcs = tuple(i.dim for i in lower_central_series(L))
    zdim = center(L).dim
    space = derivation_space(L)
    der = derived_subalgebra(L)
    codim = L.dim - der.dim
    spectral = ""
    pencil: tuple = ()
    comp = complement_coordinates(der.space)
    if codim == 1 and der.dim > 0:
        y = L.basis_vector(comp[0])
        try:
            spectral = proportional_normalize(_abelianized_action(L, y)).describe()
        except UnsupportedSpectrumError:
            spectral = "outside supported spectrum"
    elif codim == 2 and der.dim > 0:
        z = L.basis_vector(comp[0])
        y = L.basis_vector(comp[1])
        a = _abelianized_action(L, z)
        b = _abelianized_action(L, y)
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
                from .exactla import _factor_over_rationals

                lead = det_poly[-1]
                monic = tuple(c / lead for c in det_poly)
                for fac, mult in _factor_over_rationals(monic):
                    shape.append((len(fac) - 1, mult))
        pencil = tuple(sorted(shape, key=str))
    return Fingerprint(ds, lcs, zdim, space.dim_full, space.dim_h1,
                       spectral, pencil)


# ---------------------------------------------------------------------------
# reports and drivers
# ---------------------------------------------------------------------------

# Template parameter points instantiated and re-verified per family.
_VERIFY_SAMPLES = 20


@dataclass
class FamilyReport:
    name: str
    domain: str
    param_names: tuple[str, ...]
    matched_points: int
    sample_params: list[str]
    verified_points: int
    jacobi_ok: bool
    membership_ok: bool
    indecomposable_ok: Optional[bool]

    def as_dict(self) -> dict:
        d = {
            "name": self.name,
            "domain": self.domain,
            "param_names": list(self.param_names),
            "matched_points": self.matched_points,
            "sample_params": self.sample_params,
            "verified_points": self.verified_points,
            "jacobi_ok": self.jacobi_ok,
            "membership_ok": self.membership_ok,
        }
        if self.indecomposable_ok is not None:
            d["indecomposable_ok"] = self.indecomposable_ok
        return d


@dataclass
class ClassificationReport:
    base: str
    mode: str
    grid: str
    total_points: int
    member_points: int
    skipped_out_of_field: int
    filtered_points: int
    families: list[FamilyReport]
    fingerprints: dict[str, dict]
    distinctness: list[dict]
    crosscheck_points: int
    golden_expected: list[str]
    golden_found: list[str]

    def as_dict(self) -> dict:
        return {
            "base": self.base,
            "mode": self.mode,
            "grid": self.grid,
            "totals": {
                "points": self.total_points,
                "members": self.member_points,
                "skipped_out_of_field": self.skipped_out_of_field,
                "filtered": self.filtered_points,
            },
            "families": [f.as_dict() for f in self.families],
            "fingerprints": self.fingerprints,
            "distinctness": self.distinctness,
            "crosscheck_points": self.crosscheck_points,
            "golden": {
                "expected": sorted(self.golden_expected),
                "found": sorted(self.golden_found),
                "ok": sorted(self.golden_expected) == sorted(self.golden_found),
            },
        }


def _classify_chunk(key: str, mode: str,
                    points: Sequence[tuple[Fraction, ...]]) -> list[tuple]:
    """Worker: classify a slice of the sweep points, returning per-point
    results."""
    entry = catalog()[key]
    sweep = _sweep_space(key, mode)
    classifier = _classifier(entry, mode)
    results = []
    for coeffs in points:
        flat = sweep.to_flat(coeffs)
        if mode == "ext2ad":
            filters = _ext2_filters(key, flat, sweep.n)
            if not filters["member"]:
                results.append(("nonmember",))
                continue
            if not (filters["outer"] and filters["indecomposable"]):
                results.append(("filtered",))
                continue
        try:
            outcome = classifier(flat)
        except UnsupportedSpectrumError:
            results.append(("skip",))
            continue
        if outcome is None:
            results.append(("nonmember",))
        else:
            name, params = outcome
            results.append(("match", name,
                            tuple(param_str(p) for p in params)))
    return results


def _run_sweep(key: str, mode: str, points: list[tuple[Fraction, ...]],
               jobs: int) -> list[tuple]:
    """Classify every sweep point, in at most one worker per CPU."""
    total = len(points)
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1 or total < 2000:
        return _classify_chunk(key, mode, points)
    import multiprocessing as mp

    chunk = (total + jobs - 1) // jobs
    args = [(key, mode, points[i:i + chunk]) for i in range(0, total, chunk)]
    with mp.Pool(jobs) as pool:
        parts = pool.starmap(_classify_chunk, args)
    return [r for part in parts for r in part]


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
    exact parameter round trip through the matcher."""
    samples = t.sample(_VERIFY_SAMPLES)
    jac_ok = mem_ok = True
    indec_ok: Optional[bool] = None if mode == "ext1" else True
    verified = 0
    classifier = _classifier(entry, mode)
    space, _ = _mode_spaces(entry.key, mode)
    n = entry.algebra.dim
    for params in samples:
        m = t.build(params)
        flat = m.flatten()
        extend_by_derivation(space.algebra, m)  # raises on any Jacobi failure
        mem_ok = mem_ok and _is_member(entry, mode, m)
        if mode == "ext2ad":
            spec = ExtensionSpec(entry.algebra, Matrix.zero(n, n),
                                 m.submatrix(range(n), range(n)),
                                 m.column(n)[:n])
            cert = is_decomposable_double(entry.algebra, spec)
            indec_ok = indec_ok and not cert.decomposable
            filters = _ext2_filters(entry.key, flat, m.rows)
            failed = [name for name, ok in filters.items() if not ok]
            if failed:
                raise AmbiguousMatch(
                    f"template {t.name} instantiation fails the filters "
                    f"{failed}")
        outcome = classifier(flat)
        if outcome is None or outcome[0] != t.name:
            raise AmbiguousMatch(
                f"template {t.name} instantiation matched {outcome}")
        if not _params_equal(outcome[1], params):
            raise AmbiguousMatch(
                f"template {t.name} parameter round trip failed: "
                f"{[param_str(p) for p in params]} -> "
                f"{[param_str(p) for p in outcome[1]]}")
        if not t.in_domain(outcome[1]):
            raise AmbiguousMatch(
                f"template {t.name} produced out-of-domain parameters")
        verified += 1
    return FamilyReport(t.name, t.domain_desc, t.param_names, 0,
                        [], verified, jac_ok, mem_ok, indec_ok)


def distinctness_evidence(entry: CatalogEntry, mode: str,
                          templates: Sequence[FamilyTemplate]
                          ) -> tuple[list[dict], dict[str, dict]]:
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
    return evidence, {n: prints[n].as_dict() for n in names}


def _crosscheck_conditions(entry: CatalogEntry, mode: str, grid: GridSpec,
                           points: list[tuple[Fraction, ...]],
                           results: list[tuple], count: int = 60) -> int:
    """Re-run the slow membership condition on a deterministic subsample of
    swept points and insist it agrees with the recorded outcome (every
    outcome but ``"nonmember"`` passed the fast membership test)."""
    sweep = _sweep_space(entry.key, mode)
    rng = random.Random(grid.seed + 1)
    idx = list(range(len(points)))
    rng.shuffle(idx)
    checked = 0
    for i in idx:
        if checked >= count:
            break
        kind = results[i][0]
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

    Raises :class:`GoldenMismatch` when the discovered family set differs
    from the catalog's golden list.
    """
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
    results = _run_sweep(key, mode, points, jobs)

    counts: dict[str, int] = {}
    samples: dict[str, list[str]] = {}
    skipped = members = filtered = 0
    for r in results:
        if r[0] == "skip":
            skipped += 1
        elif r[0] == "filtered":
            filtered += 1
        elif r[0] == "match":
            members += 1
            name = r[1]
            counts[name] = counts.get(name, 0) + 1
            bucket = samples.setdefault(name, [])
            text = "(" + ", ".join(r[2]) + ")"
            if len(bucket) < 5 and text not in bucket:
                bucket.append(text)

    found = set(counts)
    expected = {t.name for t in templates}
    if found != expected:
        raise GoldenMismatch(found, expected)

    family_reports = []
    for t in templates:
        rep = _verify_template(entry, mode, t)
        rep.matched_points = counts[t.name]
        rep.sample_params = samples.get(t.name, [])
        family_reports.append(rep)

    crosschecked = _crosscheck_conditions(entry, mode, grid, points, results)
    evidence, prints = distinctness_evidence(entry, mode, templates)

    return ClassificationReport(
        base=key, mode=mode, grid=grid.describe(),
        total_points=len(results), member_points=members,
        skipped_out_of_field=skipped, filtered_points=filtered,
        families=family_reports, fingerprints=prints,
        distinctness=evidence, crosscheck_points=crosschecked,
        golden_expected=sorted(expected), golden_found=sorted(found))

