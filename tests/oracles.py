"""Independent brute-force oracles used to freeze expected test values.

Deliberately written with different algorithms from the package: cofactor
determinants, elimination with a different pivoting order, and direct
expansion of multilinear identities.  Nothing here imports package
internals beyond plain data.
"""

import itertools
import math
from fractions import Fraction


def det_cofactor(rows):
    """Determinant by first-row cofactor expansion."""
    n = len(rows)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        sign = -1 if j % 2 else 1
        total += sign * Fraction(rows[0][j]) * det_cofactor(minor)
    return total


def char_poly_minors(rows):
    """det(tI - m), ascending coefficients: the coefficient of t^(n-k) is
    (-1)^k times the sum of the k x k principal minors, each expanded by
    cofactors."""
    n = len(rows)
    coeffs = [Fraction(1)] + [
        (-1) ** k * sum((det_cofactor([[rows[i][j] for j in idx] for i in idx])
                         for idx in itertools.combinations(range(n), k)),
                        Fraction(0))
        for k in range(1, n + 1)]
    return tuple(reversed(coeffs))


def poly_eval_matrix(p, rows):
    """p(m) by Horner's rule on dense products; p ascending."""
    n = len(rows)
    acc = [[Fraction(0)] * n for _ in range(n)]
    for c in reversed(p):
        acc = dense_matmul(acc, rows)
        for i in range(n):
            acc[i][i] += Fraction(c)
    return acc


def rank_elimination(rows):
    """Rank by plain forward elimination, scanning columns right-to-left."""
    a = [[Fraction(x) for x in row] for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    rank = 0
    used = set()
    for col in reversed(range(ncols)):
        pivot = None
        for r in range(nrows):
            if r not in used and a[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        used.add(pivot)
        rank += 1
        for r in range(nrows):
            if r != pivot and a[r][col] != 0:
                f = a[r][col] / a[pivot][col]
                for c in range(ncols):
                    a[r][c] -= f * a[pivot][c]
    return rank


def leibniz_equations_h3():
    """The Leibniz linear system of the Heisenberg algebra, assembled by
    direct expansion with matrix unknowns m[i][j] (0-based, row-major).

    Brackets: [x2, x3] = x1 (1-based).  For each pair (i, j) the identity
    d([xi, xj]) = [d(xi), xj] + [xi, d(xj)] gives three coordinate rows.
    """
    def basis_bracket(i, j):
        # 0-based; returns coordinates of [x_i, x_j]
        if (i, j) == (1, 2):
            return [1, 0, 0]
        if (i, j) == (2, 1):
            return [-1, 0, 0]
        return [0, 0, 0]

    rows = []
    for i in range(3):
        for j in range(i + 1, 3):
            cij = basis_bracket(i, j)
            for r in range(3):
                coeff = [Fraction(0)] * 9
                for k in range(3):
                    coeff[r * 3 + k] += Fraction(cij[k])
                for s in range(3):
                    w = basis_bracket(s, j)
                    coeff[s * 3 + i] -= Fraction(w[r])
                    w2 = basis_bracket(i, s)
                    coeff[s * 3 + j] -= Fraction(w2[r])
                rows.append(coeff)
    return rows


def jacobi_residual(brackets, dim, i, j, k):
    """[[xi,xj],xk] + [[xj,xk],xi] + [[xk,xi],xj] by direct expansion.

    ``brackets`` maps 1-based (i, j) with i < j to {target: coeff}.
    """
    def bb(a, b):
        v = [Fraction(0)] * dim
        if a == b:
            return v
        sign = 1
        if a > b:
            a, b = b, a
            sign = -1
        for t, c in brackets.get((a, b), {}).items():
            v[t - 1] = sign * Fraction(c)
        return v

    def bracket_vec(v, b):
        out = [Fraction(0)] * dim
        for a in range(1, dim + 1):
            if v[a - 1] == 0:
                continue
            w = bb(a, b)
            for t in range(dim):
                out[t] += v[a - 1] * w[t]
        return out

    total = [Fraction(0)] * dim
    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
        term = bracket_vec(bb(a, b), c)
        for t in range(dim):
            total[t] += term[t]
    return total


def jacobi_first_violation(brackets, dim):
    """The first violating triple over all dim^3 / 6 basis triples, in
    lexicographic order, by ``jacobi_residual``, with its residual; None
    when Jacobi holds."""
    for i, j, k in itertools.combinations(range(1, dim + 1), 3):
        residual = jacobi_residual(brackets, dim, i, j, k)
        if any(residual):
            return (i, j, k), residual
    return None


def bracket_basis_scan(table, dim, i, j):
    """[x_i, x_j] (0-based, any order) by a linear scan of ``table``, a
    sequence of ((a, b), coordinates) with a < b."""
    if i == j:
        return [Fraction(0)] * dim
    sign = 1
    if i > j:
        i, j, sign = j, i, -1
    for (a, b), v in table:
        if (a, b) == (i, j):
            return [sign * Fraction(x) for x in v]
    return [Fraction(0)] * dim


def dense_apply(rows, v):
    """Matrix times vector, every product formed, zeros included."""
    return [sum((Fraction(a) * Fraction(x) for a, x in zip(row, v)), Fraction(0))
            for row in rows]


def dense_matmul(a, b):
    """Matrix product by the textbook triple loop."""
    inner = len(b)
    cols = len(b[0]) if inner else 0
    out = []
    for row in a:
        out.append([Fraction(0)] * cols)
        for j in range(cols):
            for k in range(inner):
                out[-1][j] += Fraction(row[k]) * Fraction(b[k][j])
    return out


def dense_scale(c, rows):
    return [[Fraction(c) * Fraction(x) for x in row] for row in rows]


def dense_rref(rows):
    """Reduced row echelon form by Gauss-Jordan elimination on whole rows.

    Returns ``(reduced_rows, pivot_columns)``.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    ncols = len(a[0]) if a else 0
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        p = a[r][col]
        a[r] = [x / p for x in a[r]]
        for i in range(len(a)):
            if i != r:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
    return a, pivots


def dense_reduce(basis, v):
    """``v`` minus, for each echelon row in turn, its entry at the row's
    leading column times the whole row."""
    w = [Fraction(x) for x in v]
    for row in basis:
        lead = next(i for i, x in enumerate(row) if x != 0)
        f = w[lead] / Fraction(row[lead])
        w = [x - f * Fraction(y) for x, y in zip(w, row)]
    return w


def leibniz_rows_dense(dim, table):
    """The Leibniz system as dense Fraction rows over the dim^2 row-major
    entries of d: for each pair i < j (i outer) and each coordinate r, the
    coordinate r of d([xi, xj]) - [d(xi), xj] - [xi, d(xj)], every term
    expanded over every basis index.  ``table`` is as in
    ``leibniz_first_violation``."""
    def bb(a, b):
        if a == b:
            return [Fraction(0)] * dim
        if a > b:
            return [-x for x in bb(b, a)]
        return [Fraction(x) for x in table.get((a, b), [0] * dim)]

    rows = []
    for i in range(dim):
        for j in range(i + 1, dim):
            for r in range(dim):
                row = [Fraction(0)] * (dim * dim)
                for k in range(dim):
                    row[r * dim + k] += bb(i, j)[k]
                for t in range(dim):
                    row[t * dim + i] -= bb(t, j)[r]
                    row[t * dim + j] -= bb(i, t)[r]
                rows.append(row)
    return rows


def leibniz_first_violation(dim, table, d):
    """First basis pair i < j (1-based, i outer) where
    d([xi, xj]) - [d(xi), xj] - [xi, d(xj)] is nonzero, with that residual,
    or None; every term is expanded densely.

    ``table`` maps 0-based (i, j), i < j, to the coordinates of [xi, xj];
    ``d`` is the matrix as a list of rows, d(xi) its column i.
    """
    def bb(a, b):
        if a > b:
            return [-x for x in bb(b, a)]
        return [Fraction(x) for x in table.get((a, b), [0] * dim)]

    def br(u, v):
        out = [Fraction(0)] * dim
        for a in range(dim):
            for b in range(dim):
                w = bb(a, b) if a != b else [0] * dim
                for t in range(dim):
                    out[t] += Fraction(u[a]) * Fraction(v[b]) * w[t]
        return out

    def image(u):
        return [sum((Fraction(d[r][k]) * Fraction(u[k]) for k in range(dim)),
                    Fraction(0)) for r in range(dim)]

    def unit(i):
        return [Fraction(int(k == i)) for k in range(dim)]

    for i in range(dim):
        for j in range(i + 1, dim):
            lhs = image(bb(i, j))
            rhs_1 = br(image(unit(i)), unit(j))
            rhs_2 = br(unit(i), image(unit(j)))
            residual = [x - y - z for x, y, z in zip(lhs, rhs_1, rhs_2)]
            if any(x != 0 for x in residual):
                return (i + 1, j + 1), residual
    return None


def structured_sweep_integer_points(templates, coeffs_of, conjugate, vals,
                                    dim, grid, rng):
    """The points of a structured sweep, built as rational points in the
    sweep's order and then cleared of denominators.

    Template samples, then ``grid.n_conjugates`` conjugates of each of
    ``max(1, grid.n_conjugates)`` samples per template (a conjugate whose
    ``coeffs_of`` raises ValueError is dropped), then every nonzero grid
    value on each axis, then every pair of nonzero values on each pair of
    axes i < j, then ``grid.n_random`` random grid points.  ``conjugate(m,
    rng)`` and the random points draw from ``rng`` in that order.  Each
    distinct rational point p is kept once, in order of first appearance,
    as L*p with L the lcm of its denominators.
    """
    rational = []
    for t in templates:
        for params in t.sample(grid.n_template_samples):
            rational.append(tuple(coeffs_of(t.build(params))))
    for t in templates:
        for params in t.sample(max(1, grid.n_conjugates)):
            m = t.build(params)
            for _ in range(grid.n_conjugates):
                rep = conjugate(m, rng)
                try:
                    rational.append(tuple(coeffs_of(rep)))
                except ValueError:
                    continue
    nonzero = [Fraction(v) for v in vals if v != 0]
    for i in range(dim):
        for v in nonzero:
            rational.append(tuple(v if k == i else Fraction(0)
                                  for k in range(dim)))
    for i in range(dim):
        for j in range(i + 1, dim):
            for v1, v2 in itertools.product(nonzero, repeat=2):
                rational.append(tuple(v1 if k == i else v2 if k == j
                                      else Fraction(0) for k in range(dim)))
    for _ in range(grid.n_random):
        rational.append(tuple(rng.choice(vals) for _ in range(dim)))
    points = []
    for p in dict.fromkeys(tuple(Fraction(x) for x in p) for p in rational):
        scale = math.lcm(*(x.denominator for x in p))
        points.append(tuple(int(x * scale) for x in p))
    return points


def per_point_outcomes(points, line_key, outcome_of):
    """The outcome of every sweep point, by a per-point loop: each line is
    classified once, by ``outcome_of`` at its ``line_key`` oriented like the
    line's first point in ``points``, and every later point of the line
    looks its outcome up again."""
    by_line = {}
    results = []
    for coeffs in points:
        line = line_key(coeffs)
        result = by_line.get(line)
        if result is None:
            zero = tuple(0 for _ in coeffs)
            vector = line if coeffs > zero else tuple(-v for v in line)
            result = by_line[line] = outcome_of(vector)
        results.append(result)
    return results


def exact_scalar_parts(rat, rad):
    """The rational factor and squarefree radicand of rat * sqrt(rad), by
    the plain formula: both as Fractions, zero when either is zero,
    rat*sqrt(p/q) = (rat/q)*sqrt(p*q), and the largest square dividing p*q
    found by trying every root from isqrt(p*q) down."""
    r, v = Fraction(rat), Fraction(rad)
    if r == 0 or v == 0:
        return Fraction(0), 1
    if v < 0:
        raise ValueError("negative radicand")
    inner = v.numerator * v.denominator
    root = next(k for k in range(math.isqrt(inner), 0, -1)
                if inner % (k * k) == 0)
    return r / v.denominator * root, inner // (root * root)


def _dense_bracket(dim, table, u, v):
    """[u, v] expanded over every pair of basis indices; ``table`` maps
    0-based (i, j), i < j, to the coordinates of [xi, xj]."""
    out = [Fraction(0)] * dim
    for (i, j), w in table.items():
        c = Fraction(u[i]) * Fraction(v[j]) - Fraction(u[j]) * Fraction(v[i])
        for k in range(dim):
            out[k] += c * Fraction(w[k])
    return out


def _echelon(vectors, width):
    """The nonzero rows of the RREF of ``vectors`` with their pivots."""
    rows, pivots = dense_rref(list(vectors) or [[0] * width])
    return rows[:len(pivots)], pivots


def _echelon_coordinates(rows, pivots, w):
    """The coefficients of ``w`` in the echelon rows, read at the pivots
    and checked by multiplying back out."""
    coords = [Fraction(w[p]) for p in pivots]
    back = [sum((c * Fraction(row[k]) for c, row in zip(coords, rows)),
                Fraction(0)) for k in range(len(w))]
    assert back == [Fraction(x) for x in w], "vector outside the span"
    return coords


def induced_operator_dense(op_rows, subspace_rows):
    """The map ``op_rows`` induces on V/S, S the span of ``subspace_rows``
    (an operator preserving S), as rows: column j, for each coordinate j
    the echelon basis of S does not lead with, is op(e_j) reduced modulo S
    and read at those coordinates."""
    width = len(op_rows)
    rows, pivots = _echelon(subspace_rows, width)
    comp = [j for j in range(width) if j not in pivots]
    cols = [dense_reduce(rows, [op_rows[i][j] for i in range(width)])
            for j in comp]
    return [[col[i] for col in cols] for i in comp]


def abelianized_actions_subalgebra_route(dim, table, vectors):
    """The map ad_v induces on D/[D, D], D = [L, L], for each v in
    ``vectors``, with D built as an algebra of its own: D's structure
    constants in its reduced echelon basis, [D, D] as their span, and
    ad_v restricted to D in that basis, then induced modulo [D, D] by
    ``induced_operator_dense``.  ``table`` is as in ``_dense_bracket``;
    each result is a list of rows."""
    rows, pivots = _echelon(table.values(), dim)
    sub_table = {}
    for a in range(len(rows)):
        for b in range(a + 1, len(rows)):
            sub_table[(a, b)] = _echelon_coordinates(
                rows, pivots, _dense_bracket(dim, table, rows[a], rows[b]))
    actions = []
    for v in vectors:
        cols = [_echelon_coordinates(rows, pivots,
                                     _dense_bracket(dim, table, v, b))
                for b in rows]
        op = [[col[i] for col in cols] for i in range(len(rows))]
        actions.append(induced_operator_dense(op, list(sub_table.values())))
    return actions
