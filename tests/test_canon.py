"""Canonical forms up to proportional similarity: exact scalars, the
scaling conventions, and the similarity witness."""

import random
from fractions import Fraction

import pytest

from liecodim.canon import ExactScalar, proportional_normalize, proportional_similar
from liecodim.exactla import Matrix, _block_diag, eigen_structure

from oracles import exact_scalar_parts

F = Fraction


def M(rows):
    return Matrix.from_rows(rows)


class TestExactScalar:
    def test_radicand_is_canonical(self):
        assert ExactScalar.of(2, 8) == ExactScalar.of(4, 2)
        assert ExactScalar.of(1, F(1, 2)) == ExactScalar(F(1, 2), 2)
        assert ExactScalar.of(3, 9) == ExactScalar(F(9), 1)
        assert ExactScalar.of(0, 5) == ExactScalar(F(0), 1)

    def test_ordering_agrees_with_signed_squares(self):
        rng = random.Random(20250801)

        def draw():
            return ExactScalar.of(F(rng.randint(-9, 9), rng.randint(1, 4)),
                                  rng.choice((1, 2, 3, 5, 6, F(1, 2), 12)))

        def signed_square(x):
            return x.sign() * x.square()

        for _ in range(500):
            x, y = draw(), draw()
            assert (x < y) == (signed_square(x) < signed_square(y))
            assert (x <= y) == (signed_square(x) <= signed_square(y))

    def test_of_agrees_with_the_plain_formula(self):
        # Seeded int and Fraction rationals and radicands, zeros and
        # perfect squares among them, against the formula of the oracle.
        rng = random.Random(91)

        def rational(bound):
            if rng.randrange(2):
                return rng.randint(-bound, bound)
            return F(rng.randint(-bound, bound), rng.randint(1, 24))

        for _ in range(4000):
            rat = rational(40)
            rad = abs(rational(200)) if rng.randrange(4) else \
                rng.randint(0, 12) ** 2
            got = ExactScalar.of(rat, rad)
            assert (got.rat, got.rad) == exact_scalar_parts(rat, rad)
            assert type(got.rat) is Fraction and type(got.rad) is int
        assert ExactScalar.of(0, -3) == ExactScalar.of(F(2, 3), 0) \
            == ExactScalar(F(0), 1)
        for rad in (-3, F(-1, 2)):
            with pytest.raises(ValueError, match="radicand"):
                ExactScalar.of(1, rad)

    @pytest.mark.parametrize("rat, rad, text", [
        (3, 1, "3"),
        (F(-2, 3), 1, "-2/3"),
        (1, 2, "sqrt(2)"),
        (-1, 2, "-sqrt(2)"),
        (F(3, 2), 3, "3/2*sqrt(3)"),
        (0, 5, "0"),
        (1, F(1, 2), "1/2*sqrt(2)"),
    ])
    def test_str(self, rat, rad, text):
        assert str(ExactScalar.of(rat, rad)) == text


class TestProportionalNormalize:
    """Inputs whose designated eigenvalue has no tie between signs."""

    @pytest.mark.parametrize("m, text", [
        # the Jordan eigenvalue 2 is scaled to 1, not the larger 4
        (_block_diag([M([[2, 1], [0, 2]]), M([[4]])]), "[1]x2 + [2]x1"),
        (_block_diag([M([[-3, 1], [0, -3]]), M([[1]])]), "[-1/3]x1 + [1]x2"),
        (Matrix.diagonal([-4, 2, 1]), "[-1/2]x1 + [-1/4]x1 + [1]x1"),
        # a complex pair scales to unit imaginary part
        (M([[1, 2], [-2, 1]]), "[-1/2+-1i]x1"),
        (M([[0, 1], [-2, 0]]), "[0+-1i]x1"),
        (_block_diag([M([[1, 2], [-2, 1]]), M([[3]])]),
         "[-3/2]x1 + [-1/2+-1i]x1"),
    ])
    def test_describe(self, m, text):
        assert proportional_normalize(m).describe() == text


def _jordan(lam, size):
    return M([[lam if i == j else 1 if j == i + 1 else 0 for j in range(size)]
              for i in range(size)])


def _pair(p, q2):
    """A 2x2 block with eigenvalues p +- sqrt(q2) i."""
    return M([[p, 1], [-q2, p]])


def _pair_tower(p, q2):
    """A complex pair with one Jordan tower of height 2."""
    return M([[p, 1, 1, 0], [-q2, p, 0, 1], [0, 0, p, 1], [0, 0, -q2, p]])


_VALUES = (F(1), F(-1), F(2), F(-3), F(1, 2), F(0))


def _random_block(rng, room):
    """One block of at most ``room`` rows and its (kind, size) shape."""
    kinds = ["jordan", "jordan"]
    if room >= 2:
        kinds += ["rotation", "pair"]
    if room >= 4:
        kinds.append("tower")
    kind = rng.choice(kinds)
    if kind == "jordan":
        size = rng.randint(1, min(room, 3))
        return _jordan(rng.choice(_VALUES), size), ("r", size)
    p = rng.choice(_VALUES)
    if kind == "rotation":
        q = rng.choice((F(1), F(2), F(1, 3)))
        return M([[p, q], [-q, p]]), ("c", 1)
    q2 = rng.choice((F(2), F(3), F(1, 2)))  # q irrational
    if kind == "pair":
        return _pair(p, q2), ("c", 1)
    return _pair_tower(p, q2), ("c", 2)


def _random_seed(rng, n):
    """A block-diagonal n x n seed and its sorted block shapes; half of the
    seeds repeat their first block, so eigenvalues coincide."""
    blocks, shapes = [], []
    while sum(b.rows for b in blocks) < n:
        room = n - sum(b.rows for b in blocks)
        if blocks and blocks[0].rows <= room and rng.random() < 0.5:
            block, shape = blocks[0], shapes[0]
        else:
            block, shape = _random_block(rng, room)
        blocks.append(block)
        shapes.append(shape)
    return _block_diag(blocks), tuple(sorted(shapes))


def _random_invertible(rng, n):
    """L U with unit triangular integer factors: determinant 1, so the
    conjugate of an integer seed stays integral."""
    lower = M([[1 if i == j else rng.randint(-2, 2) if j < i else 0
                for j in range(n)] for i in range(n)])
    upper = M([[1 if i == j else rng.randint(-2, 2) if j > i else 0
                for j in range(n)] for i in range(n)])
    return lower @ upper


def _scaled_conjugate(rng, m):
    s = _random_invertible(rng, m.rows)
    c = rng.choice((F(1), F(-1), F(2), F(-1, 2), F(3)))
    return (s.inverse() @ m @ s).scale(c)


def test_eigen_structure_blocks_have_the_seed_shape():
    """One block per real Jordan block, ("r", size, lam) or ("c", size, p,
    q2), sorted rational first, then by lam or (p, q2), then by decreasing
    size; a conjugate has the very same blocks."""
    rng = random.Random(20250802)
    for _ in range(300):
        n = rng.randint(2, 5)
        seed, shape = _random_seed(rng, n)
        blocks = eigen_structure(seed).blocks
        assert tuple(sorted(b[:2] for b in blocks)) == shape
        assert all(len(b) == 3 if b[0] == "r" else len(b) == 4 and b[3] > 0
                   for b in blocks)
        assert list(blocks) == sorted(
            blocks, key=lambda b: (b[0] == "c", b[2:], -b[1]))
        s = _random_invertible(rng, n)
        assert eigen_structure(s.inverse() @ seed @ s).blocks == blocks


def test_proportional_similar_finds_a_verified_witness():
    rng = random.Random(20250801)
    similar = dissimilar = 0
    for _ in range(1000):
        n = rng.randint(2, 4)
        a, shape = _random_seed(rng, n)
        b = _scaled_conjugate(rng, a)
        found = proportional_similar(a, b)
        assert found is not None, (a, b)
        c, witness = found
        assert witness.inverse() @ b @ witness == a.scale(c)
        similar += 1
        # a seed of the same size with a different block structure
        other, other_shape = _random_seed(rng, n)
        if other_shape != shape:
            assert proportional_similar(a, _scaled_conjugate(rng, other)) is None
            dissimilar += 1
    assert similar == 1000
    assert dissimilar > 300
