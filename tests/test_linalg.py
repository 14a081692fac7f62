import random
from fractions import Fraction

from bispectral import linalg


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def test_det_of_triangular_products_and_row_swaps():
    rng = random.Random(41)

    def entry():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 3))

    for _ in range(60):
        n = rng.randint(1, 5)
        lower = [[entry() if j < i else 0 for j in range(n)] for i in range(n)]
        upper = [[entry() if j > i else 0 for j in range(n)] for i in range(n)]
        expected = Fraction(1)
        for i in range(n):
            lower[i][i], upper[i][i] = entry(), entry()
            expected *= lower[i][i] * upper[i][i]
        a = _matmul(lower, upper)
        assert linalg.det(a) == expected
        assert linalg.det(lower) * linalg.det(upper) == expected
        if n > 1:
            i, j = rng.sample(range(n), 2)
            a[i], a[j] = a[j], a[i]
            assert linalg.det(a) == -expected
    # a zero leading entry forces a swap; a repeated row gives zero
    assert linalg.det([[0, 1], [1, 0]]) == -1
    assert linalg.det([[1, 2, 3], [0, 1, 4], [1, 2, 3]]) == 0
    assert linalg.det([]) == 1


# -- the fraction-free routines against Gauss-Jordan over Q -------------------

def _oracle_rref(rows):
    """Gauss-Jordan on Fractions: the reduced form and the pivot columns."""
    m = [[Fraction(v) for v in r] for r in rows]
    pivots, r = [], 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [v / m[r][c] for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def _oracle_det(rows):
    m = [[Fraction(v) for v in r] for r in rows]
    out = Fraction(1)
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            out = -out
        out *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return out


def _random_matrix(rng, nrows, ncols):
    """Entries with mixed denominators; some matrices are low-rank products,
    some get zero rows and zero columns."""
    def entry():
        if rng.random() < 0.25:
            return 0
        return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 5, 12]))

    if rng.random() < 0.4 and min(nrows, ncols) > 1:
        k = rng.randint(1, min(nrows, ncols) - 1)
        left = [[entry() for _ in range(k)] for _ in range(nrows)]
        right = [[entry() for _ in range(ncols)] for _ in range(k)]
        m = _matmul(left, right)
    else:
        m = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    if rng.random() < 0.3:
        m[rng.randrange(nrows)] = [0] * ncols
    if rng.random() < 0.3:
        c = rng.randrange(ncols)
        for row in m:
            row[c] = 0
    return m


def test_fraction_free_routines_match_gauss_jordan():
    rng = random.Random(42)
    shapes = set()
    for _ in range(200):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        m = _random_matrix(rng, nrows, ncols)
        red, pivots = _oracle_rref(m)
        shapes.add((nrows < ncols, nrows > ncols, len(pivots) < min(nrows, ncols)))
        assert linalg.rref(m) == (red, pivots)
        assert linalg.rank(m) == len(pivots)
        basis = linalg.nullspace(m, ncols)
        assert len(basis) == ncols - len(pivots)
        for v in basis:
            assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m)
        x = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ncols)]
        rhs = [sum(a * v for a, v in zip(row, x)) for row in m]
        sol = linalg.solve(m, rhs)
        assert [sum(a * v for a, v in zip(row, sol)) for row in m] == rhs
        ared, apiv = _oracle_rref([r + [b] for r, b in zip(m, rhs)])
        want = [Fraction(0)] * ncols
        for row, pc in zip(ared, apiv):
            want[pc] = row[-1]
        assert sol == want
        bad = [b + 1 for b in rhs]
        if ncols in _oracle_rref([r + [b] for r, b in zip(m, bad)])[1]:
            assert linalg.solve(m, bad) is None
        if nrows == ncols:
            assert linalg.det(m) == _oracle_det(m)
    # wide, tall and rank-deficient matrices all came up
    assert {s[0] for s in shapes} == {True, False}
    assert {s[1] for s in shapes} == {True, False}
    assert {s[2] for s in shapes} == {True, False}


def test_integer_and_fraction_entries_give_exact_fractions():
    assert linalg.det([[2, 1], [1, 1]]) == 1
    assert isinstance(linalg.det([[2, 1], [1, 1]]), Fraction)
    red, pivots = linalg.rref([[2, 4, 6], [1, 2, 4]])
    assert (red, pivots) == ([[1, 2, 0], [0, 0, 1]], [0, 2])
    assert all(isinstance(v, Fraction) for row in red for v in row)
    assert linalg.nullspace([[0, 0]], 2) == [[1, 0], [0, 1]]
    assert linalg.rank([[0, 0], [0, 0]]) == 0
