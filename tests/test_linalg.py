import random
from fractions import Fraction

from bispectral import linalg
from tests_support import basis_off_rref


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


# -- nullspace of over-determined systems -------------------------------------

def _check_tall(rows, ncols):
    """nullspace of a tall matrix against the basis off Gauss-Jordan over Q."""
    assert len(rows) > ncols
    kept = linalg._spanning_rows(rows, ncols)
    assert len(kept) <= ncols
    red, pivots = _oracle_rref(rows)
    assert linalg.rref(kept) == (red, pivots)
    basis = linalg.nullspace(rows, ncols)
    assert basis == basis_off_rref(red, pivots, ncols)
    return basis


def test_tall_nullspace_matches_gauss_jordan_entry_for_entry():
    rng = random.Random(43)
    for _ in range(80):
        ncols = rng.randint(1, 8)
        k = rng.randint(0, ncols)
        span = [[Fraction(rng.randint(-9, 9), rng.choice([1, 2, 7]))
                 for _ in range(ncols)] for _ in range(k)]
        rows = []
        for _ in range(rng.randint(ncols + 1, 4 * ncols + 2)):
            # heights from one digit to about 40
            scale = Fraction(rng.randint(1, 10 ** rng.randint(0, 40)),
                             rng.randint(1, 10 ** rng.randint(0, 3)))
            coef = [rng.randint(-3, 3) for _ in span]
            rows.append([scale * sum((c * r[j] for c, r in zip(coef, span)),
                                     Fraction(0)) for j in range(ncols)])
        rows.append([0] * ncols)
        rows.append(list(rows[0]))
        rows.append([Fraction(-10 ** 30, 7) * v for v in rows[1]])
        if rng.random() < 0.3:
            c = rng.randrange(ncols)
            for row in rows:
                row[c] = 0
        rng.shuffle(rows)
        _check_tall(rows, ncols)


def test_tall_nullspace_special_shapes():
    F = Fraction
    # zero, duplicate and proportional rows
    rows = [[0, 0, 0], [1, 2, 3], [0, 0, 0], [1, 2, 3], [2, 4, 6],
            [F(1, 2), 1, F(3, 2)], [-10 ** 40, -2 * 10 ** 40, -3 * 10 ** 40]]
    assert _check_tall(rows, 3) == [[-2, 1, 0], [-3, 0, 1]]
    # an all-zero column stays free however many rows there are
    rows = [[F(i + 1, 3), 0, i * i - 4] for i in range(6)]
    assert _check_tall(rows, 3) == [[0, 1, 0]]
    # small rows span a plane; the one row that leaves it is the tallest
    small = [[a, a + b, b, 0] for a in range(-2, 3) for b in range(-2, 3)]
    late = [10 ** 40, 10 ** 40 + 3, 3, 10 ** 40 + 1]
    basis = _check_tall(small + [late], 4)
    assert len(basis) == 1 and len(_check_tall(small, 4)) == 2
    # full column rank: the null space is empty
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [10 ** 20, 1, 7]]
    assert _check_tall(rows, 3) == []


def test_ansatz_point_systems_match_gauss_jordan(monkeypatch):
    from bispectral import (AtPointGroup, BesselIndex, KernelSpec,
                            validate_spec, wave_jet_at)
    from bispectral.darboux import _orbit_rows, default_depth

    beta = BesselIndex.parse("1/3,2/3,2")
    avec = (Fraction(1), Fraction(1, 2))
    val = validate_spec(KernelSpec(beta, (), (AtPointGroup(Fraction(2), avec),)))
    n, N, d = val.n, beta.N, max(1, val.h.degree)
    shapes = []
    eliminated = []
    rref = linalg.rref
    monkeypatch.setattr(linalg, "rref",
                        lambda rows: eliminated.append(len(rows)) or rref(rows))
    for bound in range(3):
        ncols = (n + 1) * (bound + 1)
        # the depth _solve_annihilator uses at this bound
        K = max(default_depth(d, N, n), 2 * ncols + 2 * n + 10)
        profile = wave_jet_at(beta, Fraction(2), K)
        rows = _orbit_rows(profile, avec, n, N, bound)
        del eliminated[:]
        basis = _check_tall(rows, ncols)
        shapes.append((len(rows), ncols, len(basis)))
        # only a spanning subset of the rows reaches the elimination
        assert eliminated and max(eliminated) <= ncols
    assert shapes == [(27, 4, 0), (33, 8, 0), (41, 12, 1)]
