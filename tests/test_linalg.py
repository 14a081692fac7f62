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
