"""Shared random generators for the property suites."""

from fractions import Fraction

from bispectral import DiffOp, Poly, QuasiPolynomial, RationalFunction


def rand_rf(rng, var="x"):
    num = Poly(var, [Fraction(rng.randint(-4, 4), rng.randint(1, 2))
                     for _ in range(rng.randint(1, 3))])
    den = Poly.zero(var)
    while den.is_zero:
        den = Poly(var, [rng.randint(-2, 2) for _ in range(rng.randint(1, 3))])
    return RationalFunction(num, den)


def x_power(var, m, c=1):
    """c * var**m as a rational function, for any integer m."""
    if m >= 0:
        return RationalFunction(Poly.monomial(var, m, c))
    return RationalFunction(Poly.const(var, c), Poly.monomial(var, -m))


def horner(p, v):
    """The value of the polynomial p at the scalar v."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * v + c
    return acc


def rand_op(rng, var="x", max_order=2, form="del"):
    order = rng.randint(0, max_order)
    return DiffOp(var, form, [rand_rf(rng, var) for _ in range(order + 1)])


def rand_laurent_op(rng, var="x"):
    coeffs = []
    for _ in range(rng.randint(1, 3)):
        num = Poly(var, [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
        coeffs.append(RationalFunction(num, Poly.monomial(var, rng.randint(0, 2))))
    return DiffOp(var, rng.choice(["del", "D"]), coeffs)


def rand_quasi(rng):
    terms = []
    for _ in range(rng.randint(1, 4)):
        g = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
        terms.append(((g, rng.randint(0, 2)), Fraction(rng.randint(-5, 5))))
    return QuasiPolynomial(terms)
