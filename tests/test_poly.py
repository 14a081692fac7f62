import random
from fractions import Fraction

import pytest

from bispectral import DomainError, Poly, RationalFunction, UsageError


def rand_poly(rng, var="x", deg=4):
    return Poly(var, [Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                      for _ in range(rng.randint(0, deg + 1))])


def test_normalization_strips_trailing_zeros():
    p = Poly("x", [1, 2, 0, 0])
    assert p.degree == 1
    assert Poly("x", [0, 0]).is_zero


def test_divmod_reconstructs():
    rng = random.Random(11)
    for _ in range(150):
        a = rand_poly(rng)
        b = rand_poly(rng)
        if b.is_zero:
            continue
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree


def test_gcd_divides_both():
    rng = random.Random(12)
    for _ in range(80):
        a, b = rand_poly(rng), rand_poly(rng)
        if a.is_zero or b.is_zero:
            continue
        g = Poly.gcd(a, b)
        assert (a % g).is_zero and (b % g).is_zero


def test_expand_contract_power():
    p = Poly("y", [1, 0, -2, 3])
    q = p.expand_arg_power(2, var="x")
    assert q.coeffs == (Fraction(1), 0, 0, 0, Fraction(-2), 0, Fraction(3))
    assert q.is_power_pattern(2)
    assert q.contract_arg_power(2, var="y") == p
    with pytest.raises(UsageError):
        Poly("x", [0, 1]).contract_arg_power(2)


def test_theta_and_derivative():
    p = Poly("x", [5, 1, 3])
    assert p.derivative() == Poly("x", [1, 6])
    assert p.theta() == Poly("x", [0, 1, 6])


def test_rational_function_canonical_form():
    x2 = Poly("x", [0, 0, 1])
    r = RationalFunction(Poly("x", [0, 2]), Poly("x", [0, 0, 4]))
    assert r.num == Poly("x", [Fraction(1, 2)])
    assert r.den == Poly("x", [0, 1])
    assert r.is_laurent
    assert RationalFunction(x2).is_polynomial


def test_non_laurent_rejected():
    r = RationalFunction(Poly("x", [1]), Poly("x", [1, 1]))
    assert not r.is_laurent


def test_zero_denominator_rejected():
    with pytest.raises(DomainError):
        RationalFunction(Poly("x", [1]), Poly.zero("x"))


def test_poly_json_round_trip():
    p = Poly("x", [Fraction(1, 3), 0, -2])
    assert Poly.from_json("x", p.to_json()) == p
    r = RationalFunction(p, Poly("x", [0, 0, 5]))
    assert RationalFunction.from_json("x", r.to_json()) == r


def _euclid_divmod(a, b):
    """Schoolbook long division, independent of Poly.divmod."""
    rem = list(a.coeffs)
    quot = [Fraction(0)] * max(0, len(rem) - len(b.coeffs) + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + b.degree] / b.leading
        quot[k] = c
        for i, v in enumerate(b.coeffs):
            rem[k + i] = rem[k + i] - c * v
    return Poly(a.var, quot), Poly(a.var, rem[:b.degree])


def _euclid_gcd(a, b):
    while not b.is_zero:
        a, b = b, _euclid_divmod(a, b)[1]
    if a.is_zero:
        return a
    return Poly(a.var, [c / a.leading for c in a.coeffs])


def _same(got, want):
    return got == want and got.coeffs == want.coeffs


def test_monomial_gcd_and_divmod_match_euclid():
    from bispectral import Cyclotomic
    rng = random.Random(14)

    def scalar(kind):
        if kind == "Q":
            return Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        return Cyclotomic(3, (rng.randint(-3, 3), rng.randint(-3, 3)))

    def rand(kind, terms):
        return Poly("x", [scalar(kind) if rng.random() < 0.7 else 0
                          for _ in range(terms)]).shift_mul(rng.randint(0, 3))

    checked = 0
    for _ in range(300):
        kind = rng.choice("QC")
        c = scalar(kind)
        if not c:
            continue
        mono = Poly.monomial("x", rng.randint(0, 5), rng.choice([1, c]))
        other = rand(kind, rng.randint(0, 6))
        for a, b in ((mono, other), (other, mono)):
            assert _same(Poly.gcd(a, b), _euclid_gcd(a, b))
        q, r = other.divmod(mono)
        wq, wr = _euclid_divmod(other, mono)
        assert _same(q, wq) and _same(r, wr)
        checked += 1
    assert checked > 250
    zero = Poly.zero("x")
    x3 = Poly.monomial("x", 3, Fraction(-2, 3))
    assert _same(Poly.gcd(x3, zero), Poly.monomial("x", 3))
    assert _same(Poly.gcd(zero, x3), Poly.monomial("x", 3))
    assert Poly.gcd(zero, zero).is_zero
    assert _same(Poly.gcd(Poly.const("x", 5), zero), Poly.const("x", 1))
    assert zero.divmod(x3) == (zero, zero)
