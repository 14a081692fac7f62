import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from bispectral import (DomainError, Poly, RationalFunction, UsageError,
                        jsonio, parse_rational)


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


def test_from_json_matches_the_fraction_constructor():
    # the integer form read from (p, q) pairs is the Poly that the parsed
    # Fractions build: non-reduced text, zeros with denominators, trailing
    # zeros, all zeros and the empty list
    rng = random.Random(26)
    lists = [[], ["0"], ["0", "0/7", "-0"], ["2/4", "0", "0/9"],
             ["-6/9", "10/15", "3"], [" 1/2", "+3", "4/6"]]
    for _ in range(300):
        lists.append([f"{rng.randint(-10**6, 10**6) * rng.choice((0, 1, 1))}"
                      + rng.choice(("", f"/{rng.randint(1, 10**4)}"))
                      for _ in range(rng.randint(0, 9))]
                     + ["0"] * rng.choice((0, 0, 2)))
    for data in lists:
        got = Poly.from_json("x", data)
        want = Poly("x", [parse_rational(s) for s in data])
        assert (got.nums, got.den) == (want.nums, want.den), data
    with pytest.raises(UsageError):
        Poly.from_json("x", "123")


@pytest.mark.parametrize("name", ["dg-even", "banded-d2"])
def test_stored_pairs_load_back_to_the_same_text(name):
    path = (Path(__file__).resolve().parents[1] / "perfbench" / "data"
            / "pairs" / f"{name}.json")
    data = jsonio.read(path)
    out = jsonio.load_pair(data).to_json()
    assert set(data) - set(out) == {"tool", "kind"}
    assert (json.dumps(out, indent=2, sort_keys=True)
            == json.dumps({k: data[k] for k in out}, indent=2,
                          sort_keys=True))


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
    rng = random.Random(14)

    def scalar():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 3))

    def rand(terms):
        return Poly("x", [scalar() if rng.random() < 0.7 else 0
                          for _ in range(terms)]).shift_mul(rng.randint(0, 3))

    checked = 0
    for _ in range(300):
        c = scalar()
        if not c:
            continue
        mono = Poly.monomial("x", rng.randint(0, 5), rng.choice([1, c]))
        other = rand(rng.randint(0, 6))
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


# -- the integer form against a Fraction-list oracle --------------------------
# The oracle runs the field algorithms on lists of Fractions (low degree
# first, trailing zeros stripped): schoolbook products, long division and
# Euclid's algorithm made monic at the end.

def _trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _o_add(a, b, sign=1):
    n = max(len(a), len(b))
    a, b = a + [Fraction(0)] * (n - len(a)), b + [Fraction(0)] * (n - len(b))
    return _trim(x + sign * y for x, y in zip(a, b))


def _o_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _o_divmod(a, b):
    rem = list(a)
    quot = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + len(b) - 1] / b[-1]
        quot[k] = c
        for i, v in enumerate(b):
            rem[k + i] -= c * v
    return _trim(quot), _trim(rem[:len(b) - 1])


def _o_monic(a):
    return [c / a[-1] for c in a] if a else []


def _o_gcd(a, b):
    while b:
        a, b = b, _o_divmod(a, b)[1]
    return _o_monic(a)


def _rand_coeffs(rng, deg, zeros=0.2):
    cs = [Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 6, 9]))
          if rng.random() > zeros else Fraction(0) for _ in range(deg + 1)]
    if cs and rng.random() < 0.5:
        cs[-1] = -abs(cs[-1]) or Fraction(-1)  # negative leading coefficients
    return _trim(cs)


def _check_form(p, want):
    """p holds the oracle's value, in the canonical integer form."""
    assert p.coeffs == tuple(want)
    assert p.den > 0 and math.gcd(p.den, *p.nums) == 1
    assert not p.nums or p.nums[-1]
    assert [Fraction(n, p.den) for n in p.nums] == want
    assert hash(p) == hash((p.var, tuple(want)))


def test_integer_form_matches_the_fraction_oracle():
    rng = random.Random(15)
    for _ in range(250):
        a = _rand_coeffs(rng, rng.randint(0, 7))
        b = _rand_coeffs(rng, rng.randint(0, 7))
        pa, pb = Poly("x", a), Poly("x", b)
        _check_form(pa, a)
        _check_form(pa + pb, _o_add(a, b))
        _check_form(pa - pb, _o_add(a, b, -1))
        _check_form(-pa, [-c for c in a])
        _check_form(pa * pb, _o_mul(a, b))
        c = Fraction(rng.randint(-7, 7), rng.randint(1, 5))
        _check_form(pa.scale(c), _trim(c * v for v in a))
        _check_form(pa.derivative(), _trim(k * v for k, v in enumerate(a) if k))
        _check_form(pa.theta(), _trim(k * v for k, v in enumerate(a)))
        _check_form(pa.monic(), _o_monic(a))
        n = rng.randint(1, 3)
        spread = _trim(c for v in a for c in [v] + [Fraction(0)] * (n - 1))
        _check_form(pa.expand_arg_power(n), spread)
        assert pa.expand_arg_power(n).contract_arg_power(n) == pa
        if b:
            q, r = pa.divmod(pb)
            wq, wr = _o_divmod(a, b)
            _check_form(q, wq)
            _check_form(r, wr)
        if a and b:
            _check_form(Poly.gcd(pa, pb), [Fraction(1)] if len(a) == 1
                        or len(b) == 1 else _o_gcd(a, b))


def test_gcd_and_cancel_with_a_shared_factor_of_high_degree():
    rng = random.Random(16)
    checked = 0
    for _ in range(60):
        f = _rand_coeffs(rng, rng.randint(4, 8), zeros=0.1)
        g1 = _rand_coeffs(rng, rng.randint(1, 5), zeros=0.1)
        g2 = _rand_coeffs(rng, rng.randint(1, 5), zeros=0.1)
        if len(f) < 5 or len(g1) < 2 or len(g2) < 2:
            continue
        a, b = _o_mul(f, g1), _o_mul(f, g2)
        pa, pb = Poly("x", a), Poly("x", b)
        g = Poly.gcd(pa, pb)
        _check_form(g, _o_gcd(a, b))
        assert g.degree >= len(f) - 1
        q, r = pa.divmod(Poly("x", f))
        _check_form(q, _o_divmod(a, f)[0])
        assert r.is_zero
        rf = RationalFunction(pa, pb)
        num, den = _o_divmod(a, _o_gcd(a, b))[0], _o_divmod(b, _o_gcd(a, b))[0]
        lead = den[-1]
        _check_form(rf.num, [c / lead for c in num])
        _check_form(rf.den, _o_monic(den))
        checked += 1
    assert checked > 40


def test_rational_functions_cancel_through_poly_gcd(monkeypatch):
    # one gcd routine: the reduced view divides by Poly.gcd exactly
    x1, x2 = Poly("x", [-1, 1]), Poly("x", [-2, 1])
    num, den = x1 * x1 * Poly("x", [3, 0, 1]), x1 * x2.scale(Fraction(1, 2))
    calls = []
    gcd = Poly.gcd
    monkeypatch.setattr(Poly, "gcd", staticmethod(
        lambda a, b: calls.append((a, b)) or gcd(a, b)))
    rf = RationalFunction(num, den)
    assert calls == [(num, den)]
    assert rf.num == (x1 * Poly("x", [3, 0, 1])).scale(2) and rf.den == x2


def test_only_rational_coefficients_are_taken():
    from bispectral.scalars import Cyclotomic, primitive_root
    # a rational Cyclotomic is refused too: no Poly holds a Q(eps) scalar
    half = Cyclotomic.from_rational(3, Fraction(1, 2))
    for bad in (half, primitive_root(3), Cyclotomic(4, (0, 1)), 0.5, "1/2",
                None):
        with pytest.raises(UsageError):
            Poly("x", [1, bad])
        with pytest.raises(UsageError):
            Poly("x", [1, 2]).scale(bad)


def test_translate_matches_horner_composition():
    rng = random.Random(1703)
    for _ in range(60):
        p = Poly("y", [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 6]))
                       for _ in range(rng.randint(0, 7))])
        s = rng.randint(-5, 5)
        want = Poly.zero("y")
        for c in reversed(p.coeffs):
            want = want * Poly("y", [s, 1]) + Poly.const("y", c)
        got = p.translate(s)
        assert got == want and (got.nums, got.den) == (want.nums, want.den)
        assert got.translate(-s) == p
