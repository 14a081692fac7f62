import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from bispectral import (Cyclotomic, DomainError, UsageError,
                        cyclotomic_polynomial, euler_phi, format_rational,
                        parse_rational)
from bispectral import jsonio, scalars
from bispectral.scalars import parse_ratio, primitive_root

ROOT = Path(__file__).resolve().parents[1]


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert euler_phi(12) == 4


def test_primitive_roots_degenerate_orders():
    assert primitive_root(1) == 1
    assert primitive_root(2) == -1
    eps = primitive_root(4)
    assert eps * eps == -1


def test_primitive_root_order_six():
    eps = primitive_root(6)
    assert eps ** 6 == 1
    assert eps ** 3 == -1
    for k in range(1, 6):
        assert eps ** k != 1


def test_root_inverse_reference_value():
    # 1 + eps has inverse -eps when eps^2 + eps + 1 = 0
    eps = primitive_root(3)
    assert (1 + eps).inverse() == -eps
    assert (1 + eps) * (-eps) == 1


def test_character_orthogonality():
    for n in (2, 3, 4, 5, 6, 8, 12):
        eps = primitive_root(n)
        for k in range(1, n):
            total = Cyclotomic.zero(n)
            for i in range(n):
                total = total + eps ** (i * k)
            assert not total, (n, k)


def test_field_axioms_randomized():
    rng = random.Random(20240)
    for n in (3, 4, 5, 6):
        phi = euler_phi(n)
        def rand():
            return Cyclotomic(n, [Fraction(rng.randint(-9, 9),
                                           rng.randint(1, 4))
                                  for _ in range(phi)])
        for _ in range(60):
            a, b, c = rand(), rand(), rand()
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if a:
                assert a * a.inverse() == 1
                assert (a / a) == 1


def test_inversion_of_zero_rejected():
    with pytest.raises(DomainError):
        Cyclotomic.zero(5).inverse()


def test_mixed_orders_rejected():
    with pytest.raises(UsageError):
        primitive_root(3) + primitive_root(4)


def test_rational_elements_of_different_orders_compare_as_rationals():
    assert Cyclotomic.one(3) == Cyclotomic.one(4)
    assert Cyclotomic.from_rational(3, Fraction(1, 2)) != Cyclotomic.one(4)
    assert primitive_root(3) != Cyclotomic.one(4)
    assert Cyclotomic.one(4) != primitive_root(3)
    assert len({Cyclotomic.one(3), Cyclotomic.one(4)}) == 1
    assert len({Cyclotomic.one(3), Cyclotomic.one(4), primitive_root(4)}) == 2
    with pytest.raises(UsageError):
        Cyclotomic.one(3) + Cyclotomic.one(4)
    with pytest.raises(UsageError):
        Cyclotomic.one(3) * Cyclotomic.one(4)


def test_rational_parse_print_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        q = Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**9))
        assert parse_rational(format_rational(q)) == q
    assert format_rational(Fraction(4, 2)) == "2"
    assert parse_rational("-6/4") == Fraction(-3, 2)
    with pytest.raises(UsageError):
        parse_rational("1/0")


def _fraction_route(text):
    """The parse before the integer route: strip, refuse exponent
    notation, Fraction; a refusal is returned as its UsageError message,
    which shows a text past 32 characters by its first 32 and its length."""
    text = str(text).strip()
    shown = repr(text) if len(text) <= 32 else (
        repr(text[:32]) + f"... ({len(text)} characters)")
    if "e" in text.lower():
        return f"not a rational: {shown} (no exponent notation)"
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return f"not a rational: {shown}"


def test_integer_route_matches_the_fraction_route():
    rng = random.Random(26)
    texts = [format_rational(Fraction(rng.randint(-10**rng.randint(0, 40),
                                                  10**rng.randint(0, 40)),
                                      rng.randint(1, 10**rng.randint(0, 30))))
             for _ in range(500)]
    assert len({t for t in texts if "/" in t}) > 100
    texts += ["0", "+3", " 1/2 ", "2/4", "-0", "007", "0/5", "1/-2", "1.5",
              "1_000", "\u0661\u0662", "1e3", "1E3", "1/0", "-", "", "/2",
              "1/", "1/2/3", "1 / 2", "0x10", "3\n", 3, -7, 1.5, True, None]
    # past the int digit limit, where int() raises a bare ValueError, and
    # long refusals on both routes, shown by a prefix and the length
    texts += ["9" * 5000, "-1/" + "9" * 5000, "1/" + "x" * 40,
              "1e" + "9" * 40, "7" * 32 + "x", "7" * 31 + "x"]
    for text in texts:
        want = _fraction_route(text)
        if isinstance(want, Fraction):
            p, q = parse_ratio(text)
            assert q > 0 and Fraction(p, q) == want, text
            assert parse_rational(text) == want, text
        else:
            for parse in (parse_ratio, parse_rational):
                with pytest.raises(UsageError) as err:
                    parse(text)
                assert str(err.value) == want, text


def test_stored_documents_load_without_the_fraction_route(monkeypatch):
    # every number the tool writes takes the integer route
    def refuse(text):
        raise AssertionError(f"Fraction route taken for {text!r}")

    monkeypatch.setattr(scalars, "_fraction_ratio", refuse)
    with pytest.raises(AssertionError):
        parse_rational(" 1/2")
    for name in ("dg-even", "banded-d2"):
        pair = jsonio.load_pair(jsonio.read(
            ROOT / "perfbench" / "data" / "pairs" / f"{name}.json"))
        written = jsonio.dumps(jsonio.document(
            "darboux-certificate", pair.certificate.to_json()))
        cert = jsonio.load_certificate(json.loads(written))
        assert cert.to_json() == pair.certificate.to_json()


def test_cyclotomic_json_round_trip():
    eps = primitive_root(5)
    v = eps ** 3 + 2 * eps - Fraction(1, 3)
    assert Cyclotomic.from_json(v.to_json()) == v


def test_rational_coercion_inside_field():
    eps = primitive_root(3)
    assert (Fraction(1, 2) * eps) * 2 == eps
    assert (eps - eps) == 0
    assert Cyclotomic.from_rational(3, Fraction(5, 7)).as_rational() == Fraction(5, 7)
    with pytest.raises(DomainError):
        eps.as_rational()


def test_rational_cyclotomics_hash_like_the_rationals_they_equal():
    one, half = Cyclotomic.one(3), Cyclotomic.from_rational(3, Fraction(1, 2))
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    assert len({half, Fraction(1, 2)}) == 1
    assert len({one, 1}) == 1
    eps = primitive_root(3)
    assert len({eps, eps * one, eps + 1}) == 2
