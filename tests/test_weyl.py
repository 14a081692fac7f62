"""Ring, adjoint and division laws for the operator algebra.

The randomized suites below run 500+ cases between them; everything is
exact, so every assertion is equality of canonical forms.
"""

import random
import weakref
from fractions import Fraction

import pytest

from bispectral import DEL, DFORM, DiffOp, DomainError, Poly, RationalFunction
from bispectral.weyl import graded_op, graded_parts
from tests_support import (adjoint, mult, op_power, poly_at_operator,
                           rand_laurent_op, rand_op, rand_rf, x_power)


x = "x"
d = DiffOp(x, DEL, (0, 1))
xinv = x_power(x, -1)
xop = mult(x, Poly.monomial(x, 1))


def test_reference_products():
    # d . x = x d + 1
    assert d * xop == DiffOp(x, DEL, [1, Poly.monomial(x, 1)])
    # (d + 1/x)(d - 1/x) = d^2
    plus = d + mult(x, xinv)
    minus = d - mult(x, xinv)
    assert plus * minus == DiffOp(x, DEL, [0, 0, 1])
    # (d - 1/x)(d + 1/x) = d^2 - 2/x^2
    assert minus * plus == DiffOp(x, DEL,
                                  [RationalFunction(Poly(x, [-2]),
                                                    Poly(x, [0, 0, 1])), 0, 1])


def test_reference_conversions():
    # x^2 d^2 = D^2 - D
    a = DiffOp(x, DEL, [0, 0, Poly(x, [0, 0, 1])])
    assert a.convert(DFORM) == DiffOp(x, DFORM, [0, -1, 1])
    # D = x d
    assert DiffOp(x, DFORM, (0, 1)).convert(DEL) == \
        DiffOp(x, DEL, [0, Poly.monomial(x, 1)])
    # x^-2 (D^2 - D + 2/9) = d^2 + (2/9) x^-2
    x2 = Poly(x, [0, 0, 1])
    a = DiffOp(x, DFORM, [RationalFunction(Poly(x, [Fraction(2, 9)]), x2),
                          RationalFunction(Poly(x, [-1]), x2),
                          RationalFunction(Poly(x, [1]), x2)])
    want = DiffOp(x, DEL, [RationalFunction(Poly(x, [Fraction(2, 9)]), x2), 0, 1])
    assert a.convert(DEL) == want


def test_reference_adjoints():
    assert adjoint(d) == -d
    assert adjoint(mult(x, Poly.monomial(x, 1)) * d) == \
        DiffOp(x, DEL, [-1, Poly(x, [0, -1])])
    # even-order self-adjoint example
    a = DiffOp(x, DEL, [RationalFunction(Poly(x, [-2]), Poly(x, [0, 0, 1])), 0, 1])
    assert adjoint(a) == a


def test_reference_divisions():
    minus = d - mult(x, xinv)
    q, r = (d * d).left_divide(minus)
    assert r.is_zero and q == d + mult(x, xinv)
    q, r = minus.left_divide(minus)
    assert q == DiffOp(x, DEL, (1,)) and r.is_zero
    q, r = xop.left_divide(d)
    assert q.is_zero and r == xop


def test_ring_axioms_randomized():
    rng = random.Random(2001)
    for _ in range(120):
        a, b, c = (rand_op(rng, max_order=2) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


def test_form_round_trip_randomized():
    rng = random.Random(2002)
    for _ in range(120):
        a = rand_op(rng, max_order=rng.randint(0, 6))
        assert a.convert(DFORM).convert(DEL) == a
        b = rand_op(rng, max_order=3, form=DFORM)
        assert b.convert(DEL).convert(DFORM) == b


def test_product_agrees_across_forms_randomized():
    rng = random.Random(2003)
    for _ in range(60):
        a, b = rand_op(rng, max_order=2), rand_op(rng, max_order=2)
        assert (a.convert(DFORM) * b.convert(DFORM)).convert(DEL) == a * b


def test_adjoint_antiautomorphism_randomized():
    rng = random.Random(2004)
    for _ in range(100):
        a, b = rand_op(rng, max_order=2), rand_op(rng, max_order=2)
        assert adjoint(a * b) == adjoint(b) * adjoint(a)
        assert adjoint(adjoint(a)) == a


def test_division_reconstruction_randomized():
    rng = random.Random(2005)
    count = 0
    while count < 120:
        a = rand_op(rng, max_order=4)
        p = rand_op(rng, max_order=2)
        if p.is_zero:
            continue
        count += 1
        q, r = a.left_divide(p)
        assert q * p + r == a
        assert r.is_zero or r.order < p.order
        q2, r2 = a.right_divide(p)
        assert p * q2 + r2 == a
        assert r2.is_zero or r2.order < p.order


def test_poly_at_operator_matches_powers():
    rng = random.Random(2006)
    for _ in range(30):
        a = rand_op(rng, max_order=1)
        p = Poly("y", [rng.randint(-3, 3) for _ in range(3)] + [1])
        direct = DiffOp.zero(x)
        for k, c in enumerate(p.coeffs):
            direct = direct + op_power(a, k).scale(c)
        assert poly_at_operator(p, a) == direct


def test_relabel_and_json_round_trip():
    rng = random.Random(2007)
    for _ in range(20):
        a = rand_op(rng, max_order=3)
        z = a.relabel("z")
        assert z.var == "z" and z.relabel("x") == a
        assert DiffOp.from_json(a.to_json()) == a
        b = rand_op(rng, max_order=2, form=DFORM)
        assert DiffOp.from_json(b.to_json()) == b


# -- the normal form: one monic denominator over polynomial numerators ------


def _rem(a, b):
    """Remainder of a by b, written out independently of Poly.divmod."""
    rem = list(a.coeffs)
    while len(rem) >= len(b.coeffs):
        c = rem[-1] / b.coeffs[-1]
        shift = len(rem) - len(b.coeffs)
        for i, v in enumerate(b.coeffs):
            rem[shift + i] -= c * v
        while rem and not rem[-1]:
            rem.pop()
    return Poly(a.var, rem)


def _quot(a, b):
    """Exact quotient a / b, written out independently of Poly.divmod."""
    rem = list(a.coeffs)
    quot = [Fraction(0)] * (len(rem) - len(b.coeffs) + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + len(b.coeffs) - 1] / b.coeffs[-1]
        quot[k] = c
        for i, v in enumerate(b.coeffs):
            rem[k + i] -= c * v
    assert not any(rem)
    return Poly(a.var, quot)


def _gcd(a, b):
    """Monic gcd by a Euclid written here, independent of Poly.gcd."""
    while not b.is_zero:
        a, b = b, _rem(a, b)
    return a if a.is_zero else Poly(a.var, [c / a.leading for c in a.coeffs])


def assert_normal_form(a):
    assert a.den.leading == 1
    content = a.den
    for p in a.nums:
        content = _gcd(content, p)
    assert content.degree == 0
    lcm = Poly.const(a.var, 1)
    for c in a.coeffs:
        lcm = _quot(lcm * c.den, _gcd(lcm, c.den))
    assert lcm == a.den
    assert a.coeffs == tuple(RationalFunction(p, a.den) for p in a.nums)


def test_normal_form_randomized():
    rng = random.Random(2008)
    for _ in range(60):
        form = rng.choice([DEL, DFORM])
        other = DFORM if form == DEL else DEL
        a = rand_op(rng, form=form)
        b = rand_laurent_op(rng)
        built = [a, b, a * b, b * a, a + b, a - a, a.convert(other),
                 adjoint(a), mult(x, rand_rf(rng), form) * a, a.relabel("z"),
                 a.scale(Fraction(-3, 2))]
        if not b.is_zero:
            built.extend(a.left_divide(b) + a.right_divide(b))
        for op in built:
            assert_normal_form(op)
        # equal operators have equal fields and hashes, however built
        for c in (DiffOp(a.var, form, a.coeffs), DiffOp.from_json(a.to_json()),
                  (a + b) - b, a.convert(other).convert(form),
                  a * DiffOp(a.var, other, (1,))):
            assert c == a and hash(c) == hash(a)
            assert (c.form, c.den, c.nums) == (a.form, a.den, a.nums)


def _rand_laurent(rng, var, order, form):
    """A random operator sum_k a_k(x) del^k over a power of x, of the given
    order: each a_k is a Laurent polynomial with rational coefficients on
    grades inside -4..4, some of them empty."""
    coeffs = []
    for k in range(order + 1):
        grades = {a: Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3]))
                  for a in range(rng.randint(-4, 1), rng.randint(-1, 4) + 1)
                  if rng.random() < 0.6}
        if k == order and not any(grades.values()):
            grades[rng.randint(-4, 4)] = Fraction(rng.choice([-3, 1, 2]), 2)
        m, top = max(0, -min(grades, default=0)), max(grades, default=0)
        num = [grades.get(i - m, 0) for i in range(top + m + 1)]
        coeffs.append(RationalFunction(Poly(var, num), Poly.monomial(var, m)))
    return DiffOp(var, form, coeffs)


def test_graded_product_matches_the_leibniz_product():
    # DFORM products of Laurent operators run on graded parts; DEL
    # products keep the Leibniz rule, so the two routes check each other
    rng = random.Random(2009)
    grades = set()
    for var in (x, "z"):
        for order in range(7):
            for _ in range(6):
                a = _rand_laurent(rng, var, order, rng.choice([DEL, DFORM]))
                b = _rand_laurent(rng, var, rng.randint(0, 6),
                                  rng.choice([DEL, DFORM]))
                got = a.convert(DFORM) * b
                want = (a.convert(DEL) * b.convert(DEL)).convert(DFORM)
                assert (got.var, got.form) == (var, DFORM)
                assert (got.den, got.nums) == (want.den, want.nums)
                assert_normal_form(got)
                parts = graded_parts(got)
                grades.update(parts)
                assert graded_op(parts, var) == got
    assert min(grades) < 0 < max(grades)


def test_graded_parts_invert_graded_op():
    rng = random.Random(2010)
    for _ in range(40):
        parts = {a: Poly("y", [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                               for _ in range(rng.randint(0, 4))])
                 for a in rng.sample(range(-6, 7), rng.randint(0, 4))}
        op = graded_op(parts, "z")
        assert graded_parts(op) == {a: c for a, c in parts.items() if c}
        assert graded_parts(op.convert(DEL)) == graded_parts(op)
    with pytest.raises(DomainError, match="power of x"):
        graded_parts(DiffOp(x, DFORM, [RationalFunction(Poly.const(x, 1),
                                                        Poly(x, [1, 1]))]))


def test_conversion_is_computed_once_and_links_back():
    rng = random.Random(2011)
    for _ in range(60):
        form = rng.choice([DEL, DFORM])
        other = DFORM if form == DEL else DEL
        a = rand_op(rng, max_order=rng.randint(0, 5), form=form)
        b = a.convert(other)
        assert a.convert(other) is b and b.convert(form) is a
        assert a.convert(form) is a
        for fresh in (DiffOp(a.var, form, a.coeffs).convert(other),
                      DiffOp(a.var, other, b.coeffs)):
            assert fresh is not b
            assert (fresh.form, fresh.den, fresh.nums) == \
                (b.form, b.den, b.nums)
    # a DEL operator keeps its DFORM form alive, whichever was built
    # first, and the link back is weak: a DFORM operator does not keep its
    # DEL form alive, and converts afresh once it is gone
    a = rand_op(rng, max_order=3, form=DFORM)
    b = a.convert(DEL)
    origin = weakref.ref(a)
    del a
    assert b.convert(DFORM) is origin()
    a = rand_op(rng, max_order=3)
    b, fields, origin = a.convert(DFORM), (a.den, a.nums), weakref.ref(a)
    del a
    assert origin() is None
    c = b.convert(DEL)
    assert (c.den, c.nums) == fields and c.convert(DFORM) is b
