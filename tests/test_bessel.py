import random
from fractions import Fraction
from pathlib import Path

import pytest

from bispectral import (DEL, DFORM, BesselIndex, DiffOp, Poly, UsageError,
                        bessel, bessel_op, bessel_poly, bessel_wave,
                        build_certificate, certify, indicial_poly, jsonio,
                        make_pair, verify_pair, wave_coeffs, wave_jet_at,
                        zero_exponent_basis)
from bispectral.bessel import (_conjugated_images, poly_at_bessel,
                               power_ladders, power_sum_parts)
from bispectral.weyl import graded_op
from tests_support import (horner, ladder_op, op_of_parts, op_power,
                           poly_at_operator, rand_index)


def test_normalization_enforced():
    with pytest.raises(UsageError):
        BesselIndex(2, (0, 0))
    with pytest.raises(UsageError):
        BesselIndex(2, (1,))
    BesselIndex.parse("2/3,1/3")  # fine


def test_indicial_reference_values():
    assert bessel_poly(BesselIndex.parse("0")) == DiffOp("x", "D", [0, 1])
    assert bessel_poly(BesselIndex.parse("0,1")) == \
        DiffOp("x", "D", [0, -1, 1])
    assert bessel_poly(BesselIndex.parse("2/3,1/3")) == \
        DiffOp("x", "D", [Fraction(2, 9), -1, 1])


def test_operator_reference_values():
    assert bessel_op(BesselIndex.parse("0,1")) == DiffOp("x", "del", [0, 0, 1])
    x2 = Poly("x", [0, 0, 1])
    from bispectral import RationalFunction
    assert bessel_op(BesselIndex.parse("2/3,1/3")) == \
        DiffOp("x", "del", [RationalFunction(Poly("x", [Fraction(2, 9)]), x2), 0, 1])
    assert bessel_op(BesselIndex.parse("-1,2")) == \
        DiffOp("x", "del", [RationalFunction(Poly("x", [-2]), x2), 0, 1])


def test_power_vector_and_operator_identity():
    bi = BesselIndex.parse("0,1")
    assert bi.power(2) == (0, 2, 1, 3)
    assert bi.power(1) == bi.beta
    single = BesselIndex.parse("0")
    assert single.power(3) == (0, 1, 2)
    assert op_power(bessel_op(single), 3) == ladder_op(single.power(3))


def test_power_identity_randomized():
    rng = random.Random(41)
    for _ in range(12):
        n = rng.randint(1, 3)
        d = rng.randint(1, 3)
        bi = rand_index(rng, n)
        assert op_power(bessel_op(bi), d) == ladder_op(bi.power(d))
        for j, ladder in enumerate(power_ladders(bi, d)):
            assert graded_op({-j * n: ladder}) == op_power(bessel_op(bi), j)


def test_power_sum_consistency():
    rng = random.Random(42)
    for _ in range(30):
        n = rng.randint(1, 4)
        d = rng.randint(1, 4)
        bi = rand_index(rng, n)
        total = sum(bi.power(d))
        assert total == Fraction(d * n * (d * n - 1), 2)


def _same_in_both_forms(a, b):
    """Structural equality of the normal forms in DEL and in DFORM."""
    for form in (DEL, DFORM):
        ca, cb = a.convert(form), b.convert(form)
        assert (ca.den, ca.nums) == (cb.den, cb.nums)


def _rand_poly(rng, degree, var="y"):
    return Poly(var, [Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3]))
                      for _ in range(degree)]
                + [Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 4]))])


def test_poly_at_bessel_matches_the_horner_oracle():
    rng = random.Random(1501)
    for n in (1, 2, 3):
        for degree in range(-1, 7):
            bi = rand_index(rng, n)
            # degree -1 is the zero polynomial, 0 a nonzero constant
            p = Poly.zero("y") if degree < 0 else _rand_poly(rng, degree)
            got = poly_at_bessel(bi, p)
            assert got.form == DFORM
            _same_in_both_forms(got, poly_at_operator(p, bessel_op(bi)))
    assert poly_at_bessel(rand_index(rng, 2), Poly.zero("y")).is_zero


def test_power_sum_matches_the_operator_powers():
    rng = random.Random(1502)
    for n in (1, 2, 3):
        for _ in range(4):
            bi = rand_index(rng, n)
            L = bessel_op(bi)
            terms = [Poly.zero("y") if rng.random() < 0.25
                     else _rand_poly(rng, rng.randint(0, 3))
                     for _ in range(rng.randint(1, 4))]
            want = DiffOp.zero("x", DFORM)
            for j, t in enumerate(terms):
                want = want + op_power(L, j) * DiffOp("x", DFORM, t.coeffs)
            _same_in_both_forms(graded_op(power_sum_parts(bi, terms)), want)
    # a trailing zero term does not change the sum
    bi = BesselIndex.parse("2/3,1/3")
    t = [Poly("y", [1, 2]), Poly("y", [0, 0, 3])]
    assert power_sum_parts(bi, t + [Poly.zero("y")]) == power_sum_parts(bi, t)
    assert power_sum_parts(bi, []) == {}


def test_graded_writer_follows_the_product_rule():
    # x^a p(D) . x^b q(D) = x^(a+b) p(D + b) q(D), against operator products
    rng = random.Random(1701)
    for _ in range(40):
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        p, q = (_rand_poly(rng, rng.randint(0, 3)) for _ in range(2))
        left, right = op_of_parts({a: p}), op_of_parts({b: q})
        assert graded_op({a: p}) == left
        assert graded_op({a: p, b + 9: q}) == left + op_of_parts({b + 9: q})
        _same_in_both_forms(graded_op({a + b: p.translate(b) * q}),
                            left * right)
    assert graded_op({}).is_zero and graded_op({2: Poly.zero("y")}).is_zero
    assert graded_op({3: Poly("y", [1])}, "z") == \
        op_of_parts({3: Poly("y", [1])}, "z")


def test_wave_coefficients_reference_values():
    assert wave_coeffs(BesselIndex.parse("0"), 5) == [0] * 5
    assert wave_coeffs(BesselIndex.parse("0,1"), 5) == [0] * 5
    assert wave_coeffs(BesselIndex.parse("2/3,1/3"), 1) == [Fraction(1, 9)]


def test_wave_coefficients_against_substitution_oracle():
    # substitute the truncated profile into the defining equation and
    # check the residual on the guaranteed window
    rng = random.Random(43)
    for _ in range(8):
        n = rng.randint(1, 3)
        bi = rand_index(rng, n)
        depth = 10
        prof = wave_jet_at(bi, 1, depth)
        img = prof.apply(bessel_poly(bi).convert("del"))
        rhs = prof.shift(n, 0)
        assert not (img - rhs).coeffs, bi


def test_conjugated_images_match_the_operator_product():
    # oracle: prod (D + z - b_i) as a DiffOp product, read off as before;
    # an extension of the wave recursion asks for the images from a start
    rng = random.Random(45)
    for n in (1, 2, 3, 5, 8):
        bi = rand_index(rng, n)
        acc = DiffOp("z", "D", (1,))
        for b in bi.beta:
            acc = acc * DiffOp("z", "D", (Poly("z", (-b, 1)), 1))
        depth = 6
        want = []
        for m in range(depth + 1):
            img = {}
            for j, p in enumerate(acc.nums):
                for t, c in enumerate(p.coeffs):
                    if c:
                        img[t - m] = img.get(t - m, 0) + Fraction(-m) ** j * c
            img[n - m] = img.get(n - m, 0) - 1
            want.append({k: v for k, v in img.items() if v})
        E, images = _conjugated_images(bi, depth)
        assert [{k: Fraction(v, E) for k, v in images[m].items()}
                for m in range(depth + 1)] == want, bi
        assert _conjugated_images(bi, depth, 4) == \
            (E, {m: images[m] for m in range(4, depth + 1)}), bi


def test_wave_coefficients_are_kept_per_instance():
    # the coefficients are kept on the instance and extended on demand:
    # any order of depths gives a fresh instance's answers, an answer is
    # the caller's own list, and the fields do not see what is kept
    rng = random.Random(46)
    for n in range(1, 6):
        for _ in range(3):
            bi = rand_index(rng, n)
            depths = [7, 30, 3, 30, 12, 0, 1]
            rng.shuffle(depths)
            for depth in depths:
                fresh = BesselIndex(bi.N, bi.beta)
                got = wave_coeffs(bi, depth)
                assert got == wave_coeffs(fresh, depth), (bi, depth)
                got[:] = [Fraction(7)] * (len(got) + 1)
            assert wave_coeffs(bi, 30) == \
                wave_coeffs(BesselIndex(bi.N, bi.beta), 30)
            fresh = BesselIndex(bi.N, bi.beta)
            assert bi == fresh and hash(bi) == hash(fresh)
            assert repr(bi) == repr(fresh)
            assert bi.to_json() == fresh.to_json()


N3_POINT_SPEC = {"kind": "kernel-spec",
                 "beta": {"N": 3, "beta": ["1/3", "2/3", "2"]},
                 "at_zero": [],
                 "at_points": [{"lambda": "2", "a": ["1", "1/2"]}]}


def _spy_wave_steps(monkeypatch):
    """The k of every a_k the recursion computes, in order."""
    ks = []
    step = bessel._next_wave_coeff
    monkeypatch.setattr(bessel, "_next_wave_coeff",
                        lambda a, images, N: ks.append(len(a))
                        or step(a, images, N))
    return ks


def test_each_wave_coefficient_is_computed_once_per_pipeline(monkeypatch):
    # the ansatz rounds, both certify calls and verify_pair share the
    # spec's weights, so each a_k is computed once, up to the deepest K;
    # a second load of the same document starts again, so nothing is
    # kept past the instance
    ks = _spy_wave_steps(monkeypatch)
    runs = []
    for _ in range(2):
        ks.clear()
        pair = make_pair(build_certificate(jsonio.load_spec(N3_POINT_SPEC)))
        verify_pair(pair, 16)
        runs.append(list(ks))
    assert runs[0] == list(range(1, len(runs[0]) + 1))
    assert len(runs[0]) >= 16   # at least verify_pair's depth
    assert runs[1] == runs[0]


def test_each_wave_coefficient_is_computed_once_on_a_stored_pair(monkeypatch):
    # the bispectral verify path: load, certify at K, verify_pair at K
    ks = _spy_wave_steps(monkeypatch)
    root = Path(__file__).resolve().parents[1]
    K = 32
    pair = jsonio.load_pair(jsonio.read(
        root / "perfbench" / "data" / "pairs" / "dg-even.json"))
    c = pair.certificate
    certify(c.beta, c.P, c.Q, c.f, c.g, spec=c.spec, depth=K)
    verify_pair(pair, K)
    assert ks == list(range(1, K + 1))


def test_wave_coefficients_closed_recursion_order_two():
    rng = random.Random(44)
    for _ in range(10):
        bi = rand_index(rng, 2)
        p = indicial_poly(bi.beta)
        a = wave_coeffs(bi, 8)
        prev = Fraction(1)
        for k, ak in enumerate(a, start=1):
            assert ak == horner(p, Fraction(1 - k)) * prev / (2 * k)
            prev = ak


def test_multiplicity():
    assert BesselIndex.parse("0,1").multiplicity(2) == 1
    assert BesselIndex.parse("1/2,1/2").multiplicity(Fraction(1, 2)) == 2
    assert BesselIndex.parse("-1,2").multiplicity(3) == 1
    assert BesselIndex.parse("-1,2").multiplicity(Fraction(1, 2)) == 0
    # rungs: {i: k} for every gamma = b_i + k N with k >= 0
    bi = BesselIndex.parse("5/2,-3/2")
    assert bi.rungs(Fraction(5, 2)) == {0: 0, 1: 2}     # two rungs at one
    assert bi.multiplicity(Fraction(5, 2)) == 2
    assert BesselIndex.parse("0,1").rungs(2) == {0: 1}   # 1/2 step misses
    assert bi.rungs(Fraction(-3, 2)) == {1: 0}           # step -2 is below
    assert bi.rungs(Fraction(-7, 2)) == {}


def test_zero_exponent_basis():
    assert [q.to_str() for q in zero_exponent_basis(BesselIndex.parse("0,1"), 1)] \
        == ["1", "x"]
    got = [q.to_str() for q in zero_exponent_basis(BesselIndex.parse("0,1"), 2)]
    assert got == ["1", "x", "x^2", "x^3"]
    logs = zero_exponent_basis(BesselIndex.parse("1/2,1/2"), 1)
    assert [q.to_str() for q in logs] == ["x^1/2", "x^1/2*ln(x)"]


def test_wave_series_depth_zero():
    psi = bessel_wave(BesselIndex.parse("0"), 0)
    assert psi.coeff(0, 0) == 1
