import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from bispectral import (BesselIndex, DiffOp, ExpSeries, Poly,
                        QuasiPolynomial, RationalFunction, TruncationError,
                        UnsupportedInputError, UsageError, WaveSeries,
                        bessel_op, bessel_wave, jsonio, wave_jet_at)
from tests_support import (del_image, del_step, mult, quasi_theta,
                           rand_laurent_op, theta_chain, x_power)

ROOT = Path(__file__).resolve().parents[1]


def test_theta_action_on_log_monomial():
    q = QuasiPolynomial.monomial(Fraction(1, 2), 1)
    want = QuasiPolynomial([((Fraction(1, 2), 1), Fraction(1, 2)),
                            ((Fraction(1, 2), 0), 1)])
    assert quasi_theta(q) == want
    assert q.apply(DiffOp("x", "D", (0, 1))) == want


def test_term_keys_are_exponent_and_log_power():
    # a third entry was dropped and a single entry raised IndexError
    for key in [(Fraction(1, 2), 1, 7), (Fraction(1, 2),)]:
        with pytest.raises(UsageError, match=r"term key is \(exponent, log "
                                             r"power\)"):
            QuasiPolynomial([(key, 1)])


def test_kernel_elements_annihilated():
    # second derivative kills x
    dd = DiffOp("x", "del", [0, 0, 1])
    assert QuasiPolynomial.monomial(1).apply(dd).is_zero
    # the half-integer double weight kills x^{1/2} ln x
    bi = BesselIndex.parse("1/2,1/2")
    q = QuasiPolynomial.monomial(Fraction(1, 2), 1)
    assert q.apply(bessel_op(bi)).is_zero


def test_quasi_apply_requires_laurent():
    bad = DiffOp("x", "del",
                 [RationalFunction(Poly("x", [1]), Poly("x", [1, 1]))])
    with pytest.raises(UnsupportedInputError):
        QuasiPolynomial.monomial(1).apply(bad)


def _laurent_image(q, op):
    """sum_k a_k D^k q read per coefficient: each reduced a_k of the DFORM
    view must be num / x^m, and acts by the shifts (t - m, num[t])."""
    image = QuasiPolynomial()
    power = q
    for k, rf in enumerate(op.convert("D").coeffs):
        if k:
            power = quasi_theta(power)
        m = rf.den.degree
        if rf.den != Poly.monomial("x", m):
            raise UnsupportedInputError(f"{rf} has a pole away from 0")
        for t, c in enumerate(rf.num.coeffs):
            if c:
                image = image + QuasiPolynomial(
                    {(g + t - m, j): c * v
                     for (g, j), v in power.terms.items()})
    return image


def test_quasi_apply_matches_the_per_coefficient_laurent_oracle():
    rng = random.Random(40)
    forms, spreads, logs, dens = set(), set(), set(), set()
    for _ in range(80):
        form = rng.choice(["del", "D"])
        coeffs = []
        for _ in range(rng.randint(1, 5)):
            num = Poly("x", [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                             for _ in range(rng.randint(1, 3))])
            coeffs.append(RationalFunction(
                num, Poly.monomial("x", rng.randint(0, 3))))
        op = DiffOp("x", form, coeffs)
        if op.is_zero:
            continue
        q = QuasiPolynomial([((Fraction(rng.randint(-4, 4),
                                        rng.choice([1, 2, 3])),
                               rng.randint(0, 3)),
                              Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
                             for _ in range(rng.randint(1, 4))])
        assert q.apply(op) == _laurent_image(q, op)
        forms.add(form)
        logs.update(j for _, j in q.terms)
        dens.update(g.denominator for g, _ in q.terms)
        spreads.add(len({c.den.degree for c in op.convert("D").coeffs
                         if not c.is_zero}))
        # one coefficient with a pole away from 0 makes the operator
        # unsupported, whatever its other coefficients
        k = rng.randrange(len(coeffs))
        coeffs[k] = RationalFunction(Poly.const("x", 1),
                                     Poly("x", [-rng.randint(1, 3), 1]))
        bad = DiffOp("x", form, coeffs)
        for route in (q.apply, lambda b: _laurent_image(q, b)):
            with pytest.raises(UnsupportedInputError):
                route(bad)
    assert forms == {"del", "D"} and max(spreads) > 1
    assert logs == {0, 1, 2, 3} and dens == {1, 2, 3}


def test_quasi_apply_builds_one_quasi_polynomial(monkeypatch):
    q = QuasiPolynomial([((Fraction(-1, 3), 3), 2), ((Fraction(1, 2), 1), -1),
                         ((Fraction(5), 0), 4)])
    built = []
    init = QuasiPolynomial.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(QuasiPolynomial, "__init__", spy)
    for order in (0, 1, 3, 6):
        op = DiffOp("x", "D",
                    [Poly("x", [k + 1, -k]) for k in range(order + 1)])
        built.clear()
        image = q.apply(op)
        assert built == [image]


def test_module_action_randomized():
    rng = random.Random(31)

    def rand_quasi():
        terms = []
        for _ in range(rng.randint(1, 4)):
            g = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
            terms.append(((g, rng.randint(0, 2)), Fraction(rng.randint(-5, 5))))
        return QuasiPolynomial(terms)

    def rand_laurent_op():
        coeffs = []
        for _ in range(rng.randint(1, 3)):
            num = Poly("x", [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
            coeffs.append(RationalFunction(num, Poly.monomial("x", rng.randint(0, 2))))
        return DiffOp("x", rng.choice(["del", "D"]), coeffs)

    checked = 0
    while checked < 220:
        a, b = rand_laurent_op(), rand_laurent_op()
        if a.is_zero or b.is_zero:
            continue
        q = rand_quasi()
        checked += 1
        assert q.apply(a * b) == q.apply(b).apply(a)


def test_wave_series_basic_action():
    one = WaveSeries({(0, 0): Fraction(1)}, (-6, 0, -6, 0))
    dx = DiffOp("x", "del", (0, 1))
    img = one.apply(dx)
    assert img.coeff(0, 1) == 1 and len(img.coeffs) == 1


def test_rank_one_eigen_pair_on_series():
    # (d^2 - 2 x^-2) e^{xz}(1 - 1/(xz)) = z^2 e^{xz}(1 - 1/(xz))
    psi = WaveSeries({(0, 0): Fraction(1), (-1, -1): Fraction(-1)},
                     (-8, 0, -8, 0))
    op = DiffOp("x", "del",
                [RationalFunction(Poly("x", [-2]), Poly("x", [0, 0, 1])), 0, 1])
    lhs = psi.apply(op)
    rhs = psi.shift(0, 2)
    assert not (lhs - rhs).coeffs


def test_bessel_wave_eigen_identity_random_weights():
    rng = random.Random(32)
    for _ in range(6):
        n = rng.randint(1, 4)
        entries = [Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))
                   for _ in range(n - 1)]
        entries.append(Fraction(n * (n - 1), 2) - sum(entries))
        bi = BesselIndex(n, tuple(entries))
        depth = 12
        psi = bessel_wave(bi, depth)
        img = psi.apply(bessel_op(bi))
        rhs = psi.mul_poly(Poly.monomial("z", n))
        assert not (img - rhs).coeffs


def _transposed(series):
    """The series with x and z exchanged."""
    xlo, xhi, zlo, zhi = series.box
    return WaveSeries({(j, i): v for (i, j), v in series.coeffs.items()},
                      (zlo, zhi, xlo, xhi))


def test_spectral_side_action_matches_homogeneity():
    # the eigenfunction depends on x and z only through their product, so
    # it is symmetric, and the degree-weighted derivatives in either
    # variable coincide: D_z psi is D_x of the transposed series,
    # transposed back
    bi = BesselIndex.parse("2/3,1/3")
    psi = bessel_wave(bi, 10)
    assert _transposed(psi) == psi
    theta = DiffOp("x", "D", (0, 1))
    dz = _transposed(_transposed(psi).apply(theta))
    dx = psi.apply(theta)
    assert not (dz - dx).coeffs


def test_action_commutes_with_other_variable_scalars():
    bi = BesselIndex.parse("2/3,1/3")
    psi = bessel_wave(bi, 10)
    p_z = Poly("z", [3, 0, -1])
    op = bessel_op(bi)
    a = psi.mul_poly(p_z).apply(op)
    b = psi.apply(op).mul_poly(p_z)
    assert not (a - b).coeffs


def test_window_bookkeeping_is_conservative():
    bi = BesselIndex.parse("2/3,1/3")
    shallow = bessel_wave(bi, 6).apply(bessel_op(bi))
    deep = bessel_wave(bi, 14).apply(bessel_op(bi))
    xlo, xhi, zlo, zhi = shallow.box
    for i in range(xlo, xhi + 1):
        for j in range(zlo, zhi + 1):
            assert shallow.coeff(i, j) == deep.coeff(i, j)


def test_empty_window_rejected():
    with pytest.raises(TruncationError):
        WaveSeries({}, (1, 0, 0, 0))
    with pytest.raises(TruncationError):
        WaveSeries({}, (0, 0, 2, 1))


def test_windows_translate_under_application():
    # the x^-3 piece lives on (-11,-3) but the derivative piece on (-8,0);
    # only degrees every piece can see are guaranteed
    psi = bessel_wave(BesselIndex.parse("0,1"), 8)
    img = psi.apply(DiffOp("x", "del", [x_power("x", -3), 1]))
    assert img.box == (-8, 0, -7, 1)


def test_rational_coefficient_action_matches_cleared_identity():
    # multiplying by q(x) then by 1/q(x) is the identity inside the window
    psi = bessel_wave(BesselIndex.parse("0,1"), 10)
    q = Poly("x", [Fraction(-5), 0, 1])
    rf = RationalFunction(Poly.const("x", 1), q)
    back = psi.apply(mult("x", RationalFunction(q))).apply(mult("x", rf))
    xlo, xhi, zlo, zhi = back.box
    for i in range(xlo, xhi + 1):
        for j in range(zlo, zhi + 1):
            assert back.coeff(i, j) == psi.coeff(i, j)


def _laurent_coefficients(rng, var, scalar):
    """num / x^m for m = 0..3, num with a nonzero constant term."""
    for m in range(4):
        for _ in range(5):
            num = [scalar() for _ in range(rng.randint(1, 4))]
            while not num[0]:
                num[0] = scalar()
            rf = RationalFunction(Poly(var, num), Poly.monomial(var, m))
            assert rf.den == Poly.monomial(var, m)
            yield rf


def _shift_sum(series, p, axis):
    """series times p(x) (axis 0) or p(z) (axis 1) as the pairwise sum of
    its shifted, scaled copies."""
    out = None
    for k, c in enumerate(p.coeffs):
        if c:
            piece = series.shift(*((k, 0) if axis == 0 else (0, k)), c)
            out = piece if out is None else out + piece
    return out


def test_wave_series_laurent_product_matches_inverse_expansion():
    rng = random.Random(33)
    psi = WaveSeries({(i, j): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                      for i in range(-6, 1) for j in range(-5, 2)},
                     (-6, 0, -5, 1))

    def scalar():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 2))

    for rf in _laurent_coefficients(rng, "x", scalar):
        want = _shift_sum(psi, rf.num, 0).shift(-rf.den.degree, 0)
        got = psi.apply(mult("x", rf))
        assert got.box == want.box and got.coeffs == want.coeffs
    # multiplication by p(z) is the same sum of shifts along z
    for rf in _laurent_coefficients(rng, "z", scalar):
        want = _shift_sum(psi, rf.num, 1)
        got = psi.mul_poly(rf.num)
        assert got.box == want.box and got.coeffs == want.coeffs
        assert got == want


def test_exp_series_laurent_product_matches_inverse_expansion():
    rng = random.Random(34)
    rate = Fraction(-3, 2)

    def scalar():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 2))

    # a rate with a denominator: each DEL step lies over twice the last den
    series = ExpSeries(rate, {d: scalar() for d in range(-7, 1)}, (-7, 0))
    for rf in _laurent_coefficients(rng, "x", scalar):
        want = _shift_sum(series, rf.num, 0).shift(-rf.den.degree, 0)
        got = series.apply(mult("x", rf))
        assert got.box == want.box and got.coeffs == want.coeffs
        assert got == want


def test_exp_series_profile_identity():
    bi = BesselIndex.parse("2/3,1/3")
    prof = wave_jet_at(bi, 1, 10)
    img = prof.apply(DiffOp("x", "D", [Fraction(-2, 3), 1]).convert("del") *
                     DiffOp("x", "D", [Fraction(-1, 3), 1]).convert("del"))
    rhs = prof.shift(2, 0)
    diff = img - rhs
    assert not diff.coeffs


def test_exp_series_refuses_mixed_points():
    series = ExpSeries(Fraction(1, 2), {0: 1}, (-2, 0))
    other = ExpSeries(2, {0: 1}, (-2, 0))
    assert series != other
    with pytest.raises(UsageError):
        series + other
    assert series == ExpSeries(Fraction(2, 4), {0: 2}, (-2, 0)).shift(
        0, 0, Fraction(1, 2))
    with pytest.raises(AttributeError):
        series.rate = 2
    with pytest.raises(UsageError):
        series.apply(DiffOp("z", "del", (0, 1)))
    # e^{xz} and e^{2x} coefficients never mix, whichever side comes first
    bi = BesselIndex.parse("2/3,1/3")
    psi, profile = bessel_wave(bi, 4), wave_jet_at(bi, 2, 4)
    assert psi != profile and profile != psi
    for left, right in ((psi, profile), (profile, psi)):
        with pytest.raises(UsageError):
            left + right
        with pytest.raises(UsageError):
            left - right


def test_exp_series_refuses_multiplication_by_z():
    # a profile has one row, z-power 0: multiplying by p(z) would move it
    # off that row, and a DEL step after it would mix rows
    series = ExpSeries(2, {0: 1, -1: 3}, (-4, 0))
    with pytest.raises(UsageError):
        series.mul_poly(Poly("z", [0, 1]))
    # the DEL step (2 + d/dx) keeps every key on the one row
    step = series.apply(DiffOp("x", "del", (0, 1)))
    assert step.box == (-4, 0, 0, 0)
    assert step.coeffs == {(0, 0): 2, (-1, 0): 6, (-2, 0): -3}


def test_wave_series_never_equals_an_exp_series():
    # the same numerators on the same window, under the prefactors e^{xz}
    # and e^{5x}
    wave = WaveSeries({(0, 0): 1, (-1, 0): 2}, (-1, 0, 0, 0))
    exp = ExpSeries(5, {0: 1, -1: 2}, (-1, 0))
    assert (wave.nums, wave.den, wave.box) == (exp.nums, exp.den, exp.box)
    assert not wave == exp and not exp == wave
    assert wave != exp and exp != wave


def test_point_jets_of_plain_exponential():
    bi = BesselIndex.parse("0")
    jet = wave_jet_at(bi, Fraction(2), 6)
    assert jet.rate == 2
    assert list(jet.coeffs.items()) == [((0, 0), Fraction(1))]
    bi2 = BesselIndex.parse("0,1")
    for lam in (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-3, 2)):
        # D_z e^{xz} at z = lam is lam x e^{lam x}
        first = wave_jet_at(bi2, lam, 6).apply(DiffOp("x", "D", (0, 1)))
        assert list(first.coeffs.items()) == [((1, 0), lam)]


def test_point_jet_reference_expansion():
    bi = BesselIndex.parse("2/3,1/3")
    s = wave_jet_at(bi, Fraction(1), 2)
    assert s.coeff(0, 0) == 1
    assert s.coeff(-1, 0) == Fraction(1, 9)
    # a jet condition is a(D) applied to the one profile; the chain of
    # D-images summed with the weights a_k gives the same series and window
    rng = random.Random(21)
    for weights in ("2/3,1/3", "1/3,2/3,2"):
        bi = BesselIndex.parse(weights)
        for lam in (Fraction(2), Fraction(1, 2), Fraction(-3, 2)):
            profile = wave_jet_at(bi, lam, 12)
            for order in range(4):
                a = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                          for _ in range(order)) + (Fraction(1),)
                got = profile.apply(DiffOp("x", "D", a))
                want = theta_chain(profile, a)
                assert got == want and got.box == want.box
                assert got.box == (-12 + order, order, 0, 0)


# ---------------------------------------------------------------------------
# oracle for the series kernel: the truncated inverse expansion of 1/den at
# infinity, convolved with each window row (O(width^2) per row)
# ---------------------------------------------------------------------------


def _inverse_expansion(den: Poly, count: int):
    """First `count` coefficients u_s of 1/den = sum_s u_s x^{-deg(den)-s}."""
    d = den.degree
    lead = den.leading
    out = []
    for s in range(count):
        acc = Fraction(1) if s == 0 else Fraction(0)
        for t in range(s):
            # coefficient of x^{d-(s-t)} in den, times u_t
            acc -= den.coeff(d - (s - t)) * out[t]
        out.append(acc / lead)
    return out


def _reference_wave_division(series, den):
    d = den.degree
    lo, hi, zlo, zhi = series.box
    inv = _inverse_expansion(den, hi - lo + 1)
    out = {}
    for j in range(zlo, zhi + 1):
        for i in range(lo - d, hi - d + 1):
            acc = Fraction(0)
            for s, u in enumerate(inv):
                src = i + d + s
                if src > hi:
                    break
                c = series.coeffs.get((src, j))
                if c is not None:
                    acc = acc + u * c
            if acc:
                out[(i, j)] = acc
    return WaveSeries(out, (lo - d, hi - d, zlo, zhi))


def _reference_exp_division(series, den):
    d = den.degree
    lo, hi = series.box[:2]
    inv = _inverse_expansion(den, hi - lo + 1)
    out = {}
    for i in range(lo - d, hi - d + 1):
        acc = None
        for s, u in enumerate(inv):
            src = i + d + s
            if src > hi:
                break
            c = series.coeffs.get((src, 0))
            if c is not None:
                acc = u * c if acc is None else acc + u * c
        if acc is not None and acc:
            out[i] = acc
    return ExpSeries(series.rate, out, (lo - d, hi - d))


def _divided(series, den):
    """series times 1/den(x) for any nonzero den: the library's one
    division, ``_image`` on the monic den, after scaling by 1/lead."""
    return series.shift(0, 0, 1 / den.leading)._image(
        den.monic(), [Poly.const("x", 1)])


def _denominators_away_from_zero(rng, var, scalar):
    """Degree 1-6 denominators with a root away from 0: non-monic, x * p(x)
    with p(0) != 0, and lead * (x - r)^deg with a repeated root r != 0."""

    def nonzero():
        c = scalar()
        while not c:
            c = scalar()
        return c

    for deg in range(1, 7):
        cs = [scalar() for _ in range(deg)] + [nonzero()]
        while cs[-1] == 1:
            cs[-1] = nonzero()
        cs[0] = nonzero()
        yield Poly(var, cs)
        if deg >= 2:
            p = Poly(var, [nonzero()] + [scalar() for _ in range(deg - 1)])
            if p.degree < deg - 1:
                p = p + Poly.monomial(var, deg - 1, nonzero())
            yield Poly.monomial(var, 1) * p
        yield (Poly(var, [-nonzero(), 1]) ** deg).scale(nonzero())


def _random_wave(rng, box):
    """Random entries with gaps, including whole missing rows and columns."""
    xlo, xhi, zlo, zhi = box
    skip_i, skip_j = rng.randint(xlo, xhi), rng.randint(zlo, zhi)
    return WaveSeries({(i, j): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                       for i in range(xlo, xhi + 1) for j in range(zlo, zhi + 1)
                       if i != skip_i and j != skip_j and rng.random() < 0.8},
                      box)


def test_wave_division_matches_inverse_expansion():
    rng = random.Random(35)

    def scalar():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    checked = 0
    for box in ((-7, 0, -5, 1), (-3, 4, -6, -1)):
        psi = _random_wave(rng, box)
        for den in _denominators_away_from_zero(rng, "x", scalar):
            assert not RationalFunction(Poly.const("x", 1), den).is_laurent
            want = _reference_wave_division(psi, den)
            got = _divided(psi, den)
            assert got.box == want.box and got.coeffs == want.coeffs
            checked += 1
    assert checked == 2 * 17


def test_exp_division_matches_inverse_expansion():
    rng = random.Random(36)
    rate = Fraction(-3, 2)

    def scalar():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 2))

    for lo, hi in ((-8, 0), (-2, 5)):
        series = ExpSeries(rate, {d: scalar() for d in range(lo, hi + 1)
                                  if rng.random() < 0.8}, (lo, hi))
        for den in _denominators_away_from_zero(rng, "x", scalar):
            want = _reference_exp_division(series, den)
            got = _divided(series, den)
            assert got.box == want.box and got.coeffs == want.coeffs
            assert got == want


def _mixed_op(rng, var, order):
    """An operator whose coefficients mix num / var^m and num / den."""
    coeffs = []
    for k in range(order + 1):
        num = Poly(var, [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                         for _ in range(rng.randint(1, 3))])
        if num.is_zero:
            num = Poly.const(var, 1)
        if k % 2:
            den = Poly(var, [rng.choice([-2, -1, 1, 2]),
                             rng.randint(-2, 2), rng.choice([1, 3])])
        else:
            den = Poly.monomial(var, rng.randint(0, 3))
        coeffs.append(RationalFunction(num, den))
    return DiffOp(var, "del", coeffs)


def test_wave_apply_is_the_pairwise_sum_of_its_pieces():
    rng = random.Random(37)
    piece_boxes = set()
    for _ in range(12):
        psi = _random_wave(rng, (-6, 0, -6, 0))
        op = _mixed_op(rng, "x", rng.randint(1, 3))
        assert any(c.is_laurent for c in op.coeffs)
        assert not all(c.is_laurent for c in op.coeffs)
        power, want, boxes = psi, None, set()
        for k, c in enumerate(op.coeffs):
            if k:
                xlo, xhi, zlo, zhi = power.box
                deriv = WaveSeries({(i - 1, j): i * v for (i, j), v
                                    in power.coeffs.items() if i},
                                   (xlo - 1, xhi - 1, zlo, zhi))
                power = power.shift(0, 1) + deriv
            piece = power.apply(mult("x", c))
            boxes.add(piece.box)
            want = piece if want is None else want + piece
        got = psi.apply(op)
        assert got.box == want.box and got.coeffs == want.coeffs
        piece_boxes.add(len(boxes))
    assert max(piece_boxes) > 1


def test_exp_apply_is_the_pairwise_sum_of_its_pieces():
    rng = random.Random(38)
    rate = Fraction(-3, 2)

    def scalar():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 2))

    piece_boxes = set()
    for _ in range(6):
        series = ExpSeries(rate, {d: scalar() for d in range(-7, 1)},
                           (-7, 0))
        op = _mixed_op(rng, "x", rng.randint(1, 3))
        power, want, boxes = series, None, set()
        for k, c in enumerate(op.coeffs):
            if k:
                lo, hi = power.box[:2]
                deriv = ExpSeries(rate, {d - 1: d * v for (d, _), v
                                         in power.coeffs.items() if d},
                                  (lo - 1, hi - 1))
                power = power.shift(0, 0, rate) + deriv
            piece = power.apply(mult("x", c))
            boxes.add(piece.box)
            want = piece if want is None else want + piece
        got = series.apply(op)
        assert got.box == want.box and got.coeffs == want.coeffs
        piece_boxes.add(len(boxes))
    assert max(piece_boxes) > 1


def _sum_pieces(pieces):
    """Sum of (coefficients, box) pieces inside the max-folded box."""
    out, box = {}, None
    for coeffs, piece_box in pieces:
        box = piece_box if box is None else tuple(map(max, box, piece_box))
        for k, v in coeffs.items():
            out[k] = out.get(k, 0) + v
    alo, ahi, olo, ohi = box
    return {(a, o): v for (a, o), v in out.items()
            if v and alo <= a <= ahi and olo <= o <= ohi}, box


def _fraction_image(psi, op, rate=None):
    """sum_k a_k DEL^k psi over Fractions read from the coeffs view; the
    same boxes as the library, and the same division oracle as above.  DEL
    is (z + d/dx), or (rate + d/dx) for an ExpSeries."""
    power, box = dict(psi.coeffs), psi.box
    out = []
    for k, rf in enumerate(op.convert("del").coeffs):
        if k:
            xlo, xhi, zlo, zhi = box
            step = (({(i, j + 1): v for (i, j), v in power.items()},
                     (xlo, xhi, zlo + 1, zhi + 1)) if rate is None else
                    ({key: rate * v for key, v in power.items()}, box))
            power, box = _sum_pieces([
                step, ({(i - 1, j): i * v for (i, j), v in power.items()},
                       (xlo - 1, xhi - 1, zlo, zhi))])
        if rf.is_zero:
            continue
        xlo, xhi, zlo, zhi = box
        piece, pbox = _sum_pieces(
            [({(i + m, j): c * v for (i, j), v in power.items()},
              (xlo + m, xhi + m, zlo, zhi))
             for m, c in enumerate(rf.num.coeffs) if c])
        d = rf.den.degree
        if rf.is_laurent:
            piece = {(i - d, j): v for (i, j), v in piece.items()}
            pbox = (pbox[0] - d, pbox[1] - d) + pbox[2:]
        else:
            divided = _reference_wave_division(WaveSeries(piece, pbox),
                                               rf.den)
            piece, pbox = divided.coeffs, divided.box
        out.append((piece, pbox))
    return _sum_pieces(out)


def test_wave_series_integer_form_randomized():
    rng = random.Random(39)

    def scalar():
        return Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))

    clearing = set()
    # one nonzero per row, as bessel_wave; and empty rows and columns at
    # both ends of the box
    diagonal = WaveSeries({(-m, -m): scalar() for m in range(7)},
                          (-6, 0, -6, 0))
    gappy = WaveSeries({(i, j): scalar() for i in (-5, -2, 0)
                        for j in (-1, 1)}, (-5, 0, -4, 1))
    # (2 + x^3) / x^2 + 3 / x DEL: the shifts -2 and 1 of the first piece,
    # and the first DEL power's lift in z, leave part of every piece below
    # the folded box
    below = DiffOp("x", "del", [
        RationalFunction(Poly("x", [2, 0, 0, 1]), Poly.monomial("x", 2)),
        RationalFunction(Poly.const("x", 3), Poly.monomial("x", 1))])
    for n in range(10):
        psi = (_random_wave(rng, (-5, 0, -4, 1)) if n < 8
               else (diagonal, gappy)[n - 8])
        ops = [_mixed_op(rng, "x", rng.randint(1, 2)),
               rand_laurent_op(rng, "x")]
        if n >= 8:
            ops.append(below)
            lifted = tuple(end + 1 for end in psi.box)
            assert psi.apply(below).box == lifted
        for op in ops:
            got = psi.apply(op)
            for series in (psi, got):
                assert all(type(v) is int for v in series.nums.values())
                assert type(series.den) is int and series.den > 0
            want, box = _fraction_image(psi, op)
            assert got.box == box and got.coeffs == want
            # equal values over different denominators compare equal
            assert got == WaveSeries(want, box)
            assert got.shift(0, 0, 3).shift(0, 0, Fraction(1, 3)) == got
            assert got + got == got.shift(0, 0, 2)
            corner = WaveSeries({(box[0], box[2]): 1}, box)
            assert got + corner != got and (got - got).is_zero
            # E clears the monic denominators with a root away from 0
            poles = [rf.den for rf in op.convert("del").coeffs
                     if not rf.is_laurent]
            if poles:
                clearing.add(math.lcm(*(c.denominator for q in poles
                                        for c in q.coeffs)) > 1)
    assert clearing == {False, True}
    # a rate with a denominator: each DEL step lies over twice the last den
    rate = Fraction(-3, 2)
    for _ in range(4):
        series = ExpSeries(rate, {d: scalar() for d in range(-7, 1)
                                  if rng.random() < 0.8}, (-7, 0))
        for op in (_mixed_op(rng, "x", rng.randint(1, 2)),
                   rand_laurent_op(rng, "x")):
            got = series.apply(op)
            assert all(type(v) is int for v in got.nums.values())
            want, box = _fraction_image(series, op, rate)
            assert got.box == box and got.coeffs == want


# ---------------------------------------------------------------------------
# the DEL step on dense lines against the sparse-dict step of tests_support
# ---------------------------------------------------------------------------


def _scattered_wave(rng, box):
    """Entries on a few diagonals i - j with empty diagonals between them,
    and one entry on each of the four edges of the box."""
    xlo, xhi, zlo, zhi = box

    def scalar():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                        rng.randint(1, 4))

    entries = {}
    for a in rng.sample(range(xlo - zhi, xhi - zlo + 1), 3):
        for i in range(max(xlo, zlo + a), min(xhi, zhi + a) + 1):
            if rng.random() < 0.7:
                entries[(i, i - a)] = scalar()
    for edge in ((xlo, rng.randint(zlo, zhi)), (xhi, rng.randint(zlo, zhi)),
                 (rng.randint(xlo, xhi), zlo), (rng.randint(xlo, xhi), zhi)):
        entries[edge] = scalar()
    return WaveSeries(entries, box)


def test_del_powers_match_the_sparse_dict_step():
    # DEL^k through apply is the k-th power with D = 1: its numerators,
    # den and box are those of k sparse-dict steps.  A WaveSeries line
    # keeps its span, since DEL and the box both move it by one; the rate
    # 0 lowers every entry of an ExpSeries row until truncation empties it
    rng = random.Random(41)
    series, gaps, emptied = [], 0, 0
    for _ in range(8):
        xlo, zlo = rng.randint(-7, 2), rng.randint(-7, 2)
        box = (xlo, xlo + rng.randint(2, 7), zlo, zlo + rng.randint(2, 7))
        wave = _scattered_wave(rng, box)
        diagonals = {i - j for i, j in wave.nums}
        gaps += max(diagonals) - min(diagonals) + 1 > len(diagonals)
        series.append(wave)
    for q in (1, 2, 3):
        for p in (-5, -1, 0, 2):
            lo = rng.randint(-8, 1)
            hi = lo + rng.randint(0, 7)
            series.append(ExpSeries(
                Fraction(p, q),
                {d: Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                 for d in range(lo, hi + 1) if rng.random() < 0.8} or {hi: 1},
                (lo, hi)))
    for s in series:
        power = s
        for k in range(13):
            if k:
                power = del_step(power)
            got = s.apply(DiffOp("x", "del", (0,) * k + (1,)))
            assert type(got) is type(power)
            assert (got.nums, got.den, got.box) == (
                power.nums, power.den, power.box)
        emptied += power.is_zero and not s.is_zero
        laurent = rand_laurent_op(rng, "x")
        while laurent.is_zero:
            laurent = rand_laurent_op(rng, "x")
        for op in (_mixed_op(rng, "x", rng.randint(1, 4)), laurent):
            got, want = s.apply(op), del_image(s, op)
            assert got == want and got.box == want.box
    assert gaps and emptied == 3


@pytest.mark.parametrize("name", ["dg-even", "banded-d2"])
def test_verify_pair_images_match_the_sparse_dict_step(name):
    # the four images verify_pair takes: S = P psi and L S, and T = P_b psi
    # and Lambda T after relabelling Lambda to x
    pair = jsonio.load_pair(jsonio.read(
        ROOT / "perfbench" / "data" / "pairs" / f"{name}.json"))
    for depth in (8, 20, 33):
        psi = bessel_wave(pair.beta, depth)
        for left, op in ((pair.certificate.P, pair.L),
                         (pair.P_b, pair.Lambda.relabel("x"))):
            image = psi.apply(left)
            want = del_image(psi, left)
            assert image == want and image.box == want.box
            outer = image.apply(op)
            want = del_image(image, op)
            assert outer == want and outer.box == want.box


def test_apply_with_order_above_the_window_width():
    # an operator of order 6 on windows of width 3: on the rate-0
    # ExpSeries the DEL powers past the width come out empty, and on the
    # WaveSeries, whose window is two z-powers high, every power below the
    # top two falls below the final box, which still folds every power's
    # box
    rng = random.Random(42)
    narrow = [(WaveSeries({(0, 0): 1, (-1, -1): Fraction(-3, 2), (-2, 0): 5,
                           (0, -1): Fraction(2, 3)}, (-2, 0, -1, 0)), None)]
    for rate in (Fraction(-3, 2), Fraction(0)):
        narrow.append((ExpSeries(rate, {0: 1, -1: Fraction(1, 3), -2: -2},
                                 (-2, 0)), rate))
    dens = (Poly.monomial("x", 2), Poly("x", [-2, 1]) * Poly.monomial("x", 1))
    for series, rate in narrow:
        width = series.box[1] - series.box[0] + 1
        order = width + 3
        top = series.apply(DiffOp("x", "del", (0,) * order + (1,)))
        assert top.is_zero == (rate == 0)
        for den in dens:
            coeffs = [RationalFunction(
                Poly("x", [Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                           for _ in range(rng.randint(1, 3))]), den)
                for _ in range(order)]
            coeffs.append(RationalFunction(Poly("x", [1, 1]), den))
            op = DiffOp("x", "del", coeffs)
            got = series.apply(op)
            want, box = _fraction_image(series, op, rate)
            assert got.box == box and got.coeffs == want
        with pytest.raises(UsageError):
            series.apply(DiffOp.zero("x", "del"))
