import functools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from bispectral import (AtPointGroup, AtZeroGroup, BesselIndex,
                        BispectralError, CertificationError, DiffOp,
                        KernelSpec, Poly, RationalFunction, SpecInvalidError,
                        UnsupportedInputError, UsageError, VerificationError,
                        WaveSeries, banded_rows, bessel_op,
                        bessel_plane_report, beta_prime, build_certificate,
                        certify, closed_form_monomial, involute_P, involute_Q,
                        jsonio, linalg, make_pair, monomial_kernel,
                        spectral_algebra, validate_spec, verify_pair)
from bispectral import involution
from bispectral.bessel import graded_op
from bispectral.involution import (_condition_degrees, _plane_commutes,
                                   _plane_roots)
from bispectral.weyl import DEL, DFORM
from tests_support import (basis_off_rref, brute_force_beta_primes,
                           ladder_op, mult, op_of_parts, op_power,
                           poly_at_operator, profile_plane_degrees,
                           rand_index, rand_op, x_power)

F = Fraction


def rank1_cert():
    return build_certificate(monomial_kernel(BesselIndex.parse("0"),
                                             [[(F(1), F(1))]]))


def order2_cert(nu=F(1, 3), a=F(1), lam=F(1)):
    bi = BesselIndex(2, (1 - nu, nu))
    return build_certificate(KernelSpec(bi, (),
                                        (AtPointGroup(lam, (F(1), a)),)))


def test_involute_reference_rank1():
    cert = rank1_cert()
    P_b, g_b = involute_P(cert.P, cert.g, cert.beta)
    assert P_b == cert.P and g_b == cert.g
    Q_b, f_b = involute_Q(cert.Q, cert.f, cert.beta)
    assert Q_b == cert.Q and f_b == cert.f


def test_involute_identity_edge():
    bi = BesselIndex.parse("0")
    one = DiffOp("x", DEL, (1,))
    P_b, g_b = involute_P(one, Poly("z", [1]), bi)
    assert P_b == one and g_b == Poly("z", [1])
    Q_b, f_b = involute_Q(one, Poly("z", [1]), bi)
    assert Q_b == one and f_b == Poly("z", [1])


def test_involution_swaps_spectral_points():
    cert = order2_cert()
    pair = make_pair(cert)
    mu2 = F(20, 9)
    assert pair.g_b == Poly("z", [-mu2, 0, 1])
    assert pair.f_b == Poly("z", [-mu2, 0, 1])
    # swapping twice returns the original data
    P_bb, g_bb = involute_P(pair.P_b, pair.g_b, cert.beta)
    Q_bb, f_bb = involute_Q(pair.Q_b, pair.f_b, cert.beta)
    assert P_bb == cert.P and g_bb == cert.g
    assert Q_bb == cert.Q and f_bb == cert.f


def test_involute_rejects_inhomogeneous_factor():
    from bispectral import ShapeError
    bi = BesselIndex.parse("0,1")
    # x^-1 (D - x): the cleared coefficient x sits in an odd degree
    lopsided = DiffOp("x", "D", [RationalFunction(Poly("x", [0, -1]),
                                                  Poly("x", [0, 1])),
                                 x_power("x", -1)])
    with pytest.raises(ShapeError):
        involute_P(lopsided, Poly("z", [0, 1]), bi)
    with pytest.raises(ShapeError):
        involute_Q(lopsided, Poly("z", [0, 1]), bi)


def test_double_involution_rank1():
    cert = rank1_cert()
    pair = make_pair(cert)
    P_bb, g_bb = involute_P(pair.P_b, pair.g_b, cert.beta)
    assert P_bb == cert.P and g_bb == cert.g


def test_make_pair_reference_values():
    pair = make_pair(rank1_cert())
    x2 = Poly("x", [0, 0, 1])
    assert pair.L == DiffOp("x", "del",
                            [RationalFunction(Poly("x", [-2]), x2), 0, 1])
    z2 = Poly("z", [0, 0, 1])
    assert pair.Lambda == DiffOp("z", "del",
                                 [RationalFunction(Poly("z", [-2]), z2), 0, 1])
    assert pair.h == Poly("y", [0, 0, 1])
    assert pair.theta == Poly("y", [0, 0, 1])


def test_make_pair_operator_identities():
    for cert in (rank1_cert(), order2_cert()):
        pair = make_pair(cert)
        assert pair.L == cert.P * cert.Q
        hofl = poly_at_operator(cert.h, bessel_op(cert.beta))
        assert cert.Q * pair.L == hofl * cert.Q
        assert pair.Lambda.relabel("x") == pair.P_b * pair.Q_b


def test_certificates_from_documents_are_certified():
    from bispectral import jsonio
    from bispectral.darboux import DarbouxCertificate
    cert = order2_cert()
    doc = jsonio.document("darboux-certificate", cert.to_json())
    assert jsonio.load_certificate(doc) == cert
    # P, Q, f and g stay consistent; only the kernel check sees the new jet
    doc["spec"]["at_points"][0]["a"] = ["1", "2"]
    with pytest.raises(CertificationError, match="not annihilated"):
        jsonio.load_certificate(doc)
    forged = DarbouxCertificate.from_json(doc)   # parses only
    assert forged.witnesses == cert.witnesses
    with pytest.raises(CertificationError, match="not annihilated"):
        make_pair(forged)


def test_verify_pair_and_negative_control():
    pair = make_pair(rank1_cert())
    rep = verify_pair(pair, depth=10)
    assert rep["residuals"] == [0, 0]
    import dataclasses
    bad = dataclasses.replace(pair, theta=pair.theta + Poly.const("y", 1))
    with pytest.raises(VerificationError):
        verify_pair(bad, depth=10)


@pytest.mark.parametrize("side, message", [("L", "^L psi"),
                                           ("Lambda", "^Lambda psi")])
def test_verify_pair_sees_one_changed_numerator(monkeypatch, side, message):
    pair = make_pair(order2_cert())
    assert verify_pair(pair, depth=16)["residuals"] == [0, 0]
    target = pair.L if side == "L" else pair.Lambda.relabel("x")
    apply = WaveSeries.apply

    def tampered(self, op):
        image = apply(self, op)
        if op == target:
            # the top corner of the image's box lies in the residual's box
            key = (image.box[1], image.box[3])
            image.nums[key] = image.nums.get(key, 0) + 1
        return image

    monkeypatch.setattr(WaveSeries, "apply", tampered)
    with pytest.raises(VerificationError, match=message):
        verify_pair(pair, depth=16)


def test_operator_products_of_certify_and_the_involution(monkeypatch):
    # polynomials in L are written down by the power identity: certify
    # multiplies only for its product and product_dual_form witnesses; the
    # involution peels base-operator factors off graded parts by polynomial
    # division, so its one product is Q_b's factor f^{-1}; the closed forms
    # make one, Q's factor w^{-1}; and no step of make_pair divides operators
    dg = BesselIndex.parse("5/2,-3/2")
    t = dict(zip([(0, 0), (0, 1), (1, 0), (1, 1)], map(F, (1, 2, 1, -1))))
    kernels = ((dg, dg.power(2), [[F(1), F(2), F(0), F(0)]]),
               (dg, dg.power(2), banded_rows(dg, 2, t)))
    certs = (rank1_cert(), order2_cert(), build_certificate(monomial_kernel(
        dg, [[(F(5, 2), F(1)), (F(9, 2), F(2))]])))
    products, divisions = [], []
    mul, divide = DiffOp.__mul__, DiffOp._divide
    monkeypatch.setattr(DiffOp, "__mul__",
                        lambda a, b: products.append(b) or mul(a, b))
    monkeypatch.setattr(DiffOp, "_divide", lambda a, *rest:
                        divisions.append(a) or divide(a, *rest))
    for cert in certs:
        del products[:]
        certify(cert.beta, cert.P, cert.Q, cert.f, cert.g, spec=cert.spec)
        assert len(products) == 2
        del products[:]
        P_b, g_b = involute_P(cert.P, cert.g, cert.beta)
        assert products == []
        Q_b, f_b = involute_Q(cert.Q, cert.f, cert.beta)
        assert len(products) == 1 and products[0].order == 0
        make_pair(cert)
        assert divisions == []
    for bi, gammas, rows in kernels:
        del products[:]
        closed_form_monomial(bi, gammas, rows)
        assert len(products) <= 1
    assert divisions == []


def _peel_by_division(op, poly, beta, right):
    """The Euclidean route of ``involution._reduced``, kept as its oracle:
    (op', poly', steps), dividing by L on one side while poly has a factor
    z^N and the division is exact."""
    lbeta = bessel_op(beta)
    zN = Poly.monomial("z", beta.N)
    steps = 0
    while poly.valuation() >= beta.N:
        quot, rem = op.left_divide(lbeta) if right else op.right_divide(lbeta)
        if not rem.is_zero:
            break
        op, poly, steps = quot, poly // zN, steps + 1
    lead = poly.leading
    return op.scale(1 / lead), poly.scale(1 / lead), steps


def _parts_of(op):
    """{a: c_a} with op = sum_a x^a c_a(D), read off the DFORM numerators
    over the denominator x^m."""
    d = op.convert(DFORM)
    m = d.den.degree
    assert d.den == Poly.monomial(d.var, m)
    parts = {a - m: Poly("y", [p.coeff(a) for p in d.nums])
             for a in range(max(p.degree for p in d.nums) + 1)}
    return {a: c for a, c in parts.items() if not c.is_zero}


def test_peel_matches_repeated_division():
    # op = (S L^j + E) L^i, or L^i (L^j S + E) on the left, with E a
    # perturbation or zero, so the peel stops after 0, 1 or several steps;
    # poly carries z^(N v), so some cases stop on its valuation instead
    rng = random.Random(1704)
    seen = set()
    for N in (1, 2, 3):
        for case in range(16):
            beta = rand_index(rng, N)
            lbeta = bessel_op(beta)
            right = case % 2 == 0
            parts = {rng.randint(-3, 3): Poly("y", [
                rng.randint(-4, 4) for _ in range(rng.randint(1, 3))])
                for _ in range(rng.randint(1, 3))}
            op = op_of_parts(parts)
            if op.is_zero:
                continue
            j, i = rng.randint(0, 2), rng.randint(0, 3 - N // 2)
            op = op * op_power(lbeta, j) if right else op_power(lbeta, j) * op
            if rng.random() < 0.5:
                op = op + op_of_parts({rng.randint(-4, 2): Poly("y", [1])})
            op = op * op_power(lbeta, i) if right else op_power(lbeta, i) * op
            if op.is_zero:
                continue
            v = rng.randint(0, 4)
            poly = Poly("z", [rng.choice([-2, 1, 3]), 0, 5]).shift_mul(N * v)
            want, want_poly, steps = _peel_by_division(op, poly, beta, right)
            got, got_poly = involution._reduced(_parts_of(op), poly, beta,
                                                right)
            assert graded_op(got) == want and got_poly == want_poly
            assert (poly.valuation() - got_poly.valuation()) // N == steps
            free = _peel_by_division(op, poly.shift_mul(9 * N), beta,
                                     right)[2]
            seen.add((min(steps, 2), steps < free))
    # stops after 0, 1 and several steps, on a division and on poly
    assert {s for s, _ in seen} == {0, 1, 2}
    assert {on_poly for _, on_poly in seen} == {True, False}


def test_right_form_matches_the_product_oracle():
    # Q = sum_s D^s e_s, rebuilt from the e_s by operator products
    rng = random.Random(1503)
    for _ in range(40):
        Q = rand_op(rng, max_order=3, form=rng.choice([DEL, DFORM]))
        if Q.is_zero:
            continue
        right = involution._right_form(Q)
        assert right.form == DFORM and right.order == Q.order
        rebuilt = DiffOp.zero("x", DFORM)
        for s, e in enumerate(right.coeffs):
            rebuilt = rebuilt + (DiffOp("x", DFORM, (0,) * s + (1,))
                                 * mult("x", e, DFORM))
        assert rebuilt == Q


def test_series_checks_read_no_reduced_operator_view(monkeypatch):
    # verify_pair, certify and the involution work on den and nums; the
    # reduced per-coefficient view costs one normalization per coefficient
    fresh = make_pair(order2_cert())
    root = Path(__file__).resolve().parents[1]
    stored = jsonio.load_pair(jsonio.read(
        root / "perfbench" / "data" / "pairs" / "dg-even.json"))
    reads = []
    view = DiffOp.coeffs
    monkeypatch.setattr(DiffOp, "coeffs", property(
        lambda op: reads.append(op) or view.fget(op)))
    for pair in (fresh, stored):
        cert = pair.certificate
        certify(cert.beta, cert.P, cert.Q, cert.f, cert.g, spec=cert.spec)
        assert reads == []
        assert verify_pair(pair)["residuals"] == [0, 0]
        assert reads == []
        involute_P(cert.P, cert.g, cert.beta)
        involute_Q(cert.Q, cert.f, cert.beta)
        assert reads == []
    assert fresh.certificate.spec.at_points


def test_order2_pair_matches_swap():
    cert = order2_cert()
    pair = make_pair(cert)
    assert verify_pair(pair, depth=16)["residuals"] == [0, 0]
    assert pair.theta == Poly("y", [F(400, 81), F(-40, 9), 1])
    assert pair.h == Poly("y", [1, -2, 1])


def _basis_from_all_rows(rows, ncols):
    """The nullspace basis read off linalg.rref of every row.  Row order
    does not change a reduced echelon form; ascending size keeps the
    elimination of these tall systems cheap."""
    red, pivots = linalg.rref(sorted(
        rows, key=lambda r: max(abs(v.numerator) * v.denominator for v in r)))
    return basis_off_rref(red, pivots, ncols)


def test_two_orbit_order3_pair(monkeypatch):
    # two orbits of first-jet conditions for N = 3: an order-6 factor
    nullspace = linalg.nullspace
    shapes = []

    def checked(rows, ncols):
        sols = nullspace(rows, ncols)
        assert sols == _basis_from_all_rows(rows, ncols)
        shapes.append((len(rows), ncols))
        return sols

    monkeypatch.setattr(linalg, "nullspace", checked)
    bi = BesselIndex.parse("1/3,2/3,2")
    spec = KernelSpec(bi, (), (AtPointGroup(F(1), (F(1), F(1, 2))),
                               AtPointGroup(F(2), (F(1), F(1)))))
    cert = build_certificate(spec)
    assert cert.P.order == 6
    assert cert.h == Poly("y", [64, -144, 97, -18, 1])  # ((y - 1)(y - 8))^2
    assert all(r > c for r, c in shapes) and len(shapes) > 1
    certify(cert.beta, cert.P, cert.Q, cert.f, cert.g, spec=cert.spec)
    pair = make_pair(cert)
    assert verify_pair(pair)["residuals"] == [0, 0]


def rand_monomial_data(rng, nmax=3, dmax=2):
    while True:
        n_weights = rng.randint(1, 3)
        d = rng.randint(1, dmax)
        entries = [F(rng.randint(-5, 5), rng.choice([1, 2, 3, 5]))
                   for _ in range(n_weights - 1)]
        entries.append(F(n_weights * (n_weights - 1), 2) - sum(entries))
        try:
            bi = BesselIndex(n_weights, tuple(entries))
        except Exception:
            continue
        gammas = bi.power(d)
        if len(set(gammas)) != len(gammas):
            continue
        n_rows = rng.randint(1, min(nmax, len(gammas)))
        rows = []
        for _ in range(n_rows):
            s = rng.randrange(n_weights)
            base = bi.beta[s]
            row = [F(0)] * len(gammas)
            picked = False
            for k in range(d):
                if rng.random() < 0.7:
                    row[gammas.index(base + k * bi.N)] = F(rng.randint(-4, 4))
            support = [c for c in row if c]
            if not support:
                row[gammas.index(base)] = F(1)
            rows.append(row)
        try:
            spec = monomial_kernel(
                bi, [[(gammas[i], c) for i, c in enumerate(row) if c]
                     for row in rows])
            from bispectral import validate_spec
            validate_spec(spec)
        except Exception:
            continue
        return bi, d, gammas, rows, spec


def test_closed_form_equals_pipeline_randomized():
    rng = random.Random(61)
    for _ in range(6):
        bi, d, gammas, rows, spec = rand_monomial_data(rng)
        cert = build_certificate(spec)
        pair = make_pair(cert)
        cf = closed_form_monomial(bi, gammas, rows)
        assert cf["P"] == cert.P and cf["Q"] == cert.Q
        assert cf["f"] == cert.f and cf["g"] == cert.g
        assert cf["P_b"] == pair.P_b and cf["Q_b"] == pair.Q_b
        assert cf["f_b"] == pair.f_b and cf["g_b"] == pair.g_b


# ---------------------------------------------------------------------------
# the division route, kept here as the independent oracle of the library's
# condition route: u(L) ker P inside ker P iff P u(L) is left-divisible by P
# ---------------------------------------------------------------------------


def _division_degrees(cert, degree_bound):
    """u(L) ker P inside ker P iff P u(L) is left-divisible by P."""
    beta = cert.beta
    lbeta = bessel_op(beta)
    P = cert.P
    remainders = []
    power = DiffOp("x", DEL, (1,))
    found = []
    for t in range(0, degree_bound // beta.N + 1):
        if t:
            power = power * lbeta
        remainders.append((P * power).left_divide(P)[1])
        if t == 0:
            continue
        if _remainder_combination_exists(remainders[:t], remainders[t]):
            found.append(t * beta.N)
    return found


def _remainder_combination_exists(lower, top):
    """Is -top a rational combination of the lower remainders?"""
    cols = len(lower)
    ops = [op.convert(DEL) for op in lower + [top]]
    # one common denominator for every operator
    wall = Poly.lcm(ops[0].var, (a.den for a in ops))
    rows = {}
    for idx, a in enumerate(ops):
        lift = wall // a.den
        for k, num in enumerate(a.nums):
            for deg, v in enumerate((num * lift).coeffs):
                if v:
                    rows.setdefault((k, deg), [Fraction(0)] * (cols + 1))
                    rows[(k, deg)][idx] = v
    if not rows:
        return True
    matrix = []
    rhs = []
    for key in sorted(rows):
        matrix.append(rows[key][:cols])
        rhs.append(-rows[key][cols])
    return linalg.solve(matrix, rhs) is not None


def assert_routes_agree(spec, bound):
    cert = build_certificate(spec)
    degrees = _condition_degrees(cert, bound)
    assert degrees == _division_degrees(cert, bound), (spec.to_json(), bound)
    return degrees


def rand_value(rng):
    return F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))


def rand_log_spec(rng):
    """A seed using a log power at an exponent of multiplicity 2 or 3."""
    while True:
        beta = BesselIndex.parse(rng.choice(["1/2,1/2", "-1/2,3/2", "0,0,3"]))
        base = rng.randrange(beta.N)
        b = []
        for k in range(rng.randint(1, 2)):
            mult = beta.multiplicity(beta.beta[base] + k * beta.N)
            b.append(tuple(F(rng.randint(-2, 2)) if rng.random() < 0.7
                           else F(0) for _ in range(mult)))
        groups = [AtZeroGroup(base, tuple(b))] if any(map(any, b)) else []
        if rng.random() < 0.4:
            groups.append(AtZeroGroup(rng.randrange(beta.N), ((F(1),),)))
        try:
            spec = KernelSpec(beta, tuple(groups), ())
            validate_spec(spec)
        except BispectralError:
            continue
        if any(g.j0 for g in spec.at_zero):
            return spec


def rand_point_spec(rng, weights, orders, same_point=False, at_zero=False):
    """Orbit groups of the given jet orders, at one point or on distinct
    orbits, optionally with a condition at 0."""
    beta = BesselIndex.parse(weights)
    lams = []
    while len(lams) < (1 if same_point else len(orders)):
        lam = rand_value(rng)
        if all(lam ** beta.N != m ** beta.N for m in lams):
            lams.append(lam)
    if same_point:
        lams = lams * len(orders)
    points = tuple(
        AtPointGroup(lam, tuple(rand_value(rng) for _ in range(k)) + (F(1),))
        for lam, k in zip(lams, orders))
    zero = (AtZeroGroup(0, ((F(1),),)),) if at_zero else ()
    return KernelSpec(beta, zero, points)


def test_spectral_routes_agree_on_monomial_kernels():
    rng = random.Random(62)
    for _ in range(4):
        bi, d, gammas, rows, spec = rand_monomial_data(rng, nmax=2)
        assert_routes_agree(spec, 3 * bi.N)
    rng = random.Random(65)
    for _ in range(4):
        bi, d, gammas, rows, spec = rand_monomial_data(rng, nmax=2, dmax=1)
        assert_routes_agree(spec, 2 * bi.N + 2)
    for _ in range(5):
        spec = rand_log_spec(rng)
        assert_routes_agree(spec, 2 * spec.beta.N + 2)


def test_spectral_routes_agree_on_point_and_mixed_kernels():
    rng = random.Random(66)
    # (weights, jet orders, all groups at one point, a condition at 0)
    shapes = [("2/3,1/3", [0], False, False), ("2/3,1/3", [1], False, False),
              ("2/3,1/3", [2], False, False), ("0", [2], False, False),
              ("0,1,2", [1], False, False), ("2/3,1/3", [0, 1], True, False),
              ("0", [0, 2], True, False), ("2/3,1/3", [0, 0], False, False),
              ("0", [1, 2], True, False), ("0", [1, 1], False, False),
              ("1/3,2/3,2", [0], False, True), ("2/3,1/3", [1], False, True)]
    found = set()
    for weights, orders, same_point, at_zero in shapes:
        spec = rand_point_spec(rng, weights, orders, same_point, at_zero)
        degrees = assert_routes_agree(spec, 2 * spec.beta.N + 2)
        found.add(tuple(degrees))
    # the family is not degenerate: some degrees are missed
    assert len(found) > 2
    # two groups at one point, N = 1.  a = (1 + c/3, 1) and b = (0, 0, c, 1)
    # span a space that u(L) keeps for u = y^2 - 2y + v_0, through the
    # binomial weights alone; for (-3, 1) and (1/2, -3, 1) only the zero
    # padding of the shorter vector rules out degree 2
    for a, b, degrees in (((2, 1), (0, 0, 3, 1), [2, 4]),
                          ((F(5, 3), 1), (0, 0, 2, 1), [2, 4]),
                          ((-3, 1), (F(1, 2), -3, 1), [3, 4])):
        spec = KernelSpec(BesselIndex.parse("0"), (),
                          (AtPointGroup(F(2), a), AtPointGroup(F(2), b)))
        assert assert_routes_agree(spec, 4) == degrees


def test_spectral_routes_agree_on_golden_and_demo_specs():
    half = BesselIndex.parse("1/2,1/2")
    dg = BesselIndex.parse("5/2,-3/2")
    t = dict(zip([(0, 0), (0, 1), (1, 0), (1, 1)], map(F, (1, 2, 1, -1))))
    gammas = dg.power(2)
    banded = [[(gammas[i], c) for i, c in enumerate(row) if c]
              for row in banded_rows(dg, 2, t)]
    cases = [
        (monomial_kernel(BesselIndex.parse("0"), [[(F(1), F(1))]]), 4),
        (KernelSpec(BesselIndex(2, (F(2, 3), F(1, 3))), (),
                    (AtPointGroup(F(1), (F(1), F(1))),)), 6),
        (monomial_kernel(dg, banded), 4),
        (KernelSpec(half, (AtZeroGroup(0, ((F(0), F(1)),)),), ()), 6),
        (monomial_kernel(half, [[(F(1, 2), F(1))]]), 6),
    ]
    want = [[2, 3, 4], [4, 6], [2, 4], [2, 4, 6], [2, 4, 6]]
    assert [assert_routes_agree(spec, bound) for spec, bound in cases] == want


def test_spectral_algebra_needs_a_spec():
    import dataclasses
    cert = dataclasses.replace(rank1_cert(), spec=None)
    with pytest.raises(UsageError, match="no 'spec'"):
        spectral_algebra(cert, 4)


def test_rank1_algebra_report():
    rep = spectral_algebra(rank1_cert(), 4)
    assert rep.degrees == (2, 3, 4)
    assert rep.generators == (2, 3)
    assert rep.rank == 1


def test_order2_point_algebra_report():
    rep = spectral_algebra(order2_cert(), 8)
    assert rep.degrees == (4, 6, 8)
    assert rep.generators == (4, 6)
    assert rep.rank == 2


def _is_sum_of(d, parts):
    """Whether d is a sum of one or more of the parts, repeats allowed: a
    memoized search over the part taken off first."""
    @functools.cache
    def reach(rest):
        return rest == 0 or any(p <= rest and reach(rest - p) for p in parts)
    return d > 0 and reach(d)


def test_semigroup_generators_match_the_brute_force_oracle():
    # a found degree is a generator exactly when it is not a sum of
    # smaller found degrees; the -5,2,6 plane degrees are those of CI
    rng = random.Random(41)
    cases = [[3, 6, 7] + list(range(9, 33)), [2, 4, 6, 8], [5], [1, 2, 3]]
    for _ in range(40):
        cases.append(rng.sample(range(1, 40), rng.randint(1, 8)))
    for degrees in cases:
        want = tuple(d for d in sorted(degrees)
                     if not _is_sum_of(d, [e for e in degrees if e < d]))
        assert involution._semigroup_generators(degrees) == want
    assert involution._semigroup_generators(cases[0]) == (3, 7, 11)


def test_plane_reports():
    rep = bessel_plane_report(BesselIndex.parse("2/3,1/3"), 8)
    assert rep.degrees == (2, 4, 6, 8)
    assert rep.generic_to_bound and rep.rank == 2
    rep2 = bessel_plane_report(BesselIndex.parse("0,1"), 4)
    assert 1 in rep2.degrees and not rep2.generic_to_bound


# non-generic weight vectors: weights that differ by integers, so that the
# bare plane has degrees off the multiples of N
NON_GENERIC = ("0,1", "-1,2", "-5,2,6", "3,-2", "-5,6", "-6,2,7", "0,3,0")


def test_plane_report_matches_the_profile_oracle():
    rng = random.Random(71)
    weights = [BesselIndex.parse(w) for w in NON_GENERIC]
    for _ in range(8):
        n = rng.choice([1, 2, 3])
        entries = [F(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))
                   for _ in range(n - 1)]
        weights.append(BesselIndex(n, (*entries, F(n * (n - 1), 2)
                                       - sum(entries))))
    for beta in weights:
        bound = 4 * beta.N + 4
        # the least sound profile depth is the degree bound
        want = profile_plane_degrees(beta, bound, depth=bound)
        assert bessel_plane_report(beta, bound).degrees == tuple(want), beta
    assert bessel_plane_report(BesselIndex.parse("-5,2,6"), 16).degrees[:3] \
        == (3, 6, 7)


def test_plane_witness_rejects_a_tampered_root_multiset():
    for weights, deg in (("2/3,1/3", 4), ("0,1", 3), ("-5,2,6", 7)):
        beta = BesselIndex.parse(weights)
        roots = _plane_roots(beta, deg)
        assert len(roots) == deg and _plane_commutes(beta, roots, deg)
        for tampered in ([roots[0] + 1] + roots[1:],
                         [roots[0] + beta.N] + roots[1:],
                         roots[:-1] + [F(1, 7)]):
            assert not _plane_commutes(beta, tampered, deg), tampered
    # no multiset exists off the algebra: 2/3,1/3 has only even degrees
    assert _plane_roots(BesselIndex.parse("2/3,1/3"), 3) is None


def test_closed_form_single_condition():
    # one monomial condition degenerates to a first-order ladder factor
    bi = BesselIndex.parse("0,1")
    cf = closed_form_monomial(bi, (F(0), F(2), F(1), F(3)),
                              [[F(0), F(0), F(1), F(0)]])
    assert cf["P"] == ladder_op([F(1)])
    assert cf["g"] == Poly("z", [0, 1])
    cert = build_certificate(monomial_kernel(bi, [[(F(1), F(1))]]))
    assert cf["P"] == cert.P and cf["Q"] == cert.Q


def test_beta_prime_refuses_an_empty_spec_and_points():
    bi = BesselIndex.parse("2/3,1/3")
    with pytest.raises(SpecInvalidError, match="empty kernel specification"):
        beta_prime(KernelSpec(bi, (), ()))
    with pytest.raises(UnsupportedInputError, match="log-free monomial"):
        beta_prime(KernelSpec(bi, (), (AtPointGroup(F(1), (F(1),)),)))
    with pytest.raises(UnsupportedInputError, match="log-free monomial"):
        beta_prime(KernelSpec(BesselIndex.parse("0,1"),
                              (AtZeroGroup(0, ((F(0), F(1)),)),)))


def test_beta_prime_reference_values():
    bi = BesselIndex.parse("0,1")
    prime, info = beta_prime(monomial_kernel(bi, [[(F(0), F(1))]]))
    assert prime == (1, 0)
    single = BesselIndex.parse("0")
    prime2, _ = beta_prime(monomial_kernel(single, [[(F(1), F(1))]]))
    assert prime2 == (0,)


def _shared_ladder_spec(rng):
    """A monomial spec on weights of one residue class, whose ladders of
    depth up to 3 may share exponents, and (gammas, rows) for
    ``brute_force_beta_primes``: each group's exponents appended to gammas,
    its row a 1 at each of them."""
    N = rng.randint(2, 3)
    steps = [rng.randint(0, 2) for _ in range(N)]
    r = F(N - 1, 2) - sum(steps)
    bi = BesselIndex(N, tuple(r + N * m for m in steps))
    d = rng.randint(1, 3)
    spec = monomial_kernel(bi, [
        [(bi.beta[s] + k * N, F(rng.choice([-2, -1, 1, 3])))
         for k in sorted(rng.sample(range(d), rng.randint(1, d)))]
        for s in (rng.randrange(N) for _ in range(rng.randint(1, 3)))])
    gammas, rows = [], []
    for group in spec.at_zero:
        b0 = bi.beta[group.base_index]
        exps = [b0 + k * N for k, row in enumerate(group.b) if any(row)]
        rows.append([0] * len(gammas) + [1] * len(exps))
        gammas.extend(exps)
    return bi, d, spec, gammas, rows


def test_beta_prime_against_brute_force():
    rng = random.Random(63)
    for _ in range(12):
        bi, d, gammas, rows, spec = rand_monomial_data(rng)
        prime, info = beta_prime(spec)
        assert sum(prime) == sum(bi.beta)
        universe = brute_force_beta_primes(bi, gammas, rows)
        assert prime in universe
        if len(universe) == 1:
            assert not info["ambiguous"] or len(set(bi.beta)) < bi.N
    # weights of one residue class: ladders that share exponents, which
    # no flat (gammas, rows) matrix of distinct exponents can hold
    shared = 0
    for _ in range(40):
        bi, d, spec, gammas, rows = _shared_ladder_spec(rng)
        shared += len(set(bi.power(d))) < bi.N * d
        prime, _ = beta_prime(spec)
        assert sum(prime) == sum(bi.beta)
        assert prime in brute_force_beta_primes(bi, gammas, rows), spec
    assert shared
