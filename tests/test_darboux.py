import random
from fractions import Fraction

import pytest

from bispectral import (AtPointGroup, AtZeroGroup, BesselIndex,
                        BispectralError, CertificationError, DarbouxCertificate, DiffOp,
                        InconsistentSpecError, KernelSpec, Poly,
                        RankDeficiencyError, RationalFunction, ShapeError,
                        SpecInvalidError, UnsupportedInputError, UsageError,
                        banded_rows, bessel_op, build_certificate, certify,
                        cleared_coefficients, linalg, monomial_kernel,
                        validate_spec, wave_jet_at)
from bispectral import DEL, DFORM, darboux, weyl
from bispectral.darboux import (THETA, _assemble, _condition_rows,
                                _orbit_rows, default_depth)
from bispectral.involution import involute_P, involute_Q
from tests_support import (adjoint, all_branch_residuals, all_branch_rows,
                           closed_order2_factor, compute_Q, mult,
                           poly_at_operator, x_power)

F = Fraction


def rank1_spec():
    return monomial_kernel(BesselIndex.parse("0"), [[(F(1), F(1))]])


def order2_point_spec(nu=F(1, 3), a=F(1), lam=F(1)):
    bi = BesselIndex(2, (1 - nu, nu))
    return KernelSpec(bi, (), (AtPointGroup(lam, (F(1), a)),))


def test_validate_counts_and_polynomials():
    val = validate_spec(rank1_spec())
    assert val.n0 == 1 and val.n == 1
    assert val.orbits == {}
    assert val.g == Poly("z", [0, 1])
    assert val.f == Poly("z", [0, 1])
    assert val.h == Poly("y", [0, 0, 1])

    val2 = validate_spec(order2_point_spec())
    assert val2.n0 == 0 and val2.n == 2
    assert val2.orbits == {F(1): [(F(1), F(1))]}
    assert val2.g == Poly("z", [-1, 0, 1])
    assert val2.f == Poly("z", [-1, 0, 1])
    assert val2.h == Poly("y", [1, -2, 1])

    # two groups at lam = 2 around one at lam = 3: the orbits keep the
    # points in the order they first appear and each point's groups in
    # spec order, which is the row order of the ansatz
    first, other, second = (F(1), F(1, 2)), (F(1),), (F(0), F(0), F(1))
    val3 = validate_spec(KernelSpec(
        BesselIndex.parse("1/3,2/3,2"), (),
        (AtPointGroup(F(2), first), AtPointGroup(F(3), other),
         AtPointGroup(F(2), second))))
    assert list(val3.orbits.items()) == [(F(2), [first, second]),
                                         (F(3), [other])]
    assert val3.n0 == 0 and val3.n == 9
    assert val3.g == (Poly("z", [-8, 0, 0, 1]) ** 2
                      * Poly("z", [-27, 0, 0, 1]))
    assert val3.h == Poly("y", [-8, 1]) ** 3 * Poly("y", [-27, 1])


def test_congruence_violation_rejected():
    with pytest.raises(SpecInvalidError):
        monomial_kernel(BesselIndex.parse("0,1"), [[(F(0), F(1)), (F(1), F(1))]])


def test_unreachable_exponent_rejected():
    with pytest.raises(SpecInvalidError):
        monomial_kernel(BesselIndex.parse("0,1"), [[(F(-2), F(1))]])


def test_log_power_beyond_multiplicity_rejected():
    bi = BesselIndex.parse("0,1")
    with pytest.raises(SpecInvalidError):
        validate_spec(KernelSpec(bi, (AtZeroGroup(0, ((F(0), F(1)),)),), ()))


def test_dependent_conditions_rejected():
    bi = BesselIndex.parse("0")
    dup = monomial_kernel(bi, [[(F(1), F(1))], [(F(1), F(2))]])
    with pytest.raises(RankDeficiencyError):
        validate_spec(dup)
    bi2 = BesselIndex.parse("2/3,1/3")
    spec = KernelSpec(bi2, (), (AtPointGroup(F(1), (F(1), F(1))),
                                AtPointGroup(F(1), (F(2), F(2)))))
    with pytest.raises(RankDeficiencyError):
        validate_spec(spec)


def test_orbit_collision_rejected():
    bi = BesselIndex.parse("0,1")
    spec = KernelSpec(bi, (), (AtPointGroup(F(1), (F(1),)),
                               AtPointGroup(F(-1), (F(1),))))
    with pytest.raises(SpecInvalidError):
        validate_spec(spec)


def test_build_monomial_reference_factors():
    assert build_certificate(rank1_spec()).P == \
        DiffOp("x", "del", [x_power("x", -1, -1), 1])
    bi = BesselIndex.parse("0,1")
    p = build_certificate(monomial_kernel(bi, [[(F(0), F(1))]])).P
    assert p == DiffOp("x", "del", (0, 1))
    bi2 = BesselIndex.parse("1/2,1/2")
    p2 = build_certificate(monomial_kernel(bi2, [[(F(1, 2), F(1))]])).P
    want = DiffOp("x", "D", [RationalFunction(Poly("x", [F(-1, 2)]), Poly("x", [0, 1])),
                             RationalFunction(Poly("x", [1]), Poly("x", [0, 1]))])
    assert p2 == want


def test_log_group_build():
    bi = BesselIndex.parse("1/2,1/2")
    spec = KernelSpec(bi, (AtZeroGroup(0, ((F(0), F(1)),)),), ())
    cert = build_certificate(spec)
    assert cert.P == bessel_op(bi)
    assert cert.Q == DiffOp("x", "del", (1,))
    assert cert.h == Poly("y", [0, 1])
    assert cert.g == Poly("z", [0, 0, 1])
    assert cert.f == Poly("z", [1])


def test_log_groups_rejected_alongside_points():
    bi = BesselIndex.parse("1/2,1/2")
    spec = KernelSpec(bi, (AtZeroGroup(0, ((F(0), F(1)),)),),
                      (AtPointGroup(F(1), (F(1),)),))
    with pytest.raises(UnsupportedInputError):
        build_certificate(spec)


def test_compute_q_reference_values():
    bi = BesselIndex.parse("0")
    p = DiffOp("x", "del", [x_power("x", -1, -1), 1])
    q = compute_Q(p, Poly("y", [0, 0, 1]), bi)
    assert q == DiffOp("x", "del", [x_power("x", -1), 1])
    # dividing the base operator by itself
    bi2 = BesselIndex.parse("2/3,1/3")
    assert compute_Q(bessel_op(bi2), Poly("y", [0, 1]), bi2) == \
        DiffOp("x", "del", (1,))
    # kernel not inside the eigenvalue kernel
    with pytest.raises(CertificationError):
        compute_Q(DiffOp("x", "del", (-1, 1)),
                  Poly("y", [0, 1]), bi)


def test_point_build_matches_closed_form():
    nu, a, lam = F(1, 3), F(1), F(1)
    cert = build_certificate(order2_point_spec(nu, a, lam))
    mu2 = (a + 1 - a ** 2 * nu * (nu - 1)) / (a ** 2 * lam ** 2)
    assert mu2 == F(20, 9)
    assert cert.P == closed_order2_factor(a, lam ** 2, mu2)
    b = -a / (a + 1)
    assert cert.Q == adjoint(closed_order2_factor(b, lam ** 2, mu2))
    n, pks = cleared_coefficients(cert.P, 2)
    assert n == 2
    assert pks[2] == Poly("y", [F(-20, 9), 1])
    assert pks[1] == Poly("y", [F(20, 9), -3])
    assert pks[0] == Poly("y", [F(-40, 81), F(58, 9), -1])


def test_cleared_coefficients_needs_the_lead_x_to_the_minus_n():
    P = build_certificate(order2_point_spec(F(1, 3), F(1), F(1))).P
    assert cleared_coefficients(P, 2)[0] == 2
    # a constant or a polynomial factor on the lead breaks the identity
    for bad in (P.scale(F(2)),
                mult("x", Poly("x", [1, 0, 1])) * P):
        with pytest.raises(ShapeError, match="is not x\\^-2"):
            cleared_coefficients(bad, 2)
    # x^-1 (D - 1/2), a first-order factor of a Bessel-type operator
    n1, pks1 = cleared_coefficients(DiffOp("x", "D", [
        RationalFunction(Poly("x", [F(-1, 2)]), Poly("x", [0, 1])),
        RationalFunction(Poly("x", [1]), Poly("x", [0, 1]))]), 1)
    assert (n1, pks1) == (1, [Poly("y", [F(-1, 2)]), Poly("y", [1])])


def test_point_build_random_parameters_certify():
    rng = random.Random(51)
    done = 0
    while done < 3:
        nu = F(rng.randint(-3, 4), rng.choice([3, 5]))
        a = F(rng.randint(-4, 4), rng.choice([1, 2, 3]))
        lam = F(rng.randint(-3, 3), rng.choice([1, 2]))
        if a in (0, -1) or lam == 0:
            continue
        done += 1
        cert = build_certificate(order2_point_spec(nu, a, lam))
        assert cert.witnesses["product"] and cert.witnesses["normalization"]


def test_single_branch_exponential_kernel():
    # one-point condition over the order-one base: kernel {e^{lam x}}
    spec = KernelSpec(BesselIndex.parse("0"), (),
                      (AtPointGroup(F(1), (F(1),)),))
    cert = build_certificate(spec)
    assert cert.P == DiffOp("x", "del", [-1, 1])
    assert cert.Q == DiffOp("x", "del", (1,))
    assert cert.g == Poly("z", [-1, 1])
    assert cert.f == Poly("z", [1])
    assert cert.h == Poly("y", [-1, 1])
    # first-jet condition at lam = -2 forces the squared eigenvalue factor
    spec2 = KernelSpec(BesselIndex.parse("0"), (),
                       (AtPointGroup(F(-2), (F(1), F(1))),))
    cert2 = build_certificate(spec2)
    assert cert2.P.order == 1
    assert cert2.g == Poly("z", [2, 1])
    assert cert2.f == Poly("z", [2, 1])
    assert cert2.h == Poly("y", [4, 4, 1])


def test_order_three_orbit_kernels():
    bi = BesselIndex.parse("0,1,2")
    # value conditions on the whole orbit of 1: the kernel of d^3 - 1
    cert = build_certificate(KernelSpec(bi, (), (AtPointGroup(F(1), (F(1),)),)))
    assert cert.P == DiffOp("x", "del", [-1, 0, 0, 1])
    assert cert.Q == DiffOp("x", "del", (1,))
    assert cert.h == Poly("y", [-1, 1])

    # first-jet conditions: order-3 factor, second orbit at z^3 = -6
    cert2 = build_certificate(
        KernelSpec(bi, (), (AtPointGroup(F(1), (F(1), F(1))),)))
    n, pks = cleared_coefficients(cert2.P, 3)
    assert n == 3
    assert pks[3] == Poly("y", [6, 1])
    assert pks[2] == Poly("y", [-18, -6])
    assert pks[1] == Poly("y", [12, 14])
    assert pks[0] == Poly("y", [0, -24, -1])
    # independent checks: exact product identity and kernel annihilation
    lb = bessel_op(bi)
    assert cert2.Q * cert2.P == poly_at_operator(Poly("y", [1, -2, 1]), lb)
    residuals = all_branch_residuals(cert2.P, bi, F(1), (F(1), F(1)))
    assert residuals and not any(residuals)


def _all_branch_build(spec):
    """(P, Q) from the all-branch ansatz, escalating the bound one by one;
    at every bound its nullspace must equal the branch-0 nullspace."""
    val = validate_spec(spec)
    beta, n, N = spec.beta, val.n, spec.beta.N
    d = max(1, val.h.degree)
    h_at_l = poly_at_operator(val.h, bessel_op(beta))
    for bound in range(16 * n * d + 1):
        ncols = (n + 1) * (bound + 1)
        depth = max(default_depth(d, N, n), 2 * ncols + 2 * n + 10)
        zero = []
        for q in val.elements_at_zero:
            powers = [q]
            for _ in range(n):
                powers.append(powers[-1].apply_theta())
            zero += _condition_rows([p.terms for p in powers], n, N, bound)
        rows, rows0 = list(zero), list(zero)
        for group in spec.at_points:
            rows += all_branch_rows(beta, group.lam, group.a, n, bound, depth)
            profile = wave_jet_at(beta, group.lam, depth)
            rows0 += _orbit_rows(profile, group.a, n, N, bound)
        sols = linalg.nullspace(rows, ncols)
        assert sols == linalg.nullspace(rows0, ncols), bound
        for sol in sols:
            op = _assemble(beta, n, N, sol, bound)
            if op is None or op.order != n:
                continue
            quot, rem = h_at_l.left_divide(op)
            if rem.is_zero:
                return op.convert("del"), quot.convert("del")
    raise AssertionError("the all-branch ansatz found no annihilator")


def test_branch_zero_build_matches_all_branch_oracle():
    rng = random.Random(60)

    def value():
        return F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))

    # (weights, with an at-zero group, jet orders of the orbits)
    shapes = [("2/3,1/3", False, [1]), ("2/3,1/3", False, [2]),
              ("0,1,2", False, [1]), ("0,1,2", False, [0, 0]),
              ("1/3,2/3,2", True, [0]), ("0,1,2,3", False, [1]),
              ("1/2,1,3/2,3", True, [0])]
    for weights, at_zero, orders in shapes:
        beta = BesselIndex.parse(weights)
        lams = []
        while len(lams) < len(orders):
            lam = value()
            if all(lam ** beta.N != m ** beta.N for m in lams):
                lams.append(lam)
        points = tuple(
            AtPointGroup(lam, tuple(value() for _ in range(k)) + (F(1),))
            for lam, k in zip(lams, orders))
        zero = (AtZeroGroup(0, ((F(1),),)),) if at_zero else ()
        spec = KernelSpec(beta, zero, points)
        cert = build_certificate(spec)
        assert (cert.P, cert.Q) == _all_branch_build(spec), spec.to_json()
        # the all-branch kernel witness holds for the branch-0 certificate
        for group in points:
            residuals = all_branch_residuals(cert.P, beta, group.lam, group.a)
            assert residuals and not any(residuals)


def test_orbit_condition_windows_span_the_depth():
    # the powers of an orbit condition as _orbit_rows builds them; their
    # window spans K + 1 degrees, so the ansatz depth
    # K >= 2 ncols + 2 n + 10 gives every condition more rows than columns
    for weights in ("2/3,1/3", "1/3,2/3,2"):
        beta = BesselIndex.parse(weights)
        for lam in (F(1), F(-3, 2), F(2)):
            for order in range(4):
                a = (F(1), F(1, 2), F(-2))[:order] + (F(1),)
                n = validate_spec(
                    KernelSpec(beta, (), (AtPointGroup(lam, a),))).n
                for K in range(10, 61):
                    powers = [wave_jet_at(beta, lam, K).apply(
                        DiffOp("x", DFORM, a))]
                    for _ in range(n):
                        powers.append(powers[-1].apply(THETA))
                    hi = max(p.box[1] for p in powers)
                    lo = max(p.box[0] for p in powers)
                    assert hi - lo == K, (weights, lam, a, K)


def test_rational_orbit_points_need_no_cyclotomics(monkeypatch):
    # orbit points with denominators: every jet's DEL step grows its den
    # by 2, and no stage may fall back on Q(eps) arithmetic
    from bispectral import make_pair, scalars, spectral_algebra, verify_pair

    def refuse(*args, **kwargs):
        raise AssertionError("Q(eps) arithmetic in the pipeline")

    monkeypatch.setattr(scalars.Cyclotomic, "__init__", refuse)
    beta = BesselIndex.parse("1/3,2/3,2")
    points = (AtPointGroup(F(1, 2), (F(1), F(1))),
              AtPointGroup(F(-3, 2), (F(1), F(-1, 2))))
    cert = build_certificate(KernelSpec(beta, (), points))
    assert cert.P.order == 6 and cert.witnesses["kernel"]
    assert verify_pair(make_pair(cert))["residuals"] == [0, 0]
    assert spectral_algebra(cert, 8).bound == 8
    monkeypatch.undo()
    for group in points:
        residuals = all_branch_residuals(cert.P, beta, group.lam, group.a)
        assert residuals and not any(residuals)


def test_empty_spec_rejected():
    with pytest.raises(SpecInvalidError):
        validate_spec(KernelSpec(BesselIndex.parse("0,1"), (), ()))


def test_mixed_origin_and_orbit_spec():
    bi = BesselIndex.parse("2/3,1/3")
    spec = KernelSpec(bi, (AtZeroGroup(0, ((F(1),),)),),
                      (AtPointGroup(F(1), (F(1),)),))
    val = validate_spec(spec)
    assert val.n0 == 1 and val.n == 3
    assert val.orbits == {F(1): [(F(1),)]}
    assert val.g == Poly("z", [0, -1, 0, 1])
    assert val.f == Poly("z", [0, 1])
    assert val.h == Poly("y", [0, -1, 1])
    cert = build_certificate(spec)
    assert cert.P.order == 3
    from bispectral import QuasiPolynomial
    assert QuasiPolynomial.monomial(F(2, 3)).apply(cert.P).is_zero


def test_certify_negative_controls(monkeypatch):
    cert = build_certificate(rank1_spec())
    with pytest.raises(CertificationError, match="remainder nonzero"):
        certify(cert.beta, cert.P, cert.Q + DiffOp("x", "del", (1,)),
                cert.f, cert.g)
    with pytest.raises(CertificationError):
        certify(cert.beta, cert.P, cert.Q, cert.f,
                cert.g.scale(2))  # g no longer monic
    bad_g = Poly("z", [1, 1])
    with pytest.raises(CertificationError):
        certify(cert.beta, cert.P, cert.Q, cert.f, bad_g)
    # the kernel witness: same group counts, another kernel element
    bi = BesselIndex.parse("2/3,1/3")
    cert = build_certificate(
        monomial_kernel(bi, [[(F(2, 3), F(1)), (F(8, 3), F(1))]]))
    other = monomial_kernel(bi, [[(F(2, 3), F(1)), (F(8, 3), F(2))]])
    with pytest.raises(CertificationError, match=r"^kernel element .* is not "
                                                 r"annihilated by P"):
        certify(cert.beta, cert.P, cert.Q, cert.f, cert.g, spec=other)
    cert = build_certificate(order2_point_spec())
    with pytest.raises(CertificationError, match=r"orbit kernel element at 1 "
                                                 r"\(branch 0\) is not "
                                                 r"annihilated by P"):
        certify(cert.beta, cert.P, cert.Q, cert.f, cert.g,
                spec=order2_point_spec(a=F(2)))
    # f = g = z^2 - 1 here; each witness below gets its own tampering
    assert cert.f == cert.g == Poly("z", [-1, 0, 1])
    with pytest.raises(CertificationError, match="eigenvalue pattern broken"):
        certify(cert.beta, cert.P, cert.Q, cert.f, Poly("z", [0, 1, 1]))
    with pytest.raises(CertificationError, match="do not match the kernel "
                                                 "group counts"):
        certify(cert.beta, cert.P, cert.Q, cert.f, cert.g,
                spec=order2_point_spec(lam=F(2)))
    # the other split of f g = (z^2 - 1)^2 into monic quadratics
    with pytest.raises(CertificationError, match=r"^normalization: x\^0 row "
                                                 r"of P psi is not g"):
        certify(cert.beta, cert.P, cert.Q, Poly("z", [1, -2, 1]),
                Poly("z", [1, 2, 1]))
    # the positive-power check, through a tampered wave function: psi * x
    wave = darboux.bessel_wave
    with monkeypatch.context() as m:
        m.setattr(darboux, "bessel_wave",
                  lambda beta, depth: wave(beta, depth).shift(1, 0))
        with pytest.raises(CertificationError, match="normalization: "
                                                     r"positive power x\^1"):
            certify(cert.beta, cert.P, cert.Q, cert.f, cert.g)
    # h(L) is built in x, so factors in z, alone or together, never certify
    for P, Q in ((cert.P.relabel("z"), cert.Q.relabel("z")),
                 (cert.P.relabel("z"), cert.Q), (cert.P, cert.Q.relabel("z"))):
        with pytest.raises(BispectralError):
            certify(cert.beta, P, Q, cert.f, cert.g, spec=cert.spec)


def test_certify_catches_a_lossy_graded_product(monkeypatch):
    # on a monomial kernel the b-side factors are Laurent: the DFORM
    # witness multiplies them by graded parts and the DEL witness by the
    # Leibniz rule, so a graded product that drops a part fails the dual
    # witness alone
    bi = BesselIndex.parse("2/3,1/3")
    cert = build_certificate(
        monomial_kernel(bi, [[(F(2, 3), F(1)), (F(8, 3), F(1))]]))
    P_b, g_b = involute_P(cert.P, cert.g, bi)
    Q_b, f_b = involute_Q(cert.Q, cert.f, bi)
    certify(bi, P_b, Q_b, f_b, g_b)
    graded, dropped = weyl._graded_product, []

    def lossy(left, right):
        parts = graded(left, right)
        dropped.append(parts.pop(max(parts)))
        return parts

    monkeypatch.setattr(weyl, "_graded_product", lossy)
    for form in (DEL, DFORM):
        with pytest.raises(CertificationError,
                           match="product disagrees between coordinate forms"):
            certify(bi, P_b.convert(form), Q_b.convert(form), f_b, g_b)
    assert len(dropped) == 2


def test_certificate_json_round_trip():
    cert = build_certificate(rank1_spec())
    back = DarbouxCertificate.from_json(cert.to_json())
    assert back.P == cert.P and back.Q == cert.Q
    assert back.f == cert.f and back.g == cert.g and back.h == cert.h
    assert back.spec.to_json() == cert.spec.to_json()


def test_banded_rows_reference_values_and_collision():
    t = {(0, 0): F(1), (0, 1): F(2), (1, 0): F(1), (1, 1): F(-1)}
    assert banded_rows(BesselIndex.parse("5/2,-3/2"), 2, t) == [
        [1, 0, 1, 0], [2, F(1, 12), -1, F(-1, 4)]]
    # 3/2 = -1/2 + N: the depth-2 ladder of -1/2 runs into the other weight
    with pytest.raises(UsageError, match="ladder collision"):
        banded_rows(BesselIndex.parse("-1/2,3/2"), 2, t)


def test_spec_json_round_trip():
    spec = order2_point_spec()
    assert KernelSpec.from_json(spec.to_json()).to_json() == spec.to_json()
    spec2 = rank1_spec()
    assert KernelSpec.from_json(spec2.to_json()).to_json() == spec2.to_json()


def test_ansatz_budget_names_what_it_tried(monkeypatch):
    # no candidate certifies, so the ansatz spends its whole budget
    monkeypatch.setattr(darboux, "MAX_ANSATZ_DOUBLINGS", 1)
    monkeypatch.setattr(darboux, "_assemble", lambda *args: None)
    shapes = []
    nullspace = linalg.nullspace

    def spy(rows, ncols):
        sols = nullspace(rows, ncols)
        shapes.append((len(rows), ncols, len(sols)))
        return sols

    monkeypatch.setattr(linalg, "nullspace", spy)
    spec = order2_point_spec()
    val = validate_spec(spec)
    base = max(1, val.n * val.h.degree)
    with pytest.raises(InconsistentSpecError) as exc:
        build_certificate(spec)
    msg = str(exc.value)
    assert f"degree bounds 0..{base}, doubled from {base} in " \
        "darboux.MAX_ANSATZ_DOUBLINGS = 1 rounds;" in msg
    assert max(c for _, c, _ in shapes) == (val.n + 1) * (base + 1)
    rows, cols, _ = max(shapes, key=lambda s: s[0] * s[1])
    assert f"largest system {rows} x {cols}," in msg
    assert msg.endswith(f"last nullspace dimension {shapes[-1][2]}")
