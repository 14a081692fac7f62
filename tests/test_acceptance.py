"""Acceptance suite: one test per criterion, one printed line per result.

Everything here is exact (zero tolerance); runtime limits are part of the
criteria and are asserted.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the printed lines.
"""

import itertools
import random
import time
from fractions import Fraction

from bispectral import (AtPointGroup, BesselIndex, CertificationError,
                        DiffOp, KernelSpec, Poly, RationalFunction,
                        SpecInvalidError, VerificationError, bessel_op,
                        bessel_plane_report, beta_prime, build_certificate,
                        certify, cleared_coefficients, closed_form_monomial,
                        make_pair, monomial_kernel, spectral_algebra,
                        verify_pair)
from tests_support import (adjoint, brute_force_beta_primes,
                           closed_order2_factor, ladder_op, op_power)

F = Fraction


def _line(n, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {text}")
    assert ok, f"criterion {n} failed: {text}"


# -- criterion 1: the rank-one golden pair ----------------------------------

def test_criterion_1_rank_one_golden_pair():
    t0 = time.monotonic()
    bi = BesselIndex.parse("0")
    spec = monomial_kernel(bi, [[(F(1), F(1))]])
    cert = build_certificate(spec)
    pair = make_pair(cert)
    report = verify_pair(pair, depth=10)
    elapsed = time.monotonic() - t0

    x2 = Poly("x", [0, 0, 1])
    z2 = Poly("z", [0, 0, 1])
    ok = (pair.L == DiffOp("x", "del", [RationalFunction(Poly("x", [-2]), x2), 0, 1])
          and pair.Lambda == DiffOp("z", "del",
                                    [RationalFunction(Poly("z", [-2]), z2), 0, 1])
          and pair.h == Poly("y", [0, 0, 1])
          and pair.theta == Poly("y", [0, 0, 1])
          and cert.Q * cert.P == DiffOp("x", "del", [0, 0, 1])
          and report["residuals"] == [0, 0]
          and elapsed < 1.0)
    _line(1, ok, f"L, Lambda, h, theta exact; QP = d^2; residuals 0 "
                 f"at depth 10; {elapsed:.3f}s < 1s")


# -- criterion 2: the order-two point kernel reproduction --------------------

def test_criterion_2_order_two_point_kernel():
    t0 = time.monotonic()
    nu, a, lam = F(1, 3), F(1), F(1)
    bi = BesselIndex(2, (1 - nu, nu))
    cert = build_certificate(
        KernelSpec(bi, (), (AtPointGroup(lam, (F(1), a)),)))
    mu2 = (a + 1 - a ** 2 * nu * (nu - 1)) / (a ** 2 * lam ** 2)
    n, pks = cleared_coefficients(cert.P, 2)
    b = -a / (a + 1)
    pair = make_pair(cert)
    checks = [
        pks[2] == Poly("y", [F(-20, 9), 1]),
        pks[1] == Poly("y", [F(20, 9), -3]),
        pks[0] == Poly("y", [F(-40, 81), F(58, 9), -1]),
        b == F(-1, 2),
        cert.Q == adjoint(closed_order2_factor(b, lam ** 2, mu2)),
        pair.g_b == Poly("z", [-mu2, 0, 1]),
        pair.f_b == Poly("z", [-mu2, 0, 1]),
        pair.P_b == closed_order2_factor(a, mu2, lam ** 2),
        pair.Q_b == adjoint(closed_order2_factor(b, mu2, lam ** 2)),
    ]

    rng = random.Random(777)
    extra = 0
    while extra < 3:
        nu_r = F(rng.randint(-3, 4), rng.choice([3, 5, 7]))
        a_r = F(rng.randint(-4, 4), rng.choice([1, 2, 3]))
        lam_r = F(rng.randint(-3, 3), rng.choice([1, 2]))
        if a_r in (0, -1) or lam_r == 0:
            continue
        extra += 1
        c = build_certificate(
            KernelSpec(BesselIndex(2, (1 - nu_r, nu_r)), (),
                       (AtPointGroup(lam_r, (F(1), a_r)),)))
        checks.append(c.witnesses["product"] and c.witnesses["normalization"])
    elapsed = time.monotonic() - t0
    checks.append(elapsed < 30.0)
    _line(2, all(checks),
          f"exact p_k, Q and involuted factors; 3 random triples certified; "
          f"{elapsed:.2f}s < 30s")


# -- criterion 3: power identity ---------------------------------------------

def test_criterion_3_power_identity():
    t0 = time.monotonic()
    rng = random.Random(333)
    ok = True
    for _ in range(20):
        n = rng.randint(1, 3)
        d = rng.randint(1, 3)
        entries = [F(rng.randint(-6, 6), rng.choice([1, 2, 3]))
                   for _ in range(n - 1)]
        entries.append(F(n * (n - 1), 2) - sum(entries))
        bi = BesselIndex(n, tuple(entries))
        ok = ok and (op_power(bessel_op(bi), d) == ladder_op(bi.power(d)))
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10.0
    _line(3, ok, f"20 random power identities exact; {elapsed:.2f}s < 10s")


# -- criterion 4: closed forms equal the division pipeline -------------------

def _random_monomial(rng):
    while True:
        nw = rng.randint(1, 3)
        d = rng.randint(1, 2)
        entries = [F(rng.randint(-5, 5), rng.choice([1, 2, 3, 5]))
                   for _ in range(nw - 1)]
        entries.append(F(nw * (nw - 1), 2) - sum(entries))
        try:
            bi = BesselIndex(nw, tuple(entries))
        except Exception:
            continue
        gammas = bi.power(d)
        if len(set(gammas)) != len(gammas):
            continue
        nrows = rng.randint(1, min(3, len(gammas)))
        rows = []
        for _ in range(nrows):
            s = rng.randrange(nw)
            base = bi.beta[s]
            row = [F(0)] * len(gammas)
            for k in range(d):
                if rng.random() < 0.7:
                    row[gammas.index(base + k * bi.N)] = F(rng.randint(-4, 4))
            if not any(row):
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
        return bi, gammas, rows, spec


def test_criterion_4_closed_form_equivalence():
    rng = random.Random(444)
    ok = True
    for _ in range(25):
        bi, gammas, rows, spec = _random_monomial(rng)
        cert = build_certificate(spec)
        pair = make_pair(cert)
        cf = closed_form_monomial(bi, gammas, rows)
        ok = ok and (cf["P"] == cert.P and cf["Q"] == cert.Q
                     and cf["f"] == cert.f and cf["g"] == cert.g
                     and cf["P_b"] == pair.P_b and cf["Q_b"] == pair.Q_b
                     and cf["f_b"] == pair.f_b and cf["g_b"] == pair.g_b)
        if not ok:
            break
    _line(4, ok, "25 random log-free monomial kernels: closed forms equal "
                 "the division pipeline exactly")


# -- criterion 5: spectral algebras ------------------------------------------

def _generic_weights(rng, n):
    while True:
        entries = [F(rng.randint(-8, 8), rng.choice([3, 5, 7]))
                   for _ in range(n - 1)]
        entries.append(F(n * (n - 1), 2) - sum(entries))
        diffs_ok = all((a - b).denominator != 1
                       for a, b in itertools.combinations(entries, 2))
        if diffs_ok:
            return BesselIndex(n, tuple(entries))


def test_criterion_5_spectral_algebras():
    rng = random.Random(555)
    ok = True
    for _ in range(10):
        n = rng.choice([2, 3])
        bi = _generic_weights(rng, n)
        rep = bessel_plane_report(bi, 4 * n)
        ok = ok and rep.generic_to_bound and rep.rank == n
        ok = ok and rep.degrees == tuple(range(n, 4 * n + 1, n))
        if not ok:
            break
    cert = build_certificate(
        KernelSpec(BesselIndex.parse("2/3,1/3"), (),
                   (AtPointGroup(F(1), (F(1), F(1))),)))
    rep = spectral_algebra(cert, 8)
    ok = ok and rep.generators == (4, 6) and rep.rank == 2
    _line(5, ok, "10 generic draws see only the base algebra; point kernel "
                 "reports generators (4, 6) and rank 2")


# -- criterion 6: shifted weights --------------------------------------------

def test_criterion_6_shifted_weights():
    rng = random.Random(666)
    ok = True
    for _ in range(50):
        bi, gammas, rows, spec = _random_monomial(rng)
        prime, info = beta_prime(spec)
        ok = ok and sum(prime) == F(bi.N * (bi.N - 1), 2)
        ok = ok and prime in brute_force_beta_primes(bi, gammas, rows)
        if not ok:
            break
    _line(6, ok, "50 random kernels: weight sum preserved and the shift "
                 "matches brute-force association counting")


# -- criterion 7: property suites --------------------------------------------

def test_criterion_7_property_suites():
    from tests_support import rand_laurent_op, rand_op, rand_quasi

    rng = random.Random(7777)
    cases = 0
    ok = True
    while cases < 500:
        a, b, c = (rand_op(rng) for _ in range(3))
        ok = ok and (a * b) * c == a * (b * c)
        ok = ok and a * (b + c) == a * b + a * c
        ok = ok and adjoint(a * b) == adjoint(b) * adjoint(a)
        if not b.is_zero:
            q, r = a.left_divide(b)
            ok = ok and q * b + r == a
            ok = ok and (r.is_zero or r.order < b.order)
            cases += 1
        cases += 4
        if not ok:
            break
    quasi_cases = 0
    while quasi_cases < 200 and ok:
        a, b = rand_laurent_op(rng), rand_laurent_op(rng)
        if a.is_zero or b.is_zero:
            continue
        q = rand_quasi(rng)
        ok = ok and q.apply(a * b) == q.apply(b).apply(a)
        quasi_cases += 1
    _line(7, ok, f"{cases} operator-algebra cases and {quasi_cases} "
                 "module-action cases, all exact")


# -- criterion 8: negative controls ------------------------------------------

def test_criterion_8_negative_controls():
    results = []
    cert = build_certificate(monomial_kernel(BesselIndex.parse("0"),
                                             [[(F(1), F(1))]]))
    try:
        certify(cert.beta, cert.P, cert.Q + DiffOp("x", "del", (1,)),
                cert.f, cert.g)
        results.append(False)
    except CertificationError:
        results.append(True)

    import dataclasses
    pair = make_pair(cert)
    bad = dataclasses.replace(pair, theta=pair.theta + Poly.const("y", 1))
    try:
        verify_pair(bad, depth=10)
        results.append(False)
    except VerificationError:
        results.append(True)

    try:
        monomial_kernel(BesselIndex.parse("0,1"),
                        [[(F(0), F(1)), (F(1), F(1))]])
        results.append(False)
    except SpecInvalidError:
        results.append(True)

    _line(8, all(results), "tampered complement, perturbed eigenvalue and "
                           "congruence-violating spec all rejected with "
                           "their designated error classes")
