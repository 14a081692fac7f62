"""Independent oracle: pairs checked with sympy's own calculus.

The three golden documents, and seeded pairs that the library builds
(``build_certificate`` + ``make_pair``), are read as JSON and their
operators rebuilt as sympy rational functions; the checks use none of the
library's operator or series code.  So are seeded random operator products
A B in both forms, against sympy's composition of A and B.  Two operators
are equal exactly when they agree on x^a for a symbolic exponent a: an
operator sum_k c_k(x) D^k (D = x d/dx) sends x^a to x^a sum_k c_k(x) a^k,
a polynomial in a whose coefficients are the c_k.
So every identity is checked on x^a, carried as x^a * R(x, a) with R in
sympy's rational function field Q(x, a), where d/dx (x^a R) = x^a (a R / x
+ dR/dx).  The at-zero kernel elements x^g (ln x)^j are checked as sympy
expressions, and so are orbit conditions on weights whose wave function
terminates.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

sympy = pytest.importorskip("sympy")

from sympy.polys.fields import field  # noqa: E402

from bispectral import (DEL, DFORM, AtPointGroup,  # noqa: E402
                        AtZeroGroup, BesselIndex, DiffOp, KernelSpec, Poly,
                        RationalFunction, banded_rows, build_certificate,
                        make_pair, monomial_kernel)

GOLDEN = Path(__file__).resolve().parents[1] / "src" / "bispectral" / "golden"
FIELD, X, A = field("x,a", sympy.QQ)
x = sympy.Symbol("x")


def _poly(coeffs, var):
    return sum(sympy.Rational(c) * var ** k for k, c in enumerate(coeffs))


def _operator(doc, var=X):
    """(form, coefficients) of an operator document, written in var."""
    return doc["form"], [_poly(c["num"], var) / _poly(c["den"], var)
                         for c in doc["coeffs"]]


def _apply(op, R):
    """S with op(x^a R) = x^a S."""
    form, coeffs = op
    out, power = FIELD(0), R
    for k, c in enumerate(coeffs):
        if k:
            step = A * power / X + power.diff(X)
            power = step if form == "del" else X * step
        out += c * power
    return out


def _chain(*ops):
    """The image of x^a under the composition ops[0] ... ops[-1], over x^a."""
    R = FIELD(1)
    for op in reversed(ops):
        R = _apply(op, R)
    return R


def _at_base(poly_coeffs, beta):
    """The image of x^a under p(L_beta), L_beta = x^-N prod (D - b_i)."""
    R, out = FIELD(1), FIELD(0)
    for k, c in enumerate(poly_coeffs):
        if k:
            # one more L_beta, with D (x^a S) = x^a (a S + x dS/dx)
            for b in beta:
                R = A * R + X * R.diff(X) - sympy.Rational(b) * R
            R = R / X ** len(beta)
        out += sympy.Rational(c) * R
    return out


def _same(lhs, rhs):
    return lhs - rhs == 0


def _elements(spec):
    """The at-zero kernel elements x^g (ln x)^j of a spec, as expressions."""
    ell = sympy.Symbol("ell")
    N = spec["beta"]["N"]
    beta = [sympy.Rational(b) for b in spec["beta"]["beta"]]
    out = []
    for group in spec["at_zero"]:
        b0 = beta[group["base_index"]]
        seed = sum(sympy.Rational(c) * x ** (b0 + k * N) * ell ** j
                   for k, row in enumerate(group["b"])
                   for j, c in enumerate(row))
        for j in range(group["j0"] + 1):
            out.append(sympy.diff(seed, ell, j).subs(ell, sympy.log(x)))
    return out


def _apply_fn(op, f):
    """op applied to an explicit function of x."""
    form, coeffs = op
    out, power = 0, f
    for k, c in enumerate(coeffs):
        if k:
            power = sympy.diff(power, x)
            power = power if form == "del" else x * power
        out += c * power
    return sympy.simplify(out)


def _check_pair(doc):
    """Both factorizations, both eigenvalue identities and the kernel."""
    cert = doc["provenance"]
    beta = doc["beta"]["beta"]
    P, Q = _operator(cert["P"]), _operator(cert["Q"])
    P_expr = _operator(cert["P"], x)
    P_b, Q_b = _operator(doc["P_b"]), _operator(doc["Q_b"])
    L, Lambda = _operator(doc["L"]), _operator(doc["Lambda"])  # Lambda in z
    assert doc["L"]["var"] == "x" and doc["Lambda"]["var"] == "z"
    assert _same(_chain(L), _chain(P, Q))
    assert _same(_chain(Q, P), _at_base(cert["h"], beta))
    assert _same(_chain(Lambda), _chain(P_b, Q_b))
    assert _same(_chain(Q_b, P_b), _at_base(doc["theta"], beta))
    # a wrong operator is told apart
    assert not _same(_chain(Q, P), _at_base(cert["h"] + ["1"], beta))
    elements = _elements(cert["spec"])
    for element in elements:
        assert _apply_fn(P_expr, element) == 0
    assert _apply_fn(P_expr, x ** sympy.Rational(1, 7)) != 0


@pytest.mark.parametrize("name", ["rank1", "example4", "dg_even"])
def test_golden_pair_identities(name):
    _check_pair(json.loads((GOLDEN / f"{name}.json").read_text())["pair"])


def _point_spec(rng, beta, lams, avals):
    group = AtPointGroup(Fraction(rng.choice(lams)),
                         (Fraction(1), Fraction(rng.choice(avals))))
    return KernelSpec(BesselIndex.parse(beta), (), (group,))


def _banded_spec(rng, k):
    bi = BesselIndex(2, (Fraction(2 * k + 1, 2), Fraction(1 - 2 * k, 2)))
    values = [Fraction(s * v) for s in (1, -1)
              for v in (1, 2, Fraction(1, 2), Fraction(3, 2))]
    t = {(i, 0): rng.choice(values) for i in range(bi.N)}
    gammas = bi.power(1)
    rows = [[(gammas[i], c) for i, c in enumerate(row) if c]
            for row in banded_rows(bi, 1, t)]
    return monomial_kernel(bi, rows)


BUILT = {
    "point-N2": lambda rng: _point_spec(rng, "2/3,1/3", (1, -1, 2, -2),
                                        (1, Fraction(-1, 2), 2)),
    "point-N3": lambda rng: _point_spec(rng, "1/3,2/3,2", (1, 2),
                                        (1, Fraction(1, 2))),
    "banded-k2": lambda rng: _banded_spec(rng, 2),
    # the seed x^(1/2) ln x + x^(5/2) and its ell-derivative x^(1/2): P and
    # Q both of order 2, h = y^2
    "log": lambda rng: KernelSpec(
        BesselIndex.parse("1/2,1/2"),
        (AtZeroGroup(0, ((Fraction(0), Fraction(1)), (Fraction(1),))),), ()),
}


@pytest.mark.parametrize("name", sorted(BUILT))
def test_built_pair_identities(name):
    spec = BUILT[name](random.Random(f"sympy-oracle-{name}"))
    doc = json.loads(json.dumps(make_pair(build_certificate(spec)).to_json()))
    _check_pair(doc)


# denominators with repeated, x-power and x^N-pattern factors, so that
# products in both forms run the Leibniz table, and powers of x, so that
# DFORM ones run the graded product too
DENS = ([0, 0, 1], [1, -2, 1], [0, 1, 2], [-2, 0, 0, 1],
        [0, 4, 0, 0, -4, 0, 0, 1], [1])


def _rand_op(rng, form):
    coeffs = []
    for _ in range(rng.randint(1, 4)):
        num = Poly("x", [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                         for _ in range(rng.randint(1, 3))])
        coeffs.append(RationalFunction(num, Poly("x", rng.choice(DENS))))
    return DiffOp("x", form, coeffs)


@pytest.mark.parametrize("form", [DEL, DFORM])
def test_random_products(form):
    # the library's product A B against sympy's composition on x^a; the
    # operators reach sympy only as documents
    rng = random.Random(f"sympy-oracle-products-{form}")
    for _ in range(20):
        A = _rand_op(rng, form)
        B = _rand_op(rng, rng.choice([DEL, DFORM]))
        docs = json.loads(json.dumps([A.to_json(), B.to_json(),
                                      (A * B).to_json()]))
        assert docs[2]["form"] == form
        A_op, B_op, AB = (_operator(doc) for doc in docs)
        assert _same(_chain(AB), _chain(A_op, B_op))


# weights 2, -1: L = x^-2 (D - 2)(D + 1) has the terminating wave function
# psi = e^{xz} (1 - 1/(xz)), so an orbit condition is a closed expression
@pytest.mark.parametrize("a", [("1", "1/2"), ("1", "1", "1", "1")],
                         ids=["jet-order-1", "jet-order-3"])
def test_orbit_kernel_is_annihilated(a):
    z, lam = sympy.Symbol("z"), 1
    psi = sympy.exp(x * z) * (1 - 1 / (x * z))
    D_psi = x * sympy.diff(psi, x)
    L_psi = (x * sympy.diff(D_psi, x) - D_psi - 2 * psi) / x ** 2
    assert sympy.simplify(L_psi - z ** 2 * psi) == 0
    group = AtPointGroup(Fraction(lam), tuple(Fraction(c) for c in a))
    spec = KernelSpec(BesselIndex.parse("2,-1"), (), (group,))
    P = _operator(json.loads(json.dumps(
        build_certificate(spec).to_json()))["P"], x)
    # sum_k a_k (z d/dz)^k psi at z = lam, by sympy's own derivatives
    jets = [psi]
    for _ in a[1:]:
        jets.append(z * sympy.diff(jets[-1], z))
    condition = sum(sympy.Rational(c) * jet for c, jet in zip(a, jets))
    assert _apply_fn(P, condition.subs(z, lam)) == 0
    # the single jets are not annihilated
    assert _apply_fn(P, jets[0].subs(z, lam)) != 0
    assert _apply_fn(P, jets[1].subs(z, lam)) != 0
