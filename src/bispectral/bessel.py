"""Bessel-type operators, their powers, wave expansions and kernels.

The basic object is L = x^{-N} B(D), B(D) = (D - b_1)...(D - b_N), with
D = x d/dx and rational weights b_i summing to N(N-1)/2.

Graded form.  An operator whose denominator is a power of x is a finite
sum sum_a x^a c_a(D), the x^a f(D) basis of W_{1+infinity} (Kac-Radul
1993); ``weyl.graded_op`` writes such a sum as a ``DiffOp`` and
``weyl.graded_parts`` reads it back.  Since D x^b = x^b (D + b), the
product rule is

    x^a p(D) . x^b q(D) = x^{a+b} p(D + b) q(D),

so products of graded parts are products of polynomials in D (``weyl``
multiplies DFORM Laurent operators this way).  In
particular the powers of L are Bessel-type again:

    L^j = x^{-jN} I_j(D),  I_j = B(D - (j-1)N) ... B(D - N) B(D),

and every polynomial in L, and every sum_j L^j T_j(D), is written down in
closed form (``power_sum_parts``) rather than multiplied out.

The formal eigenfunction of L is e^{xz} (1 + sum a_k (xz)^{-k}); the a_k
are produced by a recursion that is derived here generically, by
expanding the conjugated operator with exact product arithmetic rather
than trusting a per-order formula.  It depends on xz alone, so D_z = D_x
on it, and a jet condition sum_k a_k D_z^k psi at z = lam is a(D) applied
to the one profile psi(x, lam) (``wave_jet_at``).

The a_k depend on the weights alone, and a_k needs only a_0..a_{k-1}, so
the coefficients to a shallower depth are a prefix of those to a deeper
one.  ``wave_coeffs`` therefore keeps the list it has computed on the
``BesselIndex`` instance and extends it when a deeper depth is asked for.
The list is kept per instance, not in a process-wide cache: one pipeline
shares one instance (a spec's weights are its certificate's and its
pair's), every loaded document makes a fresh one, and a long-lived process
keeps no coefficients of weights it no longer holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import UsageError
from .poly import Poly
from .quasi import ExpSeries, QuasiPolynomial, WaveSeries
from .scalars import (_shown, format_rational, parse_int, parse_rational,
                      parse_rationals)
from .weyl import DFORM, DiffOp, graded_op


@dataclass(frozen=True)
class BesselIndex:
    """A weight vector of length N whose entries sum to N(N-1)/2.

    ``wave_coeffs`` keeps its coefficients in the instance's ``__dict__``,
    outside the fields, so equality, hashing, ``repr`` and ``to_json`` do
    not see them.
    """

    N: int
    beta: tuple

    def __post_init__(self):
        if self.N < 1 or len(self.beta) != self.N:
            raise UsageError("weight vector length must equal N >= 1")
        object.__setattr__(self, "beta", tuple(Fraction(b) for b in self.beta))
        want = Fraction(self.N * (self.N - 1), 2)
        if sum(self.beta) != want:
            raise UsageError(f"weights must sum to N(N-1)/2 = {want}, "
                             f"got {_shown(sum(self.beta))}")

    @classmethod
    def parse(cls, text: str) -> "BesselIndex":
        parts = [parse_rational(p) for p in str(text).split(",") if p.strip()]
        return cls(len(parts), tuple(parts))

    def power(self, d: int) -> tuple:
        """The length-dN weight vector of the d-th power operator."""
        if d < 1:
            raise UsageError("power must be >= 1")
        out = []
        for b in self.beta:
            out.extend(b + k * self.N for k in range(d))
        return tuple(out)

    def rungs(self, gamma) -> dict:
        """The weights that reach gamma by steps of N: {i: k} for every
        gamma = b_i + k N with k >= 0, in the order of the weights."""
        out = {}
        for i, b in enumerate(self.beta):
            step = (Fraction(gamma) - b) / self.N
            if step.denominator == 1 and step >= 0:
                out[i] = int(step)
        return out

    def multiplicity(self, gamma) -> int:
        """How many weights reach gamma by steps of N."""
        return len(self.rungs(gamma))

    def to_json(self):
        return {"N": self.N, "beta": [format_rational(b) for b in self.beta]}

    @classmethod
    def from_json(cls, data):
        return cls(parse_int(data["N"], "N"),
                   parse_rationals(data["beta"], "weights"))

    def __str__(self):
        return "(" + ", ".join(str(b) for b in self.beta) + ")"


def indicial_poly(entries, var="y") -> Poly:
    """prod (y - g) over the given exponents."""
    out = Poly.const(var, 1)
    for g in entries:
        out = out * Poly(var, (-Fraction(g), 1))
    return out


def bessel_poly(bi: BesselIndex) -> DiffOp:
    """The constant-coefficient D-polynomial prod (D - b_i)."""
    return DiffOp("x", DFORM, indicial_poly(bi.beta).coeffs)


def bessel_op(bi: BesselIndex) -> DiffOp:
    """x^{-N} prod (D - b_i), an operator of order N."""
    return graded_op({-bi.N: indicial_poly(bi.beta)})


def power_ladders(bi: BesselIndex, J: int):
    """[I_0, ..., I_J]: L^j = x^{-jN} I_j(D), I_j = B(y - (j-1)N) ... B(y)."""
    B = indicial_poly(bi.beta)
    out = [Poly.const("y", 1)]
    for j in range(1, J + 1):
        out.append(out[-1] * B.translate(-(j - 1) * bi.N))
    return out


def power_sum_parts(bi: BesselIndex, terms) -> dict:
    """The graded parts {-jN: I_j T_j} of sum_j L^j T_j(D), terms[j] = T_j."""
    terms = list(terms)
    ladders = power_ladders(bi, len(terms) - 1)
    return {-j * bi.N: ladder * t.relabel("y")
            for j, (ladder, t) in enumerate(zip(ladders, terms))
            if not t.is_zero}


def poly_at_bessel(bi: BesselIndex, p: Poly) -> DiffOp:
    """p(L) for a polynomial p, L = x^{-N} B(D) the base operator."""
    return graded_op(power_sum_parts(bi, [Poly.const("y", c)
                                          for c in p.coeffs]))


def _conjugated_images(bi: BesselIndex, depth: int, start: int = 0):
    """Laurent images b_m(z) of z^{-m} under prod(D + z - b_i) - z^N.

    Returned as (E, images): images[m] is a dict {absolute power: integer}
    holding E * b_m, m = start..depth, E a positive integer.
    """
    # polys[j] is the coefficient of D^j in the product, expanded one
    # factor at a time; the factors commute, and on the left
    # (D + z - b) a D^j = ((z - b) a + theta(a)) D^j + a D^(j+1)
    zero = Poly.zero("z")
    polys = [Poly.const("z", 1)]
    for b in bi.beta:
        step = Poly("z", (-b, 1))
        polys = [step * a + a.theta() + lower
                 for a, lower in zip(polys + [zero], [zero] + polys)]
    E = math.lcm(*(p.den for p in polys))
    terms = [[(t, n * (E // p.den)) for t, n in enumerate(p.nums) if n]
             for p in polys]
    images = {}
    for m in range(start, depth + 1):
        img = {}
        for j, ts in enumerate(terms):
            w = (-m) ** j
            if not w:
                continue
            for t, n in ts:
                img[t - m] = img.get(t - m, 0) + w * n
        img[bi.N - m] = img.get(bi.N - m, 0) - E
        images[m] = {k: v for k, v in img.items() if v}
    return E, images


def _next_wave_coeff(a, images, N: int) -> Fraction:
    """a_k for k = len(a), given a = [a_0, ..., a_{k-1}]: the z^{N-1-k}
    coefficient of sum_m a_m b_m vanishes, and only the images b_m with
    m >= k + 1 - N reach that power."""
    k = len(a)
    power = N - 1 - k
    acc = 0
    for m in range(max(0, k + 1 - N), k):
        v = images[m].get(power)
        if v:
            acc += a[m] * v
    pivot = images[k].get(power, 0)
    if not pivot:
        raise UsageError("degenerate recursion pivot")  # cannot happen
    return Fraction(-acc) / pivot


def wave_coeffs(bi: BesselIndex, depth: int):
    """The asymptotic coefficients a_1..a_depth of the formal eigenfunction.

    The list a_0 = 1, a_1, ... computed so far is kept on ``bi`` (see the
    module docstring); a deeper depth extends it from where it stopped and
    stores the longer list in its place, never changing a stored list.
    The answer is a fresh list, so a caller may change it.
    """
    if depth <= 0:
        return []
    a = vars(bi).get("_wave", [Fraction(1)])
    if len(a) <= depth:
        # the recursion is homogeneous in the images, so their common
        # denominator cancels
        _, images = _conjugated_images(bi, depth, max(0, len(a) + 1 - bi.N))
        a = list(a)
        while len(a) <= depth:
            a.append(_next_wave_coeff(a, images, bi.N))
        vars(bi)["_wave"] = a
    return a[1:depth + 1]


def bessel_wave(bi: BesselIndex, depth: int) -> WaveSeries:
    """The formal eigenfunction as a prefactor-stripped double series."""
    a = wave_coeffs(bi, depth)
    coeffs = {(0, 0): Fraction(1)}
    for m, am in enumerate(a, start=1):
        if am:
            coeffs[(-m, -m)] = am
    return WaveSeries(coeffs, (-depth, 0, -depth, 0))


def wave_jet_at(bi: BesselIndex, lam, depth: int) -> ExpSeries:
    """The profile psi(x, lam) = e^{lam x} (1 + sum_m a_m (lam x)^{-m}) as a
    series in x over Q, on the window (-depth, 0).

    The eigenfunction depends on w = xz alone, so D_z psi = D psi with
    D = x d/dx: the jet condition sum_k a_k D_z^k psi at z = lam is a(D)
    applied to this one profile.
    """
    lam = Fraction(lam)
    if lam == 0:
        raise UsageError("jets require a nonzero point; "
                         "use exponent conditions at 0 instead")
    coeffs = {0: Fraction(1)}
    coeffs.update({-m: am / lam ** m
                   for m, am in enumerate(wave_coeffs(bi, depth), start=1)})
    return ExpSeries(lam, coeffs, (-depth, 0))


def zero_exponent_basis(bi: BesselIndex, d0: int):
    """Quasi-monomial kernel basis of the d0-th power operator at the origin."""
    if d0 < 0:
        raise UsageError("depth at 0 must be >= 0")
    if d0 == 0:
        return []
    entries = bi.power(d0)
    mult = {}
    for g in entries:
        mult[g] = mult.get(g, 0) + 1
    out = []
    for g in sorted(mult):
        for j in range(mult[g]):
            out.append(QuasiPolynomial.monomial(g, j))
    return out
