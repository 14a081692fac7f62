"""Ordinary differential operators with rational-function coefficients.

Two coordinate forms are kept for the same algebra:

* ``DEL``  : sum_k a_k(x) * d^k          (d = d/dx)
* ``DFORM``: sum_k a_k(x) * D^k          (D = x d/dx)

Normal form.  An operator is stored as one denominator over polynomial
numerators, den^{-1} sum_k nums[k] del^k (del = d or D), with den monic and
gcd(den, nums[0], ..., nums[order]) = 1.  The form is canonical: den is the
lcm of the reduced denominators of the coefficients a_k = nums[k] / den, so
equal operators have equal fields and are compared structurally.  It is
the paper's cleared form P = (x^n p_n(x^N))^{-1} sum_k p_k(x^N) D^k.  The
constructor clears the denominators of rational coefficients; every
arithmetic result is built by ``from_cleared``, which takes out the one
common factor of den and the numerators with a single content pass.
``coeffs`` is the per-coefficient reduced view, computed once per operator,
and so is the operator in the other form: ``convert`` links the two, so
op.convert(DFORM).convert(DEL) is op.  The DEL operator keeps its DFORM
form alive and the DFORM one links back weakly, so no cycle forms.

Multiplication.  An operator over a power of x is a finite sum sum_a x^a
c_a(D), the x^a f(D) basis of W_{1+infinity} (Kac-Radul 1993); its DFORM
fields hold the parts transposed (``graded_parts``, ``graded_op``).  A
DFORM product of two such operators multiplies parts by

    x^a p(D) . x^b q(D) = x^{a+b} p(D + b) q(D)

and writes the result once, with no content pass.  Every other product
uses the Leibniz rule through the form's derivation (a -> a' in DEL,
a -> x a' in DFORM) on the numerators: each power of the derivation raises
the denominator v of the right factor by r = v / gcd(v, delta v).
``_leibniz`` is the one recurrence of this rule; the involution's right
coefficient form runs it too.  DEL products stay on the Leibniz rule even
for Laurent factors, so a product taken in both forms checks one route
against the other (``certify``).
Conversion between forms uses the Stirling expansions
x^k d^k = D(D-1)...(D-k+1) and D^j = sum_k S(j, k) x^k d^k, so round trips
are identities and the two forms can cross-check each other.
"""

from __future__ import annotations

import functools
import math
import weakref
from fractions import Fraction

from .errors import DomainError, UsageError
from .poly import Poly, RationalFunction, _poly, power_text, signed_sum
from .scalars import _shown

DEL = "del"
DFORM = "D"
_FORMS = (DEL, DFORM)


def _coerce_rf(var, c):
    if isinstance(c, (int, Fraction)):
        return RationalFunction.const(var, c)
    if not isinstance(c, (RationalFunction, Poly)):
        raise UsageError(f"cannot use {c!r} as an operator coefficient")
    if c.var != var:
        raise UsageError("coefficient in the wrong variable")
    return c if isinstance(c, RationalFunction) else RationalFunction(c)


@functools.lru_cache(maxsize=None)
def _falling(k):
    """Coefficients of D(D-1)...(D-k+1) = x^k d^k in powers of D."""
    if not k:
        return (1,)
    prev = _falling(k - 1)
    return tuple(a - (k - 1) * b for a, b in zip((0,) + prev, prev + (0,)))


@functools.lru_cache(maxsize=None)
def _stirling2(j):
    """S(j, k), k = 0..j, with D^j = sum_k S(j, k) x^k d^k."""
    if not j:
        return (1,)
    prev = _stirling2(j - 1)
    return tuple(a + k * b for k, (a, b) in
                 enumerate(zip((0,) + prev, prev + (0,))))


class DiffOp:
    """A finite-order differential operator; immutable value semantics."""

    __slots__ = ("var", "form", "den", "nums", "_coeffs", "_other",
                 "__weakref__")

    def __init__(self, var, form, coeffs=()):
        if form not in _FORMS:
            raise UsageError(f"unknown form {_shown(form)}")
        cs = [_coerce_rf(var, c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        den = Poly.lcm(var, dict.fromkeys(c.den for c in cs))
        self.var, self.form, self.den = var, form, den
        self.nums = tuple(c.num * (den // c.den) for c in cs)
        self._coeffs = tuple(cs)
        self._other = None

    @classmethod
    def from_cleared(cls, var, form, den, nums, common=None):
        """den^{-1} sum_k nums[k] del^k in normal form.

        One content pass divides den and the numerators by their common
        factor, which must divide ``common`` (default: den itself), and
        makes den monic.
        """
        nums = list(nums)
        while nums and nums[-1].is_zero:
            nums.pop()
        if not nums:
            return cls(var, form)
        t = den if common is None else common
        # shortest numerators first: Euclid then starts on the least degree
        for p in sorted((p for p in nums if p), key=lambda p: p.degree):
            if t.degree <= 0:
                break
            t = Poly.gcd(t, p)
        if t.degree > 0:
            den = den // t
            nums = [p // t for p in nums]
        if den.leading != 1:
            inv = 1 / den.leading
            den, nums = den.scale(inv), [p.scale(inv) for p in nums]
        out = cls.__new__(cls)
        out.var, out.form, out.den, out.nums = var, form, den, tuple(nums)
        out._coeffs = out._other = None
        return out

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, var, form=DEL):
        return cls(var, form)

    # -- basics ------------------------------------------------------------

    @property
    def coeffs(self):
        """The reduced coefficients nums[k] / den, one per power.

        Documents, printing and error messages read this view; arithmetic
        and series application work on den and nums.
        """
        if self._coeffs is None:
            self._coeffs = tuple(RationalFunction(p, self.den)
                                 for p in self.nums)
        return self._coeffs

    @property
    def order(self):
        return len(self.nums) - 1

    @property
    def is_zero(self):
        return not self.nums

    def coeff(self, k):
        if 0 <= k < len(self.nums):
            return self.coeffs[k]
        return RationalFunction.const(self.var, 0)

    def _check(self, other):
        if self.var != other.var:
            raise UsageError(
                f"operators in different variables {self.var!r}, {other.var!r}")

    def _derive(self, p):
        return p.derivative() if self.form == DEL else p.theta()

    # -- linear structure ---------------------------------------------------

    def __neg__(self):
        return DiffOp.from_cleared(self.var, self.form, self.den,
                                   [-p for p in self.nums], Poly.const(self.var, 1))

    def __add__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        self._check(other)
        o = other.convert(self.form)
        if self.is_zero or o.is_zero:
            return o if self.is_zero else self
        # Henrici's sum over the denominators' gcd g: with reduced operands
        # only a factor of g can divide the new denominator and numerators
        g = Poly.gcd(self.den, o.den)
        ra, rb = self.den // g, o.den // g
        n, pad = max(len(self.nums), len(o.nums)), (Poly.zero(self.var),)
        nums = [a * rb + b * ra for a, b in
                zip(self.nums + pad * (n - len(self.nums)),
                    o.nums + pad * (n - len(o.nums)))]
        return DiffOp.from_cleared(self.var, self.form, o.den * ra, nums, g)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """Multiply by a constant scalar."""
        if not c:
            return DiffOp.zero(self.var, self.form)
        return DiffOp.from_cleared(self.var, self.form, self.den,
                                   [p.scale(c) for p in self.nums],
                                   Poly.const(self.var, 1))

    # -- multiplication ------------------------------------------------------

    def __mul__(self, other):
        """Operator composition self . other."""
        if not isinstance(other, DiffOp):
            return NotImplemented
        self._check(other)
        o = other.convert(self.form)
        if self.is_zero or o.is_zero:
            return DiffOp.zero(self.var, self.form)
        if self.form == DFORM and _is_monomial(self.den) and \
                _is_monomial(o.den):
            return graded_op(_graded_product(graded_parts(self),
                                             graded_parts(o)), self.var)
        w, nums = _leibniz(self._derive, self.nums, o.den, o.nums)
        return DiffOp.from_cleared(self.var, self.form, self.den * w, nums)

    # -- form conversion ------------------------------------------------------

    def convert(self, form):
        """The same operator in the other coordinate form (exact bijection)."""
        if form not in _FORMS:
            raise UsageError(f"unknown form {form!r}")
        if form == self.form:
            return self
        out = self._other
        if isinstance(out, weakref.ref):
            out = out()
        if out is None:
            out = self._converted(form)
            # the DEL operator, the form documents hold, keeps its DFORM
            # form alive; the link back is weak, since links both ways
            # would make a cycle that only the cyclic collector frees
            dform, del_ = (out, self) if form == DFORM else (self, out)
            del_._other, dform._other = dform, weakref.ref(del_)
        return out

    def _converted(self, form):
        var, m = self.var, self.order
        out = [Poly.zero(var)] * (m + 1)
        if form == DFORM:
            # d^k = x^-k D(D-1)...(D-k+1), over the denominator den x^m
            den = self.den.shift_mul(max(m, 0))
            for k, p in enumerate(self.nums):
                for j, c in enumerate(_falling(k)):
                    out[j] = out[j] + p.shift_mul(m - k).scale(c)
        else:
            # D^j = sum_k S(j, k) x^k d^k
            den = self.den
            for j, p in enumerate(self.nums):
                for k, c in enumerate(_stirling2(j)):
                    out[k] = out[k] + p.scale(c)
            out = [p.shift_mul(k) for k, p in enumerate(out)]
        # the Stirling matrices are unitriangular over Z, so only a power
        # of x can divide den and every new numerator
        return DiffOp.from_cleared(var, form, den, out,
                                   Poly.monomial(var, den.valuation()))

    # -- Euclidean division ------------------------------------------------------

    def left_divide(self, divisor: "DiffOp"):
        """Q, R with self = Q * divisor + R and order(R) < order(divisor)."""
        return self._divide(divisor, divisor_first=False)

    def right_divide(self, divisor: "DiffOp"):
        """Q, R with self = divisor * Q + R and order(R) < order(divisor)."""
        return self._divide(divisor, divisor_first=True)

    def _divide(self, divisor, divisor_first):
        self._check(divisor)
        if divisor.is_zero:
            raise DomainError("division by the zero operator")
        d = divisor.convert(self.form)
        var, zero = self.var, Poly.zero(self.var)
        rem = self
        quot = DiffOp.zero(var, self.form)
        while not rem.is_zero and rem.order >= d.order:
            k = rem.order - d.order
            # leading ratio (rem_lead / rem.den) / (d_lead / d.den)
            term = DiffOp.from_cleared(
                var, self.form, rem.den * d.nums[-1],
                [zero] * k + [rem.nums[-1] * d.den])
            quot = quot + term
            rem = rem - (d * term if divisor_first else term * d)
        return quot, rem

    # -- miscellany -----------------------------------------------------------

    def relabel(self, var):
        """The same operator written in another variable name."""
        if var == self.var:
            return self
        return DiffOp.from_cleared(var, self.form, self.den.relabel(var),
                                   [p.relabel(var) for p in self.nums],
                                   Poly.const(var, 1))

    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        if self.var != other.var:
            return False
        o = other.convert(self.form)
        return self.den == o.den and self.nums == o.nums

    def __hash__(self):
        a = self.convert(DEL)
        return hash((self.var, a.den, a.nums))

    def to_json(self):
        return {"var": self.var, "form": self.form,
                "coeffs": [c.to_json() for c in self.coeffs]}

    @classmethod
    def from_json(cls, data):
        var = data["var"]
        return cls(var, data["form"],
                   [RationalFunction.from_json(var, c) for c in data["coeffs"]])

    def __repr__(self):
        return f"DiffOp({self.to_str()!r})"

    def to_str(self):
        sym = f"d_{self.var}" if self.form == DEL else f"D_{self.var}"
        terms = []
        for k in range(self.order, -1, -1):
            c = self.coeff(k)
            if c.is_zero:
                continue
            cs = c.to_str()
            if k and any(ch in cs for ch in "/+ "):
                cs = f"({cs})"
            terms.append((cs, power_text(sym, k)))
        return signed_sum(terms)

    __str__ = to_str


def _leibniz(derive, a, v, b):
    """(w, nums) with (sum_i a_i del^i) . v^{-1} sum_j b_j del^j equal to
    w^{-1} sum_j nums[j] del^j, for polynomials a_i, v, b_j and del the
    derivation ``derive``.

    del^i . (1/v) sum_j b_j del^j = (1/(v r^i)) sum_j c_ij del^j with
    r = v / gcd(v, delta v), since delta(v r^i) / (v r^(i-1)) = s + i delta r
    for s = delta v / gcd(v, delta v); so w = v r^m, m = len(a) - 1.
    """
    zero = Poly.zero(v.var)
    dv = derive(v)
    g = Poly.gcd(v, dv)
    r, s = v // g, dv // g
    dr = derive(r)
    m = len(a) - 1
    powers = [list(b)]
    for i in range(m):
        prev = powers[-1] + [zero]
        si = s + dr.scale(i)
        powers.append([derive(c) * r - c * si
                       + (prev[j - 1] * r if j else zero)
                       for j, c in enumerate(prev)])
    nums = [zero] * (m + len(b))
    for i, c_i in enumerate(a):
        f = c_i * r ** (m - i)
        for j, c in enumerate(powers[i]):
            nums[j] = nums[j] + f * c
    return v * r ** m, nums


def _is_monomial(den):
    """True when a monic denominator is a power of the variable."""
    return not any(den.nums[:-1])


def graded_op(parts, var="x") -> DiffOp:
    """sum_a x^a c_a(D) in DFORM, for parts {a: c_a(y)} with integer a.

    Over the denominator x^m, m = max(0, -min a), the numerator of D^i has
    the y^i coefficient of c_a at x^(a+m).  The part at min a < 0 puts a
    nonzero constant term in some numerator, so the fields are already in
    normal form: no content pass and no operator product.
    """
    parts = {a: c for a, c in parts.items() if not c.is_zero}
    if not parts:
        return DiffOp.zero(var, DFORM)
    m = max(0, -min(parts))
    width = max(parts) + m + 1
    den = math.lcm(*(c.den for c in parts.values()))
    rows = []
    for a, c in parts.items():
        f = den // c.den
        for i, v in enumerate(c.nums):
            if i == len(rows):
                rows.append([0] * width)
            rows[i][a + m] = v * f
    return DiffOp.from_cleared(var, DFORM, Poly.monomial(var, m),
                               [_poly(var, r, den) for r in rows],
                               Poly.const(var, 1))


def graded_parts(op: DiffOp) -> dict:
    """The parts {a: c_a(y)} of op = sum_a x^a c_a(D); inverse of graded_op.

    They transpose the DFORM fields: over the denominator x^m, the y^k
    coefficient of c_a is the x^(a+m) coefficient of nums[k].
    """
    d = op.convert(DFORM)
    if not _is_monomial(d.den):
        raise DomainError("graded parts need a denominator that is a power "
                          f"of {op.var}")
    m = d.den.degree
    den = math.lcm(*(p.den for p in d.nums))
    cols = [[v * (den // p.den) for v in p.nums] for p in d.nums]
    width = max((len(c) for c in cols), default=0)
    parts = {}
    for i in range(width):
        c = _poly("y", [col[i] if i < len(col) else 0 for col in cols], den)
        if not c.is_zero:
            parts[i - m] = c
    return parts


def _graded_product(left, right):
    """The parts of (sum_a x^a p_a(D)) . (sum_b x^b q_b(D)), by
    x^a p_a(D) . x^b q_b(D) = x^(a+b) p_a(D + b) q_b(D)."""
    out = {}
    for b, q in right.items():
        for a, p in left.items():
            t = p.translate(b) * q
            out[a + b] = out[a + b] + t if a + b in out else t
    return out
