"""Dense univariate polynomials and reduced rational functions.

Integer form.  A Poly over Q stores integer numerators ``nums`` (trailing
zeros stripped) over one positive integer ``den`` with gcd(den, nums...) =
1, so equal polynomials have equal fields.  Ring operations, derivations
and argument substitutions work on the integers, and each result goes
through one normalizer that takes one ``math.gcd(den, *nums)``.
``_product`` and ``_sum`` are the integer-list product and sum; the
Leibniz table of ``weyl`` runs on them too and builds no Poly per entry.
``divmod`` is fraction-free: it scales the running remainder only when the
next quotient coefficient would not be integral, and divides by the
tracked scale once at the end.  ``coeffs``, the tuple of Fractions, is
built lazily for documents and printing; ``from_json`` reads a document's
coefficient text into the integer form without building any.

Coefficients are rationals only, ints or Fractions; any other scalar is
refused with UsageError.  (The series are rational too: no library
arithmetic runs in Q(eps).)

Every gcd goes through ``Poly.gcd``, which runs the primitive polynomial
remainder sequence over Z (Collins 1967, Brown 1971) on the contracted
parts: each pseudo-remainder is replaced by its primitive part, and the
last nonzero one is made monic.  It is exact and deterministic, so it
needs no modular step.

A RationalFunction keeps its denominator monic and coprime to the
numerator, so equal functions have equal representations.
``RationalFunction(num, den)`` normalizes whatever it is given: it divides
both by ``Poly.gcd(num, den)`` exactly.  It is the reduced
per-coefficient view of an operator (see ``weyl``).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, UsageError
from .scalars import cleared, format_rational, parse_ratios


def _rational(c):
    """c as an int or a Fraction; the only coefficients a Poly takes."""
    if isinstance(c, (int, Fraction)):
        return c
    raise UsageError(f"polynomial coefficients are rationals, got {c!r}")


def _raw(var, nums, den):
    """A Poly from fields already in canonical form."""
    out = object.__new__(Poly)
    out.var, out.nums, out.den, out._coeffs = var, nums, den, None
    return out


def _poly(var, nums, den=1):
    """The Poly nums / den, nums a list of ints and den > 0: the one
    normalizer of the arithmetic."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        den = 1
    elif den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            den //= g
            nums = [v // g for v in nums]
    return _raw(var, tuple(nums), den)


def power_text(base, k):
    """base^k as text: "" for k = 0 and base alone for k = 1."""
    return "" if k == 0 else (base if k == 1 else f"{base}^{k}")


def signed_sum(terms):
    """The text of a sum of (coefficient text, monomial text) terms.

    A term with no monomial is its coefficient; a coefficient 1 or -1 is
    written as a sign, any other is joined to its monomial with "*"; a
    negative term is joined to the ones before it with " - ".  An empty
    sum is "0".
    """
    parts = []
    for coeff, mono in terms:
        if mono and coeff in ("1", "-1"):
            coeff = coeff[:-1]  # 1 and -1 keep only their sign
        elif mono:
            coeff += "*"
        parts.append(coeff + mono)
    out = parts[0] if parts else "0"
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def _primitive(nums):
    """An integer list divided by the gcd of its entries; a list of zeros
    is returned as it is."""
    g = math.gcd(*nums)
    return nums if g <= 1 else [v // g for v in nums]


class Poly:
    """nums[k] / den is the coefficient of var**k; see the module docstring."""

    __slots__ = ("var", "nums", "den", "_coeffs")

    def __init__(self, var, coeffs=()):
        p = _poly(var, *cleared([_rational(c) for c in coeffs]))
        self.var, self.nums, self.den, self._coeffs = var, p.nums, p.den, None

    @classmethod
    def zero(cls, var):
        return _raw(var, (), 1)

    @classmethod
    def const(cls, var, c):
        return cls(var, (c,))

    @classmethod
    def monomial(cls, var, power, c=1):
        return cls(var, (0,) * power + (c,))

    @property
    def coeffs(self):
        """The coefficients nums[k] / den as Fractions, built once."""
        if self._coeffs is None:
            den = self.den
            self._coeffs = tuple(Fraction(v, den) for v in self.nums)
        return self._coeffs

    @property
    def degree(self):
        return len(self.nums) - 1

    @property
    def is_zero(self):
        return not self.nums

    @property
    def leading(self):
        if self.is_zero:
            raise DomainError("zero polynomial has no leading coefficient")
        return Fraction(self.nums[-1], self.den)

    def valuation(self):
        """Index of the lowest nonzero coefficient (0 for the zero poly)."""
        for k, v in enumerate(self.nums):
            if v:
                return k
        return 0

    def coeff(self, k):
        if 0 <= k < len(self.nums):
            return self.coeffs[k]
        return Fraction(0)

    def _check(self, other):
        if self.var != other.var:
            raise UsageError(f"mixed variables {self.var!r} and {other.var!r}")

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.var == other.var and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        # the hash of (var, coeffs); an integral Fraction hashes as its int
        return hash((self.var, self.nums if self.den == 1 else self.coeffs))

    def __bool__(self):
        return bool(self.nums)

    def __neg__(self):
        return _raw(self.var, tuple(-v for v in self.nums), self.den)

    def _combine(self, other, sign):
        """self + sign * other over the lcm of the two denominators."""
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        a, b = self.nums, other.nums
        if not b:
            return self
        if not a:
            return other if sign == 1 else -other
        da, db = self.den, other.den
        if da == db:
            fa, fb = 1, sign
        else:
            g = math.gcd(da, db)
            fa, fb = db // g, sign * (da // g)
        return _poly(self.var, _sum(a if fa == 1 else [v * fa for v in a],
                                    b, fb), da * fa)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        a, b = self.nums, other.nums
        if not a or not b:
            return Poly.zero(self.var)
        den = self.den * other.den
        for p, q in ((a, b), (b, a)):
            if not any(q[:-1]):  # q = c*var**k: shift and scale
                c = q[-1]
                return _poly(self.var, [0] * (len(q) - 1)
                             + (list(p) if c == 1 else [c * v for v in p]),
                             den)
        return _poly(self.var, _product(a, b), den)

    def scale(self, c):
        c = _rational(c)
        if not c or not self.nums:
            return Poly.zero(self.var)
        if c == 1:
            return self
        n = c.numerator
        return _poly(self.var, [n * v for v in self.nums],
                     self.den * c.denominator)

    def __pow__(self, n: int):
        if n < 0:
            raise UsageError("negative power of a polynomial")
        out = Poly.const(self.var, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def divmod(self, other):
        """Exact field division with remainder; other must be nonzero.

        Fraction-free: with self = A / da and other = B / db, it finds
        s * A = Q * B + R in integers (``_pseudo_divide``) and returns
        Q db / (s da) and R / (s da).
        """
        if not isinstance(other, Poly):
            raise UsageError("can only divide by a polynomial")
        self._check(other)
        if other.is_zero:
            raise DomainError("division by the zero polynomial")
        var, a, b = self.var, self.nums, other.nums
        da, db, nb, lc = self.den, other.den, len(b) - 1, b[-1]
        if not any(b[:-1]):
            # divisor c*var**nb: the quotient and remainder are slices
            s = -1 if lc < 0 else 1
            return (_poly(var, [s * db * v for v in a[nb:]], da * abs(lc)),
                    _poly(var, list(a[:nb]), da))
        if len(a) <= nb:
            return Poly.zero(var), self
        quot, rem, scale = _pseudo_divide(a, b)
        return (_poly(var, [db * v for v in quot], da * scale),
                _poly(var, rem, da * scale))

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self):
        nums = self.nums
        if not nums:
            return self
        lc = nums[-1]
        if lc < 0:
            return _poly(self.var, [-v for v in nums], -lc)
        return _poly(self.var, list(nums), lc)

    @staticmethod
    def gcd(a, b):
        """Monic greatest common divisor, by the primitive PRS on the
        contracted parts (see ``_contracted``)."""
        a._check(b)
        if a.degree == 0 or b.degree == 0:
            return _raw(a.var, (1,), 1)  # a nonzero constant is a unit
        if a.is_zero or b.is_zero:
            return (b if a.is_zero else a).monic()
        i, j, m, u, w = _contracted(a, b)
        return _euclid(u, w).expand_arg_power(m).shift_mul(min(i, j))

    @staticmethod
    def lcm(var, polys):
        """Least common multiple of monic polynomials (1 when there are none).

        Taken largest first, so a divisor of the running lcm costs one
        division and no gcd."""
        out = Poly.const(var, 1)
        for p in sorted(polys, key=lambda p: -p.degree):
            if not (out % p).is_zero:
                out = out * (p // Poly.gcd(out, p))
        return out

    def derivative(self):
        return _poly(self.var, [k * v for k, v in enumerate(self.nums) if k],
                     self.den)

    def theta(self):
        """x * d/dx, the degree-weighted derivative."""
        return _poly(self.var, [k * v for k, v in enumerate(self.nums)],
                     self.den)

    def expand_arg_power(self, n: int, var=None) -> "Poly":
        """p(y) -> p(x^n) as a polynomial in x."""
        var = var if var is not None else self.var
        nums = self.nums
        if n == 1 or len(nums) <= 1:
            return _raw(var, nums, self.den)
        out = [0] * (n * (len(nums) - 1) + 1)
        out[::n] = nums
        return _raw(var, tuple(out), self.den)

    def shift_mul(self, m: int) -> "Poly":
        """Multiply by var**m, m >= 0."""
        if m < 0:
            raise UsageError("negative shift on a polynomial")
        if self.is_zero or not m:
            return self
        return _raw(self.var, (0,) * m + self.nums, self.den)

    def relabel(self, var) -> "Poly":
        """The same polynomial written in another variable name."""
        return _raw(var, self.nums, self.den)

    def translate(self, s: int) -> "Poly":
        """p(var + s) for an integer s, by Taylor shift on the numerators.

        The shift is unimodular over Z, so den and the content stay."""
        c = list(self.nums)
        if s:
            for i in range(len(c) - 1):
                for j in range(len(c) - 2, i - 1, -1):
                    c[j] += s * c[j + 1]
        return _raw(self.var, tuple(c), self.den)

    def is_power_pattern(self, n: int) -> bool:
        """True when only degrees divisible by n carry nonzero coefficients."""
        return not any(v for k, v in enumerate(self.nums) if k % n)

    def contract_arg_power(self, n: int, var=None) -> "Poly":
        """Inverse of expand_arg_power; requires the degree pattern."""
        if not self.is_power_pattern(n):
            raise UsageError(f"polynomial is not a polynomial in {self.var}^{n}")
        return _raw(var if var is not None else self.var, self.nums[::n],
                    self.den)

    def to_json(self):
        return [format_rational(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, var, data):
        """The integer form straight from the (p, q) pairs of the
        coefficient text, cleared over the lcm of the q's as ``cleared``
        clears Fractions."""
        pairs = parse_ratios(data, "polynomial coefficients")
        den = math.lcm(*(q for _, q in pairs))
        return _poly(var, [p * (den // q) for p, q in pairs], den)

    def __repr__(self):
        return f"Poly({self.var!r}, {self.to_str()!r})"

    def to_str(self, var=None):
        var = var if var is not None else self.var
        return signed_sum((str(c), power_text(var, k))
                          for k, c in reversed(list(enumerate(self.coeffs)))
                          if c)

    __str__ = to_str


def _contracted(a, b):
    """(i, j, m, u, w) with a = x^i u(x^m), b = x^j w(x^m), x dividing
    neither u nor w, and m the largest common degree pattern; a and b are
    nonzero.  Then gcd(a, b) = x^min(i, j) gcd(u, w)(x^m), so gcds run
    on the shorter u and w."""
    i, j = a.valuation(), b.valuation()
    u, w = a.nums[i:], b.nums[j:]
    m = 0
    for cs in (u, w):
        for k, c in enumerate(cs):
            if c and k:
                m = math.gcd(m, k)
    m = m or 1
    return i, j, m, _raw(a.var, u[::m], a.den), _raw(a.var, w[::m], b.den)


def _product(a, b):
    """The product of two integer lists, as a list; the nonzero terms of b
    are listed once, so zero entries cost nothing in the inner loop."""
    if not a or not b:
        return []
    terms = [(j, y) for j, y in enumerate(b) if y]
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                out[i + j] += x * y
    return out


def _sum(a, b, c=1):
    """a + c b for integer lists, as a new list without trailing zeros."""
    out = list(a)
    if len(b) > len(out):
        out += [0] * (len(b) - len(out))
    for k, v in enumerate(b):
        if v:
            out[k] += c * v
    while out and not out[-1]:
        out.pop()
    return out


def _pseudo_divide(a, b):
    """(Q, R, s) with s a = Q b + R over Z, deg R < deg b and s > 0, for
    integer lists with len(a) >= len(b) >= 2; R has trailing zeros
    stripped.  The running remainder is scaled by lc(b) / gcd(top, lc(b))
    only when the next quotient coefficient would not be integral, so an
    exact division by a primitive b is never scaled."""
    nb, lc = len(b) - 1, b[-1]
    rem, quot, scale = list(a), [0] * (len(a) - nb), 1
    terms = [(i, v) for i, v in enumerate(b[:-1]) if v]
    for k in range(len(quot) - 1, -1, -1):
        top = rem[k + nb]
        if not top:
            continue
        f = abs(lc) // math.gcd(top, lc)
        if f != 1:
            rem[:k + nb] = [v * f for v in rem[:k + nb]]
            quot[k + 1:] = [v * f for v in quot[k + 1:]]
            scale *= f
            top *= f
        c = top // lc
        quot[k] = c
        for i, v in terms:
            rem[k + i] -= c * v
    del rem[nb:]
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem, scale


def _euclid(u, w):
    """Monic gcd of nonzero polynomials: the primitive PRS over Z."""
    a, b = _primitive(list(u.nums)), _primitive(list(w.nums))
    if len(a) < len(b):
        a, b = b, a
    while b:
        if len(b) == 1:
            return _raw(u.var, (1,), 1)
        a, b = b, _primitive(_pseudo_divide(a, b)[1])
    # a is primitive, so a over its leading coefficient is reduced
    if a[-1] < 0:
        a = [-v for v in a]
    return _raw(u.var, tuple(a), a[-1])


class RationalFunction:
    """num/den with den monic and gcd(num, den) = 1.

    The constructor normalizes any input (documents, hand-built values), so
    equal functions have equal fields.  Operator arithmetic does not go
    through this class: ``DiffOp`` keeps one denominator over polynomial
    numerators, and its ``coeffs`` view is made of these reduced values.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, Poly):
            raise UsageError("numerator must be a Poly")
        if den is None:
            den = Poly.const(num.var, 1)
        if not isinstance(den, Poly):
            raise UsageError("denominator must be a Poly")
        num._check(den)
        if den.is_zero:
            raise DomainError("zero denominator")
        if num.is_zero:
            self.num = num
            self.den = Poly.const(num.var, 1)
            return
        g = Poly.gcd(num, den)
        if g.degree > 0:
            num, den = num // g, den // g
        lc, e = den.nums[-1], den.den
        if lc != e:  # the leading coefficient lc / e is not 1
            num = num.scale(Fraction(e, lc))
            den = den.monic()
        self.num = num
        self.den = den

    @classmethod
    def const(cls, var, c):
        return cls(Poly.const(var, c))

    @property
    def var(self):
        return self.num.var

    @property
    def is_zero(self):
        return self.num.is_zero

    @property
    def is_polynomial(self):
        return self.den.degree == 0

    @property
    def is_laurent(self):
        """True when the only pole is at 0 (denominator is a monomial)."""
        return self.den.valuation() == self.den.degree

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, var, data):
        return cls(Poly.from_json(var, data["num"]), Poly.from_json(var, data["den"]))

    def __repr__(self):
        return f"RationalFunction({self.to_str()!r})"

    def to_str(self, var=None):
        var = var if var is not None else self.var
        if self.is_polynomial:
            return self.num.to_str(var)
        if self.is_laurent and len([c for c in self.num.coeffs if c]) == 1:
            k = self.num.valuation()
            c = self.num.coeffs[k]
            return signed_sum([(str(c), power_text(var, k - self.den.degree))])
        return f"({self.num.to_str(var)})/({self.den.to_str(var)})"

    __str__ = to_str
