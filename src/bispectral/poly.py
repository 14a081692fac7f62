"""Dense univariate polynomials and reduced rational functions.

Coefficients are exact scalars (Fraction, or Cyclotomic where a root of
unity is in play).  A RationalFunction keeps its denominator monic and
coprime to the numerator, so equal functions have equal representations
and operators can be compared structurally.  ``RationalFunction(num, den)``
normalizes whatever it is given; arithmetic builds its results with the
private ``RationalFunction._reduced``, which trusts operands that are
already in that form.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .errors import DomainError, UnsupportedInputError, UsageError
from .scalars import format_rational, parse_rational


def _coerce_scalar(c):
    return Fraction(c) if isinstance(c, int) else c


class Poly:
    """coeffs[k] is the coefficient of var**k; trailing zeros are stripped."""

    __slots__ = ("var", "coeffs")

    def __init__(self, var, coeffs=()):
        cs = [_coerce_scalar(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.var = var
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, var):
        return cls(var)

    @classmethod
    def const(cls, var, c):
        return cls(var, (c,))

    @classmethod
    def monomial(cls, var, power, c=1):
        return cls(var, (0,) * power + (c,))

    @classmethod
    def variable(cls, var):
        return cls(var, (0, 1))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def leading(self):
        if self.is_zero:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def valuation(self):
        """Index of the lowest nonzero coefficient (0 for the zero poly)."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return 0

    def coeff(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def _check(self, other):
        if self.var != other.var:
            raise UsageError(f"mixed variables {self.var!r} and {other.var!r}")

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.var == other.var and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.var, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def __neg__(self):
        return Poly(self.var, tuple(-c for c in self.coeffs))

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.var, [self.coeff(k) + other.coeff(k) for k in range(n)])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        if self.is_zero or other.is_zero:
            return Poly.zero(self.var)
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return Poly(self.var, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c):
        c = _coerce_scalar(c)
        return Poly(self.var, tuple(c * a for a in self.coeffs))

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
        """Exact field division with remainder; other must be nonzero."""
        if not isinstance(other, Poly):
            raise UsageError("can only divide by a polynomial")
        self._check(other)
        if other.is_zero:
            raise DomainError("division by the zero polynomial")
        lead = other.leading
        db = other.degree
        if other.valuation() == db:
            # divisor c*var**db: the quotient and remainder are slices
            quot = self.coeffs[db:]
            if lead != 1:
                quot = [c / lead for c in quot]
            return Poly(self.var, quot), Poly(self.var, self.coeffs[:db])
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs) + 1
        quot = [Fraction(0)] * max(0, dq)
        while len(rem) >= len(other.coeffs):
            while rem and not rem[-1]:
                rem.pop()
            if len(rem) < len(other.coeffs):
                break
            k = len(rem) - 1 - db
            c = rem[-1] / lead
            quot[k] = c
            for i, b in enumerate(other.coeffs):
                rem[k + i] -= c * b
        return Poly(self.var, quot), Poly(self.var, rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self):
        if self.is_zero:
            return self
        lead = self.leading
        return Poly(self.var, tuple(c / lead for c in self.coeffs))

    @staticmethod
    def gcd(a, b):
        """Monic greatest common divisor."""
        a._check(b)
        if a.degree == 0 or b.degree == 0:
            return Poly.const(a.var, 1)  # a nonzero constant is a unit
        for p, q in ((a, b), (b, a)):
            k = p.degree
            if p and p.valuation() == k:
                # p = c*var**k: the gcd is the common power of var
                return Poly.monomial(p.var, min(k, q.valuation()) if q else k)
        while not b.is_zero:
            a, b = b, a % b
        return a.monic() if not a.is_zero else a

    @staticmethod
    def lcm(var, polys):
        """Least common multiple of monic polynomials (1 when there are none)."""
        out = Poly.const(var, 1)
        for p in polys:
            out = out * (p // Poly.gcd(out, p))
        return out

    @staticmethod
    def primitive_parts(polys):
        """The polynomials divided by their common polynomial factor."""
        content = functools.reduce(Poly.gcd, polys)
        if content.degree <= 0:
            return list(polys)
        return [p // content for p in polys]

    def derivative(self):
        return Poly(self.var, tuple((k + 1) * c for k, c in enumerate(self.coeffs[1:])))

    def theta(self):
        """x * d/dx, the degree-weighted derivative."""
        return Poly(self.var, tuple(k * c for k, c in enumerate(self.coeffs)))

    def evaluate(self, v):
        acc = _coerce_scalar(0) if not isinstance(v, Poly) else Poly.zero(v.var)
        for c in reversed(self.coeffs):
            if isinstance(v, Poly):
                acc = acc * v + Poly.const(v.var, c)
            else:
                acc = acc * v + c
        return acc

    def expand_arg_power(self, n: int, var=None) -> "Poly":
        """p(y) -> p(x^n) as a polynomial in x."""
        out = [Fraction(0)] * (n * self.degree + 1 if self.coeffs else 0)
        for k, c in enumerate(self.coeffs):
            out[n * k] = c
        return Poly(var if var is not None else self.var, out)

    def shift_mul(self, m: int) -> "Poly":
        """Multiply by var**m, m >= 0."""
        if m < 0:
            raise UsageError("negative shift on a polynomial")
        if self.is_zero:
            return self
        return Poly(self.var, (0,) * m + tuple(self.coeffs))

    def is_power_pattern(self, n: int) -> bool:
        """True when only degrees divisible by n carry nonzero coefficients."""
        return all(not c for k, c in enumerate(self.coeffs) if k % n)

    def contract_arg_power(self, n: int, var=None) -> "Poly":
        """Inverse of expand_arg_power; requires the degree pattern."""
        if not self.is_power_pattern(n):
            raise UsageError(f"polynomial is not a polynomial in {self.var}^{n}")
        return Poly(var if var is not None else self.var, tuple(self.coeffs[::n]))

    def to_json(self):
        return [format_rational(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, var, data):
        return cls(var, [parse_rational(c) for c in data])

    def __repr__(self):
        return f"Poly({self.var!r}, {self.to_str()!r})"

    def to_str(self, var=None):
        var = var if var is not None else self.var
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeff(k)
            if not c:
                continue
            mono = "" if k == 0 else (var if k == 1 else f"{var}^{k}")
            if k == 0:
                body = str(c)
            elif c == 1:
                body = mono
            elif c == -1:
                body = f"-{mono}"
            else:
                body = f"{c}*{mono}"
            parts.append(body)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    __str__ = to_str


def _cancel(num, den):
    """num and den divided by their monic gcd."""
    g = Poly.gcd(num, den)
    if g.degree <= 0:
        return num, den
    return num // g, den // g


class RationalFunction:
    """num/den with den monic and gcd(num, den) = 1.

    The public constructor ``RationalFunction(num, den)`` normalizes any
    input (documents, hand-built values).  Arithmetic results are built by
    ``_reduced``, which trusts that its operands are already canonical: sums,
    products, quotients and derivatives use Henrici's reduced-operand
    formulas (Knuth, TAOCP vol. 2, 4.5.1), whose gcds involve only factors
    that can share one, so no gcd of a full product is ever taken.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, RationalFunction):
            base = num if den is None else num / RationalFunction(den)
            self.num, self.den = base.num, base.den
            return
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
        num, den = _cancel(num, den)
        lead = den.leading
        if lead != 1:
            num = num.scale(1 / lead)
            den = den.scale(1 / lead)
        self.num = num
        self.den = den

    @classmethod
    def _reduced(cls, num, den):
        """num/den from operands already in canonical form: den monic and
        coprime to num.  Nothing is checked; a zero num gets den 1."""
        out = cls.__new__(cls)
        out.num = num
        out.den = den if num else Poly.const(num.var, 1)
        return out

    @classmethod
    def const(cls, var, c):
        return cls(Poly.const(var, c))

    @classmethod
    def x_power(cls, var, m: int):
        """var**m for any integer m."""
        if m >= 0:
            return cls(Poly.monomial(var, m))
        return cls(Poly.const(var, 1), Poly.monomial(var, -m))

    @property
    def var(self):
        return self.num.var

    @property
    def is_zero(self):
        return self.num.is_zero

    @property
    def is_polynomial(self):
        return self.den.degree == 0

    def as_poly(self) -> Poly:
        if not self.is_polynomial:
            raise UsageError(f"{self} is not a polynomial")
        return self.num

    @property
    def is_laurent(self):
        """True when the only pole is at 0 (denominator is a monomial)."""
        return self.den.valuation() == self.den.degree

    def laurent_terms(self):
        """[(power, coeff)] for a Laurent representative num / x^m."""
        if not self.is_laurent:
            raise UnsupportedInputError(
                f"denominator {self.den} has a pole away from 0")
        m = self.den.degree
        return [(k - m, c) for k, c in enumerate(self.num.coeffs) if c]

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            if other.var != self.var:
                raise UsageError("mixed variables")
            return other
        if isinstance(other, Poly):
            return RationalFunction(other)
        if isinstance(other, (int, Fraction)):
            return RationalFunction.const(self.var, other)
        return None

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero

    def __neg__(self):
        return RationalFunction._reduced(-self.num, self.den)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # Henrici's sum a/b + c/d of reduced operands: gcds of the two
        # denominators and of their common part, never of b*d
        a, b, c, d = self.num, self.den, o.num, o.den
        if b == d:
            return RationalFunction._reduced(*_cancel(a + c, b))
        g = Poly.gcd(b, d)
        if g.degree == 0:
            return RationalFunction._reduced(a * d + c * b, b * d)
        b, d = b // g, d // g
        num, g = _cancel(a * d + c * b, g)
        return RationalFunction._reduced(num, b * d * g)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._times(o.num, o.den)

    __rmul__ = __mul__

    def _times(self, c, d):
        """self * c/d for reduced c/d: cancel a against d and c against b."""
        a, d = _cancel(self.num, d)
        c, b = _cancel(c, self.den)
        return RationalFunction._reduced(a * c, b * d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise DomainError("division by zero function")
        num, den = o.den, o.num
        lead = den.leading
        if lead != 1:
            num, den = num.scale(1 / lead), den.scale(1 / lead)
        return self._times(num, den)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def derivative(self):
        """(n/d)' = (n' r - n d'/g) / (d r) with g = gcd(d, d') and r = d/g.

        Already reduced in characteristic 0: a prime p of multiplicity e in d
        has multiplicity e - 1 in g, so p divides r but not n d'/g."""
        n, d = self.num, self.den
        if d.degree == 0:
            return RationalFunction._reduced(n.derivative(), d)
        dd = d.derivative()
        g = Poly.gcd(d, dd)
        r, dd = d // g, dd // g
        return RationalFunction._reduced(n.derivative() * r - n * dd, d * r)

    def theta(self):
        """x * d/dx."""
        return self.derivative() * Poly.variable(self.var)

    def evaluate(self, v):
        dv = self.den.evaluate(v)
        if not dv:
            raise DomainError(f"pole at {v}")
        return self.num.evaluate(v) / dv

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
            power = k - self.den.degree
            head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
            return f"{head}{var}^{power}"
        return f"({self.num.to_str(var)})/({self.den.to_str(var)})"

    __str__ = to_str
