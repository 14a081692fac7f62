"""Dense univariate polynomials and reduced rational functions.

Coefficients are exact scalars (Fraction, or Cyclotomic where a root of
unity is in play).  A RationalFunction keeps its denominator monic and
coprime to the numerator, so equal functions have equal representations.
``RationalFunction(num, den)`` normalizes whatever it is given; it is the
reduced per-coefficient view of an operator (see ``weyl``).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, UsageError
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
        for p, q in ((self, other), (other, self)):
            if q.valuation() == q.degree:  # q = c*var**k: shift and scale
                c = q.leading
                return (p if c == 1 else p.scale(c)).shift_mul(q.degree)
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
        terms = [(i, b) for i, b in enumerate(other.coeffs) if b]
        while len(rem) >= len(other.coeffs):
            while rem and not rem[-1]:
                rem.pop()
            if len(rem) < len(other.coeffs):
                break
            k = len(rem) - 1 - db
            c = rem[-1] / lead
            quot[k] = c
            for i, b in terms:
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
        """Monic greatest common divisor, by Euclid on the contracted parts
        (see ``_contracted``)."""
        a._check(b)
        if a.degree == 0 or b.degree == 0:
            return Poly.const(a.var, 1)  # a nonzero constant is a unit
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
        return Poly(self.var, tuple((k + 1) * c for k, c in enumerate(self.coeffs[1:])))

    def theta(self):
        """x * d/dx, the degree-weighted derivative."""
        return Poly(self.var, tuple(k * c for k, c in enumerate(self.coeffs)))

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
        if not isinstance(data, list):
            raise UsageError("polynomial coefficients must be a list, got "
                             f"{type(data).__name__}")
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


def _contracted(a, b):
    """(i, j, m, u, w) with a = x^i u(x^m), b = x^j w(x^m), x dividing
    neither u nor w, and m the largest common degree pattern; a and b are
    nonzero.  Then gcd(a, b) = x^min(i, j) gcd(u, w)(x^m), so gcds and
    cancellations run on the shorter u and w."""
    i, j = a.valuation(), b.valuation()
    u, w = a.coeffs[i:], b.coeffs[j:]
    m = 0
    for cs in (u, w):
        for k, c in enumerate(cs):
            if c and k:
                m = math.gcd(m, k)
    m = m or 1
    return i, j, m, Poly(a.var, u[::m]), Poly(a.var, w[::m])


def _euclid(u, w):
    """Monic gcd of nonzero polynomials by Euclid's algorithm."""
    while not w.is_zero:
        u, w = w, u % w
    return u.monic()


def _cancel(num, den):
    """num and den divided by their monic gcd; both are nonzero."""
    if num.degree == 0 or den.degree == 0:
        return num, den
    i, j, m, u, w = _contracted(num, den)
    g = _euclid(u, w)
    if g.degree > 0:
        u, w = u // g, w // g
    lo = min(i, j)
    return (u.expand_arg_power(m).shift_mul(i - lo),
            w.expand_arg_power(m).shift_mul(j - lo))


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
        num, den = _cancel(num, den)
        lead = den.leading
        if lead != 1:
            num = num.scale(1 / lead)
            den = den.scale(1 / lead)
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
            power = k - self.den.degree
            head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
            return f"{head}{var}^{power}"
        return f"({self.num.to_str(var)})/({self.den.to_str(var)})"

    __str__ = to_str
