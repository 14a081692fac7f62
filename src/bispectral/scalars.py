"""Exact scalars: arbitrary-precision rationals and roots of unity.

Rationals are stdlib ``fractions.Fraction`` (already canonical: reduced,
positive denominator).  Documents hold them as the text ``format_rational``
writes, "p/q" or "p"; ``parse_ratio`` reads ASCII text of that shape,
``-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?``, with ``int`` alone, and any other
text through ``Fraction``.  The extension Q(eps), eps = exp(2*pi*i/N), is
represented as a residue modulo the N-th cyclotomic polynomial Phi_N, so
it is a field and every nonzero element has an exact inverse.  For
N = 1, 2 the single coordinate carries a plain rational value.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, UsageError


# the text format_rational writes, not necessarily reduced; [0-9] matches
# ASCII digits only, so other digits take the Fraction route
_CANONICAL = re.compile(r"(-?(?:0|[1-9][0-9]*))(?:/([1-9][0-9]*))?")


def _shown(value):
    """value as a message shows it: a string by its repr, anything else by
    its str, and a text past 32 characters by its first 32 and the length."""
    show = repr if isinstance(value, str) else str
    text = str(value)
    if len(text) <= 32:
        return show(text)
    return f"{show(text[:32])}... ({len(text)} characters)"


def _fraction_ratio(text):
    """The route of text that is not canonical: strip, refuse exponent
    notation, then ``Fraction``."""
    text = text.strip()
    if "e" in text.lower():
        raise UsageError(f"not a rational: {_shown(text)} "
                         f"(no exponent notation)")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational: {_shown(text)}") from exc
    return value.numerator, value.denominator


def parse_ratio(text) -> tuple[int, int]:
    """Parse "p/q" (or just "p") into integers (p, q) with q > 0, not
    necessarily in lowest terms.

    Text of the shape ``format_rational`` writes, ASCII digits and no
    blanks, is read by ``int`` alone; any other text goes through
    ``Fraction``.  Exponent notation is refused: "1e999999999" would ask
    for a power of ten with a billion digits before any size cap could be
    checked.  A number past the int digit limit raises UsageError too.
    A refusal shows a long text by a prefix and its length.
    """
    text = str(text)
    match = _CANONICAL.fullmatch(text)
    if match is None:
        return _fraction_ratio(text)
    p, q = match.groups()
    try:
        return int(p), int(q) if q else 1
    except ValueError as exc:  # past the int digit limit
        raise UsageError(f"not a rational: {_shown(text)}") from exc


def parse_rational(text) -> Fraction:
    """``parse_ratio`` as a Fraction: canonical text, "p/q" or "p" with
    ASCII digits, is read by ``int``, any other text by ``Fraction``."""
    return Fraction(*parse_ratio(text))


def parse_ratios(data, what) -> list:
    """A JSON list of rationals as ``parse_ratio`` pairs; any other value,
    a string too, raises UsageError naming ``what``."""
    if not isinstance(data, list):
        raise UsageError(f"{what} must be a list, got {type(data).__name__}")
    return [parse_ratio(c) for c in data]


def parse_rationals(data, what) -> list:
    """A JSON list of rationals as Fractions; see ``parse_ratios``."""
    return [Fraction(p, q) for p, q in parse_ratios(data, what)]


def parse_int(data, what) -> int:
    """A JSON integer; a float, a string or a boolean raises UsageError."""
    if type(data) is not int:
        raise UsageError(f"{what} must be an integer, got "
                         f"{type(data).__name__}")
    return data


def cleared(values):
    """(ints, d): the rationals times d, the lcm of their denominators; the
    one routine that clears denominators."""
    d = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


def format_rational(value) -> str:
    """Render as "p/q", or "p" when the denominator is 1."""
    return str(Fraction(value))


def _int_div_exact(num, den):
    # long division of integer coefficient lists; must be exact
    num = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    for k in range(len(quot) - 1, -1, -1):
        c = num[k + len(den) - 1]
        q, r = divmod(c, den[-1])
        if r:
            raise ArithmeticError("inexact coefficient division")
        quot[k] = q
        for i, d in enumerate(den):
            num[k + i] -= q * d
    if any(num):
        raise ArithmeticError("nonzero remainder")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_N, low degree first, monic."""
    if order < 1:
        raise UsageError("cyclotomic order must be >= 1")
    if order == 1:
        return (-1, 1)
    poly = [-1] + [0] * (order - 1) + [1]  # z^N - 1
    for d in range(1, order):
        if order % d == 0:
            poly = _int_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def euler_phi(order: int) -> int:
    return len(cyclotomic_polynomial(order)) - 1


def _reduce_mod_phi(order, coeffs):
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    cs = list(coeffs)
    while len(cs) > deg:
        c = cs.pop()
        if c:
            base = len(cs) - deg
            for i in range(deg):
                cs[base + i] -= c * phi[i]
    return cs


class Cyclotomic:
    """Element of Q(eps_N), a coordinate vector of length phi(N) mod Phi_N."""

    __slots__ = ("order", "coords")

    def __init__(self, order, coords=()):
        phi = euler_phi(order)
        cs = [Fraction(c) for c in coords]
        if len(cs) > phi:
            cs = _reduce_mod_phi(order, cs)
        cs += [Fraction(0)] * (phi - len(cs))
        self.order = order
        self.coords = tuple(cs)

    @classmethod
    def zero(cls, order):
        return cls(order)

    @classmethod
    def one(cls, order):
        return cls(order, (1,))

    @classmethod
    def from_rational(cls, order, value):
        return cls(order, (Fraction(value),))

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            if other.order != self.order:
                raise UsageError(
                    f"mixed cyclotomic orders {self.order} and {other.order}")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(self.order, other)
        return None

    def __bool__(self):
        return any(self.coords)

    def __eq__(self, other):
        if (isinstance(other, Cyclotomic) and other.order != self.order
                and (self.is_rational or other.is_rational)):
            # a rational is the same number in every Q(eps_N)
            return (self.is_rational and other.is_rational
                    and self.coords[0] == other.coords[0])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coords == o.coords

    def __hash__(self):
        # a rational element equals its Fraction, so it must hash like it
        if self.is_rational:
            return hash(self.coords[0])
        return hash((self.order, self.coords))

    def __neg__(self):
        return Cyclotomic(self.order, tuple(-c for c in self.coords))

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.order,
                          tuple(a + b for a, b in zip(self.coords, o.coords)))

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
        out = [Fraction(0)] * (2 * len(self.coords))
        for i, a in enumerate(self.coords):
            if not a:
                continue
            for j, b in enumerate(o.coords):
                if b:
                    out[i + j] += a * b
        return Cyclotomic(self.order, out)

    __rmul__ = __mul__

    def inverse(self):
        """Exact inverse via the extended Euclidean algorithm mod Phi_N."""
        if not self:
            raise DomainError("inversion of zero")
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        r0, r1 = phi, list(self.coords)
        s0, s1 = [], [Fraction(1)]
        while _deg(r1) > 0:
            q = _polydivmod(r0, r1)[0]
            r0, r1 = r1, _polysub(r0, _polymul(q, r1))
            s0, s1 = s1, _polysub(s0, _polymul(q, s1))
        if _deg(r1) != 0:
            raise DomainError("element is not invertible")  # cannot happen mod Phi
        c = r1[0]
        return Cyclotomic(self.order, [s / c for s in s1])

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = Cyclotomic.one(self.order)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    @property
    def is_rational(self):
        return not any(self.coords[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise DomainError(f"{self!r} is not rational")
        return self.coords[0]

    def to_json(self):
        return {"order": self.order,
                "coords": [format_rational(c) for c in self.coords]}

    @classmethod
    def from_json(cls, data):
        return cls(int(data["order"]), [parse_rational(c) for c in data["coords"]])

    def __repr__(self):
        return f"Cyclotomic({self.order}, {[str(c) for c in self.coords]})"


def primitive_root(order: int) -> Cyclotomic:
    """eps with eps^N = 1 and eps^k != 1 for 0 < k < N."""
    return Cyclotomic(order, (0, 1))


# small helper arithmetic on Fraction coefficient lists (used by inverse)

def _deg(p):
    d = len(p) - 1
    while d >= 0 and not p[d]:
        d -= 1
    return d


def _polymul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _polysub(a, b):
    out = list(a) + [Fraction(0)] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    return out


def _polydivmod(a, b):
    db = _deg(b)
    rem = list(a)
    quot = [Fraction(0)] * max(0, _deg(a) - db + 1)
    while _deg(rem) >= db:
        k = _deg(rem) - db
        c = rem[_deg(rem)] / b[db]
        quot[k] = c
        for i in range(db + 1):
            rem[k + i] -= c * b[i]
    return quot, rem
