"""Ordinary differential operators with rational-function coefficients.

Two coordinate forms are kept for the same algebra:

* ``DEL``  : sum_k a_k(x) * d^k          (d = d/dx)
* ``DFORM``: sum_k a_k(x) * D^k          (D = x d/dx)

Multiplication uses the Leibniz rule through the form's derivation
(a -> a' in DEL, a -> x a' in DFORM); conversion between forms is done by
exact repeated products, so round trips are identities and the two forms
can cross-check each other.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, UsageError
from .poly import Poly, RationalFunction

DEL = "del"
DFORM = "D"
_FORMS = (DEL, DFORM)


def _coerce_rf(var, c):
    if isinstance(c, RationalFunction):
        if c.var != var:
            raise UsageError("coefficient in the wrong variable")
        return c
    if isinstance(c, Poly):
        if c.var != var:
            raise UsageError("coefficient in the wrong variable")
        return RationalFunction(c)
    if isinstance(c, (int, Fraction)):
        return RationalFunction.const(var, c)
    raise UsageError(f"cannot use {c!r} as an operator coefficient")


class DiffOp:
    """A finite-order differential operator; immutable value semantics."""

    __slots__ = ("var", "form", "coeffs")

    def __init__(self, var, form, coeffs=()):
        if form not in _FORMS:
            raise UsageError(f"unknown form {form!r}")
        cs = [_coerce_rf(var, c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        self.var = var
        self.form = form
        self.coeffs = tuple(cs)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, var, form=DEL):
        return cls(var, form)

    @classmethod
    def identity(cls, var, form=DEL):
        return cls(var, form, (1,))

    @classmethod
    def partial(cls, var):
        """d/dx in DEL form."""
        return cls(var, DEL, (0, 1))

    @classmethod
    def dee(cls, var):
        """D = x d/dx in DFORM."""
        return cls(var, DFORM, (0, 1))

    @classmethod
    def mult(cls, var, f, form=DEL):
        """Multiplication by the function f."""
        return cls(var, form, (f,))

    @classmethod
    def monomial(cls, var, form, k, coeff=1):
        return cls(var, form, (0,) * k + (coeff,))

    # -- basics ------------------------------------------------------------

    @property
    def order(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def leading(self):
        if self.is_zero:
            raise DomainError("zero operator has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return RationalFunction.const(self.var, 0)

    def _check(self, other):
        if self.var != other.var:
            raise UsageError(
                f"operators in different variables {self.var!r}, {other.var!r}")

    def _derive(self, rf):
        return rf.derivative() if self.form == DEL else rf.theta()

    # -- linear structure ---------------------------------------------------

    def __neg__(self):
        return DiffOp(self.var, self.form, tuple(-c for c in self.coeffs))

    def __add__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        self._check(other)
        o = other.convert(self.form)
        n = max(len(self.coeffs), len(o.coeffs))
        return DiffOp(self.var, self.form,
                      [self.coeff(k) + o.coeff(k) for k in range(n)])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """Multiply by a constant scalar."""
        return DiffOp(self.var, self.form, tuple(c * a for a in self.coeffs))

    def lmul_fn(self, f):
        """Left-multiply by a function: f(x) . A."""
        f = _coerce_rf(self.var, f)
        return DiffOp(self.var, self.form, tuple(f * a for a in self.coeffs))

    # -- multiplication ------------------------------------------------------

    def __mul__(self, other):
        """Operator composition self . other."""
        if not isinstance(other, DiffOp):
            return NotImplemented
        self._check(other)
        o = other.convert(self.form)
        if self.is_zero or o.is_zero:
            return DiffOp.zero(self.var, self.form)
        # theta^i o B, computed once per power
        composed = [o]
        for _ in range(self.order):
            prev = composed[-1]
            cs = [self._derive(prev.coeff(0))]
            for j in range(1, prev.order + 2):
                cs.append(self._derive(prev.coeff(j)) + prev.coeff(j - 1))
            composed.append(DiffOp(self.var, self.form, cs))
        out = DiffOp.zero(self.var, self.form)
        for i, a in enumerate(self.coeffs):
            if not a.is_zero:
                out = out + composed[i].lmul_fn(a)
        return out

    def __pow__(self, n: int):
        if n < 0:
            raise UsageError("negative power of an operator")
        out = DiffOp.identity(self.var, self.form)
        base = self
        for _ in range(n):
            out = out * base
        return out

    # -- form conversion ------------------------------------------------------

    def convert(self, form):
        """The same operator in the other coordinate form (exact bijection)."""
        if form not in _FORMS:
            raise UsageError(f"unknown form {form!r}")
        if form == self.form:
            return self
        if form == DFORM:
            # d^k = (x^-1 D)^k, assembled by repeated products in DFORM
            step = DiffOp(self.var, DFORM,
                          (0, RationalFunction.x_power(self.var, -1)))
        else:
            # D^k = (x d)^k, assembled by repeated products in DEL
            step = DiffOp(self.var, DEL,
                          (0, RationalFunction(Poly.variable(self.var))))
        power = DiffOp.identity(self.var, form)
        out = DiffOp.zero(self.var, form)
        for k, a in enumerate(self.coeffs):
            if k:
                power = step * power
            if not a.is_zero:
                out = out + power.lmul_fn(a)
        return out

    # -- adjoint ---------------------------------------------------------------

    def adjoint(self):
        """Formal adjoint: the antiautomorphism with d* = -d and x* = x."""
        a = self.convert(DEL)
        out = DiffOp.zero(self.var, DEL)
        power = DiffOp.identity(self.var, DEL)
        minus_d = DiffOp(self.var, DEL, (0, -1))
        for k, c in enumerate(a.coeffs):
            if k:
                power = minus_d * power
            if not c.is_zero:
                out = out + power * DiffOp.mult(self.var, c)
        return out.convert(self.form)

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
        rem = self
        quot = DiffOp.zero(self.var, self.form)
        while not rem.is_zero and rem.order >= d.order:
            k = rem.order - d.order
            c = rem.leading / d.leading
            term = DiffOp.monomial(self.var, self.form, k, c)
            quot = quot + term
            rem = rem - (d * term if divisor_first else term * d)
        return quot, rem

    # -- miscellany -----------------------------------------------------------

    def relabel(self, var):
        """The same operator written in another variable name."""
        if var == self.var:
            return self
        def move(rf):
            return RationalFunction._reduced(Poly(var, rf.num.coeffs),
                                             Poly(var, rf.den.coeffs))
        return DiffOp(var, self.form, tuple(move(c) for c in self.coeffs))

    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        if self.var != other.var:
            return False
        return self.convert(DEL).coeffs == other.convert(DEL).coeffs

    def __hash__(self):
        return hash((self.var, self.convert(DEL).coeffs))

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
        if self.is_zero:
            return "0"
        sym = f"d_{self.var}" if self.form == DEL else f"D_{self.var}"
        parts = []
        for k in range(self.order, -1, -1):
            c = self.coeff(k)
            if c.is_zero:
                continue
            mono = "" if k == 0 else (sym if k == 1 else f"{sym}^{k}")
            cs = c.to_str()
            if k == 0:
                body = cs
            elif cs == "1":
                body = mono
            elif cs == "-1":
                body = f"-{mono}"
            else:
                wrapped = cs if cs.lstrip("-").replace(".", "").isalnum() or (
                    "/" not in cs and "+" not in cs and " " not in cs) else f"({cs})"
                body = f"{wrapped}*{mono}"
            parts.append(body)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    __str__ = to_str


def poly_at_operator(p: Poly, a: DiffOp) -> DiffOp:
    """p evaluated at an operator, by Horner's scheme."""
    out = DiffOp.zero(a.var, a.form)
    for c in reversed(p.coeffs):
        out = out * a + DiffOp.mult(a.var, c, a.form)
    return out


def common_denominator(a: DiffOp):
    """w(x) monic and an operator with polynomial coefficients w . a."""
    w = Poly.lcm(a.var, (c.den for c in a.coeffs))
    return w, a.lmul_fn(w)
