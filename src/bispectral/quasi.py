"""Function spaces the operators act on.

* QuasiPolynomial: finite sums c * x^g * (ln x)^j with rational exponents g.
  These carry the exact kernel conditions at the origin.
* WaveSeries: e^{xz} * sum c_ij x^i z^j on a rectangular window.  True
  coefficients vanish above the window top in each variable, and every
  stored coefficient inside the window equals the exact one, so window
  bookkeeping is conservative by construction.
* ExpSeries: e^{c x} * sum over a degree window, the one-variable analogue
  used for jets at a nonzero spectral point (c may be a root of unity
  times the point).

Operators act on WaveSeries/ExpSeries after peeling the exponential
prefactor: d/dx becomes (z + d/dx) resp. (c + d/dx).  Laurent
coefficients num / x^m act by shifts.  Coefficients with poles away from
0 are handled by exact expansion of 1/den at infinity, which terminates
because degrees are bounded above.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import TruncationError, UsageError
from .poly import Poly, RationalFunction
from .scalars import format_rational, parse_rational
from .weyl import DEL, DiffOp


class QuasiPolynomial:
    """Finite map (exponent, log power) -> coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        data = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for key, c in items:
            gamma, j = key if len(key) == 2 else (key[0], key[1])
            gamma = Fraction(gamma)
            j = int(j)
            if j < 0:
                raise UsageError("negative log power")
            if c:
                data[(gamma, j)] = data.get((gamma, j), Fraction(0)) + Fraction(c)
        self.terms = {k: v for k, v in data.items() if v}

    @classmethod
    def monomial(cls, gamma, j=0, c=1):
        return cls([((Fraction(gamma), j), Fraction(c))])

    @property
    def is_zero(self):
        return not self.terms

    def items(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        if not isinstance(other, QuasiPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(self.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return QuasiPolynomial(out)

    def __neg__(self):
        return QuasiPolynomial({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return QuasiPolynomial({k: c * v for k, v in self.terms.items()})

    def xshift(self, delta):
        """Multiply by x^delta."""
        delta = Fraction(delta)
        return QuasiPolynomial({(g + delta, j): c
                                for (g, j), c in self.terms.items()})

    def apply_theta(self):
        """Image under D = x d/dx:  D x^g y^j = g x^g y^j + j x^g y^{j-1}."""
        out = {}
        for (g, j), c in self.terms.items():
            out[(g, j)] = out.get((g, j), Fraction(0)) + g * c
            if j:
                out[(g, j - 1)] = out.get((g, j - 1), Fraction(0)) + j * c
        return QuasiPolynomial(out)

    def log_derivative(self):
        """Derivative in y = ln x, the seed-to-element map for log groups."""
        out = {}
        for (g, j), c in self.terms.items():
            if j:
                out[(g, j - 1)] = out.get((g, j - 1), Fraction(0)) + j * c
        return QuasiPolynomial(out)

    def apply(self, op: DiffOp) -> "QuasiPolynomial":
        """Exact image under a differential operator with Laurent coefficients."""
        d = op.convert("D")
        laurent = [c.laurent_terms() for c in d.coeffs]
        image = QuasiPolynomial()
        power = self
        for k, terms in enumerate(laurent):
            if k:
                power = power.apply_theta()
            for m, c in terms:
                image = image + power.xshift(m).scale(c)
        return image

    def to_json(self):
        return [[format_rational(g), j, format_rational(c)]
                for (g, j), c in self.items()]

    @classmethod
    def from_json(cls, data):
        return cls([((parse_rational(g), int(j)), parse_rational(c))
                    for g, j, c in data])

    def __repr__(self):
        return f"QuasiPolynomial({self.to_str()!r})"

    def to_str(self, var="x"):
        if self.is_zero:
            return "0"
        parts = []
        for (g, j), c in self.items():
            body = [] if c == 1 and (g or j) else [str(c)]
            if g:
                body.append(f"{var}^{g}" if g != 1 else var)
            if j:
                body.append(f"ln({var})" + (f"^{j}" if j > 1 else ""))
            parts.append("*".join(body) if body else str(c))
        return " + ".join(parts)

    __str__ = to_str


def _inverse_expansion(den: Poly, count: int):
    """First `count` coefficients u_s of 1/den = sum_s u_s x^{-deg(den)-s}."""
    d = den.degree
    lead = den.leading
    out = []
    for s in range(count):
        acc = Fraction(1) if s == 0 else Fraction(0)
        for t in range(s):
            # coefficient of x^{d-(s-t)} in den, times u_t
            acc -= den.coeff(d - (s - t)) * out[t]
        out.append(acc / lead)
    return out


class WaveSeries:
    """e^{xz} times a truncated double series; see the module docstring."""

    __slots__ = ("coeffs", "box")

    def __init__(self, coeffs, box):
        xlo, xhi, zlo, zhi = box
        if xlo > xhi or zlo > zhi:
            raise TruncationError(f"empty series window {box}")
        self.box = (xlo, xhi, zlo, zhi)
        data = {}
        for (i, j), c in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
            if xlo <= i <= xhi and zlo <= j <= zhi and c:
                data[(i, j)] = c
        self.coeffs = data

    @property
    def window(self):
        return self.box

    def coeff(self, i, j):
        return self.coeffs.get((i, j), Fraction(0))

    @property
    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        xlo = max(self.box[0], other.box[0])
        xhi = max(self.box[1], other.box[1])
        zlo = max(self.box[2], other.box[2])
        zhi = max(self.box[3], other.box[3])
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + c
        return WaveSeries(out, (xlo, xhi, zlo, zhi))

    def __neg__(self):
        return WaveSeries({k: -c for k, c in self.coeffs.items()}, self.box)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return WaveSeries({k: c * v for k, v in self.coeffs.items()}, self.box)

    def shift(self, dx, dz, c=1):
        """Multiply by c * x^dx * z^dz."""
        xlo, xhi, zlo, zhi = self.box
        return WaveSeries({(i + dx, j + dz): c * v
                           for (i, j), v in self.coeffs.items()},
                          (xlo + dx, xhi + dx, zlo + dz, zhi + dz))

    def raw_dx(self):
        """d/dx of the bare series (prefactor not included)."""
        xlo, xhi, zlo, zhi = self.box
        return WaveSeries({(i - 1, j): i * v
                           for (i, j), v in self.coeffs.items() if i},
                          (xlo - 1, xhi - 1, zlo, zhi))

    def raw_dz(self):
        xlo, xhi, zlo, zhi = self.box
        return WaveSeries({(i, j - 1): j * v
                           for (i, j), v in self.coeffs.items() if j},
                          (xlo, xhi, zlo - 1, zhi - 1))

    def _mul_terms(self, terms, axis):
        if not terms:
            raise UsageError("multiplication by the zero function")
        out = None
        for m, c in terms:
            piece = self.shift(m, 0, c) if axis == 0 else self.shift(0, m, c)
            out = piece if out is None else out + piece
        return out

    def _mul_inverse_poly(self, den: Poly, axis):
        """Exact multiplication by 1/den(x) (axis 0) or 1/den(z) (axis 1)."""
        d = den.degree
        xlo, xhi, zlo, zhi = self.box
        if axis == 0:
            lo, hi, olo, ohi = xlo, xhi, zlo, zhi
        else:
            lo, hi, olo, ohi = zlo, zhi, xlo, xhi
        inv = _inverse_expansion(den, hi - lo + 1)
        out = {}
        for o in range(olo, ohi + 1):
            for i in range(lo - d, hi - d + 1):
                acc = Fraction(0)
                for s, u in enumerate(inv):
                    src = i + d + s
                    if src > hi:
                        break
                    key = (src, o) if axis == 0 else (o, src)
                    c = self.coeffs.get(key)
                    if c is not None:
                        acc = acc + u * c
                if acc:
                    out[(i, o) if axis == 0 else (o, i)] = acc
        box = (lo - d, hi - d, olo, ohi) if axis == 0 else (olo, ohi, lo - d, hi - d)
        return WaveSeries(out, box)

    def mul_ratfn(self, rf: RationalFunction, axis):
        """Multiply by a rational function of x (axis 0) or z (axis 1)."""
        if rf.is_zero:
            raise UsageError("multiplication by the zero function")
        if rf.is_laurent:
            return self._mul_terms(rf.laurent_terms(), axis)
        return self.mul_poly(rf.num, axis)._mul_inverse_poly(rf.den, axis)

    def mul_poly(self, p: Poly, axis):
        return self._mul_terms([(k, c) for k, c in enumerate(p.coeffs) if c], axis)

    def apply(self, op: DiffOp, var: str) -> "WaveSeries":
        """Image under an operator acting in x (var='x') or z (var='z').

        The e^{xz} prefactor is handled by d/dx -> (z + d/dx) and
        symmetrically in z; the result is again prefactor-stripped.
        """
        if var not in ("x", "z"):
            raise UsageError("var must be 'x' or 'z'")
        a = op.convert(DEL)
        axis = 0 if var == "x" else 1
        powers = [self]
        for _ in range(a.order):
            prev = powers[-1]
            if axis == 0:
                powers.append(prev.shift(0, 1) + prev.raw_dx())
            else:
                powers.append(prev.shift(1, 0) + prev.raw_dz())
        out = None
        for k, c in enumerate(a.coeffs):
            if c.is_zero:
                continue
            piece = powers[k].mul_ratfn(c, axis)
            out = piece if out is None else out + piece
        if out is None:
            raise UsageError("cannot apply the zero operator to a series")
        return out

    def x_row(self, i):
        """The z-coefficients of x^i inside the window, as a dict."""
        return {j: c for (i2, j), c in self.coeffs.items() if i2 == i}

    def __eq__(self, other):
        if not isinstance(other, WaveSeries):
            return NotImplemented
        return self.box == other.box and self.coeffs == other.coeffs

    def to_json(self):
        items = sorted(self.coeffs.items())
        return {"window": list(self.box),
                "coeffs": [[i, j, format_rational(c)] for (i, j), c in items]}

    @classmethod
    def from_json(cls, data):
        return cls({(int(i), int(j)): parse_rational(c)
                    for i, j, c in data["coeffs"]}, tuple(data["window"]))

    def __repr__(self):
        return f"WaveSeries(window={self.box}, terms={len(self.coeffs)})"


class ExpSeries:
    """e^{rate * x} times a truncated one-variable series."""

    __slots__ = ("var", "rate", "coeffs", "box")

    def __init__(self, var, rate, coeffs, box):
        lo, hi = box
        if lo > hi:
            raise TruncationError(f"empty series window {box}")
        self.var = var
        self.rate = rate
        self.box = (lo, hi)
        self.coeffs = {d: c for d, c in
                       (coeffs.items() if isinstance(coeffs, dict) else coeffs)
                       if lo <= d <= hi and c}

    def _check(self, other):
        if self.var != other.var or self.rate != other.rate:
            raise UsageError("series at different exponential points")

    @property
    def is_zero(self):
        return not self.coeffs

    def coeff(self, d):
        return self.coeffs.get(d, Fraction(0))

    def __add__(self, other):
        self._check(other)
        lo = max(self.box[0], other.box[0])
        hi = max(self.box[1], other.box[1])
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            out[d] = out.get(d, Fraction(0)) + c
        return ExpSeries(self.var, self.rate, out, (lo, hi))

    def __neg__(self):
        return ExpSeries(self.var, self.rate,
                         {d: -c for d, c in self.coeffs.items()}, self.box)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return ExpSeries(self.var, self.rate,
                         {d: c * v for d, v in self.coeffs.items()}, self.box)

    def xshift(self, m):
        lo, hi = self.box
        return ExpSeries(self.var, self.rate,
                         {d + m: v for d, v in self.coeffs.items()},
                         (lo + m, hi + m))

    def raw_diff(self):
        lo, hi = self.box
        return ExpSeries(self.var, self.rate,
                         {d - 1: d * v for d, v in self.coeffs.items() if d},
                         (lo - 1, hi - 1))

    def theta(self):
        """Degree-weighted derivative x d/dx of the bare series."""
        return ExpSeries(self.var, self.rate,
                         {d: d * v for d, v in self.coeffs.items() if d}, self.box)

    def _mul_inverse_poly(self, den: Poly):
        d = den.degree
        lo, hi = self.box
        inv = _inverse_expansion(den, hi - lo + 1)
        out = {}
        for i in range(lo - d, hi - d + 1):
            acc = None
            for s, u in enumerate(inv):
                src = i + d + s
                if src > hi:
                    break
                c = self.coeffs.get(src)
                if c is not None:
                    acc = u * c if acc is None else acc + u * c
            if acc is not None and acc:
                out[i] = acc
        return ExpSeries(self.var, self.rate, out, (lo - d, hi - d))

    def mul_ratfn(self, rf: RationalFunction) -> "ExpSeries":
        """Multiply by a rational function, expanding any pole at infinity."""
        if rf.is_zero:
            raise UsageError("multiplication by the zero function")
        terms = (rf.laurent_terms() if rf.is_laurent else
                 [(m, c) for m, c in enumerate(rf.num.coeffs) if c])
        out = None
        for m, c in terms:
            piece = self.xshift(m).scale(c)
            out = piece if out is None else out + piece
        return out if rf.is_laurent else out._mul_inverse_poly(rf.den)

    def apply(self, op: DiffOp) -> "ExpSeries":
        """Image under an operator with rational coefficients in self.var."""
        if op.var != self.var:
            raise UsageError("operator in the wrong variable")
        a = op.convert(DEL)
        powers = [self]
        for _ in range(a.order):
            prev = powers[-1]
            powers.append(prev.scale(self.rate) + prev.raw_diff())
        out = None
        for k, c in enumerate(a.coeffs):
            if c.is_zero:
                continue
            piece = powers[k].mul_ratfn(c)
            out = piece if out is None else out + piece
        if out is None:
            raise UsageError("cannot apply the zero operator to a series")
        return out

    def __eq__(self, other):
        if not isinstance(other, ExpSeries):
            return NotImplemented
        return (self.var == other.var and self.rate == other.rate
                and self.box == other.box and self.coeffs == other.coeffs)

    def __repr__(self):
        return (f"ExpSeries(var={self.var!r}, rate={self.rate!r}, "
                f"window={self.box}, terms={len(self.coeffs)})")


@dataclass(frozen=True)
class PointJet:
    """Truncated series for D_z^k of a wave function at z = eps^branch * lam."""

    lam: Fraction
    branch: int
    rate: object          # eps^branch * lam: lam on branch 0, else a Cyclotomic
    series: tuple         # series[k] is the k-th jet, an ExpSeries in x

    @property
    def jet_order(self):
        return len(self.series) - 1

    def combine(self, a):
        """sum_k a_k series[k]: the jet of the condition sum_k a_k D_z^k."""
        out = None
        for k, c in enumerate(a):
            if c:
                piece = self.series[k].scale(c)
                out = piece if out is None else out + piece
        return out
