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
0 are handled by division by recurrence from the window top: true
coefficients vanish above the window, so den * out = in has exactly one
solution without terms above it, and each row costs O(width * deg den).

An operator's image is a sum of pieces (one per shifted term or divided
numerator), streamed into one coefficient dict.  Its box is the fold of
max over the piece boxes, component by component, as the pairwise + builds
it: a coefficient inside the final box lies inside every partial box, so
the one-pass sum keeps exactly what the pairwise sums keep.
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
        image = {}
        power = self
        for k, terms in enumerate(laurent):
            if k:
                power = power.apply_theta()
            for m, c in terms:
                _add_into(image, (((g + m, j), c * v)
                                  for (g, j), v in power.terms.items()))
        return QuasiPolynomial(image)

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


def _add_into(out, items):
    """out += items.  A sum that cancels stays in ``out``; adding to an
    exact zero gives the same value the pairwise + gets by dropping it."""
    for k, c in items:
        s = out.get(k)
        out[k] = c if s is None else s + c


def _accumulate(pieces):
    """One-pass sum of (box, items) pieces: the dict and the max-folded box."""
    out, box = {}, None
    for piece_box, items in pieces:
        box = piece_box if box is None else tuple(map(max, box, piece_box))
        _add_into(out, items)
    return out, box


def _divide_row(row, den: Poly):
    """Solve den * out = row from the window top down.

    row[k] is the coefficient of x^(lo+k) on a window [lo, hi] above which
    the true coefficients vanish; out[k] is that of x^(lo-d+k), d = deg den.
    The coefficient of x^(i+d) in den * out gives
    out_i = (in_{i+d} - sum_{t<d} den_t out_{i+d-t}) / lead, with out_j = 0
    above hi - d.  Absent entries are 0.
    """
    d = den.degree
    taps = [(d - t, c) for t, c in reversed(list(enumerate(den.coeffs[:d])))
            if c]
    inv = 1 / den.leading
    w = len(row)
    out = [0] * w
    for k in range(w - 1, -1, -1):
        acc = row[k]
        for s, c in taps:
            if k + s >= w:
                break
            u = out[k + s]
            if u:
                acc = acc - c * u
        if acc:
            out[k] = acc * inv
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

    def _shifted(self, terms, axis):
        """The pieces c * x^m * self (axis 0) or c * z^m * self (axis 1)."""
        xlo, xhi, zlo, zhi = self.box
        items = self.coeffs.items()
        for m, c in terms:
            if axis == 0:
                yield ((xlo + m, xhi + m, zlo, zhi),
                       (((i + m, j), c * v) for (i, j), v in items))
            else:
                yield ((xlo, xhi, zlo + m, zhi + m),
                       (((i, j + m), c * v) for (i, j), v in items))

    def _mul_terms(self, terms, axis):
        if not terms:
            raise UsageError("multiplication by the zero function")
        return WaveSeries(*_accumulate(self._shifted(terms, axis)))

    def _mul_inverse_poly(self, den: Poly, axis):
        """Exact multiplication by 1/den(x) (axis 0) or 1/den(z) (axis 1)."""
        d = den.degree
        xlo, xhi, zlo, zhi = self.box
        lo, hi = (xlo, xhi) if axis == 0 else (zlo, zhi)
        rows = {}
        for key, c in self.coeffs.items():
            src, o = key if axis == 0 else key[::-1]
            row = rows.get(o)
            if row is None:
                row = rows[o] = [0] * (hi - lo + 1)
            row[src - lo] = c
        out = {}
        for o, row in rows.items():
            for k, c in enumerate(_divide_row(row, den), lo - d):
                if c:
                    out[(k, o) if axis == 0 else (o, k)] = c
        box = (lo - d, hi - d, zlo, zhi) if axis == 0 else (xlo, xhi, lo - d, hi - d)
        return WaveSeries(out, box)

    def mul_ratfn(self, rf: RationalFunction, axis):
        """Multiply by a rational function of x (axis 0) or z (axis 1)."""
        if rf.is_zero:
            raise UsageError("multiplication by the zero function")
        if rf.is_laurent:
            return self._mul_terms(rf.laurent_terms(), axis)
        return self.mul_poly(rf.num, axis)._mul_inverse_poly(rf.den, axis)

    def _ratfn_pieces(self, rf: RationalFunction, axis):
        if rf.is_laurent:
            yield from self._shifted(rf.laurent_terms(), axis)
        else:
            piece = self.mul_ratfn(rf, axis)
            yield piece.box, piece.coeffs.items()

    def mul_poly(self, p: Poly, axis):
        return self._mul_terms([(k, c) for k, c in enumerate(p.coeffs) if c], axis)

    def _apply_del(self, axis):
        """(z + d/dx) resp. (x + d/dz) on the bare series: one more DEL."""
        xlo, xhi, zlo, zhi = self.box
        items = self.coeffs.items()
        if axis == 0:
            pieces = (((xlo, xhi, zlo + 1, zhi + 1),
                       (((i, j + 1), v) for (i, j), v in items)),
                      ((xlo - 1, xhi - 1, zlo, zhi),
                       (((i - 1, j), i * v) for (i, j), v in items if i)))
        else:
            pieces = (((xlo + 1, xhi + 1, zlo, zhi),
                       (((i + 1, j), v) for (i, j), v in items)),
                      ((xlo, xhi, zlo - 1, zhi - 1),
                       (((i, j - 1), j * v) for (i, j), v in items if j)))
        return WaveSeries(*_accumulate(pieces))

    def apply(self, op: DiffOp, var: str) -> "WaveSeries":
        """Image under an operator acting in x (var='x') or z (var='z').

        The e^{xz} prefactor is handled by d/dx -> (z + d/dx) and
        symmetrically in z; the result is again prefactor-stripped.
        """
        if var not in ("x", "z"):
            raise UsageError("var must be 'x' or 'z'")
        a = op.convert(DEL)
        axis = 0 if var == "x" else 1

        def pieces():
            power = self
            for k, c in enumerate(a.coeffs):
                if k:
                    power = power._apply_del(axis)
                if not c.is_zero:
                    yield from power._ratfn_pieces(c, axis)

        out, box = _accumulate(pieces())
        if box is None:
            raise UsageError("cannot apply the zero operator to a series")
        return WaveSeries(out, box)

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

    def theta(self):
        """Degree-weighted derivative x d/dx of the bare series."""
        return ExpSeries(self.var, self.rate,
                         {d: d * v for d, v in self.coeffs.items() if d}, self.box)

    def _mul_inverse_poly(self, den: Poly):
        d = den.degree
        lo, hi = self.box
        row = [0] * (hi - lo + 1)
        for i, c in self.coeffs.items():
            row[i - lo] = c
        return ExpSeries(self.var, self.rate,
                         enumerate(_divide_row(row, den), lo - d),
                         (lo - d, hi - d))

    def _shifted(self, terms):
        lo, hi = self.box
        items = self.coeffs.items()
        for m, c in terms:
            yield (lo + m, hi + m), ((d + m, c * v) for d, v in items)

    def _ratfn_pieces(self, rf: RationalFunction):
        if rf.is_laurent:
            yield from self._shifted(rf.laurent_terms())
        else:
            piece = self.mul_ratfn(rf)
            yield piece.box, piece.coeffs.items()

    def mul_ratfn(self, rf: RationalFunction) -> "ExpSeries":
        """Multiply by a rational function, dividing by any denominator."""
        if rf.is_zero:
            raise UsageError("multiplication by the zero function")
        terms = (rf.laurent_terms() if rf.is_laurent else
                 [(m, c) for m, c in enumerate(rf.num.coeffs) if c])
        out = ExpSeries(self.var, self.rate, *_accumulate(self._shifted(terms)))
        return out if rf.is_laurent else out._mul_inverse_poly(rf.den)

    def _apply_del(self):
        """(rate + d/dx) on the bare series: one more DEL."""
        lo, hi = self.box
        items = self.coeffs.items()
        return ExpSeries(self.var, self.rate, *_accumulate((
            ((lo, hi), ((d, self.rate * v) for d, v in items)),
            ((lo - 1, hi - 1), ((d - 1, d * v) for d, v in items if d)))))

    def apply(self, op: DiffOp) -> "ExpSeries":
        """Image under an operator with rational coefficients in self.var."""
        if op.var != self.var:
            raise UsageError("operator in the wrong variable")
        a = op.convert(DEL)

        def pieces():
            power = self
            for k, c in enumerate(a.coeffs):
                if k:
                    power = power._apply_del()
                if not c.is_zero:
                    yield from power._ratfn_pieces(c)

        out, box = _accumulate(pieces())
        if box is None:
            raise UsageError("cannot apply the zero operator to a series")
        return ExpSeries(self.var, self.rate, out, box)

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
