"""Function spaces the operators act on.

* QuasiPolynomial: finite sums c * x^g * (ln x)^j with rational exponents g.
  These carry the exact kernel conditions at the origin.  They are the
  generalized weight vectors of D = x d/dx, the grading of the x^a f(D)
  basis of W_{1+infinity}: with y = ln x,

      D^k x^g y^j = x^g sum_i C(k, i) g^(k-i) j!/(j-i)! y^(j-i),

  so f(D) acts on x^g y^j through f and its derivatives at g, and an
  operator acts in one closed-form pass.  Its DFORM numerators are cleared
  to integer columns over one integer den, the lcm of their denominators:
  column t holds the integers of x^t D^k, k = 0..top; the coefficients
  are cleared over one integer vden.  For g = p/q, each term v x^g y^j (v
  now an integer) and each log drop i take one integer sum over k per
  column, s = sum_k col[k] C(k, i) p^(k-i) q^(top-k+i), and add
  v s j!/(j-i)! to the integer at x^(g+t-m) y^(j-i), x^m the DFORM
  denominator.  Every piece there lies over vden den q^top, since g+t-m
  keeps the denominator q, so each output coefficient is one Fraction,
  and no quasi-polynomial is built per power of D.
* WaveSeries: e^{xz} * sum c_ij x^i z^j on a rectangular window.  True
  coefficients vanish above the window top in each variable, and every
  stored coefficient inside the window equals the exact one, so window
  bookkeeping is conservative by construction.  The exponential is data,
  the step (dz, p, q) of rate (p/q) z^dz: (1, 1, 1) for e^{xz}.
* ExpSeries: a WaveSeries of one row (z-power 0) with step (0, p, q), the
  series e^{c x} * sum c_d x^d with a rational rate c = p/q.  It holds the
  profile psi(x, lam) of the wave function at a nonzero spectral point
  c = lam, and a jet condition sum_k a_k D_z^k at lam is the image of that
  one profile under a(D).  It adds only its constructor and ``rate``; the
  arithmetic, the division and the DEL step (rate + d/dx) are the
  WaveSeries code, which refuses to add series of different steps and to
  multiply a profile by p(z).

No document stores any of these, so they have no JSON form.

Operators act on a WaveSeries in x only.  The wave function depends on
xz alone, so the bispectral pair's Lambda, an operator in z, is applied
after relabelling it to x, and z enters the series layer only through
``mul_poly``, which multiplies by an eigenvalue polynomial p(z).
Operators act after peeling the exponential prefactor: d/dx becomes
(z + d/dx) on e^{xz} and (c + d/dx) on an ExpSeries.  An
operator is read in its cleared form den^{-1} sum_k nums[k] DEL^k (see
``weyl``), so its image is den^{-1} sum_k nums[k] DEL^k psi: the
numerator pieces are summed once and the sum is divided once.  A
denominator x^m acts by a shift; one with a root away from 0 by division
by recurrence from the window top: true coefficients vanish above the
window, so den * out = in has exactly one solution without terms above
it, and each row costs O(width * deg den).

The DEL powers and the numerator pieces are kept on dense integer lines,
in the x^a grading of the module at fixed t = xz: the entry (i, j) of a
WaveSeries lies on the diagonal i - j = a, and an ExpSeries has one line,
its row.  DEL = z + d/dx sends (i, j) to (i, j + 1) and to (i - 1, j),
both on the diagonal a - 1, so a step maps line a densely onto line a - 1;
psi = e^{xz}(1 + sum a_k (xz)^{-k}) lies on the diagonal 0 alone and
DEL^k psi on -k.  On an ExpSeries the rate keeps an entry's x-power and
d/dx lowers it, so the same step runs along the row (``_del_lines``).  A
term x^t moves the diagonal a to a + t and the row to itself.  The box
comes first, from the power boxes and the nonzero shifts alone: it is the
fold of max over the piece boxes, component by component, as the pairwise
+ builds it.  Each DEL power's lines, times each term, are then added
into the lines inside that box, and entries outside it are dropped, as a
series drops them; the sums are transposed once to dense rows, a row
holding one power of z over the x window.  A coefficient inside the
final box lies inside every partial box, so the one-pass sum keeps
exactly what the pairwise sums keep, and the windows are the same.  When
den = x^m the rows are written out once; otherwise each row is divided as
it stands (``_divide_row``), which shifts the box by -deg den.  Against
the per-coefficient route, which divides n_k / den_k reduced, each
piece's box moves by the same deg n_k - deg den_k, since reducing leaves
that difference unchanged and the max-fold commutes with the common
shift; so the windows are the same there too.

Integer form.  A WaveSeries keeps integer numerators over one positive
integer denominator and takes no gcd in its arithmetic; ``coeffs`` is the
reduced rational view, computed once per series.  An operator is applied
in integers with one division: its numerators are cleared by the lcm D of
their denominators, and a monic den with a root away from 0 by the integer
E that makes E * den integral, with leading coefficient E.  Dividing by
E * den from the window top needs no division either: counted from the
top, the k-th output has a denominator dividing E^(k+1), and the
recurrence runs on the output times that power (``_divide_row``).  So the
image of a series over s lies over s * D when den = x^m, and over
s * D * E^(w-1) otherwise, w the width of the x window;
E = 1 (integral den) costs nothing.  An ExpSeries step (c + d/dx) with
c = p/q is (p u + q u') / q, so each DEL power lies over q times the last
one; the pieces are summed over the highest power's denominator, which
every lower one divides.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import TruncationError, UnsupportedInputError, UsageError
from .poly import Poly, power_text, signed_sum
from .scalars import _shown, cleared
from .weyl import DEL, DFORM, DiffOp


class QuasiPolynomial:
    """Finite map (exponent, log power) -> coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        data = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for key, c in items:
            if not isinstance(key, tuple) or len(key) != 2:
                raise UsageError(f"a term key is (exponent, log power), "
                                 f"not {_shown(key)}")
            gamma, j = key
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

    def log_derivative(self):
        """Derivative in y = ln x, the seed-to-element map for log groups."""
        out = {}
        for (g, j), c in self.terms.items():
            if j:
                out[(g, j - 1)] = out.get((g, j - 1), Fraction(0)) + j * c
        return QuasiPolynomial(out)

    def apply(self, op: DiffOp) -> "QuasiPolynomial":
        """Exact image x^{-m} sum_k nums[k] D^k self under an operator whose
        DFORM denominator is x^m; any other denominator raises
        UnsupportedInputError.  One closed-form pass on integer columns
        (module docstring)."""
        d = op.convert(DFORM)
        m = d.den.degree
        if d.den.valuation() != m:
            raise UnsupportedInputError(
                f"denominator {d.den} has a pole away from 0")
        top = len(d.nums) - 1
        den = math.lcm(*(num.den for num in d.nums))
        cols = {}
        for k, num in enumerate(d.nums):
            for t, n in enumerate(num.nums):
                cols.setdefault(t, [0] * (top + 1))[k] = n * (den // num.den)
        # drops[i][t]: column t's entries k >= i times C(k, i), the weights
        # of the D^k on the log drop i
        logs = min(top, max((j for _, j in self.terms), default=0))
        drops = [{t: [c * math.comb(k, i) for k, c in enumerate(col[i:], i)]
                  for t, col in cols.items()} for i in range(logs + 1)]
        # every piece at x^(a/q) y^j lies over vden den q^top
        ints, vden = cleared(list(self.terms.values()))
        sums = {}
        for (g, j), v in zip(self.terms, ints):
            p, q = g.numerator, g.denominator
            powers = [p ** e * q ** (top - e) for e in range(top + 1)]
            for i in range(min(j, top) + 1):
                scale = v * math.perm(j, i)
                for t, weights in drops[i].items():
                    key = (p + (t - m) * q, q, j - i)
                    sums[key] = sums.get(key, 0) + scale * sum(
                        map(operator.mul, weights, powers))
        return QuasiPolynomial([((Fraction(a, q), j),
                                 Fraction(n, vden * den * q ** top))
                                for (a, q, j), n in sums.items() if n])

    def __repr__(self):
        return f"QuasiPolynomial({self.to_str()!r})"

    def to_str(self, var="x"):
        terms = []
        for (g, j), c in self.items():
            monos = [power_text(var, g), power_text(f"ln({var})", j)]
            terms.append((str(c), "*".join(m for m in monos if m)))
        return signed_sum(terms)

    __str__ = to_str


def _add_into(out, items):
    """out += items.  A sum that cancels stays in ``out``; adding to an
    exact zero gives the same value the pairwise + gets by dropping it."""
    for k, c in items:
        s = out.get(k)
        out[k] = c if s is None else s + c


def _del_lines(lines, step):
    """(rate + d/dx) on dense lines {a: (s, v)}, v[k] the numerator at
    x^(s+k) on the line dz x - z = a.

    With step = (dz, p, q), rate = (p/q) z^dz, the DEL step is
    (p z^dz u + q u') / q: z^dz keeps the x-power and d/dx lowers it, and
    both lower dz x - z by dz, so line a goes densely to line a - dz,
    w[k] = p v[k-1] + q (s+k) v[k] from x^(s-1) up.  A factor 1, as on
    every e^{xz} step, is not multiplied in.  Nothing is truncated here: an
    entry below a power's box stays below the boxes of the later powers,
    and so below the final box of ``_image``, which drops it.
    """
    dz, p, q = step
    out = {}
    for a, (s, v) in lines.items():
        up = v if p == 1 else [p * u for u in v]
        out[a - dz] = (s - 1, [u + i * y for i, u, y in zip(
            range(q * s, q * (s + len(v) + 1), q), [0, *up], [*v, 0])])
    return out


def _divide_rows(rows, lo, p: Poly):
    """Dense rows, row[k] the coefficient of var^(lo+k), times 1/p(var) for
    a monic p: the rows, their new lo and the integer they now lie over.

    p is cleared to E * p = p.nums, integral with leading coefficient
    E = p.den, and each row goes through ``_divide_row``; the result lies
    over E^(w-1) times the rows' denominator, w the row width.
    """
    E, q = p.den, p.nums[:-1]
    rows = [_divide_row(row, q, E) for row in rows]
    w = len(rows[0])
    if E != 1:
        lift = [E ** k for k in range(w)]
        rows = [[y * e for y, e in zip(row, lift)] for row in rows]
    return rows, lo - len(q), E ** (w - 1)


def _divide_row(row, q, lead=1):
    """Solve (lead x^d + sum_{t<d} q[t] x^t) * out = row from the window top.

    row[k] is the coefficient of x^(lo+k) on a window [lo, hi] above which
    the true coefficients vanish; out[k] is that of x^(lo-d+k), d = len(q).
    The coefficient of x^(lo+k) of the product gives
    lead out_k = row_k - sum_{t<d} q_t out_{k+d-t}, with out_j = 0 above
    hi - d, so out_k, the (w-k)-th entry from the window top (w = len(row)),
    has a denominator dividing lead^(w-k).  The recurrence runs
    fraction-free on y_k = lead^(w-k) out_k:
        y_k = lead^(w-1-k) row_k - sum_{s=1..d} q_{d-s} lead^(s-1) y_{k+s},
    and y is returned.  With lead = 1 it is the plain recurrence.  Absent
    entries are 0.
    """
    d = len(q)
    taps = [(d - t, c if lead == 1 else c * lead ** (d - t - 1))
            for t, c in reversed(list(enumerate(q))) if c]
    w = len(row)
    y = [0] * w
    power = 1
    for k in range(w - 1, -1, -1):
        acc = row[k] if power == 1 else row[k] * power
        for s, c in taps:
            if k + s >= w:
                break
            u = y[k + s]
            if u:
                acc = acc - c * u
        y[k] = acc
        if lead != 1:
            power *= lead
    return y


class WaveSeries:
    """e^{xz}, or the exponential of ``step``, times a truncated double
    series; see the module docstring.

    Integer numerators ``nums[(i, j)]`` over one positive integer ``den``;
    ``coeffs`` is the reduced rational view, computed once per series.
    """

    __slots__ = ("nums", "den", "box", "step", "_coeffs")

    def __init__(self, coeffs, box):
        items = [(k, c) for k, c in
                 (coeffs.items() if isinstance(coeffs, dict) else coeffs) if c]
        ints, den = cleared([c for _, c in items])
        self.step = (1, 1, 1)
        self._set(dict(zip((k for k, _ in items), ints)), box, den)

    def _set(self, nums, box, den):
        """Integer numerators over den > 0, kept inside the box; no gcd is
        taken."""
        xlo, xhi, zlo, zhi = box
        if xlo > xhi or zlo > zhi:
            raise TruncationError(f"empty series window {box}")
        self.box, self.den, self._coeffs = (xlo, xhi, zlo, zhi), den, None
        self.nums = {(i, j): v for (i, j), v in nums.items()
                     if v and xlo <= i <= xhi and zlo <= j <= zhi}

    def _like(self, nums, box, den):
        """An arithmetic result of self's kind and step (see ``_set``)."""
        out = object.__new__(type(self))
        out.step = self.step
        out._set(nums, box, den)
        return out

    @property
    def coeffs(self):
        """The reduced coefficients nums[(i, j)] / den."""
        if self._coeffs is None:
            den = self.den
            self._coeffs = {k: Fraction(v, den) for k, v in self.nums.items()}
        return self._coeffs

    def coeff(self, i, j):
        return self.coeffs.get((i, j), Fraction(0))

    @property
    def is_zero(self):
        return not self.nums

    def __add__(self, other):
        if self.step != other.step:
            raise UsageError("series at different exponential points")
        g = math.gcd(self.den, other.den)
        a, b = other.den // g, self.den // g
        out = {k: v * a for k, v in self.nums.items()}
        _add_into(out, ((k, v * b) for k, v in other.nums.items()))
        return self._like(out, tuple(map(max, self.box, other.box)),
                          self.den * a)

    def __neg__(self):
        return self._like({k: -v for k, v in self.nums.items()},
                          self.box, self.den)

    def __sub__(self, other):
        return self + (-other)

    def shift(self, dx, dz, c=1):
        """Multiply by c * x^dx * z^dz."""
        c = Fraction(c)
        xlo, xhi, zlo, zhi = self.box
        return self._like({(i + dx, j + dz): c.numerator * v
                           for (i, j), v in self.nums.items()},
                          (xlo + dx, xhi + dx, zlo + dz, zhi + dz),
                          self.den * c.denominator)

    def _image(self, den: Poly, nums):
        """den^{-1} sum_k nums[k] DEL^k self for a monic den, in integers.

        The pieces nums[k] DEL^k self are summed once over T * D, T the den
        of the highest DEL power (a DEL step multiplies den by q, so T is a
        multiple of every power's den) and D the lcm of the numerators'
        denominators, on dense lines inside the max-folded box (module
        docstring); the sum is transposed once to rows of fixed z-power and
        divided once: by a shift when den = x^m, else row by row by
        ``_divide_rows``.
        """
        D = math.lcm(*(num.den for num in nums))
        m = den.degree
        laurent = den.valuation() == m
        dz, _, q = step = self.step
        top = len(nums) - 1
        xlo, xhi, zlo, zhi = self.box
        pieces, box = [], None
        for k, num in enumerate(nums):
            f = D // num.den * q ** (top - k)
            terms = [(t - m if laurent else t, n * f)
                     for t, n in enumerate(num.nums) if n]
            if terms:
                # a DEL step's box is the max of its two pieces' boxes, the
                # last box moved by (0, 0, dz, dz) and by (-1, -1, 0, 0), so
                # DEL^k moves self's box up by dz k; the largest shift gives
                # the fold of this power's pieces
                s = terms[-1][0]
                piece_box = (xlo + s, xhi + s, zlo + dz * k, zhi + dz * k)
                box = piece_box if box is None else tuple(
                    map(max, box, piece_box))
            pieces.append(terms)
        if box is None:
            raise UsageError("cannot apply the zero operator to a series")
        xlo, xhi, zlo, zhi = box
        w = xhi - xlo + 1
        sums = {}
        lines = self._lines()
        for k, terms in enumerate(pieces):
            if k:
                lines = _del_lines(lines, step)
            for a, (s, v) in lines.items():
                # v[b] sits at z-power dz (s + b) - a: entries below zlo are
                # dropped; no power reaches above zhi, the max top
                first = max(0, zlo + a - s) if dz else 0
                for t, c in terms:
                    o = s + t - xlo
                    b, e = max(first, -o), min(len(v), w - o)
                    if b < e:
                        key = a + dz * t
                        line = sums.get(key) or sums.setdefault(key, [0] * w)
                        line[o + b:o + e] = [u + c * y for u, y in
                                             zip(line[o + b:o + e], v[b:e])]
        rows = [[0] * w for _ in range(zhi - zlo + 1)]
        for a, line in sums.items():
            r = dz * xlo - a - zlo
            for k, v in enumerate(line):
                if v:
                    rows[r + dz * k][k] = v
        total = self.den * q ** top * D
        if not laurent:
            rows, xlo, lift = _divide_rows(rows, xlo, den)
            total *= lift
        return self._like({(xlo + k, j): v for j, row in enumerate(rows, zlo)
                           for k, v in enumerate(row) if v},
                          (xlo, xlo + w - 1, zlo, zhi), total)

    def _lines(self):
        """The numerators as dense lines {a: (s, v)}: v[k] sits at x^(s+k)
        on the line dz x - z = a, dz the z-power of the rate; a diagonal
        i - j = a of e^{xz}, the one row of e^{rate x}."""
        dz = self.step[0]
        grouped = {}
        for (i, j), v in self.nums.items():
            grouped.setdefault(dz * i - j, {})[i] = v
        lines = {}
        for a, line in grouped.items():
            s = min(line)
            lines[a] = (s, [line.get(i, 0) for i in range(s, max(line) + 1)])
        return lines

    def mul_poly(self, p: Poly):
        """Multiply by p(z): one pass of shifts along z.  The window moves
        up by deg p, and entries below its new bottom are dropped.  A
        series of step dz = 0, a profile, has no z to multiply by."""
        if not self.step[0]:
            raise UsageError("an exponential series has no z to multiply by")
        if p.is_zero:
            raise UsageError("multiplication by the zero function")
        xlo, xhi, zlo, zhi = self.box
        zlo, zhi = zlo + p.degree, zhi + p.degree
        terms = [(t, n) for t, n in enumerate(p.nums) if n]
        out = {}
        for (i, j), v in self.nums.items():
            for t, n in terms:
                if j + t >= zlo:
                    key = (i, j + t)
                    s = out.get(key)
                    out[key] = n * v if s is None else s + n * v
        return self._like(out, (xlo, xhi, zlo, zhi), self.den * p.den)

    def apply(self, op: DiffOp) -> "WaveSeries":
        """Image under an operator in x; one in z is refused.

        The e^{xz} prefactor is handled by d/dx -> (z + d/dx); the result
        is again prefactor-stripped.  The series layer acts in x only: z
        enters through ``mul_poly``, and an operator in z, such as Lambda,
        is applied after relabelling it to x, since psi depends on xz
        alone.
        """
        if op.var != "x":
            raise UsageError("operator in the wrong variable")
        a = op.convert(DEL)
        return self._image(a.den, a.nums)

    def __eq__(self, other):
        """Equal values on equal windows under the same exponential step."""
        if not isinstance(other, WaveSeries):
            return NotImplemented
        if self.step != other.step:
            return False
        if self.box != other.box or self.nums.keys() != other.nums.keys():
            return False
        a, b = self.den, other.den
        return all(v * b == other.nums[k] * a for k, v in self.nums.items())

    def __repr__(self):
        return (f"{type(self).__name__}(window={self.box}, "
                f"terms={len(self.nums)})")


class ExpSeries(WaveSeries):
    """e^{rate x} times a truncated series in x: a one-row WaveSeries.

    The coefficient of x^d sits at key (d, 0) of the window (lo, hi, 0, 0),
    and the step is (0, p, q) for rate = p/q, so every method is
    WaveSeries'.
    """

    __slots__ = ()

    def __init__(self, rate, coeffs, box):
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        super().__init__({(d, 0): c for d, c in items}, (*box, 0, 0))
        rate = Fraction(rate)
        self.step = (0, rate.numerator, rate.denominator)

    @property
    def rate(self):
        """The rational rate p/q of the exponential."""
        return Fraction(*self.step[1:])

    # the same function as WaveSeries.apply, bound here too so that a timer
    # patched onto one class attribute can tell profile images apart
    apply = WaveSeries.apply
