"""Factor construction and exactness certificates.

A kernel specification selects a homogeneous, orbit-closed subspace: groups
of quasi-polynomial conditions at the origin plus jet conditions along the
orbits of nonzero points.  From it we build the unique monic annihilating
factor P by an escalating polynomial ansatz, recover the complement Q by
exact left division, and certify the pair by structural identities; series
solving may propose, but only division-certified operators are returned.

Orbit conditions are imposed, and certified, on branch 0 only, over Q.
The wave function depends on w = xz alone and D_z = z d/dz commutes with
dilation, so the jet of a condition at z = eps^j lam is the branch-0 jet
(at z = lam) taken at eps^j x.  An operator of the cleared shape
P = x^{-n} sum_k p_k(x^N) D^k, D = x d/dx, satisfies
P[f(eps^j .)] = eps^{jn} (P f)(eps^j .), so the degree-d coefficient of
P's image of the branch-j jet is eps^{j(d+n)} times that of the branch-0
image: branch 0 implies every other branch, and the orbit-closed kernel
follows from homogeneity.  The ansatz has that shape, and so does the
minimal monic annihilator of a dilation-stable space (it is unique, hence
fixed by dilation), so restricting to branch 0 loses no solution; certify
checks the shape witness before the kernel witness, so a branch-0 kernel
witness is a complete proof.  No Q(eps) arithmetic is needed anywhere:
the condition sum_k a_k D_z^k at lam is a(D) applied to the one profile
psi(x, lam), a series over Q with the rational rate lam (``wave_jet_at``).

The ansatz columns x^{jN-n} D^k are the same graded basis elements for a
condition at 0 and on an orbit, so one routine, ``_condition_rows``, lays
out the rows of both kinds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .bessel import BesselIndex, bessel_wave, poly_at_bessel, wave_jet_at
from .errors import (CertificationError, InconsistentSpecError,
                     RankDeficiencyError, ShapeError, SpecInvalidError,
                     UnsupportedInputError, UsageError)
from .poly import Poly
from .quasi import QuasiPolynomial
from .scalars import (format_rational, parse_int, parse_rational,
                      parse_rationals)
from .weyl import DEL, DFORM, DiffOp

# D = x d/dx = x DEL, in the form that series application reads
THETA = DiffOp("x", DFORM, (0, 1)).convert(DEL)


# Size caps of a kernel spec document.  ``KernelSpec.from_json`` checks
# them, and spec, certificate and pair documents all load through it, so
# an untrusted document cannot start an unbounded build: a single-group
# spec at the caps builds in under a second, but the caps bound each size
# alone, and several sizes at their caps at once can take minutes
# (timings in README.md).
MAX_N = 3               # length of the weight vector
MAX_GROUPS = 3          # at-zero plus orbit groups
MAX_ROWS = 4            # rows of b in one at-zero group
MAX_LOG_POWER = 1       # len(row) - 1 of one row of b
MAX_JET_ORDER = 3       # len(a) - 1 of one orbit group

# Longest list of coefficients, or of numerator or denominator entries, of
# an operator, and longest polynomial, in a certificate or pair document.
# Write a factor P of order n of h(L) as (x^n tau)^{-1} sum_k p_k(x^N) D^k,
# tau = p_n(x^N), and let D = N deg h.  The longest lists of a pair are the
# denominators of L = P Q, of degree D (1 + deg tau), and deg tau <= n D
# (for monomial kernels by the closed form's subset sums).  One group at
# the caps above has n <= MAX_N and D <= MAX_N * max(MAX_ROWS,
# MAX_JET_ORDER + 1) = 12, hence D (1 + n D) + 1 = 445 entries.  Built
# pairs of one to three groups at N = 2 and 3 measured 37 to 181 (three
# orbits at N = 3), and their polynomials at most 11.  A longer list exits
# 2 before it is parsed; one 2000-entry den made ``verify -K 8`` run past
# 20 s.
_D_CAP = MAX_N * max(MAX_ROWS, MAX_JET_ORDER + 1)
MAX_COEFF_ENTRIES = _D_CAP * (1 + MAX_N * _D_CAP) + 1

# Budget of the annihilator ansatz: rounds of coefficient degree bounds,
# the first up to n * deg h and each next one up to twice the last, before
# the spec is declared inconsistent.
MAX_ANSATZ_DOUBLINGS = 5


def _check_caps(N, at_zero, at_points):
    """Reject a spec document above a size cap, before anything is built."""
    sizes = [("N", N, "MAX_N", MAX_N), ("number of groups",
             len(at_zero) + len(at_points), "MAX_GROUPS", MAX_GROUPS)]
    for g in at_zero:
        sizes.append(("rows of b", len(g["b"]), "MAX_ROWS", MAX_ROWS))
        sizes += [("log power", len(row) - 1, "MAX_LOG_POWER", MAX_LOG_POWER)
                  for row in g["b"]]
    sizes += [("jet order", len(g["a"]) - 1, "MAX_JET_ORDER", MAX_JET_ORDER)
              for g in at_points]
    for what, value, name, cap in sizes:
        if value > cap:
            raise SpecInvalidError(f"spec too large: {what} {value} is above "
                                   f"the cap darboux.{name} = {cap}")


def _check_entries(what, lists):
    """Raise UsageError when one of the lists of a document's ``what`` is
    longer than MAX_COEFF_ENTRIES."""
    longest = max(len(entries) for entries in lists)
    if longest > MAX_COEFF_ENTRIES:
        raise UsageError(f"{what} too large: a list of {longest} entries is "
                         f"above the cap darboux.MAX_COEFF_ENTRIES = "
                         f"{MAX_COEFF_ENTRIES}")


def operator_from_json(data, var) -> DiffOp:
    """``DiffOp.from_json`` for documents: an operator in another variable
    than var, or a list longer than MAX_COEFF_ENTRIES, raises UsageError
    before any entry is parsed."""
    if data["var"] != var:
        raise UsageError(f"operator in the wrong variable: expected {var!r}")
    _check_entries("operator", [data["coeffs"]] + [
        c[key] for c in data["coeffs"] for key in ("num", "den")])
    return DiffOp.from_json(data)


def poly_from_json(data, var) -> Poly:
    """``Poly.from_json`` for documents: a list longer than
    MAX_COEFF_ENTRIES raises UsageError before any entry is parsed."""
    _check_entries("polynomial", [data])
    return Poly.from_json(var, data)


@dataclass(frozen=True)
class AtZeroGroup:
    """Conditions at the origin spanned by y-derivatives of one seed.

    ``b[k][j]`` weights x^(base + k N) (ln x)^j in the seed; the group
    contains the y-derivatives of orders 0..j0 of the seed, where j0 is
    the highest log power actually used.
    """

    base_index: int
    b: tuple

    def __post_init__(self):
        rows = tuple(tuple(Fraction(c) for c in row) for row in self.b)
        if not rows or not any(any(row) for row in rows):
            raise SpecInvalidError("empty condition group at 0")
        if not all(rows):
            raise SpecInvalidError("empty row of b in a condition group at 0")
        object.__setattr__(self, "b", rows)

    @property
    def j0(self):
        return max(j for row in self.b for j, c in enumerate(row) if c)

    def to_json(self):
        return {"base_index": self.base_index,
                "b": [[format_rational(c) for c in row] for row in self.b],
                "j0": self.j0}

    @classmethod
    def from_json(cls, data):
        return cls(parse_int(data["base_index"], "base_index"),
                   [parse_rationals(row, "row of b") for row in data["b"]])


@dataclass(frozen=True)
class AtPointGroup:
    """Jet conditions sum_k a_k D_z^k on the whole orbit eps^i lam.

    Imposed and certified at z = lam (branch 0) alone, which implies the
    other branches; see the module docstring.
    """

    lam: Fraction
    a: tuple

    def __post_init__(self):
        object.__setattr__(self, "lam", Fraction(self.lam))
        object.__setattr__(self, "a", tuple(Fraction(c) for c in self.a))
        if self.lam == 0:
            raise SpecInvalidError("point conditions require lam != 0")
        if not self.a or not self.a[-1]:
            raise SpecInvalidError("highest jet coefficient must be nonzero")

    def to_json(self):
        return {"lambda": format_rational(self.lam),
                "a": [format_rational(c) for c in self.a]}

    @classmethod
    def from_json(cls, data):
        return cls(parse_rational(data["lambda"]),
                   parse_rationals(data["a"], "a"))


@dataclass(frozen=True)
class KernelSpec:
    beta: BesselIndex
    at_zero: tuple = ()
    at_points: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "at_zero", tuple(self.at_zero))
        object.__setattr__(self, "at_points", tuple(self.at_points))
        for g in self.at_zero:
            if not 0 <= g.base_index < self.beta.N:
                raise SpecInvalidError(
                    f"base index {g.base_index} out of range")

    @property
    def is_monomial(self):
        return not self.at_points

    @property
    def is_log_free(self):
        return all(g.j0 == 0 for g in self.at_zero)

    def to_json(self):
        return {"beta": self.beta.to_json(),
                "at_zero": [g.to_json() for g in self.at_zero],
                "at_points": [g.to_json() for g in self.at_points]}

    @classmethod
    def from_json(cls, data):
        beta = BesselIndex.from_json(data["beta"])
        at_zero, at_points = data.get("at_zero", ()), data.get("at_points", ())
        _check_caps(beta.N, at_zero, at_points)
        return cls(beta, tuple(AtZeroGroup.from_json(g) for g in at_zero),
                   tuple(AtPointGroup.from_json(g) for g in at_points))


def monomial_kernel(beta: BesselIndex, rows) -> KernelSpec:
    """Build a log-free at-zero spec from rows of (exponent, coefficient) pairs.

    Every row must stay inside one ladder base + N Z>=0; exponents mixing
    residues (or stepping below every admissible base) are rejected, with
    the offending pair reported.
    """
    groups = []
    for row in rows:
        items = [(Fraction(g), Fraction(c)) for g, c in row if c]
        if not items:
            raise SpecInvalidError("empty kernel row")
        exps = [g for g, _ in items]
        for g1, g2 in itertools.combinations(exps, 2):
            diff = g1 - g2
            if diff == 0 or (diff / beta.N).denominator != 1:
                raise SpecInvalidError(
                    f"exponents {g1} and {g2} in one element differ by "
                    f"{diff}, not a nonzero multiple of {beta.N}")
        rungs = [beta.rungs(g) for g in exps]
        common = set(rungs[0]).intersection(*rungs[1:])
        if not common:
            raise SpecInvalidError(
                f"no admissible base exponent for row with exponents {exps}")
        base = min(common)
        steps = [r[base] for r in rungs]
        brows = [[Fraction(0)] for _ in range(max(steps) + 1)]
        for k, (_, c) in zip(steps, items):
            brows[k][0] = c
        groups.append(AtZeroGroup(base, tuple(tuple(r) for r in brows)))
    return KernelSpec(beta, tuple(groups), ())


def _group_elements(beta: BesselIndex, group: AtZeroGroup):
    """The quasi-polynomial elements of one at-zero group (seed
    derivatives), and the least d0 with all of them inside the kernel of
    the d0-th power: a term x^gamma (ln x)^p needs the p-th rung of gamma's
    ladder, counted from the lowest."""
    b0 = beta.beta[group.base_index]
    seed_terms, d0 = [], 0
    for k, row in enumerate(group.b):
        gamma = b0 + k * beta.N
        steps = sorted(beta.rungs(gamma).values())
        for j, c in enumerate(row):
            if not c:
                continue
            if j >= len(steps):
                raise SpecInvalidError(
                    f"log power {j} at exponent {gamma} exceeds its "
                    f"multiplicity {len(steps)}")
            seed_terms.append(((gamma, j), c))
            d0 = max(d0, steps[j] + 1)
    # the derivatives lower log powers only, so the seed sets d0
    elements = [QuasiPolynomial(seed_terms)]
    for _ in range(group.j0):
        elements.append(elements[-1].log_derivative())
    return elements, d0


@dataclass(frozen=True)
class ValidatedSpec:
    spec: KernelSpec
    elements_at_zero: tuple
    orbits: dict            # {lam: [a, ...]}, points and groups in spec order
    n0: int
    n: int
    g: Poly                 # in z
    f: Poly                 # in z
    h: Poly                 # in the argument y = z^N


def validate_spec(spec: KernelSpec) -> ValidatedSpec:
    """Check structural conditions and derive the certificate polynomials."""
    beta = spec.beta
    elements, d0 = [], 0
    for group in spec.at_zero:
        group_elements, group_d0 = _group_elements(beta, group)
        elements.extend(group_elements)
        d0 = max(d0, group_d0)
    n0 = len(elements)
    if elements:
        cols = sorted({key for q in elements for key, _ in q.items()})
        rows = [[q.terms.get(c, Fraction(0)) for c in cols] for q in elements]
        if linalg.rank(rows) != n0:
            raise RankDeficiencyError("conditions at 0 are linearly dependent")

    seen_power = {}
    orbits = {}
    for group in spec.at_points:
        key = group.lam ** beta.N
        other = seen_power.get(key)
        if other is not None and other != group.lam:
            raise SpecInvalidError(
                f"points {other} and {group.lam} name the same orbit")
        seen_power[key] = group.lam
        orbits.setdefault(group.lam, []).append(group.a)

    n = n0 + beta.N * len(spec.at_points)
    if n == 0:
        raise SpecInvalidError("empty kernel specification")
    g = Poly.monomial("z", n0)
    h = Poly.monomial("y", d0)
    for lam, vectors in orbits.items():
        width = max(len(v) for v in vectors)
        rows = [list(v) + [Fraction(0)] * (width - len(v)) for v in vectors]
        if linalg.rank(rows) != len(rows):
            raise RankDeficiencyError(
                f"jet conditions at {lam} are linearly dependent")
        # one factor z^N - lam^N per group, and the orbit's jet depth in h
        factor = Poly("z", [-(lam ** beta.N)] + [0] * (beta.N - 1) + [1])
        g = g * factor ** len(vectors)
        h = h * Poly("y", (-(lam ** beta.N), 1)) ** width
    h_z = h.expand_arg_power(beta.N, var="z")
    f, rem = h_z.divmod(g)
    if not rem.is_zero:
        raise RankDeficiencyError(
            "more conditions than the eigenvalue depth supports")
    return ValidatedSpec(spec=spec, elements_at_zero=tuple(elements),
                         orbits=orbits, n0=n0, n=n, g=g, f=f, h=h)


def _condition_rows(powers, n, N, bound, window=None):
    """Linear conditions on the ansatz coefficients from one condition c.

    ``powers[k]`` maps (exponent, log power) to the coefficient of D^k c.
    Column (k, j) holds the image x^(jN - n) D^k c of c under the ansatz
    column, and each (exponent, log power) of the images gives one row.  At
    0 the powers are quasi-polynomial terms; on an orbit they are the
    integer numerators of series over one denominator, and ``window``
    (lo, hi) keeps the exponents at which every image is exact.
    """
    ncols = (n + 1) * (bound + 1)
    rows = {}
    for k, power in enumerate(powers):
        for j in range(bound + 1):
            s, col = j * N - n, k * (bound + 1) + j
            for (g, p), c in power.items():
                if window is None or window[0] <= g + s <= window[1]:
                    row = rows.get((g + s, p))
                    if row is None:
                        row = rows[(g + s, p)] = [0] * ncols
                    row[col] = c
    return [rows[key] for key in sorted(rows)]


def _orbit_rows(profile, a, n, N, bound):
    """Rows of the orbit condition sum_k a_k D_z^k at lam, branch 0.

    ``profile`` is ``wave_jet_at`` of lam, so the condition a(D) profile and
    its D-powers are series over Q, read as integer numerators over the lcm
    of their denominators.  The window spans K + 1 degrees at profile depth
    K: a(D) with a_m != 0 moves the box (-K, 0) to (-K + m, m), and each D
    moves it up by one.  On branch j the row of degree deg over Q(eps) is
    eps^{j(deg+n)} times this row (module docstring), so the other branches
    add nothing to the row space or to the nullspace.
    """
    powers = [profile.apply(DiffOp("x", DFORM, a))]
    for _ in range(n):
        powers.append(powers[-1].apply(THETA))
    den = math.lcm(*(p.den for p in powers))
    lo, hi = (max(p.box[i] for p in powers) + bound * N - n for i in (0, 1))
    ints = [{key: v * (den // p.den) for key, v in p.nums.items()}
            for p in powers]
    return _condition_rows(ints, n, N, bound, (lo, hi))


def _assemble(beta, n, N, solution, bound):
    """Turn an ansatz coefficient vector into the monic cleared-form operator
    (x^n p_n(x^N))^{-1} sum_k p_k(x^N) D^k."""
    pks = [Poly("y", solution[k * (bound + 1):(k + 1) * (bound + 1)])
           for k in range(n + 1)]
    if pks[-1].is_zero:
        return None
    nums = [p.expand_arg_power(N, var="x") for p in pks]
    return DiffOp.from_cleared("x", DFORM, nums[-1].shift_mul(n), nums)


def cleared_coefficients(P: DiffOp, N: int):
    """(n, [p_k in y]) with P = (x^n p_n(x^N))^{-1} sum_k p_k(x^N) D^k.

    This is the normal form of x^n P in DFORM read in y = x^N: its
    numerators have no common factor with its denominator.  The identity
    needs P's leading coefficient to be x^-n, so that p_n is the
    denominator; any other leading coefficient, or a coefficient that does
    not live in x^N, raises ShapeError.
    """
    d = P.convert(DFORM)
    if d.is_zero:
        raise ShapeError("zero operator has no structured form")
    n = d.order
    # x^n P: cancel the x^k, k <= n, that den holds; what is left of x^n is
    # prime to den // x^k, so the numerators stay prime to it
    k = min(n, d.den.valuation())
    cleared = DiffOp.from_cleared(d.var, DFORM,
                                  d.den // Poly.monomial(d.var, k),
                                  [p.shift_mul(n - k) for p in d.nums],
                                  Poly.const(d.var, 1))
    if cleared.nums[-1] != cleared.den:
        raise ShapeError(f"leading coefficient {d.coeff(n)} of D^{n} "
                         f"is not x^-{n}")
    # the normal form is unique, so it is one in x^N exactly when every
    # coefficient lives in x^N; the reduced coefficients name the culprit
    if not all(p.is_power_pattern(N) for p in (cleared.den, *cleared.nums)):
        for k, c in enumerate(cleared.coeffs):
            if not (c.num.is_power_pattern(N) and c.den.is_power_pattern(N)):
                raise ShapeError(
                    f"coefficient {d.coeff(k)} of D^{k} does not live in x^{N}")
    return n, [p.contract_arg_power(N, var="y") for p in cleared.nums]


def default_depth(h_degree: int, N: int, n: int) -> int:
    """Series depth that covers the windows of an order-n factor of h(L)."""
    return 2 * (h_degree * N + n) + 8


def _solve_annihilator(val: ValidatedSpec):
    """Find the minimal monic annihilator by escalating polynomial degree.

    The bounds run 0, 1, ... up to base_bound * 2^(MAX_ANSATZ_DOUBLINGS - 1),
    base_bound = n * deg h, as MAX_ANSATZ_DOUBLINGS rounds that each double
    the last bound would.
    """
    beta = val.spec.beta
    n, N = val.n, beta.N
    d = max(1, val.h.degree)
    base_bound = max(1, n * d)
    largest, dim = (0, 0), None
    h_at_l = poly_at_bessel(beta, val.h)
    zero_powers = []
    for q in val.elements_at_zero:
        powers = [q]
        for _ in range(n):
            powers.append(powers[-1].apply_theta())
        zero_powers.append([p.terms for p in powers])
    top = base_bound << (MAX_ANSATZ_DOUBLINGS - 1)
    for bound in range(top + 1):
        ncols = (n + 1) * (bound + 1)
        rows = [row for powers in zero_powers
                for row in _condition_rows(powers, n, N, bound)]
        if val.orbits:
            # each condition gives K + 1 > ncols degrees (``_orbit_rows``)
            K = max(default_depth(d, N, n), 2 * ncols + 2 * n + 10)
            for lam, vectors in val.orbits.items():
                profile = wave_jet_at(beta, lam, K)
                for a in vectors:
                    rows.extend(_orbit_rows(profile, a, n, N, bound))
        sols = linalg.nullspace(rows, ncols)
        largest = max(largest, (len(rows), ncols),
                      key=lambda shape: shape[0] * shape[1])
        dim = len(sols)
        for sol in sols:
            op = _assemble(beta, n, N, sol, bound)
            if op is None:
                continue
            quot, rem = h_at_l.left_divide(op)
            if rem.is_zero:
                return op, quot
    raise InconsistentSpecError(
        f"no certified annihilator for coefficient degree bounds "
        f"0..{top}, doubled from {base_bound} in "
        f"darboux.MAX_ANSATZ_DOUBLINGS = {MAX_ANSATZ_DOUBLINGS} rounds; "
        f"largest system {largest[0]} x {largest[1]}, "
        f"last nullspace dimension {dim}")


@dataclass(frozen=True)
class DarbouxCertificate:
    beta: BesselIndex
    P: DiffOp
    Q: DiffOp
    f: Poly
    g: Poly
    h: Poly
    witnesses: dict
    depth: int
    spec: KernelSpec = None

    def to_json(self):
        out = {"beta": self.beta.to_json(),
               "P": self.P.to_json(), "Q": self.Q.to_json(),
               "f": self.f.to_json(), "g": self.g.to_json(),
               "h": self.h.to_json(),
               "witnesses": dict(self.witnesses),
               "depth": self.depth}
        if self.spec is not None:
            out["spec"] = self.spec.to_json()
        return out

    @classmethod
    def from_json(cls, data):
        spec = (KernelSpec.from_json(data["spec"])
                if data.get("spec") is not None else None)
        beta = BesselIndex.from_json(data["beta"])
        # the spec's cap on N, also without a spec, before certify builds psi
        if beta.N > MAX_N:
            raise SpecInvalidError(f"certificate too large: N {beta.N} is "
                                   f"above the cap darboux.MAX_N = {MAX_N}")
        if spec is not None and spec.beta != beta:
            raise CertificationError("the certificate's weights differ from "
                                     "the weights of its spec")
        cert = cls(beta=beta,
                   P=operator_from_json(data["P"], "x"),
                   Q=operator_from_json(data["Q"], "x"),
                   f=poly_from_json(data["f"], "z"),
                   g=poly_from_json(data["g"], "z"),
                   h=poly_from_json(data["h"], "y"),
                   witnesses=dict(data["witnesses"]),
                   depth=parse_int(data["depth"], "depth"), spec=spec)
        # h sets the depths of the checks that read a stored certificate
        if cert.h != _eigenvalue_pattern(cert.f, cert.g, cert.beta.N):
            raise CertificationError("stored h is not f*g read in y = z^N")
        return cert


def _eigenvalue_pattern(f: Poly, g: Poly, N: int) -> Poly:
    fg = f * g
    if not fg.is_power_pattern(N):
        raise CertificationError(
            "f*g is not a polynomial in z^N; eigenvalue pattern broken")
    return fg.contract_arg_power(N, var="y")


def certify(beta: BesselIndex, P: DiffOp, Q: DiffOp, f: Poly, g: Poly,
            spec: KernelSpec = None, depth=None) -> DarbouxCertificate:
    """Verify every exactness witness; raise a named failure otherwise.

    The ``kernel`` witness checks orbit conditions on branch 0 only.  That
    is a complete proof because the ``shape`` witness is checked first: it
    puts P in the cleared form x^{-n} sum_k p_k(x^N) D^k, and such a P
    annihilates the branch-j jet exactly when it annihilates the branch-0
    jet (module docstring).  ``depth`` sets the series windows and is
    recorded in the certificate; the orbit profiles of the kernel witness
    use at least the default depth, below which P's image of a condition
    can vanish on the window although it is not annihilated.  P and Q act
    in x: h(L) is built in x, so factors in another variable fail the
    product witness.
    """
    witnesses = {}
    if g.is_zero or g.leading != 1:
        raise CertificationError("g is not monic")
    if f.is_zero or f.leading != 1:
        raise CertificationError("f is not monic")
    # before h(L) is built: its size follows deg h = (deg f + deg g) / N
    for poly, name, op, op_name in ((g, "g", P, "P"), (f, "f", Q, "Q")):
        if poly.degree != op.order:
            raise CertificationError(
                f"degree of {name} ({poly.degree}) does not match the order "
                f"of {op_name} ({op.order})")
    h = _eigenvalue_pattern(f, g, beta.N)
    witnesses["eigenvalue_pattern"] = True

    target = poly_at_bessel(beta, h)
    # one product in each form, whatever form P and Q come in: DEL runs the
    # Leibniz rule, and DFORM multiplies Laurent factors by graded parts, so
    # the two witnesses take different routes
    product = Q.convert(DEL) * P.convert(DEL)
    if product != target:
        raise CertificationError("remainder nonzero: Q*P differs from h(L)")
    witnesses["product"] = True
    dual = Q.convert(DFORM) * P.convert(DFORM)
    if dual != target:
        raise CertificationError("product disagrees between coordinate forms")
    witnesses["product_dual_form"] = True

    n, _ = cleared_coefficients(P, beta.N)
    witnesses["shape"] = True

    least = default_depth(h.degree, beta.N, n)
    K = depth if depth is not None else least
    if spec is not None:
        val = validate_spec(spec)
        if val.g != g or val.f != f or val.h != h:
            raise CertificationError(
                "certificate polynomials do not match the kernel group counts")
        witnesses["counts"] = True
        cleared = DiffOp("x", DFORM, P.convert(DFORM).nums)
        for q in val.elements_at_zero:
            if not q.apply(cleared).is_zero:
                raise CertificationError(
                    f"kernel element {q} is not annihilated by P")
        for lam, vectors in val.orbits.items():
            profile = wave_jet_at(beta, lam, max(K, least))
            for a in vectors:
                condition = profile.apply(DiffOp("x", DFORM, a))
                if not condition.apply(cleared).is_zero:
                    raise CertificationError(
                        f"orbit kernel element at {lam} (branch 0) "
                        f"is not annihilated by P")
        witnesses["kernel"] = True
    psi = bessel_wave(beta, K)
    image = psi.apply(P)
    xlo, xhi, zlo, zhi = image.box
    for i, j in image.nums:
        if i > 0:
            raise CertificationError(
                f"normalization: positive power x^{i} survives in P psi")
    if zhi < g.degree:
        raise CertificationError("window too small to read off g; raise depth")
    for j in range(zlo, zhi + 1):
        want = g.coeff(j) if 0 <= j <= g.degree else 0
        if image.nums.get((0, j), 0) != want * image.den:
            raise CertificationError(
                f"normalization: x^0 row of P psi is not g at z^{j}")
    witnesses["normalization"] = True

    return DarbouxCertificate(beta=beta, P=P, Q=Q, f=f, g=g, h=h,
                              witnesses=witnesses, depth=K, spec=spec)


def build_certificate(spec: KernelSpec) -> DarbouxCertificate:
    """End-to-end: validate, build P, divide for Q, certify everything."""
    val = validate_spec(spec)
    if spec.at_points and not spec.is_log_free:
        raise UnsupportedInputError(
            "log-bearing conditions are only supported for kernels at 0")
    P, Q = _solve_annihilator(val)
    return certify(spec.beta, P.convert(DEL), Q.convert(DEL),
                   val.f, val.g, spec=spec)


def banded_rows(bi: BesselIndex, d: int, tparams):
    """Banded kernel matrix in the recurrence-normalized ladder basis.

    Columns follow ``bi.power(d)``; ``tparams[(k, r)]`` is the band
    parameter of weight k on diagonal r.  Weights whose depth-d ladder
    collides are rejected.
    """
    mus = {}
    for k, bk in enumerate(bi.beta):
        m = Fraction(1)
        mus[(k, 1)] = m
        for j in range(2, d + 1):
            prod = Fraction(1)
            for b in bi.beta:
                prod *= b - bk - (j - 1) * bi.N
            if prod == 0:
                raise UsageError(
                    "ladder collision: pick weights whose power has "
                    "distinct entries")
            m = m / prod
            mus[(k, j)] = m
    rows = []
    for r in range(d):
        row = [Fraction(0)] * (d * bi.N)
        for k in range(bi.N):
            for j in range(1, d + 1):
                if 0 <= r - (j - 1) <= d - 1:
                    row[k * d + (j - 1)] = tparams[(k, r - (j - 1))] * mus[(k, j)]
        rows.append(row)
    return rows
