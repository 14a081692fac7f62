"""The x <-> z involution, bispectral pair assembly and spectral algebras.

Given a certified factorization Q P = h(L) over a Bessel-type base, the
involuted factors act on the spectral side.  They are assembled from the
cleared coefficient presentations

    P = (x^n p_n(x^N))^{-1} sum_k p_k(x^N) D^k
    Q = sum_s D^s q_s(x^N) (x^m q_m(x^N))^{-1}

as P_b = g(x)^{-1} sum_k D^k p_k(L) and Q_b = sum_s q_s(L) D^s f(x)^{-1},
then reduced to minimal representatives by peeling base-operator factors
and normalizing the spectral polynomials monic.  The sums are kept as
graded parts sum_a x^a c_a(D) (``bessel``), and peeling L off one side is
one exact polynomial division per part, with no operator division.
Everything is exact; the pair is re-certified on the involuted side and
optionally checked against truncated series identities.

The spectral algebra of P is the set of u in Q[y] with u(L) ker P inside
ker P, the condition space description A_C = {f : f C in C} of Wilson
(1993) and Bakalov-Horozov-Yakimov (1997).  It is read off the spec's own
conditions, with no operator product or division:

* ker P is exactly the span of the conditions: there are n independent
  ones (``validate_spec``), each is annihilated by P (the ``kernel``
  witness), and ord P = n (the ``counts`` and ``shape`` witnesses).
* The conditions split by support.  The quasi-polynomials x^g (ln x)^j at
  0 and the jets D_z^i psi(x, eps^j lam) are linearly independent: they
  lie in generalized eigenspaces of L of distinct eigenvalues (0, and
  lam^N per orbit); at 0 the exponents and log powers differ; on one
  orbit the branches grow at distinct exponential rates eps^j lam; and on
  one point the jets of orders i form a Jordan chain of L, because
  (L - lam^N) D_z^i psi|lam is i N lam^N D_z^{i-1} psi|lam plus lower
  orders.  So a combination lies in ker P exactly when its part on each
  support lies in the span of the conditions with that support.
* u(L) keeps each support.  At 0 it maps quasi-polynomials to
  quasi-polynomials, and ``QuasiPolynomial.apply`` computes L^s q exactly,
  logs included.  On a point, L psi = z^N psi and D_z = z d/dz is a
  derivation, so with U(z) = u(z^N) = sum_s v_s z^{Ns}

      u(L) sum_k a_k D_z^k psi|lam = sum_i w_i D_z^i psi|lam,
      w_i = sum_{k>=i} a_k C(k,i) (D_z^{k-i} U)(lam),
      (D_z^m U)(lam) = sum_s v_s (N s)^m lam^{N s}.

* Branch 0 is enough.  L is homogeneous of degree -N and eps^N = 1, so
  u(L) commutes with the dilation x -> eps x, which carries the branch-0
  conditions of an orbit onto those of every other branch (the argument
  of the ``darboux`` module docstring).

So a monic u of degree t preserves ker P exactly when one choice of its
lower coefficients v_0..v_{t-1} puts every condition's image into the
span of the conditions on its support: one linear system over Q.  The
result depends only on the spec, so it trusts the certificate to come
from ``build_certificate``, ``certify`` or ``jsonio.load_certificate``.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .bessel import (BesselIndex, bessel_op, bessel_wave, indicial_poly,
                     power_ladders, power_sum_parts)
from .darboux import (DarbouxCertificate, KernelSpec, certify,
                      cleared_coefficients, default_depth, operator_from_json,
                      poly_from_json, validate_spec)
from .errors import (CertificationError, RankDeficiencyError,
                     SpecInvalidError, UnsupportedInputError, UsageError,
                     VerificationError)
from .poly import Poly
from .weyl import DEL, DFORM, DiffOp, _leibniz, graded_op


def _peeled(parts, B: Poly, N: int, right: bool):
    """The parts of op' with op = op' L (right) or op = L op', or None.

    With L = x^{-N} B(D), the product rule gives op' L = sum_a x^(a-N)
    r_a(D - N) B(D) and L op' = sum_a x^(a-N) B(D + a) r_a(D), so the
    factorization holds exactly when each part divides:
    r_(a+N)(y) = (c_a / B)(y + N), or r_(a+N) = c_a / B(y + a + N).
    """
    out = {}
    for a, c in parts.items():
        quot, rem = c.divmod(B if right else B.translate(a + N))
        if not rem.is_zero:
            return None
        out[a + N] = quot.translate(N) if right else quot
    return out


def _reduced(parts, poly: Poly, beta: BesselIndex, right: bool):
    """Peel base-operator factors off one side of sum_a x^a c_a(D), then
    make poly monic.

    Each step takes op = op' L (right) or op = L op' (not right) together
    with poly = z^N poly', by one exact polynomial division per graded
    part (``_peeled``).  Returns the parts of op' and poly'.
    """
    B, zN = indicial_poly(beta.beta), Poly.monomial("z", beta.N)
    while poly.valuation() >= beta.N:
        peeled = _peeled(parts, B, beta.N, right)
        if peeled is None:
            break
        parts, poly = peeled, poly // zN
    lead = poly.leading
    if lead != 1:
        parts = {a: c.scale(1 / lead) for a, c in parts.items()}
        poly = poly.scale(1 / lead)
    return parts, poly


def involute_P(P: DiffOp, g: Poly, beta: BesselIndex):
    """(P_b, g_b): the involuted left factor and its spectral polynomial."""
    n, pks = cleared_coefficients(P, beta.N)
    # D^k x^{-jN} = x^{-jN} (D - jN)^k, so sum_k D^k p_k(L) is the power
    # sum with T_j(y) = sum_k p_k[j] (y - jN)^k
    terms = [Poly("y", [p.coeff(j) for p in pks]).translate(-j * beta.N)
             for j in range(max(p.degree for p in pks) + 1)]
    g_b = pks[-1].expand_arg_power(beta.N, var="z").shift_mul(n)
    # g^{-1} S = S' L exactly when S = (g S') L: peel before g^{-1} is
    # attached, which only multiplies the denominator
    parts, g_b = _reduced(power_sum_parts(beta, terms), g_b, beta, right=True)
    out = graded_op(parts, P.var)
    out = DiffOp.from_cleared(P.var, DFORM, out.den * g.relabel(P.var),
                              out.nums)
    return out.convert(DEL), g_b


def _right_form(Q: DiffOp) -> DiffOp:
    """sum_s e_s D^s for the coefficients e_s of Q = sum_s D^s e_s.

    The antiautomorphism sigma(D) = -D, sigma(f) = f turns Q = v^{-1}
    sum_s n_s D^s into (sum_s (-1)^s D^s n_s) v^{-1}, whose left factor has
    polynomial coefficients by D^s n = sum_k C(s, k) theta^k(n) D^(s-k).
    One Leibniz pass (``weyl._leibniz``) moves v^{-1} to the left, giving
    w^{-1} sum_t c_t D^t, and sigma again gives Q = sum_t D^t (-1)^t c_t / w.
    """
    d = Q.convert(DFORM)
    var = d.var
    left = [Poly.zero(var)] * len(d.nums)
    for s, c in enumerate(d.nums):
        for k in range(s + 1):
            if k:
                c = c.theta()
            left[s - k] = left[s - k] + c.scale((-1) ** s * math.comb(s, k))
    w, nums = _leibniz(Poly.theta, left, d.den, [Poly.const(var, 1)])
    return DiffOp.from_cleared(var, DFORM, w,
                               [-c if t % 2 else c for t, c in enumerate(nums)])


def involute_Q(Q: DiffOp, f: Poly, beta: BesselIndex):
    """(Q_b, f_b): the involuted right factor and its spectral polynomial."""
    var = Q.var
    # sum_s e_s D^s carries the right coefficients of Q = sum_s D^s e_s,
    # so they clear exactly as the left coefficients of P do; then
    # sum_s q_s(L) D^s is the power sum with T_j = sum_s q_s[j] D^s
    m, qs = cleared_coefficients(_right_form(Q), beta.N)
    terms = [Poly("y", [q.coeff(j) for q in qs])
             for j in range(max(q.degree for q in qs) + 1)]
    f_b = qs[-1].expand_arg_power(beta.N, var="z").shift_mul(m)
    # S f^{-1} = L S' exactly when S = L (S' f): peel before the product
    parts, f_b = _reduced(power_sum_parts(beta, terms), f_b, beta,
                          right=False)
    inv_f = DiffOp.from_cleared(var, DFORM, f.relabel(var),
                                [Poly.const(var, 1)])
    return (graded_op(parts, var) * inv_f).convert(DEL), f_b


@dataclass(frozen=True)
class BispectralPair:
    """Operators L (in x) and Lambda (in z) with polynomial eigenvalues.

    h and theta are stored in the composite argument: the eigenvalue
    identities read L psi = h(z^N) psi and Lambda psi = theta(x^N) psi.
    """

    beta: BesselIndex
    L: DiffOp
    Lambda: DiffOp
    h: Poly
    theta: Poly
    P_b: DiffOp
    Q_b: DiffOp
    f_b: Poly
    g_b: Poly
    certificate: DarbouxCertificate
    b_witnesses: dict

    def to_json(self):
        return {"beta": self.beta.to_json(),
                "L": self.L.to_json(), "Lambda": self.Lambda.to_json(),
                "h": self.h.to_json(), "theta": self.theta.to_json(),
                "P_b": self.P_b.to_json(), "Q_b": self.Q_b.to_json(),
                "f_b": self.f_b.to_json(), "g_b": self.g_b.to_json(),
                "provenance": self.certificate.to_json(),
                "b_witnesses": dict(self.b_witnesses)}

    @classmethod
    def from_json(cls, data):
        cert = DarbouxCertificate.from_json(data["provenance"])
        h = poly_from_json(data["h"], "y")
        if h != cert.h:
            raise CertificationError("the pair's h differs from the h of "
                                     "its provenance")
        if BesselIndex.from_json(data["beta"]) != cert.beta:
            raise CertificationError("the pair's beta differs from the beta "
                                     "of its provenance")
        return cls(beta=cert.beta,
                   L=operator_from_json(data["L"], "x"),
                   Lambda=operator_from_json(data["Lambda"], "z"),
                   h=h, theta=poly_from_json(data["theta"], "y"),
                   P_b=operator_from_json(data["P_b"], "x"),
                   Q_b=operator_from_json(data["Q_b"], "x"),
                   f_b=poly_from_json(data["f_b"], "z"),
                   g_b=poly_from_json(data["g_b"], "z"),
                   certificate=cert,
                   b_witnesses=dict(data["b_witnesses"]))


def make_pair(cert: DarbouxCertificate) -> BispectralPair:
    """Assemble (L, Lambda, h, theta) and certify both sides.

    No certificate is trusted: the x side is certified again here, so a
    certificate built by hand or parsed by DarbouxCertificate.from_json is
    checked before it is involuted.
    """
    beta = cert.beta
    certify(beta, cert.P, cert.Q, cert.f, cert.g, spec=cert.spec)
    P_b, g_b = involute_P(cert.P, cert.g, beta)
    Q_b, f_b = involute_Q(cert.Q, cert.f, beta)
    bcert = certify(beta, P_b, Q_b, f_b, g_b)
    # L in the form its factors arrive in; Lambda in DFORM, since on a
    # monomial kernel P_b and Q_b are Laurent and multiply by graded parts
    L = (cert.P * cert.Q).convert(DEL)
    lam_x = P_b.convert(DFORM) * Q_b.convert(DFORM)
    # the b-side certify has read theta = f_b g_b in y = z^N
    return BispectralPair(beta=beta, L=L,
                          Lambda=lam_x.relabel("z").convert(DEL),
                          h=cert.h, theta=bcert.h,
                          P_b=P_b, Q_b=Q_b, f_b=f_b, g_b=g_b,
                          certificate=cert, b_witnesses=bcert.witnesses)


def verify_pair(pair: BispectralPair, depth: int = None) -> dict:
    """Check both eigenvalue identities on truncated series windows.

    The identities are checked in cleared form: with S = P psi (so that
    g(z) S is the wave function times g), L S = h(z^N) S; and with
    T = P_b psi, Lambda(x) T = theta(z^N) T after the variable swap.
    A nonzero residual raises VerificationError.
    """
    beta = pair.beta
    n = pair.certificate.P.order
    if depth is None:
        depth = default_depth(pair.h.degree, beta.N, n)
    psi = bessel_wave(beta, depth)
    report = {"depth": depth}
    for name, left, op, poly, identity in (
            ("L", pair.certificate.P, pair.L, pair.h, "L psi - h(z^N) psi"),
            ("Lambda", pair.P_b, pair.Lambda.relabel("x"), pair.theta,
             "Lambda psi - theta(x^N) psi")):
        s = psi.apply(left)
        res = s.apply(op) - s.mul_poly(poly.expand_arg_power(beta.N, var="z"))
        if res.nums:
            raise VerificationError(f"{identity} has a nonzero residual")
        report[f"window_{name}"] = list(res.box)
    report["residuals"] = [0, 0]
    return report


# ---------------------------------------------------------------------------
# closed forms for log-free monomial kernels
# ---------------------------------------------------------------------------


def closed_form_monomial(beta: BesselIndex, gammas, rows) -> dict:
    """All eight certified objects from subset sums over the kernel matrix.

    For a log-free kernel basis f_k = sum_i a_ki x^{gamma_i} the factors and
    their involutions are finite alternating sums over column subsets I with
    nonsingular minors; this is an independent route that must agree with
    the division pipeline exactly.
    """
    gammas = tuple(Fraction(g) for g in gammas)
    rows = [list(map(Fraction, r)) for r in rows]
    n = len(rows)
    dN = len(gammas)
    if n == 0 or dN % beta.N:
        raise UsageError("bad kernel matrix shape")
    d = dN // beta.N
    # trim the ladder embedding to the deepest rung actually used, so the
    # eigenvalue depth is minimal and matches the division pipeline
    used = 1 + max(i % d for row in rows for i, c in enumerate(row) if c)
    if used < d:
        keep = [s * d + k for s in range(beta.N) for k in range(used)]
        gammas = tuple(gammas[i] for i in keep)
        rows = [[row[i] for i in keep] for row in rows]
        d = used
        dN = len(gammas)
    subsets = []
    for comb in itertools.combinations(range(dN), n):
        minor = linalg.det([[rows[k][i] for i in comb] for k in range(n)])
        if not minor:
            continue
        delta = Fraction(1)
        for r in range(n):
            for s in range(r + 1, n):
                delta *= gammas[comb[r]] - gammas[comb[s]]
        subsets.append((comb, minor * delta))
    if not subsets:
        raise RankDeficiencyError("every maximal minor vanishes")
    sums = {comb: sum(gammas[i] for i in comb) for comb, _ in subsets}
    smin = min(sums.values())
    pI = {}
    for comb, _ in subsets:
        p = sums[comb] - smin
        step = p / beta.N
        if step.denominator != 1 or p < 0:
            raise UsageError("subset offsets are not multiples of N")
        pI[comb] = int(p)

    var = "x"
    w_terms = {}
    for comb, c in subsets:
        w_terms[pI[comb]] = w_terms.get(pI[comb], Fraction(0)) + c
    wpoly = Poly(var, [w_terms.get(k, Fraction(0))
                       for k in range(max(w_terms) + 1)])

    # graded parts (``bessel``) of the four subset sums, with the ladders
    # x^-n A(D) of the subset and x^-(dN-n) C(D) of its complement, and
    # L^k = x^-kN I_k(D), k = pI / N:
    #   P   = w^-1 sum c x^pI . x^-n A(D)
    #   Q   = sum c x^-(dN-n) C(D) . x^pI . w^-1
    #   P_b = sum c x^-n A(D) . L^k   = x^(-n-kN) A(D - kN) I_k(D)
    #   Q_b = sum c L^k . x^-(dN-n) C(D)
    #       = x^(-kN-(dN-n)) I_k(D - (dN-n)) C(D)
    N, m = beta.N, dN - n
    ladders = power_ladders(beta, max(pI.values()) // N)
    P, Q, P_b, Q_b = (defaultdict(lambda: Poly.zero("y")) for _ in range(4))
    for comb, c in subsets:
        p, k = pI[comb], pI[comb] // N
        A = indicial_poly([gammas[i] for i in comb]).scale(c)
        C = indicial_poly([gammas[i] - n for i in range(dN)
                           if i not in comb]).scale(c)
        P[p - n] += A
        Q[p - m] += C.translate(p)
        P_b[-n - k * N] += A.translate(-k * N) * ladders[k]
        Q_b[-k * N - m] += ladders[k].translate(-m) * C
    P = graded_op(P, var)
    P = DiffOp.from_cleared(var, DFORM, P.den * wpoly, P.nums)
    Q = graded_op(Q, var) * DiffOp.from_cleared(var, DFORM, wpoly,
                                                [Poly.const(var, 1)])

    g = Poly.monomial("z", n)
    f = Poly.monomial("z", dN - n)
    h = Poly.monomial("y", d)
    spectral = wpoly.relabel("z")
    g_b = spectral.shift_mul(n)
    f_b = spectral.shift_mul(dN - n)
    P_b, g_b = _reduced(P_b, g_b, beta, right=True)
    Q_b, f_b = _reduced(Q_b, f_b, beta, right=False)
    return {"P": P.convert(DEL), "Q": Q.convert(DEL),
            "P_b": graded_op(P_b, var).convert(DEL),
            "Q_b": graded_op(Q_b, var).convert(DEL),
            "f": f, "g": g, "f_b": f_b, "g_b": g_b, "h": h}


# ---------------------------------------------------------------------------
# spectral algebra and rank
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralAlgebraReport:
    degrees: tuple          # all eigen-polynomial degrees found up to the bound
    generators: tuple       # minimal additive generators of the found set
    rank: int               # gcd of the found degrees (0 when none found)
    bound: int
    generic_to_bound: bool  # only multiples of N were found

    def to_json(self):
        return {"degrees": list(self.degrees),
                "generators": list(self.generators),
                "rank": self.rank, "bound": self.bound,
                "generic_to_bound": self.generic_to_bound}


def _semigroup_generators(degrees):
    """The found degrees that are no sum of smaller found degrees, from one
    reachability table up to the largest, updated once per generator."""
    reachable = [True] + [False] * max(degrees)
    gens = []
    for dgr in sorted(degrees):
        if not reachable[dgr]:
            gens.append(dgr)
            for v in range(dgr, len(reachable)):
                reachable[v] = reachable[v] or reachable[v - dgr]
    return tuple(gens)


def _report(degrees, bound, N):
    degrees = tuple(sorted(degrees))
    if not degrees:
        return SpectralAlgebraReport((), (), 0, bound, True)
    rank = 0
    for dgr in degrees:
        rank = math.gcd(rank, dgr)
    return SpectralAlgebraReport(degrees, _semigroup_generators(degrees),
                                 rank, bound,
                                 all(dgr % N == 0 for dgr in degrees))


def spectral_algebra(cert: DarbouxCertificate, degree_bound: int) -> SpectralAlgebraReport:
    """Degrees t <= bound for which some monic u in Q[z^N] of degree t maps
    the kernel of P into itself; exact, read off the kernel conditions of
    the certificate's spec (module docstring)."""
    return _report(_condition_degrees(cert, degree_bound), degree_bound,
                   cert.beta.N)


def _condition_degrees(cert: DarbouxCertificate, degree_bound: int):
    """Degrees tN, t = 1..bound // N, of monic u(y) with u(L) ker P in ker P.

    Each condition contributes its images, the coordinates of L^s c on its
    support for s = 0..bound // N, and its span, the coordinates of the
    conditions on that support.  Degree t is found when one choice of
    v_0..v_{t-1} puts images[t] + sum_{s<t} v_s images[s] into every span.
    """
    if cert.spec is None:
        raise UsageError("the certificate has no 'spec'; the spectral algebra "
                         "is read off its kernel conditions")
    N = cert.beta.N
    top = degree_bound // N
    val = validate_spec(cert.spec)
    elements = val.elements_at_zero
    lbeta = bessel_op(cert.beta)
    conditions = []
    for q in elements:
        images = [q]
        for _ in range(top):
            images.append(images[-1].apply(lbeta))
        conditions.append(([img.terms for img in images],
                           [e.terms for e in elements]))
    for lam, vectors in val.orbits.items():
        # a missing key of a shorter vector is its zero padding
        span = [dict(enumerate(a)) for a in vectors]
        for a in vectors:
            images = [{i: lam ** (N * s) * sum(a[k] * math.comb(k, i)
                                               * (N * s) ** (k - i)
                                               for k in range(i, len(a)))
                       for i in range(len(a))} for s in range(top + 1)]
            conditions.append((images, span))
    found = []
    for t in range(1, top + 1):
        ncols = t + sum(len(span) for _, span in conditions)
        rows, rhs = [], []
        col = t
        for images, span in conditions:
            for key in sorted(set().union(*images[:t + 1], *span)):
                row = [images[s].get(key, 0) for s in range(t)]
                row += [Fraction(0)] * (ncols - t)
                for l, vec in enumerate(span):
                    row[col + l] = -vec.get(key, 0)
                rows.append(row)
                rhs.append(-images[t].get(key, 0))
            col += len(span)
        if linalg.solve(rows, rhs) is not None:
            found.append(t * N)
    return found


def bessel_plane_report(beta: BesselIndex,
                        degree_bound: int) -> SpectralAlgebraReport:
    """Eigen-polynomial degrees of the bare plane, from one exact identity.

    x^{-a} p(D) x^{-b} = x^{-a-b} p(D - b), so for L = x^{-N} q(D) and a
    monic p of degree d, [x^{-d} p(D), L] = x^{-d-N} (p(D-N) q(D) -
    q(D-d) p(D)).  Degree d is found when the roots of such a p exist
    (``_plane_roots``); the polynomial identity is checked for each.
    """
    found = []
    for deg in range(1, degree_bound + 1):
        roots = _plane_roots(beta, deg)
        if roots is None:
            continue
        if not _plane_commutes(beta, roots, deg):
            raise CertificationError(
                f"degree {deg}: p(D - N) q(D) differs from q(D - {deg}) p(D)")
        found.append(deg)
    return _report(found, degree_bound, beta.N)


def _plane_roots(beta: BesselIndex, deg: int):
    """The roots R of the monic p with p(y - N) q(y) = q(y - deg) p(y), or None.

    With B the weights, the identity says that the multiset unions
    (R + N) u B and (B + deg) u R agree, so R(t) = B(t) (t^deg - 1) /
    (t^N - 1) in the group ring Z[t^Q], a domain: R is unique and rational
    when it exists.  The division runs from the top exponent.  It must leave
    no negative multiplicity, and it is exact only if no quotient term falls
    below min B, the lowest exponent of the dividend.
    """
    rest = Counter()
    for b in beta.beta:
        rest[b + deg] += 1
        rest[b] -= 1
    floor = min(beta.beta)
    roots = []
    while any(rest.values()):
        top = max(e for e, c in rest.items() if c)
        count = rest.pop(top)
        if count < 0 or top - beta.N < floor:
            return None
        roots += [top - beta.N] * count
        rest[top - beta.N] += count
    return roots


def _plane_commutes(beta: BesselIndex, roots, deg: int) -> bool:
    """The witness p(y - N) q(y) == q(y - deg) p(y), p = prod (y - r)."""
    p, q = indicial_poly(roots), indicial_poly(beta.beta)
    return p.translate(-beta.N) * q == q.translate(-deg) * p


# ---------------------------------------------------------------------------
# shifted weight bookkeeping for monomial kernels
# ---------------------------------------------------------------------------


def beta_prime(spec: KernelSpec):
    """The shifted weight vector attached to a log-free monomial kernel.

    Each group of the spec is associated to the unique admissible base
    weight of the residue class of its exponents (smallest value, then
    smallest index, when the class offers several; the relabeling freedom
    is reported).  The group counts shift the weights by n_s N - n.
    """
    if not (spec.is_monomial and spec.is_log_free):
        raise UnsupportedInputError(
            "shifted weights need a log-free monomial spec")
    if not spec.at_zero:
        raise SpecInvalidError("empty kernel specification")
    beta = spec.beta
    counts = [0] * beta.N
    ambiguous = False
    for group in spec.at_zero:
        b0 = beta.beta[group.base_index]
        rungs = [beta.rungs(b0 + k * beta.N)
                 for k, row in enumerate(group.b) if any(row)]
        candidates = sorted((beta.beta[s], s) for s in
                            set(rungs[0]).intersection(*rungs[1:]))
        if len(candidates) > 1:
            ambiguous = True
        counts[candidates[0][1]] += 1
    n = len(spec.at_zero)
    prime = tuple(b + counts[s] * beta.N - n for s, b in enumerate(beta.beta))
    return prime, {"counts": counts, "ambiguous": ambiguous}
