"""Shared random generators for the property suites."""

import itertools
from fractions import Fraction

from bispectral import (BesselIndex, CertificationError, DiffOp, Poly,
                        QuasiPolynomial, RationalFunction, bessel_op,
                        cleared_coefficients, euler_phi, indicial_poly,
                        linalg, wave_jet_at)
from bispectral.scalars import primitive_root
from bispectral.weyl import DEL, DFORM, graded_op


def mult(var, f, form="del"):
    """Multiplication by the function f, as an operator."""
    return DiffOp(var, form, (f,))


def poly_ladder_op(p):
    """x^{-deg p} p(D) as an operator in x."""
    return graded_op({-p.degree: p})


def ladder_op(entries):
    """x^{-L} prod (D - g) for any exponent list of length L."""
    return poly_ladder_op(indicial_poly(entries))


def rand_rf(rng, var="x"):
    num = Poly(var, [Fraction(rng.randint(-4, 4), rng.randint(1, 2))
                     for _ in range(rng.randint(1, 3))])
    den = Poly.zero(var)
    while den.is_zero:
        den = Poly(var, [rng.randint(-2, 2) for _ in range(rng.randint(1, 3))])
    return RationalFunction(num, den)


def x_power(var, m, c=1):
    """c * var**m as a rational function, for any integer m."""
    if m >= 0:
        return RationalFunction(Poly.monomial(var, m, c))
    return RationalFunction(Poly.const(var, c), Poly.monomial(var, -m))


def rand_index(rng, n):
    entries = [Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))
               for _ in range(n - 1)]
    entries.append(Fraction(n * (n - 1), 2) - sum(entries))
    return BesselIndex(n, tuple(entries))


def op_of_parts(parts, var="x"):
    """sum_a x^a c_a(D) from operator products: the oracle of
    ``weyl.graded_op``."""
    out = DiffOp.zero(var, DFORM)
    for a, c in parts.items():
        out = out + (mult(var, x_power(var, a), DFORM)
                     * DiffOp(var, DFORM, c.coeffs))
    return out


def poly_at_operator(p, a):
    """p evaluated at an operator by Horner's scheme: the product-based
    oracle of ``bessel.poly_at_bessel`` and ``bessel.power_sum_parts``."""
    out = DiffOp.zero(a.var, a.form)
    for c in reversed(p.coeffs):
        out = out * a + mult(a.var, c, a.form)
    return out


def op_power(a, n):
    """a^n by repeated products: the oracle of the power identity."""
    out = DiffOp(a.var, a.form, (1,))
    for _ in range(n):
        out = out * a
    return out


def adjoint(a):
    """Formal adjoint, the antiautomorphism with d* = -d and x* = x, from
    general products: (den^{-1} sum_k n_k d^k)* = (sum_k (-d)^k . n_k) .
    den^{-1}."""
    op = a.convert(DEL)
    out = DiffOp.zero(a.var, DEL)
    power = DiffOp(a.var, DEL, (1,))
    minus_d = DiffOp(a.var, DEL, (0, -1))
    for k, p in enumerate(op.nums):
        if k:
            power = minus_d * power
        out = out + power * mult(a.var, p)
    inv_den = DiffOp.from_cleared(a.var, DEL, op.den,
                                  [Poly.const(a.var, 1)])
    return (out * inv_den).convert(a.form)


def closed_order2_factor(a, lam2, mu2):
    """The printed closed-form order-2 factor of a point kernel, used as an
    oracle."""
    var = "x"
    p2 = Poly(var, [-mu2, 0, 1])
    p1 = Poly(var, [mu2, 0, -3])
    c0 = 2 * lam2 * mu2 + (a + 1) * (2 * a - 1) / a ** 2
    d0 = ((a + 1) / a ** 2 - lam2 * mu2) * mu2
    p0 = Poly(var, [d0, 0, c0, 0, -lam2])
    den = Poly(var, [0, 0, 1]) * p2
    dee = DiffOp(var, "D", (0, 1))
    op = (mult(var, p2, "D") * dee * dee
          + mult(var, p1, "D") * dee + mult(var, p0, "D"))
    return mult(var, RationalFunction(Poly.const(var, 1), den), "D") * op


def brute_force_beta_primes(bi, gammas, rows):
    """All shifted weight vectors over valid association assignments: the
    oracle of ``beta_prime``, row i holding the exponents gammas[j] with
    rows[i][j] != 0."""
    n = len(rows)
    candidates_per_row = []
    for row in rows:
        support = [gammas[i] for i, c in enumerate(row) if c]
        cands = [s for s, b in enumerate(bi.beta)
                 if all(((g - b) / bi.N).denominator == 1 and g >= b
                        for g in support)]
        candidates_per_row.append(cands)
    out = set()
    for choice in itertools.product(*candidates_per_row):
        ok = True
        for s, t in itertools.combinations(set(choice), 2):
            diff = bi.beta[s] - bi.beta[t]
            if diff != 0 and (diff / bi.N).denominator == 1:
                ok = False
        if not ok:
            continue
        counts = [0] * bi.N
        for s in choice:
            counts[s] += 1
        out.add(tuple(b + counts[s] * bi.N - n
                      for s, b in enumerate(bi.beta)))
    return out


def compute_Q(P, h, beta):
    """The exact left quotient of h(L) by P, by Euclidean division."""
    quot, rem = poly_at_operator(h, bessel_op(beta)).left_divide(P)
    if not rem.is_zero:
        raise CertificationError(
            "remainder nonzero: kernel is not inside the eigenvalue kernel")
    return quot.convert(DEL)


def basis_off_rref(red, pivots, ncols):
    """The null space basis a reduced row echelon form gives: a 1 in each
    free column, in increasing order, minus that column at the pivots."""
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            v = [Fraction(0)] * ncols
            v[fc] = Fraction(1)
            for row, pc in zip(red, pivots):
                v[pc] = -row[fc]
            basis.append(v)
    return basis


def horner(p, v):
    """The value of the polynomial p at the scalar v."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * v + c
    return acc


def rand_op(rng, var="x", max_order=2, form="del"):
    order = rng.randint(0, max_order)
    return DiffOp(var, form, [rand_rf(rng, var) for _ in range(order + 1)])


def rand_laurent_op(rng, var="x"):
    coeffs = []
    for _ in range(rng.randint(1, 3)):
        num = Poly(var, [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
        coeffs.append(RationalFunction(num, Poly.monomial(var, rng.randint(0, 2))))
    return DiffOp(var, rng.choice(["del", "D"]), coeffs)


def rand_quasi(rng):
    terms = []
    for _ in range(rng.randint(1, 4)):
        g = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
        terms.append(((g, rng.randint(0, 2)), Fraction(rng.randint(-5, 5))))
    return QuasiPolynomial(terms)


def theta_chain(profile, a):
    """sum_k a_k D^k profile, each D^k the one before it times x DEL: the
    jet chain that ``wave_jet_at(...).apply(a(D))`` replaces, kept as its
    oracle."""
    theta = DiffOp("x", DFORM, (0, 1)).convert(DEL)
    jets = [profile]
    for _ in a[1:]:
        jets.append(jets[-1].apply(theta))
    out = None
    for jet, c in zip(jets, a):
        if c:
            piece = jet.shift(0, 0, c)
            out = piece if out is None else out + piece
    return out


def _profile_eigen_poly(profile, deg):
    """Monic p with p(D + w) t(w) = w^deg t(w) on the profile window, if any.

    The conjugated action on the bare profile is u -> w u + D u per power;
    after j steps the valid window is [lo + j, j].  Power j has top term
    w^j with coefficient 1, so the rows of degrees 0..deg-1 form a unit
    triangle, determined when the depth -lo is at least deg.
    """
    lo = profile.box[0]
    coeffs = {d: c for (d, _), c in profile.coeffs.items()}
    powers = [coeffs]
    blo = lo
    for _ in range(deg):
        nxt = {}
        for d, c in powers[-1].items():
            nxt[d + 1] = nxt.get(d + 1, Fraction(0)) + c
            if d:
                nxt[d] = nxt.get(d, Fraction(0)) + d * c
        blo += 1
        powers.append({d: v for d, v in nxt.items() if d >= blo and v})
    target = {d + deg: c for d, c in coeffs.items()}
    matrix, rhs = [], []
    for d in range(lo + deg, deg + 1):
        matrix.append([powers[j].get(d, Fraction(0)) for j in range(deg)])
        rhs.append(target.get(d, Fraction(0)) - powers[deg].get(d, Fraction(0)))
    sol = linalg.solve(matrix, rhs)
    return None if sol is None else Poly("y", sol + [Fraction(1)])


def profile_plane_degrees(bi, degree_bound, depth):
    """Bare-plane degrees by the profile route, an oracle independent of
    the commutator identity: each degree's candidate p is solved from the
    truncated profile and kept when [x^{-deg} p(D), L] = 0 as operators."""
    profile = wave_jet_at(bi, 1, depth)
    lbeta = bessel_op(bi)
    found = []
    for deg in range(1, degree_bound + 1):
        sol = _profile_eigen_poly(profile, deg)
        if sol is None:
            continue
        candidate = poly_ladder_op(sol)
        if (candidate * lbeta - lbeta * candidate).is_zero:
            found.append(deg)
    return found


def branch_rows(beta, lam, avec, n, bound, depth, branch):
    """The rows of ``darboux._orbit_rows`` for the orbit condition
    sum_k a_k D_z^k at z = eps^branch lam, over Q(eps), each degree's row
    split into its phi(N) rational coordinate rows.

    The series come from the profile in w = xz, whose D_w-powers are
    rational, by the substitution w = eps^branch lam x: the coefficient of
    x^d is (eps^branch lam)^d times that of w^d, and the substitution
    commutes with D.
    """
    N = beta.N
    theta = DiffOp("x", DFORM, (0, 1))
    jets = [wave_jet_at(beta, 1, depth)]
    for _ in avec[1:]:
        jets.append(jets[-1].apply(theta))
    powers = [sum((j.shift(0, 0, a) for j, a in zip(jets[1:], avec[1:])),
                  jets[0].shift(0, 0, avec[0]))]
    for _ in range(n):
        powers.append(powers[-1].apply(theta))
    rate = primitive_root(N) ** branch * lam
    inverse = 1 / rate
    images = {}
    for k, power in enumerate(powers):
        lo, hi = power.box[:2]
        scale = inverse ** -lo if lo < 0 else rate ** lo
        subst = {}
        for d in range(lo, hi + 1):
            c = power.coeffs.get((d, 0))
            if c:
                subst[d] = scale * c
            scale = scale * rate
        for j in range(bound + 1):
            s = j * N - n
            images[k * (bound + 1) + j] = (
                {d + s: v for d, v in subst.items()}, lo + s, hi + s)
    lo = max(box_lo for _, box_lo, _ in images.values())
    hi = max(box_hi for _, _, box_hi in images.values())
    ncols = (n + 1) * (bound + 1)
    rows = []
    for deg in range(lo, hi + 1):
        split = [[Fraction(0)] * ncols for _ in range(euler_phi(N))]
        for col, (subst, _, _) in images.items():
            c = subst.get(deg)
            if c is not None:
                for t, coord in enumerate(c.coords):
                    split[t][col] = coord
        rows.extend(r for r in split if any(r))
    return rows


def all_branch_rows(beta, lam, avec, n, bound, depth):
    """``branch_rows`` of every branch of the orbit of lam."""
    return [row for branch in range(beta.N)
            for row in branch_rows(beta, lam, avec, n, bound, depth, branch)]


def all_branch_residuals(P, beta, lam, avec):
    """rows . coefficients(P) over every branch of the orbit of lam, where
    column (k, j) of the coefficients is the y^j coefficient of p_k in
    P = (x^n p_n(x^N))^{-1} sum_k p_k(x^N) D^k: all zero exactly when P
    annihilates the orbit condition on every branch's window."""
    n, pks = cleared_coefficients(P, beta.N)
    bound = max(p.degree for p in pks)
    coeffs = [p.coeff(j) for p in pks for j in range(bound + 1)]
    depth = 2 * len(coeffs) + 2 * n + 10
    return [sum(r * c for r, c in zip(row, coeffs))
            for row in all_branch_rows(beta, lam, avec, n, bound, depth)]


def del_step(series):
    """(rate + d/dx) on the sparse coefficient dict: the oracle of the DEL
    step that ``WaveSeries._image`` runs on dense lines.

    With rate = (p/q) z^dz the step is (p z^dz u + q u') / q: the two
    pieces are summed in one pass inside the max of their boxes, and the
    series drops what falls outside it.
    """
    dz, p, q = series.step
    xlo, xhi, zlo, zhi = series.box
    items = series.nums.items()
    out, box = {}, None
    for piece_box, piece in (
            ((xlo, xhi, zlo + dz, zhi + dz),
             [((i, j + dz), p * v) for (i, j), v in items]),
            ((xlo - 1, xhi - 1, zlo, zhi),
             [((i - 1, j), q * i * v) for (i, j), v in items if i])):
        box = piece_box if box is None else tuple(map(max, box, piece_box))
        for key, c in piece:
            out[key] = out.get(key, 0) + c
    return series._like(out, box, series.den * q)


def del_image(series, op):
    """sum_k a_k DEL^k series with the DEL powers of ``del_step``: each
    reduced coefficient a_k acts as an operator of order 0, and the pieces
    are summed pairwise."""
    power, out = series, None
    for k, c in enumerate(op.convert(DEL).coeffs):
        if k:
            power = del_step(power)
        if not c.is_zero:
            piece = power.apply(mult(op.var, c))
            out = piece if out is None else out + piece
    return out
