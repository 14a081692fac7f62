"""Closed subset-sum formulas versus the division pipeline.

For log-free kernels at the origin, all eight objects (P, Q, their
involutions and the four spectral polynomials) have finite closed forms:
alternating sums over column subsets of the kernel matrix weighted by
minors and exponent differences.  This script runs the banded two-weight
family whose order-two conjugated operator realizes the classical
even-potential series, and checks the two routes agree exactly.

Run:  python demos/03_closed_forms_and_banded_family.py
"""

from fractions import Fraction as F

from bispectral import (BesselIndex, banded_rows, bessel_op, beta_prime,
                        build_certificate, closed_form_monomial, make_pair,
                        monomial_kernel, spectral_algebra)

# weights in one residue class, chosen so the depth-2 ladder has no collision
bi = BesselIndex.parse("5/2,-3/2")
d = 2
gammas = bi.power(d)
print("ladder exponents:", [str(g) for g in gammas])

# banded kernel matrix in the recurrence-normalized ladder basis
t = {(0, 0): F(1), (0, 1): F(2), (1, 0): F(1), (1, 1): F(-1)}
rows = banded_rows(bi, d, t)
print("kernel matrix:", [[str(c) for c in row] for row in rows])

spec = monomial_kernel(bi, [[(gammas[i], c) for i, c in enumerate(row) if c]
                            for row in rows])
cert = build_certificate(spec)
pair = make_pair(cert)
closed = closed_form_monomial(bi, gammas, rows)

for name, ours in [("P", cert.P), ("Q", cert.Q), ("P_b", pair.P_b),
                   ("Q_b", pair.Q_b), ("f", cert.f), ("g", cert.g),
                   ("f_b", pair.f_b), ("g_b", pair.g_b)]:
    print(f"{name:3s} closed == pipeline:", closed[name] == ours)

# the conjugated base operator is differential of order N here
generator, rem = (cert.P * bessel_op(bi)).left_divide(cert.P)
print("P L P^-1 is differential:", rem.is_zero, "of order", generator.order)
print("P L P^-1 =", generator)

rep = spectral_algebra(cert, 8)
print("algebra degrees:", list(rep.degrees), "-> rank", rep.rank)

prime, info = beta_prime(spec)
print("shifted weights:", tuple(str(b) for b in prime),
      "counts", info["counts"])
