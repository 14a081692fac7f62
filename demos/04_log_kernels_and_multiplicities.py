"""Kernels with logarithms and the multiplicity bookkeeping behind them.

When a weight repeats modulo N, powers of x alone cannot span the kernel;
x^g (ln x)^j terms appear, with the admissible log power bounded by the
ladder multiplicity of the exponent.  The direct quasi-polynomial algebra
builds annihilators for these spans exactly.  The last part mixes a
condition at 0 with jet conditions on an orbit, which are imposed and
certified at one point of the orbit over the rationals.

Run:  python demos/04_log_kernels_and_multiplicities.py
"""

from fractions import Fraction as F

from bispectral import (DFORM, AtPointGroup, AtZeroGroup, BesselIndex,
                        DiffOp, KernelSpec, bessel_op, build_certificate,
                        monomial_kernel, wave_jet_at, zero_exponent_basis)

bi = BesselIndex.parse("1/2,1/2")
print("base operator:", bessel_op(bi).convert("del"))
print("multiplicity of 1/2:", bi.multiplicity(F(1, 2)))
print("kernel of the base operator:",
      [q.to_str() for q in zero_exponent_basis(bi, 1)])

# the full log group: {x^(1/2) ln x, x^(1/2)} via derivatives of one seed
spec = KernelSpec(bi, (AtZeroGroup(0, ((F(0), F(1)),)),), ())
cert = build_certificate(spec)
print("annihilator of the log pair:", cert.P)
print("h(y) =", cert.h.to_str("y"), " g =", cert.g, " f =", cert.f)
print("(the factorization collapses to the base operator itself: Q =",
      str(cert.Q) + ")")

# log-free single condition inside the same plane
single = monomial_kernel(bi, [[(F(1, 2), F(1))]])
print("annihilator of {x^(1/2)}:", build_certificate(single).P)

# a mixed kernel: x^(2/3) at 0 and psi + D_z psi on the orbit of 1
bi2 = BesselIndex.parse("2/3,1/3")
mixed = KernelSpec(bi2, (AtZeroGroup(0, ((F(1),),)),),
                   (AtPointGroup(F(1), (F(1), F(1))),))
cert2 = build_certificate(mixed)
print()
print(f"mixed kernel over {bi2}: P of order {cert2.P.order},",
      "h(y) =", cert2.h.to_str("y"), " g =", cert2.g)
print("  kernel of the base operator at 0:",
      [q.to_str() for q in zero_exponent_basis(bi2, 1)])
print("  witnesses:", ", ".join(sorted(cert2.witnesses)))
# psi depends on xz alone, so D_z = D = x d/dx on it, and the condition
# psi + D_z psi at z = 1 is (1 + D) applied to the one profile psi(x, 1)
profile = wave_jet_at(bi2, F(1), 14)
condition = profile.apply(DiffOp("x", DFORM, (F(1), F(1))))
print(f"  profile psi(x, {profile.rate}) (branch 0, over Q), window "
      f"{profile.box[:2]}; psi + D_z psi, window {condition.box[:2]}")
