"""Reproducible example suites, each diffed against a stored golden.

rank1 is the rank-one pair on the weight 0; example4 is the paper's
Example 4, an order-two point kernel on the weights (1 - nu, nu); dg-even
is a banded member of the Duistermaat-Gruenbaum even family.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources
from typing import Callable, NamedTuple

from .bessel import BesselIndex, bessel_op
from .darboux import (AtPointGroup, KernelSpec, banded_rows,
                      build_certificate, cleared_coefficients,
                      monomial_kernel)
from .errors import UsageError, VerificationError
from .involution import (beta_prime, closed_form_monomial, make_pair,
                         spectral_algebra, verify_pair)


def _golden(name):
    return json.loads(resources.files("bispectral.golden")
                      .joinpath(name.replace("-", "_") + ".json").read_text())


def _first_divergence(produced, stored, path=""):
    """Describe the first key path at which two JSON documents differ."""
    if isinstance(produced, dict) and isinstance(stored, dict):
        for key in sorted(set(produced) | set(stored)):
            sub = f"{path}.{key}" if path else key
            if key not in stored:
                return f"{sub}: present in produced, absent in stored"
            if key not in produced:
                return f"{sub}: absent in produced, present in stored"
            found = _first_divergence(produced[key], stored[key], sub)
            if found:
                return found
        return None
    if isinstance(produced, list) and isinstance(stored, list):
        for i, (a, b) in enumerate(zip(produced, stored)):
            found = _first_divergence(a, b, f"{path}[{i}]")
            if found:
                return found
        if len(produced) != len(stored):
            return (f"{path}: {len(produced)} items in produced, "
                    f"{len(stored)} in stored")
        return None
    if produced != stored:
        return f"{path}: produced {produced!r}, stored {stored!r}"
    return None


def _certified(spec, degree_bound):
    """The steps every suite shares: build, pair, verify at the default
    depth and the spectral algebra to degree_bound.  Returns the
    certificate, the pair and the payload common to all goldens."""
    cert = build_certificate(spec)
    pair = make_pair(cert)
    verify_pair(pair)
    rep = spectral_algebra(cert, degree_bound)
    return cert, pair, {"pair": pair.to_json(), "algebra": rep.to_json()}


def _example_rank1():
    spec = monomial_kernel(BesselIndex.parse("0"),
                           [[(Fraction(1), Fraction(1))]])
    return _certified(spec, 4)[2]


def _example4(nu, a, lam):
    bi = BesselIndex(2, (1 - nu, nu))
    spec = KernelSpec(bi, (), (AtPointGroup(lam, (Fraction(1), a)),))
    cert, _, payload = _certified(spec, 8)
    _, pks = cleared_coefficients(cert.P, bi.N)
    return {**payload, "cleared_p": [p.to_json() for p in pks]}


def _example_dg_even(bi, d, flat):
    if len(flat) != bi.N * d:
        raise UsageError(f"need {bi.N * d} band parameters, got {len(flat)}")
    tparams = {(k, r): flat[k * d + r] for k in range(bi.N) for r in range(d)}
    rows = banded_rows(bi, d, tparams)
    gammas = bi.power(d)
    spec = monomial_kernel(
        bi, [[(gammas[i], c) for i, c in enumerate(row) if c] for row in rows])
    cert, pair, payload = _certified(spec, 4 * bi.N)
    cf = closed_form_monomial(bi, gammas, rows)
    agreement = (cf["P"] == cert.P and cf["Q"] == cert.Q
                 and cf["P_b"] == pair.P_b and cf["Q_b"] == pair.Q_b
                 and cf["f_b"] == pair.f_b and cf["g_b"] == pair.g_b)
    generator, rem = (cert.P * bessel_op(bi)).left_divide(cert.P)
    prime, info = beta_prime(spec)
    return {**payload,
            "closed_form_agrees": agreement,
            "order_N_generator": generator.to_json(),
            "generator_is_differential": rem.is_zero,
            "beta_prime": [str(b) for b in prime],
            "counts": info["counts"]}


class Suite(NamedTuple):
    run: Callable
    defaults: dict   # option name -> golden value, in run's argument order


# the goldens hold each suite at its defaults only
SUITES = {
    "rank1": Suite(_example_rank1, {}),
    "example4": Suite(_example4, {"nu": Fraction(1, 3), "a": Fraction(1),
                                  "lambda": Fraction(1)}),
    "dg-even": Suite(_example_dg_even, {
        "beta": BesselIndex.parse("5/2,-3/2"), "d": 2,
        "t": tuple(Fraction(t) for t in (1, 2, 1, -1))}),
}


def reproduce(name, params):
    """Run suite name on its options read from params.

    Returns (payload, custom).  At the defaults the payload must equal the
    golden exactly; a custom run passes on its certificate checks and, for
    dg-even, on the closed form's agreement with the certified
    factorization.  Either failure raises VerificationError.
    """
    suite = SUITES[name]
    values = tuple(params[option] for option in suite.defaults)
    produced = suite.run(*values)
    if produced.get("closed_form_agrees") is False:
        raise VerificationError(
            f"example {name}: the closed form disagrees with the certified "
            "factorization")
    custom = values != tuple(suite.defaults.values())
    if not custom:
        expected = _golden(name)
        if produced != expected:
            raise VerificationError(
                f"example {name} diverged from the stored output at "
                f"{_first_divergence(produced, expected)}")
    return produced, custom
