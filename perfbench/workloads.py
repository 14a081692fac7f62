"""Seeded workloads of the certify pipeline, the op each runs, and its checks.

Generators only build JSON documents from the stated input constraints of
the paper; they never call the library. An op hands those documents to the
library's public API and times each user-facing step. Checks run after the
op, outside its timing, and compare against independent routes and against
the digests in ``data/expected.json``.

Every workload is a stream of *rounds*. A round holds one draw per stratum
(for example one N=2 and one N=3 point kernel), in a fixed proportion, so the
medians a run reports do not depend on which strata a seed happens to favour.
The seed chooses the values inside each stratum.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction as F
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
PAIRS = DATA / "pairs"
EXPECTED = DATA / "expected.json"

DEGREE_BOUND = 8            # the CLI default of ``bispectral rank``
POINT_VERIFY_DEPTH = 16     # the depth ``examples example4`` verifies at
STORED_DEPTHS = (16, 48)    # inclusive range of the seeded depth K

# Small nonzero rationals for band parameters, jet coefficients and points.
# The point sets hold values of like height: a point-orbit op takes seconds,
# a run holds about ten, and draws of mixed height would make the medians
# depend on the seed (README.md has the measured costs).
BAND_VALUES = tuple(F(v) for v in ("1", "-1", "2", "-2", "1/2", "-1/2",
                                   "3/2", "-3/2"))
POINT2_BETA = (F(2, 3), F(1, 3))
POINT2_LAM = tuple(F(v) for v in ("1", "-1", "2", "-2"))
POINT2_A = tuple(F(v) for v in ("1", "-1/2", "2"))
POINT3_BETA = tuple(tuple(F(v) for v in w) for w in (
    ("1/3", "2/3", "2"), ("1/4", "5/4", "3/2")))
POINT3_LAM = tuple(F(v) for v in ("1", "2"))
POINT3_A = tuple(F(v) for v in ("1", "1/2"))

# Strata of one round, per workload. Two of every three draws come from one
# stratum, so each median lies inside that stratum's cluster: k=2 on
# banded-monomial, N=3 (the Q(eps) draws, one per weight set of POINT3_BETA)
# on point-orbits.
BANDED_ROUND = (2, 2, 3)            # ladder index k of each draw, d = 1
# stored-verify: the two depth-2 members of the banded family; every round
# checks each at one depth from each stratum, in seeded order. The cost grows
# with K, so the median op lies in the narrow middle stratum.
STORED_DOCS = ("dg-even", "banded-d2")
STORED_K_STRATA = ((16, 29), (30, 34), (35, 48))

WORKLOADS = ("banded-monomial", "point-orbits", "stored-verify")


def fmt(q) -> str:
    return str(F(q))


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# generators: stated constraints only, no pipeline calls
# ---------------------------------------------------------------------------


def _check_weights(beta):
    N = len(beta)
    if sum(beta) != F(N * (N - 1), 2):
        raise ValueError(f"weights {beta} do not sum to N(N-1)/2")


def ladder(beta, d):
    """Entries b + jN, j < d, of the d-th power, grouped by weight."""
    N = len(beta)
    return tuple(b + j * N for b in beta for j in range(d))


def banded_rows(beta, d, t):
    """Banded kernel matrix of the two-weight family behind ``examples dg-even``.

    Row r puts ``t[(k, r - j + 1)] * mu_kj`` on ladder entry j of weight k,
    where mu is the recurrence normalization of the ladder basis. Needs
    distinct ladder entries, which makes every mu finite.
    """
    N = len(beta)
    gammas = ladder(beta, d)
    if len(set(gammas)) != len(gammas):
        raise ValueError(f"ladder entries of {beta} at depth {d} collide")
    mus = {}
    for k, bk in enumerate(beta):
        m = F(1)
        mus[(k, 1)] = m
        for j in range(2, d + 1):
            for b in beta:
                m /= b - bk - (j - 1) * N
            mus[(k, j)] = m
    rows = []
    for r in range(d):
        row = [F(0)] * (d * N)
        for k in range(N):
            for j in range(1, d + 1):
                if 0 <= r - (j - 1) <= d - 1:
                    row[k * d + (j - 1)] = t[(k, r - (j - 1))] * mus[(k, j)]
        rows.append(row)
    return gammas, rows


def monomial_spec_doc(beta, gammas, rows):
    """Kernel-spec document for rows of coefficients on ladder exponents."""
    N = len(beta)
    groups = []
    for row in rows:
        items = [(g, c) for g, c in zip(gammas, row) if c]
        base = next(s for s, b in enumerate(beta)
                    if all(((g - b) / N).denominator == 1 and g >= b
                           for g, _ in items))
        b0 = beta[base]
        depth = max(int((g - b0) / N) for g, _ in items)
        b = [["0"] for _ in range(depth + 1)]
        for g, c in items:
            b[int((g - b0) / N)][0] = fmt(c)
        groups.append({"base_index": base, "b": b})
    return {"kind": "kernel-spec",
            "beta": {"N": N, "beta": [fmt(x) for x in beta]},
            "at_zero": groups, "at_points": []}


def banded_draw(k, d, tvalues):
    """One member of the banded family: weights (k+1/2, 1/2-k), depth d."""
    if k < 1:
        raise ValueError("k must be positive")
    beta = (F(2 * k + 1, 2), F(1 - 2 * k, 2))
    _check_weights(beta)
    tvalues = [F(v) for v in tvalues]
    if len(tvalues) != 2 * d or not all(tvalues):
        raise ValueError("need 2d nonzero band parameters")
    t = {(kk, r): tvalues[kk * d + r] for kk in range(2) for r in range(d)}
    gammas, rows = banded_rows(beta, d, t)
    return {"workload": "banded-monomial",
            "label": f"k={k} d={d} t={','.join(fmt(v) for v in tvalues)}",
            "spec": monomial_spec_doc(beta, gammas, rows),
            "gammas": [fmt(g) for g in gammas],
            "rows": [[fmt(c) for c in row] for row in rows]}


def point_draw(beta, lam, a):
    """One orbit of jet-order-1 conditions psi + a D_z psi at eps^i lam."""
    beta = tuple(F(b) for b in beta)
    _check_weights(beta)
    lam, a = F(lam), F(a)
    if not lam or not a:
        raise ValueError("lam and the top jet coefficient must be nonzero")
    N = len(beta)
    draw = {"workload": "point-orbits",
            "label": f"N={N} beta={','.join(fmt(b) for b in beta)} "
                     f"lam={fmt(lam)} a={fmt(a)}",
            "spec": {"kind": "kernel-spec",
                     "beta": {"N": N, "beta": [fmt(b) for b in beta]},
                     "at_zero": [],
                     "at_points": [{"lambda": fmt(lam),
                                    "a": ["1", fmt(a)]}]}}
    if N == 2:
        # second spectral point of the order-two transformation
        nu = beta[1]
        draw["lam2"] = fmt(lam ** 2)
        draw["mu2"] = fmt((a + 1 - a ** 2 * nu * (nu - 1)) / (a ** 2 * lam ** 2))
    return draw


def stored_draw(name, K):
    if not STORED_DEPTHS[0] <= K <= STORED_DEPTHS[1]:
        raise ValueError(f"depth {K} outside {STORED_DEPTHS}")
    return {"workload": "stored-verify", "label": f"{name} K={K}",
            "doc": name, "K": K}


def _banded_rounds(rng):
    while True:
        yield [banded_draw(k, 1, [rng.choice(BAND_VALUES) for _ in range(2)])
               for k in BANDED_ROUND]


def _deck(rng, items):
    """Endless seeded deal of ``items``: each shuffle is dealt out in full."""
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


def _point_rounds(rng):
    # Dealt from decks of (lam, a), so the few rounds of a run cover a
    # stratum's values evenly and the seed picks their order.
    decks3 = [_deck(rng, itertools.product(POINT3_LAM, POINT3_A))
              for _ in POINT3_BETA]
    deck2 = _deck(rng, itertools.product(POINT2_LAM, POINT2_A))
    while True:
        draws = [point_draw(beta, *next(deck))
                 for beta, deck in zip(POINT3_BETA, decks3)]
        draws.append(point_draw(POINT2_BETA, *next(deck2)))
        yield draws


def _stored_rounds(rng):
    while True:
        draws = [stored_draw(name, rng.randint(lo, hi))
                 for name in STORED_DOCS for lo, hi in STORED_K_STRATA]
        rng.shuffle(draws)
        yield draws


_ROUNDS = {"banded-monomial": _banded_rounds, "point-orbits": _point_rounds,
           "stored-verify": _stored_rounds}


def rounds(workload, seed):
    """Endless seeded stream of rounds; the same seed gives the same stream."""
    return _ROUNDS[workload](random.Random(f"{workload}:{seed}"))


def support(workload):
    """Every draw the generator of a workload can emit, for the expected file."""
    if workload == "banded-monomial":
        for k in sorted(set(BANDED_ROUND)):
            for t in itertools.product(BAND_VALUES, repeat=2):
                yield banded_draw(k, 1, t)
    elif workload == "point-orbits":
        for lam, a in itertools.product(POINT2_LAM, POINT2_A):
            yield point_draw(POINT2_BETA, lam, a)
        for beta, lam, a in itertools.product(POINT3_BETA, POINT3_LAM, POINT3_A):
            yield point_draw(beta, lam, a)
    else:
        for name in STORED_DOCS:
            for K in range(STORED_DEPTHS[0], STORED_DEPTHS[1] + 1):
                yield stored_draw(name, K)


def draw_key(draw) -> str:
    """Identity of a draw in the expected file: its input documents."""
    if draw["workload"] == "stored-verify":
        return f"{draw['doc']}@{draw['K']}"
    return digest(draw["spec"])


# Frozen pair documents of the stored-verify workload, as generator draws.
STORED_SOURCES = {
    "dg-even": banded_draw(2, 2, ["1", "2", "1", "-1"]),
    "banded-d2": banded_draw(2, 2, ["1", "-1", "2", "1"]),
}


# ---------------------------------------------------------------------------
# ops: public API only, one timer per user-facing step
# ---------------------------------------------------------------------------


class Steps:
    """Time of each named step of one op, raw and rescaled to host speed.

    ``scale`` is called right after every step and returns the factor that
    rescales it (see ``run.HostSpeed``); the default leaves times as they are.
    """

    def __init__(self, clock, scale=lambda: 1.0):
        self.clock = clock
        self.scale = scale
        self.times = {}
        self.scaled = {}

    def run(self, name, fn, *args, **kwargs):
        t0 = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = self.clock() - t0
            k = self.scale()
            self.times[name] = self.times.get(name, 0.0) + dt
            self.scaled[name] = self.scaled.get(name, 0.0) + dt * k


STEP_METRICS = ("build", "pair", "verify", "rank")


def step_values(workload, table):
    """Per-metric step times of one op; ``table`` maps step name to seconds.

    On stored-verify, verify is the whole ``bispectral verify`` path: the
    load (build slot), the re-certify (pair slot) and ``verify_pair``.
    """
    out = {s: table[s] for s in STEP_METRICS if s in table}
    if workload == "stored-verify" and "verify" in out:
        out["verify"] += out["build"] + out["pair"]
    return out


def op_value(table):
    """Seconds of one op: every step but the output checks."""
    return sum(v for name, v in table.items() if name != "check")


def run_op(bs, draw, steps):
    """Run one op on ``draw`` with the library module ``bs``; returns outputs.

    ``steps`` collects the step times: build, pair, verify, rank (and
    closed on banded-monomial). On stored-verify the steps are the load
    (build slot), certify at K (pair slot) and verify_pair at K, and rank
    runs on the stored certificate as ``bispectral rank`` would.
    """
    from bispectral import jsonio
    wl = draw["workload"]
    if wl == "stored-verify":
        K = draw["K"]
        path = PAIRS / f"{draw['doc']}.json"
        pair = steps.run("build", lambda: jsonio.load_pair(jsonio.read(path)))
        c = pair.certificate
        recert = steps.run("pair", bs.certify, c.beta, c.P, c.Q, c.f, c.g,
                           spec=c.spec, depth=K)
        report = steps.run("verify", bs.verify_pair, pair, depth=K)
        algebra = steps.run("rank", bs.spectral_algebra, c, DEGREE_BOUND)
        return {"pair": pair, "certificate": recert, "report": report,
                "algebra": algebra}
    cert = steps.run(
        "build", lambda: bs.build_certificate(jsonio.load_spec(draw["spec"])))
    pair = steps.run("pair", bs.make_pair, cert)
    if wl == "banded-monomial":
        report = steps.run("verify", bs.verify_pair, pair)
        closed = steps.run(
            "closed", bs.closed_form_monomial, cert.beta,
            [F(g) for g in draw["gammas"]],
            [[F(c) for c in row] for row in draw["rows"]])
    else:
        report = steps.run("verify", bs.verify_pair, pair,
                           depth=POINT_VERIFY_DEPTH)
        closed = None
    algebra = steps.run("rank", bs.spectral_algebra, cert, DEGREE_BOUND)
    return {"certificate": cert, "pair": pair, "report": report,
            "closed": closed, "algebra": algebra}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


CLOSED_FORM_KEYS = ("P", "Q", "P_b", "Q_b", "f_b", "g_b")


def closed_form_disagreements(closed, cert, pair):
    """Names of the closed-form objects that differ from the pipeline's."""
    ours = {"P": cert.P, "Q": cert.Q, "P_b": pair.P_b, "Q_b": pair.Q_b,
            "f_b": pair.f_b, "g_b": pair.g_b}
    return [k for k in CLOSED_FORM_KEYS if closed[k] != ours[k]]


def output_digest(draw, out):
    """Digest of the canonical JSON of the certified objects of one op."""
    objects = {"pair": out["pair"].to_json(),
               "verification": out["report"],
               "algebra": out["algebra"].to_json()}
    if draw["workload"] == "stored-verify":
        objects["certificate"] = out["certificate"].to_json()
    return digest(objects)


def _witnesses_hold(w):
    return bool(w) and all(v is True for v in w.values())


def check_op(draw, out, expected):
    """List of failed checks for one op (empty when every check passes)."""
    failures = []
    pair = out["pair"]
    x_w = (out["certificate"].witnesses if draw["workload"] == "stored-verify"
           else pair.certificate.witnesses)
    if not _witnesses_hold(x_w):
        failures.append(f"x-side witnesses {x_w}")
    if not _witnesses_hold(pair.b_witnesses):
        failures.append(f"b-side witnesses {pair.b_witnesses}")
    if out["report"].get("residuals") != [0, 0]:
        failures.append(f"residuals {out['report'].get('residuals')}")
    if out.get("closed") is not None:
        bad = closed_form_disagreements(out["closed"], pair.certificate, pair)
        if bad:
            failures.append(f"closed form disagrees on {bad}")
    if "mu2" in draw:
        lam2, mu2 = F(draw["lam2"]), F(draw["mu2"])
        swapped = (pair.certificate.g.coeffs == (-lam2, 0, 1)
                   and pair.g_b.coeffs == (-mu2, 0, 1)
                   and pair.f_b.coeffs == (-mu2, 0, 1)
                   and pair.theta.coeffs == (mu2 ** 2, -2 * mu2, 1))
        if not swapped:
            failures.append("lam <-> mu swap does not hold")
    want = expected.get(draw_key(draw))
    got = output_digest(draw, out)
    if want != got:
        failures.append(f"digest {got} != expected {want}")
    return failures


def load_expected():
    with open(EXPECTED) as fh:
        return json.load(fh)["digests"]
