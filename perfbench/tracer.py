"""Span tracer that wraps the library's public functions from outside.

Nothing in the library changes: ``Tracer.install`` replaces every binding of
each target (module attributes in any loaded module, including names
imported into other modules, and class attributes including aliases such as
``__rmul__ = __mul__``) with a timing wrapper, and ``uninstall`` puts the
originals back.

Spans are of two tiers. *Stage* spans are the pipeline steps (darboux,
involution, linalg, quasi, bessel, jsonio); *arith* spans are the exact
arithmetic underneath (scalars, poly, weyl). A span's self time is its
duration minus the time of the nested spans of its own tier, so
``darboux.build_certificate`` keeps the ansatz and the Q division it runs
itself but not ``certify``, and ``poly.gcd`` keeps its own loop but not the
``poly.divmod`` calls inside it. Every span is counted; stage spans are also
kept in memory as records (name, start, end, parent, op) for the trace
document, which is written apart from every certificate or pair payload.
"""

from __future__ import annotations

import sys
import time

STAGE, ARITH = "stage", "arith"

# (module, owner, attribute, span name, tier); owner None for a function.
TARGETS = (
    ("scalars", "Cyclotomic", "__mul__", "scalars.cyclotomic.mul", ARITH),
    ("scalars", "Cyclotomic", "__add__", "scalars.cyclotomic.add", ARITH),
    ("scalars", "Cyclotomic", "inverse", "scalars.cyclotomic.inverse", ARITH),
    ("poly", "Poly", "gcd", "poly.gcd", ARITH),
    ("poly", "Poly", "divmod", "poly.divmod", ARITH),
    ("poly", "Poly", "__mul__", "poly.mul", ARITH),
    ("poly", "RationalFunction", "__init__", "poly.ratfn_init", ARITH),
    ("weyl", "DiffOp", "__mul__", "weyl.mul", ARITH),
    ("weyl", "DiffOp", "left_divide", "weyl.divide", ARITH),
    ("weyl", "DiffOp", "right_divide", "weyl.divide", ARITH),
    ("weyl", "DiffOp", "convert", "weyl.convert", ARITH),
    ("linalg", None, "nullspace", "linalg.nullspace", STAGE),
    ("linalg", None, "solve", "linalg.solve", STAGE),
    ("linalg", None, "rank", "linalg.rank", STAGE),
    ("quasi", "WaveSeries", "apply", "quasi.wave_apply", STAGE),
    ("quasi", "QuasiPolynomial", "apply", "quasi.quasi_apply", STAGE),
    ("quasi", "ExpSeries", "apply", "quasi.exp_apply", STAGE),
    ("bessel", None, "bessel_wave", "bessel.bessel_wave", STAGE),
    ("bessel", None, "wave_jet_at", "bessel.wave_jet_at", STAGE),
    ("darboux", None, "validate_spec", "darboux.validate_spec", STAGE),
    ("darboux", None, "build_certificate", "darboux.build_certificate", STAGE),
    ("darboux", None, "certify", "darboux.certify", STAGE),
    ("involution", None, "involute_P", "involution.involute", STAGE),
    ("involution", None, "involute_Q", "involution.involute", STAGE),
    ("involution", None, "make_pair", "involution.make_pair", STAGE),
    ("involution", None, "verify_pair", "involution.verify_pair", STAGE),
    ("involution", None, "closed_form_monomial",
     "involution.closed_form_monomial", STAGE),
    ("involution", None, "spectral_algebra", "involution.spectral_algebra",
     STAGE),
    ("jsonio", None, "read", "jsonio.read", STAGE),
    ("jsonio", None, "load_pair", "jsonio.load_pair", STAGE),
    ("jsonio", None, "load_spec", "jsonio.load_spec", STAGE),
)

MARK = "_perfbench_span"
PACKAGE = "bispectral"


def _gcd_probe(tracer, args):
    # Split by argument shape, not by role: a call is monomial when either
    # argument has at most one term (c x^m), where the gcd is a power of x
    # without a Euclidean loop. The role differs by call site: both
    # arguments are denominators in the lcm loops and RationalFunction
    # takes gcd(num, den), but the content loops take gcd(content, p) of
    # numerator polynomials.
    monomial = any(sum(1 for c in p.coeffs if c) <= 1 for p in args[:2])
    kind = "poly.gcd.calls_monomial" if monomial else "poly.gcd.calls_general"
    tracer.counts[kind] = tracer.counts.get(kind, 0) + 1


def _nullspace_probe(tracer, args):
    rows = args[0]
    ncols = args[1] if len(args) > 1 and args[1] is not None else (
        len(rows[0]) if rows else 0)
    cells = len(rows) * ncols
    if cells > tracer.counts.get("linalg.nullspace.cells_max", 0):
        tracer.counts["linalg.nullspace.cells_max"] = cells


PROBES = {"poly.gcd": _gcd_probe, "linalg.nullspace": _nullspace_probe}


class Tracer:
    """Counts and self times per span name, plus stage span records."""

    def __init__(self):
        self.stats = {}       # name -> [calls, total_s, self_s]
        self.counts = {}      # probe counters
        self.spans = []       # stage span records
        self.top_s = 0.0      # time under top-level spans
        self.op = None        # label of the op being traced
        self._stacks = {STAGE: [], ARITH: []}
        self._depth = 0
        self._next_id = 0
        self._patches = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name, tier):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        own = self._stacks[tier]
        stage = self._stacks[STAGE]
        probe = PROBES.get(name)
        clock = time.perf_counter
        record = tier == STAGE
        tracer = self

        def wrapper(*args, **kwargs):
            if probe is not None:
                probe(tracer, args)
            frame = [0.0, None]
            if record:
                tracer._next_id += 1
                frame[1] = tracer._next_id
                parent = stage[-1][1] if stage else None
            own.append(frame)
            tracer._depth += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer._depth -= 1
                own.pop()
                dt = t1 - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                if own:
                    own[-1][0] += dt
                if not tracer._depth:
                    tracer.top_s += dt
                if record:
                    tracer.spans.append((frame[1], parent, name, t0, t1,
                                         tracer.op))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        setattr(wrapper, MARK, name)
        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for m in list(sys.modules.values())
                   if getattr(m, "__dict__", None) is not None]
        for modname, owner, attr, name, tier in TARGETS:
            mod = sys.modules[f"{PACKAGE}.{modname}"]
            if owner is None:
                original = getattr(mod, attr)
                wrapper = self._wrap(original, name, tier)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is original:
                            self._patch(m, key, wrapper)
                continue
            cls = getattr(mod, owner)
            raw = cls.__dict__[attr]
            is_static = isinstance(raw, staticmethod)
            original = raw.__func__ if is_static else raw
            wrapper = self._wrap(original, name, tier)
            for key, val in list(vars(cls).items()):
                target = val.__func__ if isinstance(val, staticmethod) else val
                if target is original:
                    self._patch(cls, key,
                                staticmethod(wrapper) if is_static else wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def calls(self, name):
        return self.stats.get(name, [0])[0]

    def self_s(self, *names):
        return sum(self.stats.get(n, [0, 0.0, 0.0])[2] for n in names)

    def document(self):
        """The trace document: aggregates plus stage span records."""
        return {"kind": "perfbench-trace",
                "stats": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                          for k, v in sorted(self.stats.items())},
                "counts": dict(sorted(self.counts.items())),
                "spans": [{"id": i, "parent": p, "name": n, "start": s,
                           "end": e, "op": op}
                          for i, p, n, s, e, op in self.spans]}


def installed_wrappers():
    """(where, name) of every tracer wrapper still bound in the package."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
            continue
        for key, val in vars(mod).items():
            if getattr(val, MARK, None):
                found.append((modname, key))
            if isinstance(val, type):
                for ckey, cval in vars(val).items():
                    inner = (cval.__func__ if isinstance(cval, staticmethod)
                             else cval)
                    if getattr(inner, MARK, None):
                        found.append((f"{modname}.{key}", ckey))
    return found
