"""Benchmark of the bispectral certify pipeline.

Run from the root of a repository checkout:

    python3 perfbench/run.py --workload point-orbits --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One client in one process runs one op at a time (a closed loop) on seeded
inputs for ``--seconds`` seconds, checks every output, and prints a table
followed by one JSON line. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs a fixed list of ops untraced and then traced, and reports
the per-layer metrics (see README.md). ``--workload all`` runs every workload
in its own process and prints one row per workload.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import workloads as W  # noqa: E402

SETUP_PROBES = 6          # fresh processes timed for setup_s, plus this one
CAL_ITERATIONS = 3000     # size of the host-speed calibration kernel
CAL_REF_S = 0.020         # its time at the reference speed (see README.md)
TRACE_ROUNDS = {"banded-monomial": 2, "point-orbits": 1, "stored-verify": 1}
CHILD_TIMEOUT = 170

END_TO_END = (("setup_s", "s"), ("op_s.p50", "s"), ("ops_per_s", "1/s"),
              ("build_s.p50", "s"), ("pair_s.p50", "s"),
              ("verify_s.p50", "s"), ("rank_s.p50", "s"),
              ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("poly.gcd.calls_monomial", "count"), ("poly.gcd.calls_general", "count"),
    ("poly.gcd.self_s", "s"), ("poly.divmod.calls", "count"),
    ("poly.divmod.self_s", "s"), ("poly.ratfn_init.calls", "count"),
    ("poly.ratfn_init.self_s", "s"), ("poly.mul.self_s", "s"),
    ("weyl.mul.calls", "count"), ("weyl.mul.self_s", "s"),
    ("weyl.divide.calls", "count"), ("weyl.divide.self_s", "s"),
    ("weyl.convert.self_s", "s"),
    ("darboux.certify.calls", "count"), ("darboux.certify.self_s", "s"),
    ("darboux.validate_spec.calls", "count"),
    ("darboux.build_certificate.self_s", "s"),
    ("involution.involute.self_s", "s"), ("involution.make_pair.self_s", "s"),
    ("involution.verify_pair.self_s", "s"),
    ("involution.spectral_algebra.self_s", "s"),
    ("involution.closed_form_monomial.self_s", "s"),
    ("linalg.nullspace.calls", "count"), ("linalg.nullspace.self_s", "s"),
    ("linalg.nullspace.cells_max", "count"), ("linalg.solve.self_s", "s"),
    ("scalars.cyclotomic.mul_calls", "count"),
    ("scalars.cyclotomic.self_s", "s"),
    ("quasi.wave_apply.calls", "count"), ("quasi.wave_apply.self_s", "s"),
    ("quasi.quasi_apply.self_s", "s"), ("quasi.exp_apply.self_s", "s"),
    ("bessel.bessel_wave.self_s", "s"), ("bessel.wave_jet_at.calls", "count"),
    ("bessel.wave_jet_at.self_s", "s"), ("jsonio.load_pair.self_s", "s"),
    ("trace.overhead_ratio", "ratio"), ("trace.coverage", "ratio"))


class SourceMissing(Exception):
    pass


def import_library():
    """Import bispectral from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "bispectral" / "__init__.py").is_file():
        raise SourceMissing(f"no library source at {SRC / 'bispectral'}")
    sys.path.insert(0, str(SRC))
    import bispectral
    if Path(bispectral.__file__).resolve().parent != SRC / "bispectral":
        raise SourceMissing(f"imported bispectral from {bispectral.__file__}")
    return bispectral


def prepare(workload, seed):
    """Everything before the first timed op: import, inputs, expected digests."""
    bs = import_library()
    expected = W.load_expected()
    stream = W.rounds(workload, seed)
    first = next(stream)
    for draw in first:
        if "doc" in draw and not (W.PAIRS / f"{draw['doc']}.json").is_file():
            raise SourceMissing(f"missing frozen pair {draw['doc']}")
    return bs, expected, stream, first


def environment(args, samples):
    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for path in sorted((SRC / "bispectral").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "git_revision": rev,
            "source_sha256": h.hexdigest()[:16], "nproc": os.cpu_count(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "samples": samples}


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def calibrate():
    """Seconds of a fixed stdlib exact-arithmetic kernel: the host's speed.

    The garbage collector is paused inside it, so a collection of the
    library's objects is not read as a slow host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, CAL_ITERATIONS):
            acc += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def settled_calibration():
    """Median of three calibrations: the host's speed right after set-up."""
    return statistics.median(calibrate() for _ in range(3))


class HostSpeed:
    """Rescaling factor for the step that just ended.

    The host's speed drifts by up to a third within seconds. Each call times
    the calibration kernel and returns ``CAL_REF_S`` over the mean of this
    and the previous calibration, the two that bracket the step.
    """

    def __init__(self):
        self.last = calibrate()
        self.factors = []

    def __call__(self):
        now = calibrate()
        factor = 2 * CAL_REF_S / (self.last + now)
        self.last = now
        self.factors.append(factor)
        return factor


def execute(bs, draw, scale=lambda: 1.0):
    """(steps, outputs or the exception) of one op."""
    steps = W.Steps(time.perf_counter, scale)
    try:
        out = W.run_op(bs, draw, steps)
    except Exception as exc:  # a failed op is counted, the run goes on
        out = exc
    return steps, out


def judge(draw, out, expected):
    """Failed checks of one op, labelled with its draw."""
    if isinstance(out, Exception):
        return [f"{draw['label']}: {type(out).__name__}: {out}"]
    return [f"{draw['label']}: {f}" for f in W.check_op(draw, out, expected)]


def run_one(bs, draw, expected, scale=lambda: 1.0):
    """(steps, failures) of one op; the checks are timed as step "check"."""
    steps, out = execute(bs, draw, scale)
    return steps, steps.run("check", judge, draw, out, expected)


def setup_samples(args, own):
    """(raw seconds, host-speed factor) of this process and the probes."""
    samples = [(own, CAL_REF_S / settled_calibration())]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--probe-setup"]
    for _ in range(SETUP_PROBES):
        res = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT, cwd=ROOT)
        if res.returncode != 0:
            raise RuntimeError(f"setup probe failed: {res.stderr.strip()}")
        raw, cal = map(float, res.stdout.split()[-2:])
        samples.append((raw, CAL_REF_S / cal))
    return samples


def p50(values):
    return statistics.median(values) if values else 0.0


def timed_loop(bs, expected, stream, first, seconds, scale):
    """(steps, failures) of every op of whole rounds until ``seconds`` pass."""
    records = []
    t_start = time.perf_counter()
    rnd = first
    while True:
        records.extend(run_one(bs, draw, expected, scale) for draw in rnd)
        if time.perf_counter() - t_start >= seconds:
            break
        rnd = next(stream)
    return records


def end_to_end(args):
    bs, expected, stream, first = prepare(args.workload, args.seed)
    own_setup = time.perf_counter() - _START
    setup = setup_samples(args, own_setup)
    scale = HostSpeed()
    records = timed_loop(bs, expected, stream, first, args.seconds, scale)
    failures = [f for _, fs in records for f in fs]
    failed = sum(1 for _, fs in records if fs)
    from tracer import installed_wrappers
    leftovers = installed_wrappers()
    if leftovers:
        failures.append(f"tracer wrappers left installed: {leftovers}")

    def measure(scaled):
        tables = [st.scaled if scaled else st.times for st, _ in records]
        steps = [W.step_values(args.workload, t) for t in tables]
        return {
            "setup_s": p50([raw * (k if scaled else 1) for raw, k in setup]),
            "op_s.p50": p50([W.op_value(t) for t in tables]),
            "ops_per_s": (len(records) - failed) / sum(
                sum(t.values()) for t in tables),
            **{f"{s}_s.p50": p50([v[s] for v in steps if s in v])
               for s in W.STEP_METRICS},
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    raw = measure(scaled=False)
    print("# unscaled " + json.dumps(raw, sort_keys=True))
    print("# host_speed " + json.dumps(
        {"factor_p50": p50(scale.factors), "factor_min": min(scale.factors),
         "factor_max": max(scale.factors)}, sort_keys=True))
    samples = {"setup_s": len(setup), "op_s.p50": len(records),
               **{f"{s}_s.p50": sum(1 for st, _ in records if s in st.times)
                  for s in W.STEP_METRICS}}
    return measure(scaled=True), END_TO_END, samples, len(records), failed, \
        failures


def per_layer(args):
    from tracer import Tracer, installed_wrappers
    bs, expected, stream, first = prepare(args.workload, args.seed)
    draws = list(first)
    for _ in range(TRACE_ROUNDS[args.workload] - 1):
        draws.extend(next(stream))
    scale = HostSpeed()
    plain = [run_one(bs, d, expected, scale) for d in draws]
    tracer = Tracer()
    traced = []
    for d in draws:
        tracer.op = d["label"]
        tracer.install()
        try:
            steps, out = execute(bs, d, scale)
        finally:
            tracer.uninstall()
        traced.append((steps, judge(d, out, expected)))
    records = plain + traced
    failures = [f for _, fs in records for f in fs]
    failed = sum(1 for _, fs in records if fs)
    leftovers = installed_wrappers()
    if leftovers:
        failures.append(f"tracer wrappers left installed: {leftovers}")
    untraced_s = sum(W.op_value(st.scaled) for st, _ in plain)
    traced_s = sum(W.op_value(st.scaled) for st, _ in traced)
    derived = {
        "scalars.cyclotomic.mul_calls": tracer.calls("scalars.cyclotomic.mul"),
        "scalars.cyclotomic.self_s": tracer.self_s(
            *(k for k in tracer.stats if k.startswith("scalars.cyclotomic."))),
        "trace.overhead_ratio": traced_s / untraced_s,
        "trace.coverage": tracer.top_s / sum(W.op_value(st.times)
                                             for st, _ in traced),
    }
    values = {}
    for name, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if name in derived:
            values[name] = derived[name]
        elif field == "calls":
            values[name] = tracer.calls(base)
        elif field == "self_s":
            values[name] = tracer.self_s(base)
        else:
            values[name] = tracer.counts.get(name, 0)
    out = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    doc = tracer.document()
    doc["environment"] = environment(args, {"ops": len(draws)})
    doc["untraced_s"], doc["traced_s"] = untraced_s, traced_s
    out.write_text(json.dumps(doc) + "\n")
    print(f"# trace document: {out}")
    return (values, PER_LAYER, {"ops": len(draws)}, len(records), failed,
            failures)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def report(args, values, names, samples, attempted, failed, failures):
    env = environment(args, samples)
    print("# environment " + json.dumps(env, sort_keys=True))
    for f in failures[:20]:
        print(f"# FAILED {f}")
    print(f"{'metric':40s} {'value':>14s}  unit")
    for name, unit in names:
        print(f"{name:40s} {values[name]:14.6g}  {unit}")
    print(f"{'fail_ratio':40s} {failed / attempted:14.6g}  ratio "
          f"({failed}/{attempted})")
    result = {"correct": not failures, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in names}}
    print(json.dumps(result))


def run_all(args):
    """Each workload in its own process; one row per workload."""
    rows = {}
    for wl in W.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        res = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT, cwd=ROOT)
        if res.returncode != 0:
            sys.stderr.write(res.stderr)
            return res.returncode
        rows[wl] = json.loads(res.stdout.strip().splitlines()[-1])
    names = [n for n, _ in (END_TO_END if args.trace == 0 else PER_LAYER)]
    units = dict(END_TO_END if args.trace == 0 else PER_LAYER)
    print("# environment " + json.dumps(environment(args, {}), sort_keys=True))
    header = ["workload"] + [f"{n} [{units[n]}]" for n in names] + [
        "fail_ratio [ratio]"]
    print("\t".join(header))
    for wl, r in rows.items():
        cells = [wl] + [f"{r['metrics'][n]['value']:.6g}" for n in names]
        cells.append(f"{r['failed'] / r['attempted']:.6g}")
        print("\t".join(cells))
    print(json.dumps({
        "correct": all(r["correct"] for r in rows.values()),
        "attempted": sum(r["attempted"] for r in rows.values()),
        "failed": sum(r["failed"] for r in rows.values()),
        "metrics": {f"{wl}/{n}": r["metrics"][n] for wl, r in rows.items()
                    for n in names}}))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description="bispectral pipeline benchmark")
    ap.add_argument("--workload", required=True,
                    choices=list(W.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.probe_setup:
            prepare(args.workload, args.seed)
            setup = time.perf_counter() - _START
            print(f"{setup:.9f} {settled_calibration():.9f}")
            return 0
        if args.workload == "all":
            return run_all(args)
        if args.seconds <= 0:
            ap.error("--seconds must be positive")
        measured = per_layer(args) if args.trace else end_to_end(args)
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report(args, *measured)
    return 0


if __name__ == "__main__":
    sys.exit(main())
