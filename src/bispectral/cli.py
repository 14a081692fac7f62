"""Command-line front end.

Commands: bessel, build, pair, involute, rank, betaprime, examples, verify.
Exit codes: 0 success, 2 invalid input, 3 certification failure,
4 verification failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__, examples, jsonio
from .bessel import BesselIndex, bessel_op, bessel_poly, wave_coeffs
from .darboux import MAX_N, banded_rows, build_certificate, certify
from .errors import (BispectralError, CertificationError, ShapeError,
                     TruncationError, UsageError, VerificationError)
from .involution import (beta_prime, bessel_plane_report, involute_P,
                         involute_Q, make_pair, spectral_algebra, verify_pair)
from .scalars import parse_rational

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CERTIFICATION = 3
EXIT_VERIFICATION = 4

# upper caps on the size arguments, which keep one run to about a minute
MAX_DEPTH = 256          # -K/--depth and --verify
MAX_DEGREE_BOUND = 32    # --degree-bound
MAX_BAND_DEPTH = 2       # examples dg-even --d
MAX_WEIGHTS = 64         # bessel --beta and rank --beta

# options whose values are rationals or comma-separated lists of them; a
# value like -5,2,6 or -1/2 starts with "-" and is not a plain number, so
# argparse would read it as an option unless it is joined to its name
RATIONAL_OPTIONS = ("--beta", "--t", "--nu", "--a", "--lambda")

_dg_even_rows = banded_rows  # read by perfbench/test_perfbench.py


def size(low, high=None):
    """argparse type of the size arguments (-K, --verify, --degree-bound,
    --d): an integer that is at least low and, given high, at most it."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(
                f"must be at most {high}, got {value}")
        return value
    return parse


def weight_vector(limit):
    """argparse type of --beta: a BesselIndex of comma-separated weights,
    at most limit of them; the count is checked before any weight is
    parsed."""
    def weights(text):
        count = len([p for p in text.split(",") if p.strip()])
        if count > limit:
            raise argparse.ArgumentTypeError(
                f"must be at most {limit}, got {count} weights")
        return BesselIndex.parse(text)
    return weights


def rationals(text):
    return tuple(parse_rational(v) for v in text.split(","))


# argparse types of the options of the example suites; examples.SUITES
# lists each suite's options with their golden defaults
EXAMPLE_TYPES = {
    "nu": parse_rational, "a": parse_rational, "lambda": parse_rational,
    # the spec is built in process, so it skips KernelSpec.from_json's caps
    "beta": weight_vector(MAX_N),
    "d": size(1, MAX_BAND_DEPTH), "t": rationals,
}


def _names_rational_option(arg):
    """True when arg is one of RATIONAL_OPTIONS or an abbreviation argparse
    resolves to one: a prefix of exactly one of them.  No other option of
    any (sub)command starts with the same letter after "--", so such a
    prefix names that option in every subcommand that has it."""
    if arg in RATIONAL_OPTIONS:
        return True
    if len(arg) <= 2 or not arg.startswith("--") or "=" in arg:
        return False
    return sum(opt.startswith(arg) for opt in RATIONAL_OPTIONS) == 1


def _join_rational_values(argv):
    """argv with each "--opt value" of RATIONAL_OPTIONS, or of an
    abbreviation of one, as "--opt=value"."""
    out, rest = [], iter(argv)
    for arg in rest:
        value = next(rest, None) if _names_rational_option(arg) else None
        out.append(arg if value is None else f"{arg}={value}")
    return out


def _emit(document, out):
    text = jsonio.dumps(document)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_bessel(args):
    bi = args.beta
    coeffs = wave_coeffs(bi, args.depth)
    op = bessel_op(bi).convert("del")
    print(f"L = {op}")
    print(f"indicial polynomial: {bessel_poly(bi).to_str()}")
    print("wave coefficients:",
          ", ".join(f"a_{k}={c}" for k, c in enumerate(coeffs, start=1))
          or "(none)")
    if args.out:
        _emit(jsonio.document("bessel", {
            "beta": bi.to_json(), "L": op.to_json(),
            "wave_coeffs": [str(c) for c in coeffs]}, depth=args.depth),
            args.out)
    return EXIT_OK


def cmd_build(args):
    into_dir = bool(args.out) and Path(args.out).is_dir()
    if len(args.spec) > 1 and args.out and not into_dir:
        raise UsageError("--out must be a directory for multiple specs")
    certs = [build_certificate(jsonio.load_spec(jsonio.read(path)))
             for path in args.spec]
    for path, cert in zip(args.spec, certs):
        out = (Path(args.out) / (Path(path).stem + ".cert.json")
               if into_dir else args.out)
        _emit(jsonio.document("darboux-certificate", cert.to_json(),
                              depth=cert.depth), out)
    return EXIT_OK


def cmd_pair(args):
    cert = jsonio.load_certificate(jsonio.read(args.certificate))
    pair = make_pair(cert)
    doc = jsonio.pair_document(pair, depth=args.verify)
    if args.verify is not None:
        doc["verification"] = verify_pair(pair, depth=args.verify)
    _emit(doc, args.out)
    return EXIT_OK


def cmd_involute(args):
    cert = jsonio.load_certificate(jsonio.read(args.certificate))
    P_b, g_b = involute_P(cert.P, cert.g, cert.beta)
    Q_b, f_b = involute_Q(cert.Q, cert.f, cert.beta)
    _emit(jsonio.document("involution", {
        "P_b": P_b.to_json(), "g_b": g_b.to_json(),
        "Q_b": Q_b.to_json(), "f_b": f_b.to_json()}), args.out)
    return EXIT_OK


def cmd_rank(args):
    if (args.beta is None) == (args.certificate is None):
        raise UsageError("rank needs a certificate or --beta, not both")
    if args.beta is not None:
        beta = args.beta
        rep = bessel_plane_report(beta, args.degree_bound)
    else:
        cert = jsonio.load_certificate(jsonio.read(args.certificate))
        beta = cert.beta
        rep = spectral_algebra(cert, args.degree_bound)
    print(f"degrees up to {rep.bound}: {list(rep.degrees)}")
    print(f"generators: {list(rep.generators)}; rank = {rep.rank}; "
          f"only multiples of N: {rep.generic_to_bound}")
    if args.out:
        _emit(jsonio.document("spectral-report",
                              {"beta": beta.to_json(), **rep.to_json()},
                              degree_bound=args.degree_bound), args.out)
    return EXIT_OK


def cmd_betaprime(args):
    spec = jsonio.load_spec(jsonio.read(args.kernel))
    prime, info = beta_prime(spec)
    print("beta' =", "(" + ", ".join(str(b) for b in prime) + ")")
    if info["ambiguous"]:
        print("note: association admits a relabeling; one choice reported")
    if args.out:
        _emit(jsonio.document("beta-prime", {
            "beta": spec.beta.to_json(),
            "beta_prime": [str(b) for b in prime],
            "counts": info["counts"],
            "ambiguous": info["ambiguous"]}), args.out)
    return EXIT_OK


def cmd_verify(args):
    pair = jsonio.load_pair(jsonio.read(args.pair))
    cert = pair.certificate
    certify(cert.beta, cert.P, cert.Q, cert.f, cert.g, spec=cert.spec,
            depth=args.depth)
    report = verify_pair(pair, depth=args.depth)
    print(f"verified to depth {report['depth']}: residuals {report['residuals']}")
    if args.out:
        _emit(jsonio.document("verification", report, depth=args.depth),
              args.out)
    return EXIT_OK


def cmd_examples(args):
    produced, custom = examples.reproduce(args.name, vars(args))
    print("custom parameters accepted; certificate checks passed" if custom
          else f"example {args.name}: exact match against the stored output")
    if args.out:
        _emit(jsonio.document("example", {"name": args.name, **produced}),
              args.out)
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="bispectral",
        description="Exact Darboux factorization of Bessel-type operators "
                    "and certified bispectral pairs")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bessel", help="print the base operator and wave data")
    p.add_argument("--beta", required=True, type=weight_vector(MAX_WEIGHTS),
                   help="comma-separated weights")
    p.add_argument("-K", "--depth", type=size(0, MAX_DEPTH), default=4)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bessel)

    p = sub.add_parser("build", help="kernel spec -> certified factorization")
    p.add_argument("spec", nargs="+", help="kernel spec JSON files")
    p.add_argument("--out")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("pair", help="certificate -> bispectral pair")
    p.add_argument("certificate")
    p.add_argument("--verify", type=size(0, MAX_DEPTH), default=None,
                   metavar="K")
    p.add_argument("--out")
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("involute", help="certificate -> involuted factors")
    p.add_argument("certificate")
    p.add_argument("--out")
    p.set_defaults(func=cmd_involute)

    p = sub.add_parser("rank", help="spectral algebra degrees and rank")
    p.add_argument("certificate", nargs="?", default=None)
    p.add_argument("--beta", default=None, type=weight_vector(MAX_WEIGHTS),
                   help="report for a bare plane instead of a certificate")
    p.add_argument("--degree-bound", type=size(0, MAX_DEGREE_BOUND),
                   default=8)
    p.add_argument("--out")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("betaprime", help="shifted weights of a monomial kernel")
    p.add_argument("kernel", help="kernel spec JSON file (log-free, at 0)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_betaprime)

    p = sub.add_parser("examples", help="reproduce a stored golden suite")
    suites = p.add_subparsers(dest="name", required=True)
    for name, suite in examples.SUITES.items():
        q = suites.add_parser(name)
        for option, default in suite.defaults.items():
            q.add_argument("--" + option, type=EXAMPLE_TYPES[option],
                           default=default)
        q.add_argument("--out")
    p.set_defaults(func=cmd_examples)

    p = sub.add_parser("verify", help="re-check a pair document")
    p.add_argument("pair")
    p.add_argument("-K", "--depth", type=size(0, MAX_DEPTH), default=None)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(_join_rational_values(
            sys.argv[1:] if argv is None else argv))
        code = args.func(args)
    except (VerificationError, TruncationError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        code = EXIT_VERIFICATION
    except (CertificationError, ShapeError) as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        code = EXIT_CERTIFICATION
    except BispectralError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_INVALID
    return code


if __name__ == "__main__":
    sys.exit(main())
