import argparse
import copy
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bispectral import cli, darboux, examples
from bispectral.cli import main


RANK1_SPEC = {
    "beta": {"N": 1, "beta": ["0"]},
    "at_zero": [{"base_index": 0, "b": [["0"], ["1"]], "j0": 0}],
    "at_points": [],
}

ORDER2_SPEC = {
    "beta": {"N": 2, "beta": ["2/3", "1/3"]},
    "at_zero": [],
    "at_points": [{"lambda": "1", "a": ["1", "1"]}],
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_bessel_command(capsys):
    assert main(["bessel", "--beta", "2/3,1/3", "-K", "2"]) == 0
    out = capsys.readouterr().out
    assert "2/9" in out and "a_1=1/9" in out


def test_bessel_command_rejects_bad_weights(capsys):
    assert main(["bessel", "--beta", "0,0"]) == 2
    assert "sum" in capsys.readouterr().err


def test_bessel_weight_past_the_digit_limit_exits_two(capsys):
    assert main(["bessel", "--beta", "9" * 5000 + ",1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not a rational" in err


def test_build_pair_verify_round_trip(tmp_path, capsys):
    spec = write(tmp_path, "spec.json", RANK1_SPEC)
    cert_path = str(tmp_path / "cert.json")
    assert main(["build", spec, "--out", cert_path]) == 0
    cert = json.loads(Path(cert_path).read_text())
    assert cert["kind"] == "darboux-certificate"
    assert cert["tool"]["name"] == "bispectral"
    pair_path = str(tmp_path / "pair.json")
    assert main(["pair", cert_path, "--verify", "10",
                 "--out", pair_path]) == 0
    pair = json.loads(Path(pair_path).read_text())
    assert pair["verification"]["residuals"] == [0, 0]
    assert main(["verify", pair_path, "-K", "10"]) == 0
    assert main(["rank", cert_path, "--degree-bound", "4"]) == 0
    out = capsys.readouterr().out
    assert "rank = 1" in out


def test_build_multiple_specs_into_a_directory(tmp_path, capsys):
    # one file per spec, each byte-identical to a build of that spec alone
    s1 = write(tmp_path, "a.json", RANK1_SPEC)
    s2 = write(tmp_path, "b.json", ORDER2_SPEC)
    outdir = tmp_path / "outs"
    outdir.mkdir()
    assert main(["build", s1, s2, "--out", str(outdir)]) == 0
    for name, spec in (("a", s1), ("b", s2)):
        alone = tmp_path / f"{name}.alone.json"
        assert main(["build", spec, "--out", str(alone)]) == 0
        assert (outdir / f"{name}.cert.json").read_bytes() == \
            alone.read_bytes()
    assert main(["build", s1, s2, "--out", str(tmp_path / "one.json")]) == 2
    assert "--out must be a directory" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["build", s1, "--jobs", "2"])
    assert exc.value.code == 2


def test_involute_command(tmp_path):
    spec = write(tmp_path, "spec.json", ORDER2_SPEC)
    cert_path = str(tmp_path / "cert.json")
    assert main(["build", spec, "--out", cert_path]) == 0
    inv_path = str(tmp_path / "inv.json")
    assert main(["involute", cert_path, "--out", inv_path]) == 0
    inv = json.loads(Path(inv_path).read_text())
    assert inv["g_b"] == ["-20/9", "0", "1"]
    assert inv["f_b"] == ["-20/9", "0", "1"]


def test_betaprime_command(tmp_path, capsys):
    spec = write(tmp_path, "spec.json", {
        "beta": {"N": 2, "beta": ["0", "1"]},
        "at_zero": [{"base_index": 0, "b": [["1"]], "j0": 0}],
        "at_points": []})
    assert main(["betaprime", spec]) == 0
    assert "beta' = (1, 0)" in capsys.readouterr().out


AMBIGUOUS_SPEC = {
    # the exponent 3/2 lies on the ladders of both weights
    "beta": {"N": 2, "beta": ["-1/2", "3/2"]},
    "at_zero": [{"base_index": 1, "b": [["1"]]}],
    "at_points": [],
}


def test_betaprime_notes_a_row_that_matches_two_weights(tmp_path, capsys):
    out = tmp_path / "prime.json"
    assert main(["betaprime", write(tmp_path, "spec.json", AMBIGUOUS_SPEC),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        "beta' = (1/2, 1/2)\n"
        "note: association admits a relabeling; one choice reported\n")
    assert json.loads(out.read_text())["ambiguous"] is True


def test_tampered_certificate_exits_three(tmp_path):
    spec = write(tmp_path, "spec.json", RANK1_SPEC)
    cert_path = str(tmp_path / "cert.json")
    main(["build", spec, "--out", cert_path])
    cert = json.loads(Path(cert_path).read_text())
    cert["Q"]["coeffs"][0]["num"] = ["7"]
    bad = write(tmp_path, "bad.json", cert)
    assert main(["pair", bad]) == 3
    assert main(["involute", bad]) == 3
    assert main(["rank", bad]) == 3


def _documents(tmp_path):
    """Paths of a spec file, its certificate and its pair, and of an orbit
    spec file."""
    docs = {"spec": write(tmp_path, "spec.json", RANK1_SPEC),
            "orbit-spec": write(tmp_path, "orbit-spec.json", ORDER2_SPEC),
            "cert": str(tmp_path / "cert.json"),
            "pair": str(tmp_path / "pair.json")}
    assert main(["build", docs["spec"], "--out", docs["cert"]]) == 0
    assert main(["pair", docs["cert"], "--out", docs["pair"]]) == 0
    return docs


@pytest.mark.parametrize("command, source, kind, wanted", [
    ("build", "spec", "bispectral-pair", "kernel-spec"),
    ("betaprime", "spec", "bispectral-pair", "kernel-spec"),
    ("pair", "cert", "bispectral-pair", "darboux-certificate"),
    ("involute", "cert", "bispectral-pair", "darboux-certificate"),
    ("rank", "cert", "bispectral-pair", "darboux-certificate"),
    ("verify", "pair", "darboux-certificate", "bispectral-pair"),
])
def test_every_loader_checks_the_document_kind(tmp_path, capsys, command,
                                               source, kind, wanted):
    docs = _documents(tmp_path)
    doc = json.loads(Path(docs[source]).read_text())
    doc["kind"] = kind
    capsys.readouterr()
    assert main([command, write(tmp_path, "wrong.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert repr(kind) in captured.err and repr(wanted) in captured.err


@pytest.mark.parametrize("argv, kind, params, key", [
    (["bessel", "--beta", "2/3,1/3", "-K", "3"], "bessel", {"depth": 3},
     "wave_coeffs"),
    (["rank", "--beta", "2/3,1/3", "--degree-bound", "4"], "spectral-report",
     {"degree_bound": 4}, "degrees"),
    (["rank", "{cert}"], "spectral-report", {"degree_bound": 8}, "degrees"),
    (["betaprime", "{spec}"], "beta-prime", {}, "beta_prime"),
    (["verify", "{pair}", "-K", "10"], "verification", {"depth": 10},
     "residuals"),
    (["verify", "{pair}"], "verification", {}, "residuals"),
])
def test_out_documents_name_their_kind_and_tool(tmp_path, capsys, argv,
                                                kind, params, key):
    from bispectral import __version__
    docs = _documents(tmp_path)
    argv = [arg.format(**docs) for arg in argv]
    capsys.readouterr()
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == printed
    doc = json.loads(out.read_text())
    assert doc["kind"] == kind
    assert doc["tool"] == {"name": "bispectral", "version": __version__,
                           **params}
    assert key in doc


def test_a_spec_may_leave_out_its_kind(tmp_path):
    for spec in (RANK1_SPEC, {"kind": "kernel-spec", **RANK1_SPEC}):
        path = write(tmp_path, "spec.json", spec)
        assert main(["build", path, "--out", str(tmp_path / "c.json")]) == 0
        assert main(["betaprime", path]) == 0


def test_betaprime_on_an_empty_spec_exits_two(tmp_path, capsys):
    from bispectral import (BesselIndex, KernelSpec, SpecInvalidError,
                            beta_prime)
    empty = write(tmp_path, "empty.json",
                  {"beta": {"N": 2, "beta": ["2/3", "1/3"]}})
    assert main(["betaprime", empty]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "empty kernel specification" in captured.err
    with pytest.raises(SpecInvalidError, match="empty kernel specification"):
        beta_prime(KernelSpec(BesselIndex.parse("2/3,1/3"), (), ()))


def test_rank_takes_a_certificate_or_beta_not_both(tmp_path, capsys):
    cert = _documents(tmp_path)["cert"]
    capsys.readouterr()
    assert main(["rank", "--beta", "2/3,1/3", cert]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "a certificate or --beta, not both" in captured.err


def test_perturbed_pair_exits_four(tmp_path):
    spec = write(tmp_path, "spec.json", RANK1_SPEC)
    cert_path = str(tmp_path / "cert.json")
    pair_path = str(tmp_path / "pair.json")
    main(["build", spec, "--out", cert_path])
    main(["pair", cert_path, "--out", pair_path])
    pair = json.loads(Path(pair_path).read_text())
    # Lambda is not compared with P_b Q_b at load, so only the series
    # check sees it (a perturbed theta exits 3 at load)
    pair["Lambda"]["coeffs"][0]["num"] = ["-3"]
    bad = write(tmp_path, "badpair.json", pair)
    assert main(["verify", bad, "-K", "10"]) == 4


@pytest.mark.parametrize("depth", ["0", "1"])
def test_small_depth_still_checks_the_orbit_kernel(tmp_path, capsys, depth):
    # a tampered jet condition is caught below the default depth too: -K
    # only widens the orbit window of the kernel witness
    spec = write(tmp_path, "spec.json", ORDER2_SPEC)
    cert_path = str(tmp_path / "cert.json")
    pair_path = str(tmp_path / "pair.json")
    assert main(["build", spec, "--out", cert_path]) == 0
    assert main(["pair", cert_path, "--out", pair_path]) == 0
    assert main(["verify", pair_path, "-K", depth]) == 0
    pair = json.loads(Path(pair_path).read_text())
    pair["provenance"]["spec"]["at_points"][0]["a"] = ["1", "2"]
    bad = write(tmp_path, "tampered.json", pair)
    capsys.readouterr()
    assert main(["verify", bad, "-K", depth]) == 3
    assert "orbit kernel element at 1 (branch 0) is not annihilated by P" \
        in capsys.readouterr().err


def _sized_spec(N=2, groups=1, rows=1, log_power=0, jet_order=0):
    """A spec document of the given sizes; only its shape matters here."""
    beta = [str(i) for i in range(N)]
    at_zero = [{"base_index": 0, "b": [["1"] + ["0"] * log_power] * rows}]
    at_points = [{"lambda": str(k + 1), "a": ["1"] * (jet_order + 1)}
                 for k in range(groups - 1)]
    return {"beta": {"N": N, "beta": beta}, "at_zero": at_zero,
            "at_points": at_points}


CAPS = {"N": "MAX_N", "groups": "MAX_GROUPS", "rows": "MAX_ROWS",
        "log_power": "MAX_LOG_POWER", "jet_order": "MAX_JET_ORDER"}


@pytest.mark.parametrize("size", sorted(CAPS))
def test_specs_above_the_size_caps_exit_two_at_load(tmp_path, monkeypatch,
                                                    capsys, size):
    from bispectral import darboux
    cap = getattr(darboux, CAPS[size])
    sizes = {"N": 3, "groups": 2, "jet_order": 1, size: cap + 1}
    built = []
    monkeypatch.setattr(cli, "build_certificate", built.append)
    spec = write(tmp_path, "spec.json", _sized_spec(**sizes))
    assert main(["build", spec]) == 2
    assert built == []
    assert f"above the cap darboux.{CAPS[size]} = {cap}" in \
        capsys.readouterr().err
    # certificate and pair documents load their spec the same way
    spec_ok = write(tmp_path, "ok.json", ORDER2_SPEC)
    cert_path = str(tmp_path / "cert.json")
    pair_path = str(tmp_path / "pair.json")
    monkeypatch.undo()
    assert main(["build", spec_ok, "--out", cert_path]) == 0
    assert main(["pair", cert_path, "--out", pair_path]) == 0
    for path, key, argv in ((cert_path, None, ["pair"]),
                            (pair_path, "provenance", ["verify"])):
        doc = json.loads(Path(path).read_text())
        (doc[key] if key else doc)["spec"] = _sized_spec(**sizes)
        capsys.readouterr()
        assert main(argv + [write(tmp_path, "big.json", doc)]) == 2
        assert f"darboux.{CAPS[size]}" in capsys.readouterr().err


def test_specs_at_the_size_caps_parse():
    from bispectral import KernelSpec, darboux
    at_caps = _sized_spec(N=darboux.MAX_N, groups=darboux.MAX_GROUPS,
                          rows=darboux.MAX_ROWS,
                          log_power=darboux.MAX_LOG_POWER,
                          jet_order=darboux.MAX_JET_ORDER)
    spec = KernelSpec.from_json(at_caps)
    assert spec.beta.N == darboux.MAX_N
    assert len(spec.at_zero) + len(spec.at_points) == darboux.MAX_GROUPS
    # every stored spec is under the caps
    root = Path(__file__).resolve().parents[1]
    docs = sorted((root / "src" / "bispectral" / "golden").glob("*.json"))
    docs += sorted((root / "perfbench" / "data" / "pairs").glob("*.json"))
    assert len(docs) >= 5
    for path in docs:
        doc = json.loads(path.read_text())
        doc = doc.get("pair", doc)
        KernelSpec.from_json(doc["provenance"]["spec"])


def test_stored_documents_load_under_the_operator_cap():
    from bispectral import BispectralPair, darboux
    root = Path(__file__).resolve().parents[1]
    docs = sorted((root / "src" / "bispectral" / "golden").glob("*.json"))
    docs += sorted((root / "perfbench" / "data" / "pairs").glob("*.json"))
    assert len(docs) >= 5
    for path in docs:
        doc = json.loads(path.read_text())
        doc = doc.get("pair", doc)
        pair = BispectralPair.from_json(doc)
        assert BispectralPair.from_json(pair.to_json()) == pair
    assert darboux.MAX_COEFF_ENTRIES == 445


def _blank_led(op):
    """op with every coefficient entry written with a leading blank: the
    same numbers, in text that no other entry of a document has."""
    return dict(op, coeffs=[{key: [" " + t for t in c[key]]
                             for key in ("num", "den")} for c in op["coeffs"]])


def test_operators_in_the_wrong_variable_exit_two(tmp_path, capsys,
                                                 monkeypatch):
    # a stored pair and its certificate with the x-side operators in z:
    # pair wrote a pair in z from such a certificate, and verify passed it
    root = Path(__file__).resolve().parents[1]
    stored = (root / "perfbench" / "data" / "pairs" / "dg-even.json")
    pair = json.loads(stored.read_text())
    for doc, names in ((pair["provenance"], ("P", "Q")),
                       (pair, ("L", "P_b", "Q_b"))):
        for name in names:
            doc[name] = dict(doc[name], var="z")
    cert = dict(pair["provenance"], kind="darboux-certificate")
    capsys.readouterr()
    assert main(["pair", write(tmp_path, "cert.json", cert)]) == 2
    assert main(["verify", write(tmp_path, "pair.json", pair)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("operator in the wrong variable") == 2
    # each variable is checked at load, before any entry of the operator
    # is parsed: a stored pair whose Lambda is in x (verify passed it), and
    # a certificate whose P is in z for involute and rank
    from bispectral import scalars
    parsed = []
    parse_ratio = scalars.parse_ratio
    monkeypatch.setattr(scalars, "parse_ratio",
                        lambda text: parsed.append(text) or parse_ratio(text))
    pair = json.loads(stored.read_text())
    lam_x = dict(pair, Lambda=dict(_blank_led(pair["Lambda"]), var="x"))
    p_z = dict(pair["provenance"], kind="darboux-certificate",
               P=dict(_blank_led(pair["provenance"]["P"]), var="z"))
    assert main(["verify", write(tmp_path, "pair.json", lam_x)]) == 2
    for command in ("involute", "rank"):
        assert main([command, write(tmp_path, "cert.json", p_z)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("operator in the wrong variable") == 3
    assert parsed and not [t for t in parsed if t.startswith(" ")]
    # the spy does see the entries of an operator in its own variable
    darboux.operator_from_json(_blank_led(pair["Lambda"]), "z")
    assert [t for t in parsed if t.startswith(" ")]


def test_an_operator_above_the_cap_exits_two_at_once(tmp_path, capsys):
    from bispectral import darboux
    cert, pair = str(tmp_path / "cert.json"), str(tmp_path / "pair.json")
    assert main(["build", write(tmp_path, "spec.json", RANK1_SPEC),
                 "--out", cert]) == 0
    assert main(["pair", cert, "--out", pair]) == 0
    doc = json.loads(Path(pair).read_text())
    # one 2000-entry den, about 10 KB: verify -K 8 ran past 20 s on it
    doc["provenance"]["P"]["coeffs"][1]["den"] = ["9"] * 2000
    start = time.perf_counter()
    assert main(["verify", write(tmp_path, "bad.json", doc), "-K", "8"]) == 2
    assert time.perf_counter() - start < 0.5
    assert ("a list of 2000 entries is above the cap "
            f"darboux.MAX_COEFF_ENTRIES = {darboux.MAX_COEFF_ENTRIES}"
            ) in capsys.readouterr().err
    doc["provenance"]["P"]["coeffs"][1]["den"] = ["1"]
    doc["Lambda"]["coeffs"] = doc["Lambda"]["coeffs"] * 300
    assert main(["verify", write(tmp_path, "long.json", doc), "-K", "8"]) == 2


def _stored_dg_even():
    root = Path(__file__).resolve().parents[1]
    return json.loads(
        (root / "perfbench" / "data" / "pairs" / "dg-even.json").read_text())


@pytest.mark.parametrize("command, name", [
    ("rank", "f"), ("rank", "g"), ("rank", "h"), ("verify", "h"),
    ("verify", "theta"), ("verify", "f_b"), ("verify", "g_b"),
])
def test_a_polynomial_above_the_cap_exits_two_at_once(tmp_path, capsys,
                                                      monkeypatch, command,
                                                      name):
    # the stored polynomials size the work: a certificate whose f and g had
    # 801 entries ran rank past 120 s; the list is refused before any of
    # its entries is parsed
    from bispectral import scalars
    parsed = []
    parse_ratio = scalars.parse_ratio
    monkeypatch.setattr(scalars, "parse_ratio",
                        lambda text: parsed.append(text) or parse_ratio(text))
    pair = _stored_dg_even()
    long = [" 0"] * (darboux.MAX_COEFF_ENTRIES + 1)
    if command == "rank":
        doc = dict(pair["provenance"], kind="darboux-certificate")
    else:
        doc = pair
    doc[name] = long
    capsys.readouterr()
    assert main([command, write(tmp_path, "doc.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"polynomial too large: a list of {len(long)} entries is above "
            f"the cap darboux.MAX_COEFF_ENTRIES") in captured.err
    assert parsed and " 0" not in parsed


def test_a_stored_h_that_is_not_f_times_g_exits_three(tmp_path, capsys):
    # pair wrote such an h into the pair and exited 0; only a later verify
    # exited 4
    pair = _stored_dg_even()
    cert = dict(pair["provenance"], kind="darboux-certificate",
                h=["0", "0", "0", "1"])
    consistent = dict(pair, h=cert["h"],
                      provenance=dict(pair["provenance"], h=cert["h"]))
    capsys.readouterr()
    for command in ("pair", "involute", "rank"):
        assert main([command, write(tmp_path, "cert.json", cert)]) == 3
    assert main(["verify", write(tmp_path, "pair.json", consistent)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("stored h is not f*g read in y = z^N") == 4


def test_a_pair_whose_h_is_not_its_provenance_h_exits_three(tmp_path,
                                                            capsys):
    # verify_pair takes its default depth from this h: with 400 entries it
    # ran out of memory
    pair = dict(_stored_dg_even(), h=["0", "0", "0", "1"])
    capsys.readouterr()
    assert main(["verify", write(tmp_path, "pair.json", pair)]) == 3
    assert "the pair's h differs from the h of its provenance" \
        in capsys.readouterr().err


def test_a_pair_whose_beta_is_not_its_provenance_beta_exits_three(tmp_path,
                                                                  capsys):
    # the top-level beta was never read: verify -K 20 printed residuals
    # [0, 0] and exited 0
    pair = dict(_stored_dg_even(), beta={"N": 2, "beta": ["3/2", "-1/2"]})
    capsys.readouterr()
    assert main(["verify", write(tmp_path, "pair.json", pair),
                 "-K", "20"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the pair's beta differs from the beta of its provenance" \
        in captured.err


@pytest.mark.parametrize("depth", ["0", "8", "20", "256"])
def test_a_pair_whose_theta_is_not_f_b_times_g_b_exits_three(tmp_path,
                                                             capsys, depth):
    # the y^2 coefficient 9 -> 10: verify -K 8 printed residuals [0, 0]
    # and exited 0, and -K 20 exited 4
    pair = _stored_dg_even()
    assert pair["theta"][2] == "9"
    pair["theta"] = pair["theta"][:2] + ["10"] + pair["theta"][3:]
    capsys.readouterr()
    assert main(["verify", write(tmp_path, "pair.json", pair),
                 "-K", depth]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "stored theta is not f_b*g_b read in y = z^N" in captured.err


def test_a_stored_pair_passes_the_theta_check(tmp_path, capsys):
    pair = _stored_dg_even()
    capsys.readouterr()
    assert main(["verify", write(tmp_path, "pair.json", pair),
                 "-K", "8"]) == 0
    assert capsys.readouterr().out == \
        "verified to depth 8: residuals [0, 0]\n"


def test_a_certificate_whose_spec_has_other_weights_exits_three(tmp_path,
                                                                 capsys):
    # the f, g and h of an orbit spec do not depend on its weights, so the
    # counts witness passed and pair, rank and involute exited 0
    cert_path = str(tmp_path / "cert.json")
    assert main(["build", write(tmp_path, "spec.json", ORDER2_SPEC),
                 "--out", cert_path]) == 0
    cert = json.loads(Path(cert_path).read_text())
    cert["spec"]["beta"]["beta"] = ["3/2", "-1/2"]
    path = write(tmp_path, "cert.json", cert)
    capsys.readouterr()
    for command in ("pair", "involute", "rank"):
        assert main([command, path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("the certificate's weights differ from the "
                              "weights of its spec") == 3


def test_a_spec_less_certificate_is_held_to_max_n(tmp_path, capsys,
                                                  monkeypatch):
    # only a spec's N was capped: with trivial factors and N = 150, pair
    # exited 0 after certify built psi for 150 weights; bessel_wave,
    # patched out here, is never reached
    n = 150
    one = {"var": "x", "form": "del", "coeffs": [{"num": ["1"], "den": ["1"]}]}
    cert = {"kind": "darboux-certificate",
            "beta": {"N": n, "beta": [str(b) for b in range(n)]},
            "P": one, "Q": one, "f": ["1"], "g": ["1"], "h": ["1"],
            "witnesses": {}, "depth": 8}
    monkeypatch.setattr(darboux, "bessel_wave", None)
    path = write(tmp_path, "cert.json", cert)
    capsys.readouterr()
    for command in ("pair", "involute", "rank"):
        assert main([command, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count(f"certificate too large: N {n} is above the "
                              f"cap darboux.MAX_N = {darboux.MAX_N}") == 3


def test_betaprime_reads_the_dg_even_golden_spec(tmp_path, capsys):
    # its groups run four rungs up the ladder of -3/2, which meets the
    # ladder of 5/2 at 5/2 and 9/2; the flat exponent matrix that betaprime
    # went through needed distinct exponents, and it exited 2
    golden = json.loads((Path(examples.__file__).parent / "golden" /
                         "dg_even.json").read_text())
    spec = write(tmp_path, "spec.json", golden["pair"]["provenance"]["spec"])
    assert main(["betaprime", spec]) == 0
    want = "(" + ", ".join(golden["beta_prime"]) + ")"
    assert want == "(1/2, 1/2)"
    assert capsys.readouterr().out == f"beta' = {want}\n"


@pytest.mark.parametrize("f, g, message", [
    (["0", "0", "0", "1"], ["0", "0", "0", "1"],
     "degree of g (3) does not match the order of P (2)"),
    (["0", "0", "0", "0", "1"], ["0", "0", "1"],
     "degree of f (4) does not match the order of Q (2)"),
])
def test_certify_checks_degrees_before_it_builds_h_of_l(tmp_path, capsys,
                                                        monkeypatch, f, g,
                                                        message):
    # f g = h(z^N) holds, so the stored h passes; a consistent certificate
    # with f = g = z^440 took 14.75 s to exit 3 while h(L) was built
    built = []
    poly_at_bessel = darboux.poly_at_bessel
    monkeypatch.setattr(darboux, "poly_at_bessel",
                        lambda *args: built.append(args)
                        or poly_at_bessel(*args))
    cert = dict(_stored_dg_even()["provenance"], kind="darboux-certificate",
                f=f, g=g, h=["0", "0", "0", "1"])
    capsys.readouterr()
    assert main(["rank", write(tmp_path, "cert.json", cert)]) == 3
    assert message in capsys.readouterr().err
    assert not built


def test_invalid_spec_exits_two(tmp_path):
    bad = write(tmp_path, "bad.json", {
        "beta": {"N": 2, "beta": ["0", "1"]},
        "at_zero": [],
        "at_points": [{"lambda": "0", "a": ["1"]}]})
    assert main(["build", bad]) == 2
    assert main(["build", str(tmp_path / "missing.json")]) == 2


def test_rank_on_bare_plane(capsys):
    assert main(["rank", "--beta", "2/3,1/3", "--degree-bound", "8"]) == 0
    out = capsys.readouterr().out
    assert "rank = 2" in out and "only multiples of N: True" in out
    assert main(["rank", "--beta", "0,1", "--degree-bound", "4"]) == 0
    assert "only multiples of N: False" in capsys.readouterr().out
    assert main(["rank"]) == 2


def test_rank_beta_takes_no_depth(capsys):
    # the bare-plane report is exact, so rank has no depth to get wrong
    with pytest.raises(SystemExit) as exc:
        main(["rank", "--beta", "2/3,1/3", "-K", "8"])
    assert exc.value.code == 2
    assert "unrecognized arguments: -K" in capsys.readouterr().err
    assert main(["rank", "--beta", "2/3,1/3"]) == 0
    assert capsys.readouterr().out == (
        "degrees up to 8: [2, 4, 6, 8]\n"
        "generators: [2]; rank = 2; only multiples of N: True\n")


def test_build_takes_no_depth(tmp_path, capsys):
    # a certificate is certified at the default depth, the only one that
    # pair and load_certificate use, so build has no depth to set
    spec = write(tmp_path, "spec.json", RANK1_SPEC)
    with pytest.raises(SystemExit) as exc:
        main(["build", spec, "-K", "20"])
    assert exc.value.code == 2
    assert "unrecognized arguments: -K" in capsys.readouterr().err
    assert main(["build", spec]) == 0
    assert json.loads(capsys.readouterr().out)["depth"] == 14


def test_examples_rank1(capsys):
    assert main(["examples", "rank1"]) == 0
    assert "exact match" in capsys.readouterr().out


def test_examples_example4(capsys):
    assert main(["examples", "example4"]) == 0
    assert "exact match" in capsys.readouterr().out


def test_examples_dg_even(capsys):
    assert main(["examples", "dg-even"]) == 0
    assert "exact match" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["examples", "rank1", "--nu", "5", "--beta", "1,0"],
    ["examples", "example4", "--d", "1"],
    ["examples", "dg-even", "--lambda", "2"],
], ids=lambda argv: " ".join(argv[1:3]))
def test_examples_refuse_options_of_other_suites(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {argv[2]}" in captured.err


@pytest.mark.parametrize("argv", [
    ["examples", "example4", "--nu", "2/6"],
    ["examples", "example4", "--a", "3/3", "--lambda", "1"],
    ["examples", "dg-even", "--beta", "5/2,-3/2", "--t", "1,2,1,-1/1"],
], ids=lambda argv: " ".join(argv[1:]))
def test_examples_at_the_golden_values_are_diffed(argv, capsys):
    # custom or not is decided on the parsed values, not on their spelling
    assert main(argv) == 0
    assert "exact match against the stored output" in capsys.readouterr().out


def test_examples_band_depth_is_at_least_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["examples", "dg-even", "--d", "0"])
    assert exc.value.code == 2
    assert "argument --d: must be at least 1, got 0" in \
        capsys.readouterr().err


def test_examples_dg_even_with_custom_parameters(tmp_path, capsys):
    # the golden holds only the default parameters, so a custom run is
    # judged by its certificate checks and the closed-form agreement
    out = str(tmp_path / "dg.json")
    assert main(["examples", "dg-even", "--d", "1", "--t", "1,2",
                 "--out", out]) == 0
    assert "custom parameters accepted; certificate checks passed" in \
        capsys.readouterr().out
    doc = json.loads(Path(out).read_text())
    assert doc["name"] == "dg-even" and doc["closed_form_agrees"] is True


def test_examples_dg_even_custom_closed_form_disagreement_exits_four(
        monkeypatch, capsys):
    suite = examples.SUITES["dg-even"]
    monkeypatch.setitem(examples.SUITES, "dg-even", suite._replace(
        run=lambda *a: {**suite.run(*a), "closed_form_agrees": False}))
    assert main(["examples", "dg-even", "--d", "1", "--t", "1,2"]) == 4
    assert "closed form disagrees" in capsys.readouterr().err


def test_examples_divergence_names_the_key_path(monkeypatch, capsys):
    stored = examples._golden("rank1")
    del stored["pair"]["provenance"]["witnesses"]["kernel"]
    monkeypatch.setattr(examples, "_golden", lambda name: stored)
    assert main(["examples", "rank1"]) == 4
    err = capsys.readouterr().err
    assert ("pair.provenance.witnesses.kernel: present in produced, "
            "absent in stored") in err


def test_first_divergence_reports_values_and_lengths():
    assert examples._first_divergence({"a": [1, 2]}, {"a": [1, 2]}) is None
    assert examples._first_divergence({"a": [1, 2]}, {"a": [1, 3]}) == \
        "a[1]: produced 2, stored 3"
    assert examples._first_divergence({"a": [1]}, {"a": [1, 2]}) == \
        "a: 1 items in produced, 2 in stored"
    assert examples._first_divergence({"a": {"b": 1}}, {"a": {"b": 1, "c": 2}}) \
        == "a.c: absent in produced, present in stored"


def test_outputs_are_deterministic(tmp_path):
    spec = write(tmp_path, "spec.json", RANK1_SPEC)
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    main(["build", spec, "--out", a])
    main(["build", spec, "--out", b])
    assert Path(a).read_text() == Path(b).read_text()


def test_documents_that_are_not_objects_exit_two(tmp_path, capsys):
    for i, doc in enumerate(([1], "x")):
        path = write(tmp_path, f"doc{i}.json", doc)
        for argv in (["build", path], ["pair", path], ["involute", path],
                     ["rank", path], ["verify", path], ["betaprime", path]):
            assert main(argv) == 2, argv
            assert "expected a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    b"[" * 200000,
    b"\xff\xfe{}",
    b'{"kind": "bispectral-pair", "beta": ' + b"9" * 5000 + b"}",
], ids=["deep-nesting", "utf-16-bom", "5000-digit-integer"])
def test_files_that_do_not_parse_exit_two(tmp_path, capsys, content):
    # nesting past the recursion limit, bytes that do not decode and an
    # integer past the int digit limit; without a digit limit the last is
    # a malformed pair, which exits 2 as well
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["verify", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["bessel", "--beta", "2/3,1/3", "-K", "-2"],
    ["build", "spec.json", "-K", "-5"],
    ["pair", "cert.json", "--verify", "-2"],
    ["verify", "pair.json", "-K", "-3"],
    ["rank", "cert.json", "--degree-bound", "-2"],
    ["examples", "dg-even", "--d", "-1"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:-1]))
def test_negative_sizes_are_usage_errors(argv, capsys):
    # rejected while parsing, before any file is read or series is cut;
    # a band depth is at least 1, every other size at least 0, and build
    # sets no depth, so its -K is no option at all
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    if argv[0] == "build":
        assert "unrecognized arguments: -K" in err
    else:
        low = 1 if argv[-2] == "--d" else 0
        assert f"must be at least {low}, got -" in err


def _weights(n):
    """The weight vector 0, 1, ..., n - 1, which sums to n(n - 1)/2."""
    return ",".join(str(b) for b in range(n))


@pytest.mark.parametrize("argv, limit", [
    (["bessel", "--beta", "2/3,1/3", "-K", "257"], cli.MAX_DEPTH),
    (["build", "spec.json", "-K", "257"], None),  # build sets no depth
    (["pair", "cert.json", "--verify", "1000"], cli.MAX_DEPTH),
    (["verify", "pair.json", "-K", "257"], cli.MAX_DEPTH),
    (["rank", "--beta", "2/3,1/3", "--degree-bound", "33"],
     cli.MAX_DEGREE_BOUND),
    (["rank", "cert.json", "--degree-bound", "64"], cli.MAX_DEGREE_BOUND),
    (["examples", "dg-even", "--d", "3"], cli.MAX_BAND_DEPTH),
    (["bessel", "--beta", _weights(cli.MAX_WEIGHTS + 1)], cli.MAX_WEIGHTS),
    (["rank", "--beta", _weights(cli.MAX_WEIGHTS + 1)], cli.MAX_WEIGHTS),
    (["rank", "--beta", _weights(100 * cli.MAX_WEIGHTS)], cli.MAX_WEIGHTS),
    (["examples", "dg-even", "--beta", _weights(darboux.MAX_N + 1)],
     darboux.MAX_N),
], ids=lambda v: " ".join(v[:1] + v[-2:-1]) if isinstance(v, list) else "")
def test_sizes_above_the_caps_are_usage_errors(argv, limit, capsys):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert time.perf_counter() - start < 1
    assert exc.value.code == 2
    err = capsys.readouterr().err
    if limit is None:
        assert "unrecognized arguments: -K" in err
        return
    got = argv[-1]
    if argv[-2] == "--beta":  # a weight vector: its length is reported
        got = f"{len(got.split(','))} weights"
    assert f"must be at most {limit}, got {got}" in err


CUSTOM = "custom parameters accepted; certificate checks passed\n"


@pytest.mark.parametrize("argv, out", [
    (["rank", "--beta", "-5,2,6"], "degrees up to 8: [3, 6, 7]\n"),
    (["rank", "--beta=-5,2,6"], "degrees up to 8: [3, 6, 7]\n"),
    (["bessel", "--beta", "-1,2"], "L = d_x^2 - 2*x^-2\n"),
    (["examples", "dg-even", "--t", "-1,2,1,1"], CUSTOM),
    (["examples", "example4", "--lambda", "-1/2"], CUSTOM),
    (["examples", "example4", "--nu", "-1/3"], CUSTOM),
    # abbreviations argparse accepts behave as the full names do
    (["examples", "example4", "--lam", "-1/2"], CUSTOM),
    (["examples", "example4", "--lam=-1/2"], CUSTOM),
    (["examples", "example4", "--n", "-1/3"], CUSTOM),
    (["examples", "dg-even", "--be", "-3/2,5/2", "--t", "-1,2,1,1"], CUSTOM),
    (["rank", "--bet", "-5,2,6"], "degrees up to 8: [3, 6, 7]\n"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_values_with_a_leading_minus_parse(argv, out, capsys):
    # argparse reads "-5,2,6" or "-1/2" after an option as another option;
    # main joins the rational-valued options to their values first
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith(out)


def _parsers(parser):
    """parser and every parser nested below it as a subcommand."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def test_rational_option_abbreviations_name_no_other_option():
    # what _join_rational_values relies on: no other option of any
    # (sub)command starts with the letter after "--" of a rational option
    parsers = list(_parsers(cli.build_parser()))
    names = {p.prog.split(" ", 1)[-1] for p in parsers}
    assert {"bispectral", "rank", "examples", "examples dg-even",
            "examples example4", "examples rank1"} <= names
    letters = {opt[2] for opt in cli.RATIONAL_OPTIONS}
    for parser in parsers:
        for opt in parser._option_string_actions:
            if opt.startswith("--") and opt not in cli.RATIONAL_OPTIONS:
                assert opt[2] not in letters, (parser.prog, opt)


def test_sizes_at_the_caps_are_accepted(tmp_path, capsys):
    assert (cli.MAX_DEPTH, cli.MAX_DEGREE_BOUND, cli.MAX_BAND_DEPTH,
            cli.MAX_WEIGHTS) == (256, 32, 2, 64)
    assert main(["rank", "--beta", _weights(cli.MAX_WEIGHTS)]) == 0
    assert capsys.readouterr().out.startswith(
        "degrees up to 8: [1, 2, 3, 4, 5, 6, 7, 8]\n")
    assert main(["bessel", "--beta", "0", "-K", str(cli.MAX_DEPTH)]) == 0
    spec = write(tmp_path, "spec.json", RANK1_SPEC)
    cert_path = str(tmp_path / "cert.json")
    assert main(["build", spec, "--out", cert_path]) == 0
    capsys.readouterr()
    assert main(["rank", cert_path, "--degree-bound",
                 str(cli.MAX_DEGREE_BOUND)]) == 0
    assert capsys.readouterr().out.startswith(
        "degrees up to 32: [2, 3, 4, 5, ")


def test_rank_on_a_certificate_rejects_depth_and_a_missing_spec(tmp_path,
                                                                 capsys):
    spec = write(tmp_path, "spec.json", RANK1_SPEC)
    cert_path = str(tmp_path / "cert.json")
    assert main(["build", spec, "--out", cert_path]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["rank", cert_path, "-K", "5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: -K" in captured.err
    cert = json.loads(Path(cert_path).read_text())
    del cert["spec"]
    bare = write(tmp_path, "bare.json", cert)
    assert main(["pair", bare]) == 0      # certifies without a spec
    capsys.readouterr()
    assert main(["rank", bare]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no 'spec'" in captured.err


# values a mutation puts in place of a node: wrong types, a zero
# denominator, non-rational strings and huge numbers
FUZZ_VALUES = (
    (None, True, 7, 2.5, "x", [], {}, [[]], {"a": 1}),
    ("1/0", "-3/0"),
    ("abc", "1/2/3", "", "nan", "inf", "0x10"),
    ("1e999999999", "-7e99999", 10 ** 9, -10 ** 18, "9" * 5000),
)


def _paths(doc, path=()):
    """Every key path into a JSON document, the root's own excluded."""
    items = (doc.items() if isinstance(doc, dict) else
             enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _mutate(rng, doc):
    """doc with one node dropped or replaced by a value of FUZZ_VALUES."""
    doc = copy.deepcopy(doc)
    *head, key = rng.choice(list(_paths(doc)))
    parent = doc
    for step in head:
        parent = parent[step]
    kind = rng.randrange(len(FUZZ_VALUES) + 1)
    if kind == len(FUZZ_VALUES):
        del parent[key]
    else:
        parent[key] = rng.choice(FUZZ_VALUES[kind])
    return doc


def test_mutated_documents_exit_with_a_code(tmp_path, capsys):
    # a malformed spec, certificate or pair document ends in exit code 2,
    # 3 or 4 (or 0 where the mutation is harmless), never in a traceback
    rng = random.Random(20)
    codes = set()
    for spec in (RANK1_SPEC, ORDER2_SPEC):
        cert = str(tmp_path / "cert.json")
        pair = str(tmp_path / "pair.json")
        assert main(["build", write(tmp_path, "spec.json", spec),
                     "--out", cert]) == 0
        assert main(["pair", cert, "--out", pair]) == 0
        for doc, argv in ((spec, ["build"]),
                          (json.loads(Path(cert).read_text()), ["rank"]),
                          (json.loads(Path(pair).read_text()),
                           ["verify", "-K", "8"])):
            for _ in range(50):
                mutant = write(tmp_path, "mutant.json", _mutate(rng, doc))
                code = main(argv + [mutant])
                assert code in (0, 2, 3, 4), (argv, Path(mutant).read_text())
                codes.add(code)
    capsys.readouterr()
    assert {2, 3} <= codes


@pytest.mark.parametrize("kind, path, value, argv, fragment", [
    ("pair", ("provenance",), "1/0", ["verify", "-K", "8"],
     "malformed pair: 'str' object"),
    ("spec", ("at_zero", 0, "base_index"), 7, ["betaprime"],
     "base index 7 out of range"),
    ("spec", ("at_zero", 0, "b", 0), [], ["betaprime"], "empty row of b"),
    ("cert", ("P", "coeffs", 0, "num", 0), "1e999999999", ["rank"],
     "not a rational: '1e999999999' (no exponent notation)"),
    ("pair", ("provenance", "P", "coeffs", 1, "den"), "9" * 5000,
     ["verify", "-K", "8"], "operator too large: a list of 5000 entries"),
    # a coefficient past the int digit limit, shown by a prefix and its
    # length
    ("pair", ("L", "coeffs", 0, "num", 0), "9" * 5000, ["verify", "-K", "8"],
     "not a rational: '" + "9" * 32 + "'... (5000 characters)"),
    # a string where a list belongs was read character by character, and
    # a float was truncated: each built a spec other than the document's
    ("orbit-spec", ("beta", "beta"), "10", ["build"],
     "weights must be a list, got str"),
    ("orbit-spec", ("at_points", 0, "a"), "12", ["build"],
     "a must be a list, got str"),
    ("spec", ("at_zero", 0, "b"), "1", ["build"],
     "row of b must be a list, got str"),
    ("orbit-spec", ("beta", "N"), 2.7, ["build"],
     "N must be an integer, got float"),
    ("spec", ("at_zero", 0, "base_index"), 0.9, ["build"],
     "base_index must be an integer, got float"),
    # a certificate's depth was truncated or parsed from a string, and the
    # pair recorded a depth the document does not hold
    ("cert", ("depth",), 20.9, ["pair"],
     "depth must be an integer, got float"),
    ("cert", ("depth",), "20", ["pair"], "depth must be an integer, got str"),
    ("cert", ("depth",), True, ["pair"], "depth must be an integer, got bool"),
    # a long kind or form, and the sum of a long weight, shown by a prefix
    # and its length
    ("pair", ("kind",), "k" * 5000, ["verify"],
     "document kind '" + "k" * 32 + "'... (5000 characters) where "
     "'bispectral-pair' was expected"),
    ("pair", ("L", "form"), "f" * 5000, ["verify", "-K", "8"],
     "unknown form '" + "f" * 32 + "'... (5000 characters)"),
    ("spec", ("beta", "beta", 0), "9" * 4000, ["build"],
     "weights must sum to N(N-1)/2 = 0, got " + "9" * 32
     + "... (4000 characters)"),
], ids=["provenance-not-an-object", "base-index-out-of-range",
        "empty-row-of-b", "exponent-notation", "string-as-coefficients",
        "digit-limit-coefficient", "string-as-weights",
        "string-as-jet-vector", "string-as-b", "float-N", "float-base-index",
        "float-depth", "string-as-depth", "boolean-depth", "long-kind",
        "long-form", "long-weight-sum"])
def test_malformed_documents_exit_two(tmp_path, capsys, kind, path, value,
                                      argv, fragment):
    # a wrong-typed node, an index out of range, an exponent that would
    # build a billion-digit integer, a string read as a coefficient list and
    # a coefficient too long for int; each is refused by its own check,
    # whose message names it in one short line
    docs = _documents(tmp_path)
    doc = json.loads(Path(docs[kind]).read_text())
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    capsys.readouterr()
    assert main(argv + [write(tmp_path, "bad.json", doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err
    assert len(err) < 200


def test_importing_the_library_loads_no_front_end():
    # the command line and the example suites stay out of `import bispectral`
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys, bispectral; print(sorted(m for m in sys.modules "
            "if m in ('bispectral.cli', 'bispectral.examples')))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env={"PYTHONPATH": src})
    assert done.stdout == "[]\n"
