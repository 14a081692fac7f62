"""The benchmark's own tests: generators, output checks and tracer hygiene.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bispectral as bs  # noqa: E402
import bispectral.cli  # noqa: E402,F401  (cli imports certify by name)
import run  # noqa: E402
import tracer as T  # noqa: E402
import workloads as W  # noqa: E402


def _specs(workload, seed, count=4):
    stream = W.rounds(workload, seed)
    return [W.canonical(d["spec"] if "spec" in d else [d["doc"], d["K"]])
            for _ in range(count) for d in next(stream)]


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_same_seed_same_documents_other_seed_other_documents(workload):
    assert _specs(workload, 7) == _specs(workload, 7)
    assert _specs(workload, 7) != _specs(workload, 8)


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_draws_follow_the_stated_constraints(workload):
    for seed in range(20):
        for draw in next(W.rounds(workload, seed)):
            assert W.draw_key(draw) in W.load_expected()
            if "spec" not in draw:
                assert W.STORED_DEPTHS[0] <= draw["K"] <= W.STORED_DEPTHS[1]
                continue
            beta = [F(b) for b in draw["spec"]["beta"]["beta"]]
            N = len(beta)
            assert sum(beta) == F(N * (N - 1), 2)
            powers = [F(p["lambda"]) ** N for p in draw["spec"]["at_points"]]
            assert len(set(powers)) == len(powers) and all(powers)
            if "gammas" in draw:
                assert len(set(draw["gammas"])) == len(draw["gammas"])


def test_expected_file_covers_every_possible_draw():
    expected = W.load_expected()
    keys = {W.draw_key(d) for wl in W.WORKLOADS for d in W.support(wl)}
    assert keys == set(expected)


def test_generator_reproduces_the_dg_even_golden_spec():
    bi = bs.BesselIndex.parse("5/2,-3/2")
    t = {(0, 0): F(1), (0, 1): F(2), (1, 0): F(1), (1, 1): F(-1)}
    rows = bispectral.cli._dg_even_rows(bi, 2, t)
    gammas = bi.power(2)
    spec = bs.monomial_kernel(
        bi, [[(gammas[i], c) for i, c in enumerate(r) if c] for r in rows])
    draw = W.STORED_SOURCES["dg-even"]
    assert bs.jsonio.load_spec(draw["spec"]) == spec
    assert [F(g) for g in draw["gammas"]] == list(gammas)


@pytest.mark.parametrize("order, index, caught_by", [
    (-1, -1, "VerificationError"),   # the leading coefficient of Lambda
    (0, 0, "digest"),                # a pole term below the K=16 window
])
def test_tampered_lambda_fails_stored_verify(tmp_path, monkeypatch, order,
                                             index, caught_by):
    doc = json.loads((W.PAIRS / "dg-even.json").read_text())
    num = doc["Lambda"]["coeffs"][order]["num"]
    num[index] = str(F(num[index]) + 1)
    (tmp_path / "dg-even.json").write_text(json.dumps(doc))
    monkeypatch.setattr(W, "PAIRS", tmp_path)
    draw = W.stored_draw("dg-even", 16)
    _, failures = run.run_one(bs, draw, W.load_expected())
    assert len(failures) == 1 and caught_by in failures[0]


def test_untampered_stored_pair_passes():
    draw = W.stored_draw("dg-even", 16)
    assert run.run_one(bs, draw, W.load_expected())[1] == []


def test_perturbed_closed_form_fails_the_agreement_check():
    draw = W.banded_draw(2, 1, ["1", "2"])
    out = W.run_op(bs, draw, W.Steps(lambda: 0.0))
    expected = W.load_expected()
    assert W.check_op(draw, out, expected) == []
    closed = dict(out["closed"])
    closed["Q_b"] = closed["Q_b"].scale(2)
    out["closed"] = closed
    failures = W.check_op(draw, out, expected)
    assert failures == ["closed form disagrees on ['Q_b']"]


def test_tracer_patches_every_binding_and_restores_them():
    certify = bs.darboux.certify
    bessel_wave = bs.bessel.bessel_wave
    cyc_mul = bs.Cyclotomic.__dict__["__mul__"]
    gcd = bs.Poly.__dict__["gcd"]
    tr = T.Tracer()
    tr.install()
    try:
        for mod in (bs, bs.darboux, bs.involution, bs.cli):
            assert getattr(mod.certify, T.MARK) == "darboux.certify"
        for mod in (bs.bessel, bs.darboux, bs.involution):
            assert getattr(mod.bessel_wave, T.MARK) == "bessel.bessel_wave"
        assert bs.Cyclotomic.__rmul__ is bs.Cyclotomic.__mul__
        assert getattr(bs.Cyclotomic.__rmul__, T.MARK)
        assert getattr(bs.Poly.__dict__["gcd"].__func__, T.MARK) == "poly.gcd"
        assert T.installed_wrappers()
    finally:
        tr.uninstall()
    assert T.installed_wrappers() == []
    assert bs.cli.certify is certify and bs.involution.certify is certify
    assert bs.involution.bessel_wave is bessel_wave
    assert bs.Cyclotomic.__dict__["__rmul__"] is cyc_mul
    assert bs.Poly.__dict__["gcd"] is gcd


def _traced_counts(draw):
    tr = T.Tracer()
    tr.install()
    try:
        out = W.run_op(bs, draw, W.Steps(lambda: 0.0))
    finally:
        tr.uninstall()
    return tr, out


def test_traced_counts_repeat_and_stay_out_of_payloads():
    draw = W.point_draw((F(2, 3), F(1, 3)), 1, 1)
    first, out = _traced_counts(draw)
    second, _ = _traced_counts(draw)
    calls = {k: v[0] for k, v in first.stats.items()}
    assert calls == {k: v[0] for k, v in second.stats.items()}
    assert first.counts == second.counts
    assert calls["darboux.certify"] == 3
    assert first.counts["poly.gcd.calls_general"] > 0
    assert first.spans and first.top_s > 0
    payload = W.canonical(out["pair"].to_json())
    assert "perfbench" not in payload and "spans" not in payload
    assert W.check_op(draw, out, W.load_expected()) == []


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "banded-monomial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert res.returncode != 0
    assert res.stdout == ""
    assert "no library source" in res.stderr


def test_benchmark_json_lists_the_metrics_run_reports():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(
        run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(W.WORKLOADS)
