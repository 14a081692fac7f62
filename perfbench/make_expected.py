"""Regenerate the benchmark's frozen pair documents and expected digests.

Run from the repository root:

    python3 perfbench/make_expected.py

It builds ``data/pairs/<name>.json`` for the stored-verify sources, then runs
the op of every draw each generator can emit and records the digest of its
certified objects in ``data/expected.json``. Every draw must pass its other
checks; a draw that fails stops the script, because the generators must only
emit inputs the paper's constraints allow. Only rerun it when the certified
objects are meant to change. The draws run in one worker process per CPU.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402


def _freeze(name):
    import bispectral as bs
    from bispectral import jsonio
    spec = jsonio.load_spec(W.STORED_SOURCES[name]["spec"])
    pair = bs.make_pair(bs.build_certificate(spec))
    jsonio.write(W.PAIRS / f"{name}.json", jsonio.pair_document(pair))
    return name


def _evaluate(draw):
    import bispectral as bs
    out = W.run_op(bs, draw, W.Steps(time.perf_counter))
    failures = W.check_op(draw, out, {})
    failures = [f for f in failures if not f.startswith("digest")]
    return W.draw_key(draw), W.output_digest(draw, out), failures, draw["label"]


def main():
    W.PAIRS.mkdir(parents=True, exist_ok=True)
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=os.cpu_count(),
                             mp_context=ctx) as pool:
        for name in pool.map(_freeze, W.STORED_SOURCES):
            print("froze", name, flush=True)
        draws = [d for wl in W.WORKLOADS for d in W.support(wl)]
        digests, bad = {}, []
        for key, dig, failures, label in pool.map(_evaluate, draws):
            digests[key] = dig
            if failures:
                bad.append((label, failures))
                print("FAILED", label, failures, flush=True)
    if bad:
        return 1
    W.EXPECTED.write_text(json.dumps(
        {"about": "digests of the certified objects of every generator draw; "
                  "written by perfbench/make_expected.py",
         "digests": dict(sorted(digests.items()))}, indent=1) + "\n")
    print(f"wrote {len(digests)} digests", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
