"""Run the benchmark on several seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/steadiness.py --seeds 1-10 [--workload NAME ...] [--out FILE]

For every workload it runs ``perfbench/run.py`` once per seed, one run at a
time, with the ``run_seconds`` of BENCHMARK.json, and prints per end-to-end
metric the median of the runs and the spread: the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound, and the same spread of the unscaled
values (see README.md, *Host-speed scaling*). ``--out`` also writes every
run's result with its environment, unscaled values and host-speed factors as
JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def median_spread(values):
    """(median, (Q3 - Q1) / median) of one metric over the runs."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for wl in args.workload or names:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            res = subprocess.run(cmd, capture_output=True, text=True,
                                 cwd=ROOT, timeout=180)
            lines = res.stdout.strip().splitlines()
            if res.returncode or not lines:
                sys.stderr.write(res.stderr)
                return res.returncode or 1
            tagged = {line.split(" ", 2)[1]: json.loads(line.split(" ", 2)[2])
                      for line in lines
                      if line.startswith(("# environment ", "# unscaled ",
                                          "# host_speed "))}
            result = json.loads(lines[-1])
            runs.append({"seed": seed, **tagged, **result})
            print(wl, seed, result["correct"], result["attempted"],
                  result["failed"], flush=True)
        summary = {}
        for name, bound in bounds.items():
            med, spread = median_spread(
                [r["metrics"][name]["value"] for r in runs])
            raw_med, raw_spread = median_spread(
                [r["unscaled"][name] for r in runs])
            summary[name] = {"median": med, "spread": spread, "bound": bound,
                             "unit": runs[0]["metrics"][name]["unit"],
                             "unscaled_median": raw_med,
                             "unscaled_spread": raw_spread}
            print(f"  {name:14s} median {med:<12.6g} spread {spread:.4f}  "
                  f"bound {bound}  unscaled spread {raw_spread:.4f}",
                  flush=True)
        record["workloads"][wl] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
