"""Repeatability check: two interleaved sets of benchmark runs per workload.

    python3 bench/repeat.py [--first-seed N]

Every workload of BENCHMARK.json runs five times in set A and as often in
set B, in the order A B A B ..., each run with its own seed and as long as
``run_seconds``, the length the bounds were set for. For every end-to-end metric
it prints each set's median and quartiles, the spread of all runs (distance
between the quartiles as a share of the median), and whether the two
medians agree within the metric's bound in BENCHMARK.json. The failed share
of items must be the same in both sets. A JSON copy of the report is
written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

RUNS_PER_SET = 5   # ten runs per workload, as many as the bounds were set from
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def _run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"run failed ({workload}, seed {seed}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _stats(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    all_ok = True
    seed = args.first_seed
    for workload in (w["name"] for w in spec["workloads"]):
        sets = {"A": [], "B": []}
        for _ in range(RUNS_PER_SET):
            for name in ("A", "B"):
                t0 = time.perf_counter()
                sets[name].append(_run(workload, seed, spec["run_seconds"]))
                print(f"{workload} set {name} seed {seed}: {time.perf_counter() - t0:.1f} s",
                      file=sys.stderr)
                seed += 1
        shares = {k: {r["failed"] / r["attempted"] for r in v} for k, v in sets.items()}
        same_share = len(shares["A"] | shares["B"]) == 1
        rows = {}
        print(f"\n{workload}: failed share per run {sorted(shares['A'] | shares['B'])}"
              f" -> {'same in every run' if same_share else 'DIFFERS'}")
        print(f"  {'metric':<14}{'A median [q1, q3]':>36}{'B median [q1, q3]':>36}"
              f"{'spread':>9}{'bound':>7}  agree")
        all_ok &= same_share
        for metric, bound in bounds.items():
            a = [r["metrics"][metric]["value"] for r in sets["A"]]
            b = [r["metrics"][metric]["value"] for r in sets["B"]]
            sa, sb, sall = _stats(a), _stats(b), _stats(a + b)
            spread = (sall[2] - sall[1]) / sall[0] if sall[0] else float("inf")
            agree = abs(sb[0] - sa[0]) <= bound * abs(sa[0])
            all_ok &= agree
            rows[metric] = {"A": a, "B": b, "spread": spread, "bound": bound, "agree": agree}
            fmt = lambda s: f"{s[0]:.5g} [{s[1]:.5g}, {s[2]:.5g}]"
            print(f"  {metric:<14}{fmt(sa):>36}{fmt(sb):>36}{spread:>9.3f}{bound:>7.2f}"
                  f"  {'yes' if agree else 'NO'}")
        report[workload] = {"same_failed_share": same_share, "metrics": rows}
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    path = os.path.join(ROOT, ".bench_out", f"repeat-{int(time.time())}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    print(f"\nreport written to {path}", file=sys.stderr)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
