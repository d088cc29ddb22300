"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. Set-up is timed first: several fresh interpreters each import the
package (their median wall time stands for interpreter start plus import),
then the inputs of round 0 are made and numpy.linalg is called once. Then
whole rounds of the workload run, each item timed on its own, until the next
round would end past ``--seconds``. Outputs are checked once timing is done.

With ``--trace 0`` the end-to-end metrics are printed; their times are in
units of a reference kernel timed between the items (see ``Ruler``). With ``--trace 1``
rounds run with every layer wrapped (see ``spans.py``) between two untraced
runs of round 0, and the per-layer metrics are printed; the spans are
written as JSON lines under ``.bench_out/``. The last stdout line is always
the result object; progress and errors go to stderr. Without ``src/di2pc``
the command exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread per program process, set before numpy loads, so
# that on a small machine the benchmark measures the program and not the
# scheduler. Children inherit the environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

IMPORT_REPEATS = 5
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


@dataclass
class Context:
    root: str
    bench_dir: str
    out_dir: str
    env: dict
    tracing: bool = False


@dataclass
class Record:
    round: int
    item: object
    wall: float
    cpu: float
    at: float                  # perf_counter at the item's midpoint
    out: object = None
    error: str | None = None


def _cpu_now() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


# The reference kernel: eight symmetric 48 x 48 eigenproblems, the kind of
# dense linear algebra the solver does, on a fixed matrix.
_KERNEL_SRC = """
import numpy as np
a = np.random.default_rng(0).standard_normal((48, 48))
a = a + a.T
def kernel(reps=8):
    for _ in range(reps):
        np.linalg.eigh(a)
"""


class Ruler:
    """A reference kernel, timed between items, as the unit of time.

    On a shared host the same work runs faster or slower by tens of percent
    from one minute to the next, and from one process to the next, with the
    other tenants' load. The kernel is timed at most every ``EVERY_S``
    seconds between items, and an item's time is divided by the median of
    the ``NEAREST`` kernel times taken closest to it. The quotient is the
    item's time in kernels (unit ``ref``): the drift slows item and kernel
    alike and cancels. A program change does not touch the kernel.

    With ``env`` given, every sample is a fresh interpreter that imports
    numpy and runs the kernel once, timed from outside like the items of a
    workload that runs the program as child processes.
    """

    EVERY_S = 0.1
    NEAREST = 5

    def __init__(self, env: dict | None = None):
        self._env = env
        if env is None:
            namespace: dict = {}
            exec(_KERNEL_SRC, namespace)
            self._kernel = namespace["kernel"]
        self.samples: list[tuple[float, float, float]] = []   # (time, wall, cpu)
        self._last = -float("inf")

    def _run_kernel(self) -> None:
        if self._env is None:
            self._kernel()
        else:
            subprocess.run([sys.executable, "-c", _KERNEL_SRC + "kernel()"], env=self._env,
                           cwd=ROOT, check=True, capture_output=True, timeout=60)

    def sample(self, force: bool = False) -> None:
        if not force and time.perf_counter() - self._last < self.EVERY_S:
            return
        if self._env is None:
            self._kernel(1)  # untimed: the item before may have evicted it from cache
        c0, t0 = _cpu_now(), time.perf_counter()
        self._run_kernel()
        t1, c1 = time.perf_counter(), _cpu_now()
        self.samples.append(((t0 + t1) / 2, t1 - t0, c1 - c0))
        self._last = t1

    def unit(self, at: float) -> tuple[float, float]:
        """(wall, cpu) seconds of one kernel near time ``at``: each the median
        of the NEAREST samples closest in time."""
        near = sorted(self.samples, key=lambda s: abs(s[0] - at))[:self.NEAREST]
        return (statistics.median(s[1] for s in near),
                statistics.median(s[2] for s in near))


def _fresh_import_seconds(env: dict) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import di2pc"], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"bench: `import di2pc` failed:\n{proc.stderr.strip()}")
    return elapsed


def _run_round(wl, r: int, records: list, tracer=None, ruler=None) -> float:
    """Run every item of round r; return the round's wall time."""
    if tracer is not None:
        tracer.paused = True      # making inputs is not the program's work
    items = wl.round_items(r)
    if tracer is not None:
        tracer.paused = False
    clock = time.perf_counter
    start = clock()
    for item in items:
        if ruler is not None:
            ruler.sample()
        c0, t0 = _cpu_now(), clock()
        try:
            out, err = item.call(), None
        except Exception as exc:  # a failing item is counted, the run goes on
            out, err = None, f"{type(exc).__name__}: {exc}"
        t1, c1 = clock(), _cpu_now()
        records.append(Record(r, item, t1 - t0, c1 - c0, (t0 + t1) / 2, out, err))
    return clock() - start


def _run_timed(wl, seconds: float, records: list, start: float | None = None,
               tracer=None, ruler=None) -> int:
    """Whole rounds until the next one would end past ``seconds``; returns count."""
    start = time.perf_counter() if start is None else start
    r = 0
    while True:
        took = _run_round(wl, r, records, tracer, ruler)
        r += 1
        if time.perf_counter() - start + took > seconds:
            return r


def _check(wl, records: list) -> tuple[int, bool, dict]:
    failed = 0
    correct = True
    ratios: dict[int, list] = {}
    for rec in records:
        if rec.error is not None:
            failed += 1
            print(f"bench: {rec.item.label} raised {rec.error}", file=sys.stderr)
            continue
        try:
            ok, ratio = wl.check(rec.item, rec.out)
        except Exception as exc:  # a check that cannot read the output fails it
            ok, ratio = False, None
            print(f"bench: checking {rec.item.label}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
        if not ok:
            failed += 1
            correct = False
            print(f"bench: {rec.item.label} failed its check", file=sys.stderr)
        elif ratio is not None:
            ratios.setdefault(rec.round, []).append((rec.item, ratio))
    return failed, correct, ratios


def _peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "di2pc", "__init__.py")):
        print(f"bench: no program sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)

    # -- set-up ---------------------------------------------------------------
    imports = [_fresh_import_seconds(env) for _ in range(IMPORT_REPEATS)]
    import_s = statistics.median(imports)
    print("bench: fresh `import di2pc` wall s: " + " ".join(f"{t:.3f}" for t in imports),
          file=sys.stderr)
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import di2pc  # noqa: F401  (the package's own import, numpy and scipy included)
    import_span = time.perf_counter() - t0

    import numpy as np
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    ctx = Context(ROOT, BENCH_DIR, out_dir, env)
    t0 = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload](args.seed, ctx)
    wl.round_items(0)  # round 0's inputs; made again, identically, when it runs
    np.linalg.eigh(np.eye(4) + 0.5)
    setup_s = import_s + time.perf_counter() - t0

    # -- timed rounds ---------------------------------------------------------
    records: list[Record] = []
    if not args.trace:
        ruler = Ruler(None if wl.in_process else env)
        ruler.sample(force=True)
        rounds = _run_timed(wl, args.seconds, records, ruler=ruler)
        ruler.sample(force=True)
        rss = _peak_rss_mb(wl)
        failed, correct, ratios = _check(wl, records)
        units = [ruler.unit(r.at) for r in records]
        per_round = [sum(r.cpu for r in records if r.round == k) for k in range(rounds)]
        print("bench: CPU s per round: " + " ".join(f"{c:.3f}" for c in per_round), file=sys.stderr)
        kernel_ms = sorted(s[1] * 1e3 for s in ruler.samples)
        print(f"bench: {len(kernel_ms)} kernel samples, wall ms min {kernel_ms[0]:.3f} median "
              f"{statistics.median(kernel_ms):.3f} max {kernel_ms[-1]:.3f}; item wall median "
              f"{statistics.median(r.wall for r in records) * 1e3:.4g} ms", file=sys.stderr)
        round_ratios = [x for x in map(wl.round_ratio, ratios.values()) if x is not None]
        metrics = {
            "setup_s": setup_s,
            "cpu_ref": sum(r.cpu / u[1] for r, u in zip(records, units)) / rounds,
            "item_p50_ref": statistics.median(r.wall / u[0] for r, u in zip(records, units)),
            "peak_rss_mb": rss,
            "attack_ratio": statistics.median(round_ratios) if round_ratios else 0.0,
        }
    else:
        import spans
        # Round 0 runs untraced first (it also warms the process up), then
        # traced for the rest of the time, then untraced once more: the last
        # run is the warm reference that trace.overhead_s compares against.
        start = time.perf_counter()
        _run_round(wl, 0, records)
        untraced = list(records)
        tracer = spans.Tracer()
        ctx.tracing = True
        tracer.install()
        try:
            first = len(records)
            traced_rounds = _run_timed(wl, args.seconds, records, start, tracer)
            traced = records[first:]
        finally:
            tracer.uninstall()
            ctx.tracing = False
        first = len(records)
        _run_round(wl, 0, records)
        reference = records[first:]
        untraced += reference
        failed, correct, _ = _check(wl, records)
        processes = [tracer.spans]
        for path in getattr(wl, "child_spans", []):
            processes.append(spans.read_spans(path))
            os.remove(path)
        trace_path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl")
        with open(trace_path, "w") as fh:
            for proc, proc_spans in enumerate(processes):
                spans.write_spans(fh, proc_spans, proc)
        print(f"bench: spans written to {trace_path}", file=sys.stderr)
        figures = spans.layer_metrics(processes, traced_rounds)
        cpu_untraced = sum(r.cpu for r in reference)
        cpu_traced = sum(r.cpu for r in traced if r.round == 0)
        metrics = {"import.self_s": import_span, **figures}
        for sub in workloads.CliSession.SUBCOMMANDS:
            walls = [r.wall for r in untraced if r.item.label == f"cli.{sub}"]
            metrics[f"cli.{sub}.wall_ms"] = statistics.median(walls) * 1e3 if walls else 0.0
        metrics["trace.overhead_s"] = cpu_traced - cpu_untraced

    by_label: dict[str, list] = {}
    for rec in records:
        label, spec = rec.item.label, rec.item.spec
        if "cfg" in spec:
            label = f"{label} {spec['cfg']}"
        elif isinstance(spec.get("n"), int) and not label.startswith(("cli.", "identity")):
            label = f"{label} n={spec['n']}"
        by_label.setdefault(label, []).append(rec.wall * 1e3)
    print("bench: median item wall ms by kind: " + ", ".join(
        f"{k} {statistics.median(v):.4g} (x{len(v)})" for k, v in by_label.items()),
        file=sys.stderr)
    for path in os.listdir(out_dir):
        if path.startswith(f"device-{os.getpid()}-"):
            os.remove(os.path.join(out_dir, path))
    # BENCHMARK.json names the metrics of each mode and their units.
    listed = benchmark["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in listed},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
