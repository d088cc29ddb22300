"""Command-line interface.

One binary, subcommand style, machine-readable output. Every subcommand is a
thin adapter over the library; numbers printed here equal direct library
calls exactly. Each subcommand imports the modules it calls when it runs, so
a process loads and compiles only those, and ``--help`` loads no numpy.

Exit codes: 0 success, 2 usage or input error, 3 verification failure
(a violated inequality, or an attack value whose certificate did not
converge, in ``attack`` or inside ``verify key-lemma``), 4 dimension-cap
error (also an input past a size cap, such as ``simulate --n`` or a device's
dimensions). Errors go to stderr as one-line JSON
{"error": kind, "detail": ...}.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
from typing import TYPE_CHECKING

from .errors import CapExceededError, Di2pcError, DimensionCapError

if TYPE_CHECKING:
    from .protocols import DeviceModel, WseTranscript

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_VERIFY = 3
_EXIT_CAP = 4

# A `simulate wse` transcript is about 8.4 MB of JSON per 10^6 rounds, drawn
# in blocks and written out piece by piece. On a 2-core x86-64 Linux machine
# one run of 10^6 rounds peaked at 56 MB RSS in 0.7 s wall, and one at this
# cap at 130 MB in 2.3 s (84 MB of JSON); building the whole JSON object
# first had peaked at 96 and 485 MB.
_SIMULATE_CAP_ROUNDS = 10 ** 7

# Certificate gap `attack` asks of the discrimination solver.
_ATTACK_TOL = 1e-8


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors match the JSON error contract."""

    def error(self, message):
        print(json.dumps({"error": "usage", "detail": message}), file=sys.stderr)
        raise SystemExit(_EXIT_USAGE)


def _emit(payload, args, csv_rows=None, csv_header=None) -> None:
    """Write JSON (stable key order) or CSV (fixed column order) to --out."""
    if getattr(args, "format", "json") == "csv" and csv_rows is not None:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(csv_header)
        for row in csv_rows:
            writer.writerow(row)
        text = buf.getvalue()
    else:
        text = json.dumps(payload, sort_keys=True) + "\n"
    with _output(args) as fh:
        fh.write(text)


@contextlib.contextmanager
def _output(args):
    """The stream of --out: the named file, or stdout for none or "-"."""
    out = getattr(args, "out", None)
    if out and out != "-":
        with open(out, "w") as fh:
            yield fh
    else:
        yield sys.stdout


def _write_wse(tr: WseTranscript, fh) -> None:
    """Write the bytes of ``json.dumps(tr.to_obj(), sort_keys=True)`` and a
    newline without building either: bit strings and the index set go out
    block by block, in the keys' sorted order."""
    from .protocols import _BLOCK, _bits

    def bits(a):
        for start in range(0, a.size, _BLOCK):
            fh.write(_bits(a[start:start + _BLOCK]))

    fh.write('{"index_set": [')
    for start in range(0, tr.index_set.size, _BLOCK):
        fh.write((", " if start else "")
                 + ", ".join(map(str, tr.index_set[start:start + _BLOCK].tolist())))
    fh.write(f'], "n": {tr.n}, "substring": "')
    bits(tr.substring)
    for key in ("theta", "theta_prime", "x", "x_prime"):
        fh.write(f'", "{key}": "')
        bits(getattr(tr, key))
    fh.write('"')
    if tr.zeta_conservative is not None:
        fh.write(f', "zeta_conservative": {json.dumps(tr.zeta_conservative)}')
    fh.write("}\n")


def _load_device(path: str) -> DeviceModel:
    from .protocols import DeviceModel
    try:
        with open(path) as fh:
            return DeviceModel.from_obj(json.load(fh))
    except FileNotFoundError as exc:
        raise _UsageError(f"device file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"device file is not valid JSON: {exc}") from exc


def _zeta_arg(args) -> float:
    if (args.S is None) == (args.zeta is None):
        raise _UsageError("provide exactly one of --S or --zeta")
    if args.zeta is not None:
        if not 0.0 <= args.zeta <= 1.0:
            raise _UsageError(f"--zeta must lie in [0, 1], got {args.zeta}")
        return args.zeta
    from .chsh import TSIRELSON, zeta_from_violation
    if args.S > TSIRELSON + 1e-9:
        raise _UsageError(f"--S exceeds the quantum maximum {TSIRELSON:.6f}")
    return zeta_from_violation(args.S)


def _cmd_bound(args) -> int:
    zeta = _zeta_arg(args)
    from .bounds import bound_report
    report = bound_report(n=args.n, d=args.d, zeta=zeta, gamma=args.gamma,
                          kind=args.kind)
    d = report.to_dict()
    _emit(d, args, csv_rows=[[d[k] for k in sorted(d)]], csv_header=sorted(d))
    return _EXIT_OK


def _cmd_region(args) -> int:
    if args.s_steps < 2 or args.gamma_steps < 2:
        raise _UsageError("--s-steps and --gamma-steps must be at least 2")
    from .bounds import security_region
    from .chsh import TSIRELSON
    s_grid = [2.0 + (TSIRELSON - 2.0) * i / (args.s_steps - 1)
              for i in range(args.s_steps)]
    g_grid = [0.5 * j / (args.gamma_steps - 1) for j in range(args.gamma_steps)]
    region = security_region(s_grid, g_grid)
    rows = [[r["S"], r["gamma"], r["zeta"], r["secure"], r["gamma_star"]]
            for r in region.rows()]
    payload = {"rows": [dict(zip(("S", "gamma", "zeta", "secure", "gamma_star"), r))
                        for r in rows]}
    _emit(payload, args, csv_rows=rows,
          csv_header=["S", "gamma", "zeta", "secure", "gamma_star"])
    return _EXIT_OK


def _cmd_min_n(args) -> int:
    zeta = _zeta_arg(args)
    from .bounds import INSECURE, min_rounds
    result = min_rounds(args.d, zeta, args.gamma, args.eps)
    if result == INSECURE:
        _emit({"insecure": True}, args)
    else:
        _emit({"n": result}, args)
    return _EXIT_OK


def _cmd_curve(args) -> int:
    if args.s_steps < 2:
        raise _UsageError("--s-steps must be at least 2")
    from .bounds import INSECURE, min_rounds
    from .chsh import TSIRELSON, zeta_from_violation
    rows = []
    for i in range(args.s_steps):
        s = 2.0 + (TSIRELSON - 2.0) * i / (args.s_steps - 1)
        zeta = zeta_from_violation(min(s, TSIRELSON))
        try:
            result = min_rounds(args.d, zeta, args.gamma, args.eps)
        except CapExceededError:
            result = ""
        secure = result != INSECURE and result != ""
        rows.append([s, zeta, secure, result if secure else ""])
    payload = {"rows": [dict(zip(("S", "zeta", "secure", "n"), r)) for r in rows]}
    _emit(payload, args, csv_rows=rows, csv_header=["S", "zeta", "secure", "n"])
    return _EXIT_OK


def _cmd_chsh(args) -> int:
    device = _load_device(args.device)
    from .chsh import estimate_chsh
    est = estimate_chsh(device, args.rounds, args.delta, seed=args.seed)
    _emit({"s_hat": est.s_hat, "half_width": est.half_width,
           "rounds_per_setting": est.rounds_per_setting,
           "confidence_delta": est.confidence_delta,
           "zeta_conservative": est.zeta_conservative}, args)
    return _EXIT_OK


def _cmd_jordan(args) -> int:
    device = _load_device(args.device)
    from .jordan import block_probabilities, decompose_pair, epsilon_plus_blocks
    dec = decompose_pair(device.alice_meas_0, device.alice_meas_1)
    probs = block_probabilities(dec, device.sigma_a)
    eps = epsilon_plus_blocks(dec, device.sigma_a)
    _emit({"blocks": [{"dim": b.block_dim, "beta": b.angle_beta, "p": float(p)}
                      for b, p in zip(dec.blocks, probs)],
           "epsilon_plus": eps}, args)
    return _EXIT_OK


def _cmd_simulate(args) -> int:
    if args.n > _SIMULATE_CAP_ROUNDS:
        raise DimensionCapError(
            f"simulate is capped at n <= {_SIMULATE_CAP_ROUNDS}, got {args.n}")
    device = _load_device(args.device)
    from .protocols import PvConfig, run_pv, run_wse
    test_rounds = args.test_rounds or None
    if args.what == "wse":
        if args.runs < 1:
            raise _UsageError(f"--runs must be at least 1, got {args.runs}")
        if args.runs > 1:
            if test_rounds:
                raise _UsageError("--test-rounds applies to a single run, "
                                  "not to --runs above 1")
            from .matcore import child_seed
            matches = 0
            sizes = 0
            for r in range(args.runs):
                tr = run_wse(device, args.n, seed=child_seed(args.seed, r))
                matches += int((tr.substring == tr.x[tr.index_set]).all())
                sizes += int(tr.index_set.size)
            _emit({"runs": args.runs, "n": args.n,
                   "match_rate": matches / args.runs,
                   "mean_index_fraction": sizes / (args.runs * args.n)}, args)
        else:
            tr = run_wse(device, args.n, seed=args.seed, test_rounds=test_rounds)
            with _output(args) as fh:
                _write_wse(tr, fh)
    else:
        cfg = PvConfig(pos_v1=args.v1, pos_v2=args.v2, pos_claimed=args.claim,
                       n=args.n, gamma=args.gamma, delta_t=args.dt)
        _emit(run_pv(device, cfg, seed=args.seed,
                     test_rounds=test_rounds).to_obj(), args)
    return _EXIT_OK


def _cmd_attack(args) -> int:
    device = _load_device(args.device)
    from .adversary import (StoreSubset, breidbart, exact_win_probability,
                            strategy_from_obj)
    if args.strategy == "breidbart":
        strategy = breidbart(args.n)
    elif args.strategy == "store-subset":
        keep = tuple(range(min(args.n, int(math.log2(max(args.d, 1))) or 0)))
        if not keep:
            raise _UsageError("--d leaves no room to store a subset")
        strategy = StoreSubset(keep=keep)
    elif args.strategy.startswith("file:"):
        path = args.strategy[5:]
        try:
            with open(path) as fh:
                strategy = strategy_from_obj(json.load(fh))
        except FileNotFoundError as exc:
            raise _UsageError(f"strategy file not found: {path}") from exc
    else:
        raise _UsageError(f"unknown strategy {args.strategy!r}")
    res = exact_win_probability(device, strategy, args.n, args.d, args.gamma,
                                tol=_ATTACK_TOL)
    _emit({"win_prob": res.win_prob, "per_theta": res.per_theta,
           "certified_gap": res.certified_gap, "converged": res.converged}, args)
    return _EXIT_OK if res.converged else _EXIT_VERIFY


# The flags each lemma reads besides --trials and --seed; `all` reads them all.
_VERIFY_READS = {"key-lemma": ("n", "d", "gamma"), "norm-lemma": (),
                 "overlap-lemma": ("n", "d")}


def _cmd_verify(args) -> int:
    reports = []
    which = args.lemma
    if which != "all":
        unread = [f"--{k}" for k in ("n", "d", "gamma")
                  if k not in _VERIFY_READS[which] and getattr(args, k) is not None]
        if unread:
            raise _UsageError(f"{which} does not read {', '.join(unread)}")
    from .adversary import verify_key_lemma, verify_norm_lemma, verify_overlap_lemma
    if which in ("key-lemma", "all"):
        n = args.n if args.n is not None else 1
        d = args.d if args.d is not None else 1
        gamma = args.gamma if args.gamma is not None else 0.0
        reports.append(verify_key_lemma(args.trials, n=n, d=d,
                                        gamma=gamma, seed=args.seed))
    if which in ("norm-lemma", "all"):
        reports.append(verify_norm_lemma(args.trials, seed=args.seed))
    if which in ("overlap-lemma", "all"):
        n = args.n if args.n is not None else 2
        d = args.d if args.d is not None else 3
        reports.append(verify_overlap_lemma(args.trials, n=n, d=d,
                                            seed=args.seed))
    payload = {"reports": [r.to_dict() for r in reports],
               "passed": all(r.passed for r in reports)}
    _emit(payload, args)
    certified = all(r.details.get("converged", True) for r in reports)
    return _EXIT_OK if payload["passed"] and certified else _EXIT_VERIFY


def _add_global_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    """Global flags, attachable before or after the subcommand.

    The subcommand copies use SUPPRESS defaults so a post-subcommand flag
    overrides a pre-subcommand one without clobbering it otherwise.
    """
    d = argparse.SUPPRESS if suppress else None
    # argparse converts a string default with the flag's type, so a bad
    # DI2PC_SEED is a usage error like a bad --seed
    parser.add_argument("--seed", type=int,
                        default=d if suppress else os.environ.get("DI2PC_SEED", "0"),
                        help="master seed (env DI2PC_SEED overrides the default)")
    parser.add_argument("--format", choices=("json", "csv"),
                        default=d if suppress else "json")
    parser.add_argument("--out", default=d if suppress else None,
                        help="output path (default stdout)")
    parser.add_argument("--config", default=d if suppress else None,
                        help="JSON file whose keys mirror the flags")


def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    """Construct the CLI parser; ``defaults`` (from --config) override flag
    defaults on the top level and on every subcommand. A key that names no
    flag is a usage error."""
    parser = _Parser(
        prog="di2pc",
        description="CHSH-certified bounded-storage security bounds, "
                    "simulators and verifiers")
    _add_global_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)
    all_parsers = [parser]

    def add_parser(name, subparsers=sub, **kwargs):
        p = subparsers.add_parser(name, **kwargs)
        _add_global_flags(p, suppress=True)
        all_parsers.append(p)
        return p

    p = add_parser("bound", help="evaluate the security bound at one point")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--S", type=float, default=None)
    p.add_argument("--zeta", type=float, default=None)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--kind", choices=("guessing", "wse_ne", "pv"),
                   default="guessing")
    p.set_defaults(func=_cmd_bound)

    p = add_parser("region", help="secure-region table over (S, gamma)")
    p.add_argument("--s-steps", type=int, default=50)
    p.add_argument("--gamma-steps", type=int, default=50)
    p.set_defaults(func=_cmd_region)

    p = add_parser("min-n", help="smallest n reaching a target bound")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--S", type=float, default=None)
    p.add_argument("--zeta", type=float, default=None)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(func=_cmd_min_n)

    p = add_parser("curve", help="rounds-vs-violation curve data")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--s-steps", type=int, default=50)
    p.set_defaults(func=_cmd_curve)

    p = add_parser("chsh", help="sampled CHSH estimate for a device")
    p.add_argument("--device", required=True)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--delta", type=float, default=0.01)
    p.set_defaults(func=_cmd_chsh)

    p = add_parser("jordan", help="block decomposition of a device's pair")
    p.add_argument("--device", required=True)
    p.set_defaults(func=_cmd_jordan)

    p = add_parser("simulate", help="honest protocol runs")
    psub = p.add_subparsers(dest="what", required=True)
    w = add_parser("wse", psub)
    w.add_argument("--device", required=True)
    w.add_argument("--n", type=int, required=True)
    w.add_argument("--runs", type=int, default=1)
    w.add_argument("--test-rounds", type=int, default=0,
                   help="CHSH testing rounds before the run (0 skips)")
    w.set_defaults(func=_cmd_simulate)
    v = add_parser("pv", psub)
    v.add_argument("--device", required=True)
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--gamma", type=float, default=0.0)
    v.add_argument("--v1", type=float, default=0.0)
    v.add_argument("--v2", type=float, default=1.0)
    v.add_argument("--claim", type=float, default=0.5)
    v.add_argument("--dt", type=float, default=1.0)
    v.add_argument("--test-rounds", type=int, default=0,
                   help="CHSH testing rounds before the run (0 skips)")
    v.set_defaults(func=_cmd_simulate)

    p = add_parser("attack", help="exact value of a concrete attack")
    p.add_argument("--device", required=True)
    p.add_argument("--strategy", required=True,
                   help="breidbart | store-subset | file:STRAT.json")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--gamma", type=float, default=0.0)
    p.set_defaults(func=_cmd_attack)

    p = add_parser("verify", help="fuzzed inequality verification suites")
    p.add_argument("lemma", choices=("key-lemma", "norm-lemma",
                                     "overlap-lemma", "all"))
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.set_defaults(func=_cmd_verify)

    # Applied last so argparse patches the already-registered action defaults.
    if defaults:
        flags = {a.dest: a for sp in all_parsers for a in sp._actions
                 if a.option_strings and a.dest != "help"}
        unknown = sorted(set(defaults) - set(flags))
        if unknown:
            raise _UsageError(f"unknown --config keys: {', '.join(unknown)}")
        defaults = {k: _config_value(flags[k], v) for k, v in defaults.items()}
        for sp in all_parsers:
            sp.set_defaults(**defaults)
    return parser


def _config_value(action: argparse.Action, value):
    """A --config value, converted and checked as the flag's value on the
    command line would be: a string goes through the flag's ``type``, a
    number only into a numeric type that holds it exactly, and the result
    must be one of the flag's ``choices``. Anything else is a usage error."""
    flag = action.option_strings[-1]
    convert = action.type or str
    want = {int: "an integer", float: "a number"}.get(convert, "a string")
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    try:
        if not (isinstance(value, str) or (numeric and convert in (int, float))):
            kind = {bool: "boolean", type(None): "null", list: "array",
                    dict: "object"}.get(type(value), "number")
            raise TypeError(f"got a JSON {kind}")
        converted = convert(value)
        if numeric and converted != value:
            raise ValueError("got a number it does not hold exactly")
    except (TypeError, ValueError, OverflowError) as exc:
        raise _UsageError(f"bad --config value: {flag} takes {want}, {exc}") from exc
    if action.choices is not None and converted not in action.choices:
        raise _UsageError(f"bad --config value: {flag} takes one of "
                          f"{', '.join(map(str, action.choices))}")
    return converted


def _load_config(path: str) -> dict:
    """Flag defaults from a JSON object whose keys are flag names."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:       # ValueError covers JSONDecodeError
        raise _UsageError(f"bad --config: {exc}") from exc
    if not isinstance(raw, dict):
        raise _UsageError("bad --config: expected a JSON object")
    return {k.replace("-", "_"): v for k, v in raw.items()}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
        if args.config is not None:
            # --config supplies defaults that explicit flags still override.
            args = build_parser(_load_config(args.config)).parse_args(argv)
        if args.seed < 0:
            # numpy seeds its generators from non-negative integers only
            raise _UsageError("the seed (--seed or DI2PC_SEED) must be a "
                              f"non-negative integer, got {args.seed}")
        return args.func(args)
    except _UsageError as exc:
        print(json.dumps({"error": "usage", "detail": str(exc)}), file=sys.stderr)
        return _EXIT_USAGE
    except DimensionCapError as exc:
        print(json.dumps({"error": "dimension-cap", "detail": str(exc)}),
              file=sys.stderr)
        return _EXIT_CAP
    except Di2pcError as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
              file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
