"""The benchmark's four workloads.

Each workload turns (seed, round) into the items of one round, checks an
item's output against ``oracle``, and gives the attack/bound ratio of a
round. Inputs depend only on the seed and the round index. Program functions
are looked up on their module at call time, so a traced run reaches them
through the tracer's wrappers.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

import oracle

_INF_BOUND_TOL = 1e-6      # a win above B' + 1e-6 is a violation (as the verifiers)
_REL_TOL = 1e-9            # program float vs mpmath
_IDENTITY_TOL = 1e-12      # closed form vs binomial sum (criterion 2's budget)
_GAP_TOL = 1e-6            # an exact attack value must come with a certificate this tight


@dataclass
class Item:
    label: str                 # what kind of item, e.g. "min_rounds" or "cli.chsh"
    call: object               # zero-argument callable; its return value is checked
    spec: dict = field(default_factory=dict)


def _rng(seed: int, tag: int, r: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag, r])


def _program_seed(rng: np.random.Generator) -> int:
    """A seed for the program's own generators, >= 2**31 so that it never
    meets the acceptance suite's seeds (1, 2, 3, ...)."""
    return int(rng.integers(2 ** 31, 2 ** 32))


def _shuffled(rng: np.random.Generator, items: list[Item]) -> list[Item]:
    """The round's items in a seeded random order. Items of one kind are then
    spread over the round, so that a burst of load on the shared machine does
    not land on all of them at once."""
    return [items[i] for i in rng.permutation(len(items))]


def _mean_of_best(ratios, key) -> float | None:
    """The largest ratio in each group of items, averaged over the groups;
    None when no item of the round gave a ratio."""
    best = {}
    for item, v in ratios:
        best[key(item)] = max(best.get(key(item), 0.0), v)
    return float(np.mean(list(best.values()))) if best else None


def _eps_routes_agree(jordan, model, eps: float) -> bool:
    """The program's direct and Jordan-block eps_+ both match ``eps``."""
    m0, m1, sigma = model.alice_meas_0, model.alice_meas_1, model.sigma_a
    direct = jordan.epsilon_plus_direct(m0, m1, sigma)
    blocks = jordan.epsilon_plus_blocks(jordan.decompose_pair(m0, m1), sigma)
    return abs(direct - eps) <= _REL_TOL and abs(blocks - eps) <= _REL_TOL


def _close(a: float, b: float, rel: float = _REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + 1e-300


def _tight(converged, gap: float) -> bool:
    """The certified solver closed its gap: upper - lower is at most _GAP_TOL."""
    return converged is True and 0.0 <= gap <= _GAP_TOL


def _certified(win: float, gap: float, exact: float) -> bool:
    """win is achieved, so win <= exact; the certificate gives exact <= win + gap."""
    return win <= exact + 1e-9 and exact <= win + gap + 1e-9


class BoundsCurve:
    """min_rounds queries in the secure region plus closed-form/sum-form rows."""

    name = "bounds-curve"
    in_process = True
    QUERIES = 40          # min_rounds queries per round: each d twice, once per eps
    ANCHOR_S = 2.7        # query 0 (d = 2, gamma = 0, eps = 1e-6) has this fixed S
    ROWS = 4              # criterion-2 grid rows (one n, 21 d, 10 zeta) per round
    S_RANGE = (2.4, oracle.TSIRELSON)
    GAMMA_FRACTION = (0.05, 0.85)

    def __init__(self, seed: int, ctx):
        import di2pc.bounds
        self.seed = seed
        self.bounds = di2pc.bounds
        self._bprime = {}

    def _clear_caches(self) -> None:
        # Every `di2pc min-n` or `curve` process starts with empty caches.
        for value in vars(self.bounds).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()

    @staticmethod
    def _in_cell(rng, bounds, cell: int, cells: int) -> float:
        """Uniform in the cell-th of ``cells`` equal parts of ``bounds``."""
        lo, hi = bounds
        return float(lo + (hi - lo) * (cell + rng.random()) / cells)

    def round_items(self, r: int) -> list[Item]:
        rng = _rng(self.seed, 1, r)
        self._clear_caches()
        items = []
        # Query i draws S and the gamma fraction each from a fixed cell of
        # its range (cells 7i and 13i mod 40), so that every round covers
        # both ranges evenly. A round's CPU time depends most on how many of
        # its queries land near n* = 1000; with the cells it varies less
        # from round to round (bench/README.md has the figures).
        q = self.QUERIES
        for i in range(q):
            d = 2 ** (1 + i % 20)
            eps = 1e-6 if i < 20 else 2.0 ** -64
            s = self._in_cell(rng, self.S_RANGE, 7 * i % q, q)
            zeta = oracle.zeta_from_s(self.ANCHOR_S if i == 0 else s)
            frac = self._in_cell(rng, self.GAMMA_FRACTION, 13 * i % q, q)
            frac = 0.0 if i % 4 == 0 else frac
            gamma = frac * oracle.gamma_star_float(zeta)
            items.append(Item("min_rounds", self._query(d, zeta, gamma, eps),
                              {"d": d, "zeta": zeta, "gamma": gamma, "eps": eps,
                               "anchor": i == 0}))
        for n in rng.integers(1, 201, size=self.ROWS):
            items.append(Item("identity_row", self._row(int(n)), {"n": int(n)}))
        return _shuffled(rng, items)

    def _query(self, d, zeta, gamma, eps):
        return lambda: self.bounds.min_rounds(d, zeta, gamma, eps)

    def _row(self, n):
        def row():
            b = self.bounds
            return [(b.bound_perfect_raw(n, 2 ** e, z / 10),
                     b.bound_perfect_sumform(n, 2 ** e, z / 10))
                    for e in range(21) for z in range(10)]
        return row

    def _bp(self, n, d, zeta, gamma):
        key = (n, d, zeta, gamma)
        if key not in self._bprime:
            self._bprime[key] = oracle.bprime(n, d, zeta, gamma)
        return self._bprime[key]

    def check(self, item: Item, out):
        if item.label == "identity_row":
            return all(abs(a - b) <= _IDENTITY_TOL * b for a, b in out), None
        s = item.spec
        if not isinstance(out, int) or out < 1:
            return False, None
        d, zeta, gamma, eps = s["d"], s["zeta"], s["gamma"], s["eps"]
        at = self._bp(out, d, zeta, gamma)
        ok = at <= eps * (1 + _REL_TOL)
        if out > 1:
            ok = ok and self._bp(out - 1, d, zeta, gamma) > eps * (1 - _REL_TOL)
        ratio = oracle.store_intercept_win(out, d, zeta, gamma) / float(at)
        return bool(ok and ratio <= 1.0 + _REL_TOL), ratio

    @staticmethod
    def round_ratio(ratios: list[tuple[Item, float]]) -> float:
        """The anchor query's ratio: its inputs do not depend on the seed, and
        a correct min_rounds cannot move it."""
        return next((v for item, v in ratios if item.spec["anchor"]), None)


class AttackExact:
    """exact_win_probability on the ideal device and on seeded random devices."""

    name = "attack-exact"
    in_process = True

    def __init__(self, seed: int, ctx):
        import di2pc
        import di2pc.adversary
        import di2pc.jordan
        self.seed = seed
        self.di2pc = di2pc
        self.adv = di2pc.adversary
        self.jordan = di2pc.jordan
        self.ideal = oracle.ideal_device()
        self._eps_checked = {}

    def _model(self, dev):
        return self.di2pc.DeviceModel.from_obj(dev.to_obj())

    def round_items(self, r: int) -> list[Item]:
        rng = _rng(self.seed, 2, r)
        di = self.di2pc
        ideal = (self.ideal, self._model(self.ideal))
        dev1 = oracle.random_device(rng)
        dev1 = (dev1, self._model(dev1))
        dev2 = oracle.random_device(rng)
        dev2 = (dev2, self._model(dev2))
        plan = []
        for n in range(1, 7):
            plan.append(("breidbart", ideal, di.breidbart(n), n, 1, 0.0, {}))
        for n in range(1, 7):
            angles = tuple(float(a) for a in rng.uniform(0, math.pi / 2, n))
            plan.append(("measure_all", dev1, di.MeasureAll(angles=angles), n, 1, 0.0,
                         {"angles": angles}))
        # Thirty more MeasureAll items at n = 4 (about 55 ms each) make a
        # block of like-sized items in the middle of the round: the median item
        # is one of them, and not whichever of two far-apart sizes is nearer.
        # Each has a device of its own, so that the median does not follow the
        # cost of one device (it moves by about 8% from device to device).
        for _ in range(30):
            dev = oracle.random_device(rng)
            angles = tuple(float(a) for a in rng.uniform(0, math.pi / 2, 4))
            plan.append(("measure_all", (dev, self._model(dev)), di.MeasureAll(angles=angles),
                         4, 1, 0.0, {"angles": angles}))
        for n in range(1, 6):
            keep = (int(rng.integers(n)),)
            plan.append(("store_ideal", ideal, di.StoreSubset(keep=keep), n, 2, 0.0, {}))
        # gamma > 0 with one error allowed (floor(gamma n) = 1). On random
        # devices the solver's cost at n = 5 swings between 3 and 27 s with the
        # device, so the larger gamma > 0 cases use the ideal device.
        for n in range(3, 6):
            keep = (int(rng.integers(n)),)
            gamma = float(rng.uniform(1.0 / n, min(2.0 / n, 0.5)))
            plan.append(("store_ideal_gamma", ideal, di.StoreSubset(keep=keep), n, 2, gamma, {}))
        for n, gamma in ((1, 0.0), (2, 0.0), (3, 0.0), (3, float(rng.uniform(1 / 3, 0.5)))):
            keep = (int(rng.integers(n)),)
            plan.append(("store_random", dev1, di.StoreSubset(keep=keep), n, 2, gamma, {}))
        for n in range(1, 4):
            v = oracle.haar_isometry(rng, 2 * 2 ** n, 2 ** n)
            plan.append(("encoding", dev2, di.GeneralEncoding.from_isometry(v, 2),
                         n, 2, 0.0, {}))
        return _shuffled(rng, [
            Item(label, self._attack(model, strat, n, d, gamma),
                 {"dev": dev, "model": model, "n": n, "d": d, "gamma": gamma, **extra})
            for label, (dev, model), strat, n, d, gamma, extra in plan])

    def _attack(self, model, strat, n, d, gamma):
        return lambda: self.adv.exact_win_probability(model, strat, n, d, gamma)

    def _eps_ok(self, dev, model) -> bool:
        if id(model) not in self._eps_checked:
            self._eps_checked[id(model)] = _eps_routes_agree(self.jordan, model, dev.eps_plus)
        return self._eps_checked[id(model)]

    def check(self, item: Item, out):
        s = item.spec
        dev, n, d, gamma = s["dev"], s["n"], s["d"], s["gamma"]
        win, gap = out.win_prob, out.certified_gap
        bound = oracle.bprime_clamped(n, d, dev.eps_plus, gamma)
        ok = (0.0 <= win <= 1.0 + 1e-9 and win <= bound + _INF_BOUND_TOL
              and _tight(out.converged, gap) and self._eps_ok(dev, s["model"]))
        if item.label == "breidbart":
            ok = ok and _certified(win, gap, oracle.BREIDBART_BASE ** n)
        elif item.label == "measure_all":
            exact = math.prod(dev.intercept(a) for a in s["angles"])
            ok = ok and _certified(win, gap, exact)
        elif item.label == "store_ideal":
            ok = ok and _certified(win, gap, oracle.BREIDBART_BASE ** (n - 1))
        return bool(ok), win / bound

    IDEAL_EXACT = ("breidbart", "store_ideal")

    @classmethod
    def round_ratio(cls, ratios):
        """Per ideal-device gamma = 0 attack kind the strongest win/B' of the
        round, then the mean. These values do not depend on the seed, so a
        correct solver cannot move them."""
        return _mean_of_best([(item, v) for item, v in ratios
                              if item.label in cls.IDEAL_EXACT], lambda item: item.label)


class KeyLemmaSeesaw:
    """verify_key_lemma, one trial per item, over criterion 4's six configs."""

    name = "keylemma-seesaw"
    in_process = True
    # (n, d, gamma) -> trials per round. Config (2, 2, 0) is the only one where
    # whether the see-saw runs depends on the device (it runs when B' < 1);
    # each round takes one trial of each kind there, so that every round has
    # the same make-up.
    CONFIGS = [((1, 1, 0.0), 4), ((1, 2, 0.0), 4), ((2, 1, 0.0), 4),
               ((2, 2, 0.0), 2), ((2, 1, 0.5), 4), ((2, 2, 0.5), 2)]
    MIXED = (2, 2, 0.0)

    def __init__(self, seed: int, ctx):
        import di2pc.adversary
        import di2pc.jordan
        import di2pc.matcore
        self.seed = seed
        self.adv = di2pc.adversary
        self.jordan = di2pc.jordan
        self.matcore = di2pc.matcore

    def _device(self, trial_seed):
        """The device verify_key_lemma draws for trial 0 of ``trial_seed``."""
        m = self.matcore
        return self.adv.random_qubit_device(m.RandomSuite(m.child_seed(trial_seed, 0)))

    def _eps(self, model) -> float:
        sigma_ab = np.asarray(model.sigma_ab)
        return oracle.eps_plus(np.asarray(model.alice_meas_0.p0),
                               np.asarray(model.alice_meas_1.p0),
                               oracle.reduced_a(sigma_ab, 2, 2))

    def round_items(self, r: int) -> list[Item]:
        rng = _rng(self.seed, 3, r)
        items = []
        for (n, d, gamma), count in self.CONFIGS:
            seeds = []
            if (n, d, gamma) == self.MIXED:
                for want_search in (True, False):
                    while True:
                        s = _program_seed(rng)
                        b = float(oracle.bprime(n, d, self._eps(self._device(s)), gamma))
                        # B' < 1 runs the see-saw; B' = 1 (threshold >= n) skips it.
                        if (b < 0.999) if want_search else (b >= 1 - 1e-12):
                            seeds.append(s)
                            break
            else:
                seeds = [_program_seed(rng) for _ in range(count)]
            for s in seeds:
                items.append(Item("key_lemma", self._trial(n, d, gamma, s),
                                  {"cfg": (n, d, gamma), "seed": s}))
        return _shuffled(rng, items)

    def _trial(self, n, d, gamma, s):
        return lambda: self.adv.verify_key_lemma(1, n=n, d=d, gamma=gamma, seed=s)

    def check(self, item: Item, out):
        n, d, gamma = item.spec["cfg"]
        model = self._device(item.spec["seed"])
        eps = self._eps(model)
        bound = oracle.bprime_clamped(n, d, eps, gamma)
        ok = (out.passed and out.trials == 1 and not out.violations
              and _eps_routes_agree(self.jordan, model, eps)
              and out.max_ratio * bound <= bound + _INF_BOUND_TOL)
        return bool(ok), out.max_ratio

    @staticmethod
    def round_ratio(ratios):
        """Per configuration the strongest win/B' of the round, then the mean."""
        return _mean_of_best(ratios, lambda item: item.spec["cfg"])


_CLI_MAIN = "import sys; from di2pc.cli import main; sys.exit(main())"


class CliSession:
    """A fixed script of sequential `di2pc` subprocesses."""

    name = "cli-session"
    in_process = False
    SUBCOMMANDS = ["bound-linear", "bound-log", "region", "min-n", "curve", "chsh",
                   "jordan", "simulate-wse", "simulate-pv", "attack",
                   "verify-norm-lemma", "verify-overlap-lemma"]

    def __init__(self, seed: int, ctx):
        self.seed = seed
        self.ctx = ctx
        self.child_spans: list[str] = []

    def _command(self, args: list[str]) -> list[str]:
        if self.ctx.tracing:
            path = os.path.join(self.ctx.out_dir, f"child-{os.getpid()}-{len(self.child_spans)}.jsonl")
            self.child_spans.append(path)
            return [sys.executable, os.path.join(self.ctx.bench_dir, "cli_child.py"),
                    path, "--", *args]
        return [sys.executable, "-c", _CLI_MAIN, *args]

    def _run(self, args):
        def call():
            proc = subprocess.run(self._command(args), env=self.ctx.env,
                                  cwd=self.ctx.root, capture_output=True, text=True,
                                  timeout=120)
            return proc.returncode, proc.stdout
        return call

    def round_items(self, r: int) -> list[Item]:
        rng = _rng(self.seed, 4, r)
        noisy = oracle.rotated_device(rng, float(rng.uniform(0.02, 0.05)))
        clean = oracle.rotated_device(rng, 0.0)
        paths = {}
        for tag, dev in (("noisy", noisy), ("clean", clean)):
            paths[tag] = os.path.join(self.ctx.out_dir, f"device-{os.getpid()}-{r}-{tag}.json")
            with open(paths[tag], "w") as fh:
                json.dump(dev.to_obj(), fh)

        def point(n_range):
            s = float(rng.uniform(2.5, 2.8))
            zeta = oracle.zeta_from_s(s)
            gamma = float(rng.uniform(0, 0.5)) * oracle.gamma_star_float(zeta)
            return {"n": int(rng.integers(*n_range)) if n_range else None,
                    "d": 2 ** int(rng.integers(1, 21)), "S": s, "zeta": zeta,
                    "gamma": gamma}

        lin, log, mn = point((200, 1001)), point((2000, 100001)), point(None)
        mn["eps"] = 1e-6 if rng.random() < 0.5 else 2.0 ** -64
        curve = {"d": 2 ** int(rng.integers(1, 21)), "eps": 1e-6 if rng.random() < 0.5 else 2.0 ** -64}
        seeds = [str(_program_seed(rng)) for _ in range(5)]
        pv_gamma = float(rng.uniform(0.05, 0.2))
        f = repr
        script = [
            ("bound-linear", ["bound", "--n", str(lin["n"]), "--d", str(lin["d"]),
                              "--S", f(lin["S"]), "--gamma", f(lin["gamma"])], lin),
            ("bound-log", ["bound", "--n", str(log["n"]), "--d", str(log["d"]),
                           "--S", f(log["S"]), "--gamma", f(log["gamma"])], log),
            ("region", ["region", "--s-steps", "200", "--gamma-steps", "100"], {}),
            ("min-n", ["min-n", "--d", str(mn["d"]), "--S", f(mn["S"]),
                       "--gamma", f(mn["gamma"]), "--eps", f(mn["eps"])], mn),
            ("curve", ["curve", "--d", str(curve["d"]), "--gamma", "0",
                       "--eps", f(curve["eps"]), "--s-steps", "60"], curve),
            ("chsh", ["chsh", "--device", paths["noisy"], "--rounds", "100000",
                      "--delta", "0.01", "--seed", seeds[0]], {"dev": noisy}),
            ("jordan", ["jordan", "--device", paths["noisy"]], {"dev": noisy}),
            ("simulate-wse", ["simulate", "wse", "--device", paths["clean"],
                              "--n", "1000000", "--seed", seeds[1]], {}),
            ("simulate-pv", ["simulate", "pv", "--device", paths["noisy"], "--n", "100000",
                             "--gamma", f(pv_gamma), "--v1", "0", "--v2", "1",
                             "--claim", "0.5", "--dt", "1", "--seed", seeds[2]],
             {"gamma": pv_gamma}),
            # On the noise-free device win/B' does not depend on the rotation.
            ("attack", ["attack", "--device", paths["clean"], "--strategy", "breidbart",
                        "--n", "4", "--d", "1"], {"dev": clean}),
            ("verify-norm-lemma", ["verify", "norm-lemma", "--trials", "40",
                                   "--seed", seeds[3]], {}),
            ("verify-overlap-lemma", ["verify", "overlap-lemma", "--trials", "40",
                                      "--seed", seeds[4]], {}),
        ]
        return [Item(f"cli.{sub}", self._run(args), spec) for sub, args, spec in script]

    # -- checks -----------------------------------------------------------

    def check(self, item: Item, out):
        code, stdout = out
        if code != 0:
            return False, None
        payload = json.loads(stdout)
        sub = item.label[len("cli."):]
        return getattr(self, "_check_" + sub.replace("-", "_"))(item.spec, payload)

    def _check_bound(self, s, p):
        exact = oracle.bprime(s["n"], s["d"], s["zeta"], s["gamma"])
        rate = 0.0 if exact >= 1 else float(-oracle.mp.log(exact, 2) / s["n"])
        value = float(min(1, exact))
        # Below 1e-290 a float has few digits left (subnormals, then 0.0);
        # the min-entropy rate carries the comparison there.
        ok = (_close(p["zeta"], s["zeta"], 1e-12)
              and (value < 1e-290 or _close(p["b_imperfect"], value))
              and _close(p["minentropy_rate"], rate))
        return ok, None

    _check_bound_linear = _check_bound
    _check_bound_log = _check_bound

    def _check_region(self, s, p):
        rows = p["rows"]
        if len(rows) != 200 * 100:
            return False, None
        stars = {}
        for row in rows:
            if row["secure"] != (row["gamma"] < row["gamma_star"]):
                return False, None
            stars[row["S"]] = (row["zeta"], row["gamma_star"])
        for s_val, (zeta, star) in stars.items():
            if abs(zeta - oracle.zeta_from_s(s_val)) > 1e-12:
                return False, None
            if abs(star - oracle.gamma_star(zeta)) > 1e-8:
                return False, None
        return True, None

    def _check_min_n(self, s, p):
        n = p.get("n")
        if not isinstance(n, int):
            return False, None
        ok = oracle.bprime(n, s["d"], s["zeta"], s["gamma"]) <= s["eps"] * (1 + _REL_TOL)
        if n > 1:
            ok = ok and oracle.bprime(n - 1, s["d"], s["zeta"], s["gamma"]) > s["eps"] * (1 - _REL_TOL)
        return bool(ok), None

    def _check_curve(self, s, p):
        ns = [row["n"] for row in p["rows"] if row["secure"]]
        ok = (len(p["rows"]) == 60 and all(isinstance(n, int) for n in ns) and ns
              and all(b <= a for a, b in zip(ns, ns[1:])))
        return bool(ok), None

    def _check_chsh(self, s, p):
        return abs(p["s_hat"] - s["dev"].chsh) <= p["half_width"], None

    def _check_jordan(self, s, p):
        total = sum(b["p"] for b in p["blocks"])
        return (abs(p["epsilon_plus"] - s["dev"].eps_plus) <= _REL_TOL
                and abs(total - 1.0) <= _REL_TOL), None

    @staticmethod
    def _bits(text: str) -> np.ndarray:
        return np.frombuffer(text.encode(), dtype=np.uint8) - ord("0")

    def _check_simulate_wse(self, s, p):
        theta, theta_p = self._bits(p["theta"]), self._bits(p["theta_prime"])
        x, sub = self._bits(p["x"]), self._bits(p["substring"])
        idx = np.asarray(p["index_set"], dtype=np.int64)
        ok = (p["n"] == 1_000_000 and np.array_equal(idx, np.flatnonzero(theta == theta_p))
              and np.array_equal(sub, x[idx]))
        return bool(ok), None

    def _check_simulate_pv(self, s, p):
        x, y = self._bits(p["x"]), self._bits(p["y"])
        errors = int(np.count_nonzero(x != y))
        ok = (p["n"] == 100_000 and p["qber"] == errors / 100_000
              and abs(p["rt_v1"] - 1.0) <= 1e-12 and abs(p["rt_v2"] - 1.0) <= 1e-12
              and p["accepted"] == (errors <= math.floor(s["gamma"] * 100_000)))
        return bool(ok), None

    def _check_attack(self, s, p):
        dev = s["dev"]
        win, gap = p["win_prob"], p["certified_gap"]
        bound = oracle.bprime_clamped(4, 1, dev.eps_plus, 0.0)
        ok = (_tight(p["converged"], gap)
              and _certified(win, gap, dev.intercept(oracle.BREIDBART_ANGLE) ** 4)
              and win <= bound + _INF_BOUND_TOL)
        return ok, win / bound

    def _check_verify(self, s, p):
        reports = p["reports"]
        return bool(p["passed"] and len(reports) == 1 and reports[0]["passed"]
                    and reports[0]["trials"] == 40), None

    _check_verify_norm_lemma = _check_verify
    _check_verify_overlap_lemma = _check_verify

    @staticmethod
    def round_ratio(ratios):
        return float(np.mean([v for _, v in ratios]))


WORKLOADS = {w.name: w for w in (BoundsCurve, AttackExact, KeyLemmaSeesaw, CliSession)}
