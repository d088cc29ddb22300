"""Opt-in layer tracing for the benchmark, applied from outside ``src/``.

``Tracer.install()`` replaces each layer's entry points with a wrapper that
records one span (id, parent id, layer, function name, start, end, and an
optional argument summary). Every module of the package that holds its own
reference to a wrapped function (``from .matcore import partial_trace``) gets
the wrapper too, so calls are caught where they are made.
``Tracer.uninstall()`` puts the original objects back. Nothing is wrapped
unless ``install()`` is called, and spans stay in memory until ``dump()``
writes them as JSON lines.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

_ADVERSARY = "di2pc.adversary"

# Module-level entry points: every function a module lists in __all__.
_MODULE_LAYERS = {
    "matcore": "di2pc.matcore",
    "jordan": "di2pc.jordan",
    "chsh": "di2pc.chsh",
    "bounds": "di2pc.bounds",
    "protocols": "di2pc.protocols",
}

# The adversary module holds four layers; their edges are listed by name.
# A name the module does not define is skipped.
_ADVERSARY_LAYERS = {
    "adversary.game": [
        "exact_win_probability", "replay_win_probability",
        "post_measurement_ensemble", "_conditional_b_ops",
        "_GameContext.__init__", "_GameContext.rewards", "_GameContext.result",
        "MeasureAll.kraus_branches", "StoreSubset.kraus_branches",
        "GeneralEncoding.kraus_branches",
    ],
    "adversary.solver": [
        "optimal_discrimination", "_discriminate_batch", "_ipm_single",
        "_helstrom_pair", "_dual_upper",
    ],
    "adversary.seesaw": [
        "seesaw_search", "_structured_isometries", "_haar_isometry",
        "_isometry_from_kraus",
    ],
    "adversary.verify": [
        "verify_key_lemma", "verify_norm_lemma", "verify_overlap_lemma",
        "_run_trials", "strategy_family", "random_qubit_device",
        "random_rotated_ideal_device",
    ],
}

# Bound evaluations: a call to one of these whose caller is not one of them
# counts once, on the linear or the log-space path by its ``n``.
BOUND_EVALS = frozenset({
    "bound_perfect", "bound_perfect_raw", "bound_perfect_log2",
    "bound_perfect_sumform", "bound_perfect_sumform_log2",
    "bound_imperfect", "bound_imperfect_log2",
})
LINEAR_N = 1000


def _arg_reader(fn, param: str):
    """Return f(args, kwargs) -> value of ``param``, or None if fn has none."""
    try:
        names = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    if param not in names:
        return None
    idx = names.index(param)

    def read(args, kwargs):
        return args[idx] if len(args) > idx else kwargs.get(param)
    return read


def _batch_summary(read_g):
    def summary(args, kwargs):
        g = read_g(args, kwargs)
        return [int(g.shape[0]), int(g.nbytes)]
    return summary


class Tracer:
    """Span recorder for one process; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 1
        self._restore: list[tuple] = []
        self.paused = False   # set while the benchmark itself calls the program

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str, summary=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                attr = summary(args, kwargs) if summary is not None else None
                spans.append((sid, parent, layer, name, t0, t1, attr))
        return wrapper

    def _targets(self):
        """Yield (owner, attribute, function, layer, name) for every edge."""
        for layer, modname in _MODULE_LAYERS.items():
            mod = importlib.import_module(modname)
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == modname:
                    yield mod, attr, fn, layer, attr
        adv = importlib.import_module(_ADVERSARY)
        for layer, names in _ADVERSARY_LAYERS.items():
            for dotted in names:
                owner, _, attr = dotted.rpartition(".")
                owner_obj = getattr(adv, owner, None) if owner else adv
                fn = owner_obj.__dict__.get(attr) if owner_obj is not None else None
                if inspect.isfunction(fn):
                    yield owner_obj, attr, fn, layer, dotted

    def install(self) -> None:
        wrappers = {}
        for owner, attr, fn, layer, name in self._targets():
            summary = None
            if layer == "bounds":
                summary = _arg_reader(fn, "n")
            elif name == "_discriminate_batch":
                summary = _batch_summary(_arg_reader(fn, "g"))
            wrapper = self._wrap(fn, layer, name, summary)
            wrappers[id(fn)] = (fn, wrapper)
            if inspect.isclass(owner):
                self._restore.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
        # Replace every module-level reference, including re-exports.
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "di2pc" or modname.startswith("di2pc.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- output -----------------------------------------------------------

    def dump(self, path, proc: int = 0) -> None:
        with open(path, "a") as fh:
            write_spans(fh, self.spans, proc)


def write_spans(fh, spans, proc: int) -> None:
    for sid, parent, layer, name, t0, t1, attr in spans:
        fh.write(json.dumps({"proc": proc, "id": sid, "parent": parent,
                             "layer": layer, "name": name, "start": t0,
                             "end": t1, "attr": attr}) + "\n")


def read_spans(path) -> list[tuple]:
    out = []
    with open(path) as fh:
        for line in fh:
            s = json.loads(line)
            out.append((s["id"], s["parent"], s["layer"], s["name"],
                        s["start"], s["end"], s["attr"]))
    return out


# -- aggregation ------------------------------------------------------------

LAYER_NAMES = ["bounds", "matcore", "jordan", "chsh", "protocols",
               "adversary.game", "adversary.solver", "adversary.seesaw",
               "adversary.verify"]


def layer_metrics(processes: list[list[tuple]], rounds: int) -> dict[str, float]:
    """Per-round layer figures from the spans of one or more processes.

    A layer's ``calls`` counts the spans entered from outside the layer; its
    ``self_s`` sums, over the layer's spans, the span time not covered by
    direct child spans.
    """
    calls = defaultdict(int)
    self_s = defaultdict(float)
    probes = queries = 0
    linear = log = 0
    problems = nbytes = 0
    ipm_calls = 0
    ipm_s = 0.0
    searches = search_evals = 0
    for spans in processes:
        by_id = {s[0]: s for s in spans}
        child_time = defaultdict(float)
        for sid, parent, layer, name, t0, t1, attr in spans:
            if parent:
                child_time[parent] += t1 - t0
        for sid, parent, layer, name, t0, t1, attr in spans:
            up = by_id.get(parent)
            self_s[layer] += (t1 - t0) - child_time[sid]
            if up is None or up[2] != layer:
                calls[layer] += 1
            if name == "min_rounds":
                queries += 1
            elif name in BOUND_EVALS and up is not None and up[3] == "min_rounds":
                probes += 1
            if name in BOUND_EVALS and (up is None or up[3] not in BOUND_EVALS):
                if attr is not None:
                    if attr <= LINEAR_N:
                        linear += 1
                    else:
                        log += 1
            if name == "_discriminate_batch":
                problems += attr[0]
                nbytes += attr[1]
                anc = up
                while anc is not None and anc[3] != "seesaw_search":
                    anc = by_id.get(anc[1])
                if anc is not None:
                    search_evals += 1
            elif name == "_ipm_single":
                ipm_calls += 1
                ipm_s += t1 - t0
            elif name == "seesaw_search":
                searches += 1
    per = 1.0 / max(rounds, 1)
    out = {}
    for layer in LAYER_NAMES:
        out[f"{layer}.calls"] = calls[layer] * per
        out[f"{layer}.self_s"] = self_s[layer] * per
    out["bounds.probes_per_query"] = probes / queries if queries else 0.0
    out["bounds.linear_calls"] = linear * per
    out["bounds.log_calls"] = log * per
    out["adversary.solver.problems"] = problems * per
    out["adversary.solver.input_mb"] = nbytes / 1e6 * per
    out["adversary.solver.ipm_calls"] = ipm_calls * per
    out["adversary.solver.ipm_s"] = ipm_s * per
    out["adversary.seesaw.evals"] = search_evals / searches if searches else 0.0
    return out
