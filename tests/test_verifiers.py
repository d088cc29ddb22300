"""The norm- and overlap-lemma verifiers: stacked trials against per-trial loops,
and memory that does not grow with the number of trials."""

import gc
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from di2pc import adversary
from di2pc.adversary import (
    _CHUNK,
    _block_measurement,
    _run_trials,
    verify_norm_lemma,
    verify_overlap_lemma,
)
from di2pc.matcore import RandomSuite, child_seed, induced_norm, operator_norm, psd_sqrt


# Reference records: one trial at a time, with matcore's per-matrix functions,
# as the verifiers computed them before their trials were stacked.

def _norm_reference(trial, seed, max_dim, max_terms):
    suite = RandomSuite(child_seed(seed, trial))
    rng = suite.rng
    dim = int(rng.integers(1, max_dim + 1))
    n_terms = int(rng.integers(1, max_terms + 1))
    mats = [suite.psd(dim, scale=float(rng.random() * 2 + 0.1))
            for _ in range(n_terms)]
    roots = [psd_sqrt(a) for a in mats]
    lhs = operator_norm(sum(mats))
    l_mat = np.array([[operator_norm(ri @ rj) for rj in roots] for ri in roots])
    rhs = float(np.max(l_mat.sum(axis=0)))
    k_block = np.block([[ri @ rj for rj in roots] for ri in roots])
    k_norm = operator_norm(k_block)
    l_norm = operator_norm(l_mat)
    hoelder = math.sqrt(induced_norm(l_mat, 1) * induced_norm(l_mat, math.inf))
    return {"trial": trial, "dim": dim, "terms": n_terms, "lhs": lhs,
            "rhs": rhs, "k_norm": k_norm, "l_norm": l_norm, "hoelder": hoelder}


def _overlap_reference(trial, seed, n, d):
    suite = RandomSuite(child_seed(seed, trial))
    rng = suite.rng
    n_use = int(rng.integers(1, n + 1))
    d_use = int(rng.integers(1, d + 1))
    betas = rng.random(n_use) * (math.pi / 2)
    blocks = [_block_measurement(b) for b in betas]
    thetas = list(itertools.product((0, 1), repeat=n_use))
    povms = {theta: suite.povm(d_use, 2 ** n_use) for theta in thetas}
    pis = {}
    for theta in thetas:
        pi = np.zeros((2 ** n_use * d_use,) * 2, dtype=complex)
        for xi, x in enumerate(itertools.product((0, 1), repeat=n_use)):
            proj = np.array([[1.0]], dtype=complex)
            for k in range(n_use):
                proj = np.kron(proj, blocks[k][(theta[k], x[k])])
            pi += np.kron(proj, povms[theta][xi])
        pis[theta] = psd_sqrt(pi)
    pairs = []
    for tp in thetas:
        for t in thetas:
            lhs = operator_norm(pis[tp] @ pis[t])
            w = [a ^ b for a, b in zip(tp, t)]
            prod_max = math.prod(
                max(math.cos(betas[k]), math.sin(betas[k])) ** w[k]
                for k in range(n_use))
            eps = [abs(math.cos(2 * betas[k])) for k in range(n_use)]
            prod_eps = math.prod(
                ((1 + eps[k]) / 2) ** (w[k] / 2) for k in range(n_use))
            rhs1 = min(1.0, math.sqrt(d_use) * prod_max)
            rhs2 = min(1.0, math.sqrt(d_use) * prod_eps)
            pairs.append({"theta_prime": list(tp), "theta": list(t),
                          "lhs": lhs, "rhs_angles": rhs1, "rhs_eps": rhs2})
    return {"trial": trial, "n": n_use, "d": d_use,
            "betas": [float(x) for x in betas], "pairs": pairs}


def _records(monkeypatch, verify, *args, **kwargs):
    """The verifier's report and every record its chunks produced, in order."""
    seen = []

    def spy(name, trials, work, check, details, fold=None):
        def recording(ts):
            records = work(ts)
            seen.extend(records)
            return records
        return _run_trials(name, trials, recording, check, details, fold)
    monkeypatch.setattr(adversary, "_run_trials", spy)
    return verify(*args, **kwargs), seen


def _exact(records):
    # json's float repr round-trips, and tells -0.0 from 0.0
    return [json.dumps(r) for r in records]


@pytest.mark.parametrize("trials, seed, max_dim, max_terms", [
    (_CHUNK + 1, 0, 16, 8),
    (_CHUNK - 1, 1, 4, 3),
    (_CHUNK + 3, 2, 2, 8),
    (2 * _CHUNK, 3, 3, 2),
])
def test_norm_lemma_records_equal_per_trial_loop(monkeypatch, trials, seed, max_dim,
                                                 max_terms):
    rep, records = _records(monkeypatch, verify_norm_lemma, trials, max_dim=max_dim,
                            max_terms=max_terms, seed=seed)
    expect = [_norm_reference(t, seed, max_dim, max_terms) for t in range(trials)]
    assert _exact(records) == _exact(expect)
    assert rep.passed and rep.trials == trials


@pytest.mark.parametrize("trials, seed, n, d", [
    (_CHUNK + 1, 0, 2, 3),
    (_CHUNK - 1, 1, 1, 2),
    (_CHUNK + 2, 2, 2, 1),
])
def test_overlap_lemma_records_equal_per_trial_loop(monkeypatch, trials, seed, n, d):
    rep, records = _records(monkeypatch, verify_overlap_lemma, trials, n=n, d=d,
                            seed=seed)
    expect = [_overlap_reference(t, seed, n, d) for t in range(trials)]
    assert _exact(records) == _exact(expect)
    assert rep.passed and rep.trials == trials


def _peak_bytes(run) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_norm_lemma_memory_does_not_grow_with_trials():
    def run(trials):
        return verify_norm_lemma(trials, max_dim=2, max_terms=2, seed=5)
    run(1)              # first-call caches do not count
    small, large = _peak_bytes(lambda: run(400)), _peak_bytes(lambda: run(4000))
    assert large <= 1.5 * small, (small, large)


def test_run_trials_keeps_violations_and_aggregates_only():
    # 2.4 KB records, as the key-lemma verifier makes (the overlap one's are
    # 5.5 KB), through the same fold; every 1000th violates
    def work(ts):
        return [{"trial": t, "pad": bytes(2400), "gap": t % 7 / 10} for t in ts]

    def check(rec):
        bad = rec["trial"] % 1000 == 999
        yield (rec["trial"] / 10_000, -1.0 if bad else 1.0,
               {"trial": rec["trial"]} if bad else None)

    def fold(acc, rec):
        return rec["gap"] if acc is None else max(acc, rec["gap"])

    def run(trials):
        return _run_trials("probe", trials, work, check, lambda acc: {"gap": acc}, fold)

    small, large = _peak_bytes(lambda: run(400)), _peak_bytes(lambda: run(4000))
    assert large <= 1.5 * small, (small, large)
    rep = run(4000)
    assert [v["trial"] for v in rep.violations] == [999, 1999, 2999, 3999]
    assert rep.max_ratio == 3999 / 10_000 and rep.worst_slack == -1.0
    assert rep.details == {"gap": 0.6} and not rep.passed
