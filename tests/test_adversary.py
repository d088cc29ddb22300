"""Tests for strategies, discrimination, the exact game, and the verifiers."""

import collections
import dataclasses
import functools
import hashlib
import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest

from di2pc import adversary, jordan, matcore, protocols
from di2pc.adversary import (
    _PAULI,
    _complete,
    _discriminate_batch,
    _dual_operator,
    _dual_upper,
    _GameContext,
    _ipm_single,
    _polish,
    _qubit_optimum,
    _score_strategies,
    _search_values,
    _structured_isometries,
    GeneralEncoding,
    MeasureAll,
    StoreSubset,
    breidbart,
    exact_win_probability,
    optimal_discrimination,
    random_qubit_device,
    replay_win_probability,
    seesaw_search,
    strategy_family,
    strategy_from_obj,
    verify_key_lemma,
    verify_norm_lemma,
    verify_overlap_lemma,
)
from di2pc.bounds import bound_perfect
from di2pc.errors import DimensionCapError, DomainError, StrategyError
from di2pc.jordan import BinaryMeasurement, epsilon_plus_direct
from di2pc.matcore import RandomSuite, _isometry, child_seed, partial_trace, trace_norm
from di2pc.protocols import DeviceModel, ideal_bb84_device

COS2_PI8 = math.cos(math.pi / 8) ** 2

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)


# ---------------------------------------------------------------------------
# discrimination
# ---------------------------------------------------------------------------

def test_discrimination_orthogonal_pure_states():
    res = optimal_discrimination([(0.5, KET0), (0.5, KET1)])
    assert res.win_prob == pytest.approx(1.0, abs=1e-10)
    assert res.dual_gap <= 1e-10


def test_discrimination_identical_states():
    res = optimal_discrimination([(0.5, KET0), (0.5, KET0)])
    assert res.win_prob == pytest.approx(0.5, abs=1e-10)


def test_discrimination_single_state():
    res = optimal_discrimination([(1.0, PLUS)])
    assert res.converged and res.win_prob == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(res.povm[0], np.eye(2))


def test_discrimination_helstrom_value():
    res = optimal_discrimination([(0.5, KET0), (0.5, PLUS)])
    assert res.win_prob == pytest.approx(COS2_PI8, abs=1e-10)
    assert res.dual_gap <= 1e-10


def test_discrimination_matches_helstrom_fuzz():
    rs = RandomSuite(301)
    for trial in range(200):
        suite = rs.child(trial)
        q = float(suite.rng.random())
        rho0 = suite.density_operator(3)
        rho1 = suite.density_operator(3)
        res = optimal_discrimination([(q, rho0), (1.0 - q, rho1)])
        expect = 0.5 * (1.0 + trace_norm(q * rho0 - (1.0 - q) * rho1))
        assert res.win_prob == pytest.approx(expect, abs=1e-10)


def test_discrimination_multi_state_certificate():
    rs = RandomSuite(303)
    for trial in range(40):
        suite = rs.child(trial)
        k = int(suite.rng.integers(3, 6))
        probs = suite.rng.random(k)
        probs /= probs.sum()
        ens = [(float(p), suite.density_operator(3)) for p in probs]
        res = optimal_discrimination(ens)
        assert res.converged
        assert res.dual_gap <= 1e-7
        # POVM validity: PSD within roundoff and sums to identity
        total = sum(res.povm)
        assert np.max(np.abs(total - np.eye(3))) < 1e-8
        for f in res.povm:
            assert np.linalg.eigvalsh((f + f.conj().T) / 2).min() > -1e-9
        # value cannot beat always-guessing-the-likeliest baseline by less
        assert res.win_prob >= max(p for p, _ in ens) - 1e-9


def _planted_batch(suite, dim, free, planted):
    """Reward operators: ``free`` random ones plus ``planted`` dominated ones,
    each either c * G_z (0 <= c < 1) or a G_z that G_z + PSD outranks.
    Returns the operators in shuffled order and the dominated positions."""
    ops = [float(suite.rng.uniform(0.5, 1.0)) * suite.density_operator(dim)
           for _ in range(free)]
    dominated = []
    for _ in range(planted):
        z = int(suite.rng.integers(len(ops)))
        if suite.rng.random() < 0.5:
            ops.append(float(suite.rng.uniform(0.0, 0.9)) * ops[z])
            dominated.append(len(ops) - 1)
        else:
            ops.append(ops[z] + 0.3 * suite.psd(dim))
            dominated.append(z)
    perm = suite.rng.permutation(len(ops))
    where = np.argsort(perm)
    return np.stack([ops[i] for i in perm]), sorted(int(where[i]) for i in set(dominated))


def test_discriminate_batch_prunes_planted_dominated_outcomes():
    rs = RandomSuite(307)
    for trial in range(24):
        suite = rs.child(trial)
        dim = 2 + trial % 2
        free = 1 + trial % 4          # one, two and more undominated outcomes
        g, dominated = _planted_batch(suite, dim, free, planted=3)
        lower, upper, f, conv = _discriminate_batch(g[None])
        # both sides carry float64 roundoff, so lower <= upper holds to 1e-12
        assert conv and lower[0] - 1e-12 <= upper[0] <= lower[0] + 1e-9
        f_ipm, y_ipm = _ipm_single(g, gap_target=1e-10)
        value_ipm = float(np.einsum("yij,yji->", f_ipm, g).real)
        assert lower[0] == pytest.approx(value_ipm, abs=1e-8)
        assert _dual_upper(g[None], y_ipm[None])[0] >= lower[0] - 1e-12
        assert np.max(np.abs(f[0].sum(axis=0) - np.eye(dim))) < 1e-10
        for fy in f[0]:
            assert np.linalg.eigvalsh((fy + fy.conj().T) / 2).min() > -1e-10
        for y in dominated:
            assert not f[0, y].any()


def test_two_outcome_batch_matches_helstrom():
    rs = RandomSuite(309)
    g = np.stack([np.stack([float(s.rng.random()) * s.density_operator(3)
                            for _ in range(2)])
                  for s in (rs.child(i) for i in range(30))])
    lower, upper, f, conv = _discriminate_batch(g)
    expect = [0.5 * float(np.trace(a + b).real + trace_norm(a - b)) for a, b in g]
    assert conv
    assert lower == pytest.approx(expect, abs=1e-12)
    assert np.all(np.abs(upper - lower) <= 1e-12)


def test_dual_upper_not_below_lower_without_clipping():
    # the batches that showed upper - lower = -5e-16 before the outward lift
    rs = RandomSuite(307)
    for trial in range(24):
        g, _ = _planted_batch(rs.child(trial), 2 + trial % 2, 1 + trial % 4, planted=3)
        lower, upper, _, _ = _discriminate_batch(g[None])
        assert upper[0] >= lower[0]
    # closed-form qubit answers, where the true gap is zero
    g = _qubit_batch(np.random.default_rng(311), 400, 5, "complex")
    f, y = _qubit_optimum(g)
    lower = np.einsum("bkij,bkji->b", f, g).real
    assert np.all(_dual_upper(g, y) >= lower)


def _qubit_batch(rng, batch, k, kind):
    """Random 2 x 2 PSD reward operators, shape (batch, k, 2, 2): ``complex``
    (Bloch vectors in general position), ``real`` (coplanar, as on the ideal
    device), ``diagonal`` (collinear), or ``repeated`` (complex, with one
    operator repeated and one zero)."""
    a = rng.normal(size=(batch, k, 2, 2)).astype(complex)
    if kind in ("complex", "repeated"):
        a += 1j * rng.normal(size=a.shape)
    g = a @ np.conj(np.swapaxes(a, -1, -2)) * rng.random((batch, k, 1, 1))
    if kind == "diagonal":
        g *= np.eye(2)
    if kind == "repeated":
        g[:, 1] = g[:, 0]
        g[:, 2] = 0.0
    return g


@pytest.mark.parametrize("kind", ["complex", "real", "diagonal", "repeated"])
@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_qubit_optimum_matches_certified_solver(kind, k):
    g = _qubit_batch(np.random.default_rng(1000 * k + len(kind)), 60, k, kind)
    f, y = _qubit_optimum(g)
    value = np.einsum("bkij,bkji->b", f, g).real
    lower, upper, _, _ = _discriminate_batch(g, tol=1e-12)
    # the certified pair brackets the closed form, whose value meets the
    # certified upper bound (the fixed point's own lower side can lag)
    assert np.all(value >= lower - 1e-12)
    assert np.all(np.abs(upper - value) <= 1e-10)
    assert np.all(_dual_upper(g, y) - value <= 1e-10)
    assert np.max(np.abs(f.sum(axis=1) - np.eye(2))) <= 1e-12
    assert np.linalg.eigvalsh(f).min() >= -1e-12


def _qubit_optimum_all_sets(g):
    """``_qubit_optimum`` as it stood before singles and pairs got their own
    closed form: every active set of one to four guesses solved at once by
    the quadratic plus ``_polish``, the smallest kept root winning."""
    nb, k = g.shape[:2]
    alpha = (g[..., 0, 0].real + g[..., 1, 1].real) / 2
    beta = np.stack([(g[..., 0, 1].real + g[..., 1, 0].real) / 2,
                     (g[..., 1, 0].imag - g[..., 0, 1].imag) / 2,
                     (g[..., 0, 0].real - g[..., 1, 1].real) / 2], axis=-1)
    cands_a, cands_b, cands_c, active = [], [], [], []
    with np.errstate(all="ignore"):
        for s in range(1, min(k, 4) + 1):
            sets = np.array(list(itertools.combinations(range(k), s)))
            al, be = alpha[:, sets], beta[:, sets]
            diff = be[..., 1:, :] - be[..., :1, :]
            e = al[..., 1:] - al[..., :1]
            gram = diff @ np.swapaxes(diff, -1, -2)
            ratio = np.linalg.det(gram) / np.prod(np.einsum("...ii->...i", gram), axis=-1)
            solvable = ratio > 1e-10
            gram = np.where(solvable[..., None, None], gram, np.eye(s - 1))
            pq = np.linalg.solve(2 * gram, np.stack([(diff ** 2).sum(-1) - e ** 2,
                                                     2 * e], axis=-1))
            p_vec = np.einsum("...j,...jx->...x", pq[..., 0], diff)
            q_vec = np.einsum("...j,...jx->...x", pq[..., 1], diff)
            qa = 1.0 - (q_vec ** 2).sum(-1)
            qb = (p_vec * q_vec).sum(-1)
            qc = (p_vec ** 2).sum(-1)
            top = qb + np.copysign(np.sqrt(np.clip(qb ** 2 + qa * qc, 0.0, None)), qb)
            roots = np.stack([top / qa, -qc / top], axis=-1)
            roots[~solvable] = np.nan
            t = pq[..., None, :, 0] + roots[..., None] * pq[..., None, :, 1]
            if s > 1:
                t, roots = _polish(t, roots, diff, be, e)
            hull = np.concatenate([1.0 - t.sum(-1, keepdims=True), t], axis=-1)
            onehot = np.eye(k)[sets]
            cands_a.append((al[..., :1] + roots).reshape(nb, -1))
            cands_b.append(np.einsum("...rs,...sx->...rx", hull, be).reshape(nb, -1, 3))
            cands_c.append(np.einsum("...rs,...sk->...rk", hull, onehot).reshape(nb, -1, k))
            active.append(np.repeat(onehot.sum(axis=1), 2, axis=0) > 0)
        a = np.concatenate(cands_a, axis=1)
        b = np.concatenate(cands_b, axis=1)
        c = np.concatenate(cands_c, axis=1)
        active = np.concatenate(active)
        slack = (a[..., None] - alpha[:, None]
                 - np.linalg.norm(b[:, :, None] - beta[:, None], axis=-1))
        eps = 1e-12 * np.abs(alpha).max(axis=1)[:, None, None]
        kept = (np.isfinite(a) & (slack >= -eps).all(-1) & (c >= 0.0).all(-1)
                & ((np.abs(slack) <= eps) | ~active).all(-1))
        a_kept = np.where(kept, a, np.inf)
        low = a_kept.min(axis=1)
        best = np.argmax(a_kept <= (low + eps[:, 0, 0])[:, None], axis=1)
        found = np.isfinite(low)
        rows = np.arange(nb)
        a, b, c = a[rows, best], b[rows, best], c[rows, best]
        v = b[:, None] - beta
        r = c * np.maximum(a[:, None] - alpha, np.linalg.norm(v, axis=-1))
        f = r[..., None, None] * np.eye(2) - np.einsum("bk,bkx,xij->bkij", c, v, _PAULI)
        total = r.sum(axis=1)
        single = ~(total > 0)
        f[single] = c[single, :, None, None] * np.eye(2)
        f[~single] /= total[~single, None, None, None]
        y = a[:, None, None] * np.eye(2) + np.einsum("bx,xij->bij", b, _PAULI)
    f[~found] = np.eye(2) / k
    y[~found] = _dual_operator(g[~found], f[~found])
    return _complete(f), y


def _near_tie_batch(rng, batch, k):
    """Normalized random problems whose guesses 0 and 1 nearly dominate one
    another: G_1 = G_0 + delta H, H Hermitian, delta from 1e-13 to 1e-2."""
    g = _qubit_batch(rng, batch, k, "complex")
    h = rng.normal(size=(batch, 2, 2)) + 1j * rng.normal(size=(batch, 2, 2))
    h = (h + np.conj(np.swapaxes(h, -1, -2))) / 2
    g[:, 1] = g[:, 0] + 10.0 ** rng.uniform(-13, -2, (batch, 1, 1)) * h
    return g


@pytest.mark.parametrize("kind", ["complex", "real", "diagonal", "repeated", "near-tie"])
def test_qubit_optimum_matches_all_sets_oracle(kind):
    # 1,440 normalized problems over the five kinds (a repeat needs k >= 3)
    for k in (2, 3, 4, 5, 6) if kind != "repeated" else (3, 4, 5, 6):
        rng = np.random.default_rng(2000 * k + len(kind))
        g = (_near_tie_batch(rng, 60, k) if kind == "near-tie"
             else _qubit_batch(rng, 60, k, kind))
        g /= np.einsum("bkii->b", g).real[:, None, None, None]
        f, y = _qubit_optimum(g)
        value = np.einsum("bkij,bkji->b", f, g).real
        f_old, _ = _qubit_optimum_all_sets(g)
        assert np.all(np.abs(value - np.einsum("bkij,bkji->b", f_old, g).real) <= 1e-12)
        assert np.all(_dual_upper(g, y) - value <= 1e-12)
        assert np.max(np.abs(f.sum(axis=1) - np.eye(2))) <= 1e-12
        assert np.linalg.eigvalsh(f).min() >= -1e-12


def _seesaw_and_certified(device, n, d, gamma, seed):
    res, enc = seesaw_search(device, n, d, restarts=2, seed=seed, gamma=gamma, iters=12)
    return res, exact_win_probability(device, enc, n, d, gamma)


@pytest.mark.parametrize("n, d, gamma", [(1, 2, 0.0), (2, 2, 0.0), (2, 2, 0.5)])
def test_seesaw_value_within_certified_bracket(n, d, gamma):
    # the winner's value comes from the closed form's POVM: at least what the
    # certified path's decoders reach, at most its certified upper bound. At
    # the lower end only to roundoff: where the certified path is a closed
    # form too (Helstrom on two guesses), the two differ in the last bits.
    for trial in range(6):
        device = random_qubit_device(RandomSuite(child_seed(347, trial)))
        res, cert = _seesaw_and_certified(device, n, d, gamma, 60 + trial)
        assert res.converged and cert.converged
        assert cert.win_prob - 1e-15 <= res.win_prob <= cert.win_prob + cert.certified_gap
        assert res.certified_gap <= 1e-12


def test_seesaw_without_closed_form_equals_certified_path(monkeypatch):
    # a closed form that fails every problem sends the whole search mode
    # down the pruned fixed point, and the winner's score is then the
    # certified path's own
    def fail(g):
        return np.full_like(g, np.nan), np.full((len(g), 2, 2), np.nan, dtype=complex)
    monkeypatch.setattr(adversary, "_qubit_optimum", fail)
    for trial, (n, gamma) in enumerate([(1, 0.0), (2, 0.0), (2, 0.5)]):
        device = random_qubit_device(RandomSuite(child_seed(349, trial)))
        res, cert = _seesaw_and_certified(device, n, 2, gamma, 70 + trial)
        assert (res.win_prob, res.certified_gap, res.converged, res.per_theta) == \
            (cert.win_prob, cert.certified_gap, cert.converged, cert.per_theta)


# The see-saw's objective on fixed (device, isometry) pairs as the fixed
# point computed it before the qubit closed form: (gamma, device seed,
# isometry seed) -> value. The closed form must not score any of them lower.
_SEARCH_VALUES_BEFORE = {
    (0.0, 100, 7): 0.4642466093518042,
    (0.0, 101, 8): 0.43050699072076726,
    (0.0, 102, 9): 0.6411399708363184,
    (0.5, 100, 7): 0.9175387385241633,
    (0.5, 101, 8): 0.8781142368766577,
    (0.5, 102, 9): 0.9643711374367786,
}


def test_search_value_no_weaker_than_fixed_point():
    for (gamma, dev_seed, iso_seed), before in _SEARCH_VALUES_BEFORE.items():
        ctx = _GameContext(random_qubit_device(RandomSuite(dev_seed)), 2, gamma)
        v = _isometry(RandomSuite(iso_seed).ginibre(8, 4))
        value = _search_values(ctx, v[None], 2)[0]
        g = ctx.rewards(GeneralEncoding.from_isometry(v, 2))
        _, upper, _, _ = _discriminate_batch(g, tol=1e-12)
        optimum = float(upper.reshape(4, -1).sum(axis=1).mean())
        assert value >= before - 1e-9
        assert optimum - 1e-9 <= value <= optimum


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

def _theta_slice(device, strategy, n, theta):
    """Alice's outcome distribution q for basis string ``theta`` (chained
    np.kron of the per-round traces) and the unmasked rewards' slice for
    ``theta``, indexed [branch m, outcome x]."""
    ctx = _GameContext(device, n, 0.0)
    g = ctx.rewards(strategy)
    m_count = g.shape[0] // len(ctx.thetas)
    ti = ctx.thetas.index(tuple(theta))
    q = functools.reduce(np.kron, [np.trace(ctx.table[t], axis1=1, axis2=2).real
                                   for t in theta])
    return q, g[ti * m_count:(ti + 1) * m_count]


def test_ensemble_breidbart_branch_probabilities():
    device = ideal_bb84_device()
    q, branch_ops = _theta_slice(device, breidbart(1), 1, (0,))
    assert q == pytest.approx([0.5, 0.5], abs=1e-12)
    # two classical branches per outcome, each a 1-dim record
    for x in (0, 1):
        joint = [np.trace(ops[x]).real for ops in branch_ops]
        probs = [p / q[x] for p in joint if p > 1e-15]
        assert sum(probs) == pytest.approx(1.0, abs=1e-10)


def test_ensemble_store_all_steering():
    device = ideal_bb84_device()
    _, branch_ops = _theta_slice(device, StoreSubset(keep=(0,)), 1, (0,))
    # conditional states are |0><0| and |1><1| for the Z basis
    st0 = branch_ops[0][0] / np.trace(branch_ops[0][0])
    st1 = branch_ops[0][1] / np.trace(branch_ops[0][1])
    assert np.max(np.abs(st0 - KET0)) < 1e-12
    assert np.max(np.abs(st1 - KET1)) < 1e-12


def test_ensemble_probabilities_sum_to_one_fuzz():
    rs = RandomSuite(307)
    for trial in range(200):
        suite = rs.child(trial)
        device = random_qubit_device(suite)
        n = 1 + trial % 2
        strat = (breidbart(n) if trial % 3 else
                 StoreSubset(keep=(0,), angles=(0.3,) * (n - 1)))
        theta = tuple(int(b) for b in suite.rng.integers(0, 2, n))
        q, branch_ops = _theta_slice(device, strat, n, theta)
        assert q.sum() == pytest.approx(1.0, abs=1e-10)
        # the branches of each outcome x carry Alice's marginal q[x]
        marginal = np.trace(branch_ops, axis1=-2, axis2=-1).real.sum(axis=0)
        assert marginal == pytest.approx(q, abs=1e-10)


# ---------------------------------------------------------------------------
# game rewards against the dense construction
# ---------------------------------------------------------------------------

def _dense_conditional_ops(device, theta):
    """Unnormalized B^(x)n operators per Alice outcome string, chained np.kron."""
    dims = [device.dim_a, device.dim_b]
    per_round = []
    for t in theta:
        meas = device.alice_measurement(t)
        per_round.append([
            partial_trace(np.kron(p, np.eye(device.dim_b)) @ device.sigma_ab,
                          dims, [1]) for p in (meas.p0, meas.p1)])
    ops = []
    for x_bits in itertools.product((0, 1), repeat=len(theta)):
        op = np.array([[1.0]], dtype=complex)
        for k, xk in enumerate(x_bits):
            op = np.kron(op, per_round[k][xk])
        ops.append(op)
    return np.stack(ops)


def _dense_bras(angle):
    c, s = math.cos(angle), math.sin(angle)
    return (np.array([[c, s]], dtype=complex), np.array([[-s, c]], dtype=complex))


def _dense_branches(strategy, dim_b, n):
    """Kraus branches by chained np.kron of bras and identities."""
    if isinstance(strategy, GeneralEncoding):
        return [[np.asarray(e) for e in br] for br in strategy.kraus]
    if isinstance(strategy, MeasureAll):
        keep = set()
        angles = strategy.angles if len(strategy.angles) == n \
            else tuple(strategy.angles) * n
    else:
        keep = set(strategy.keep)
        count = n - len(keep)
        angles = strategy.angles if len(strategy.angles) == count \
            else tuple(strategy.angles or (math.pi / 8,)) * count
    discarded = [k for k in range(n) if k not in keep]
    bras = {k: _dense_bras(a) for k, a in zip(discarded, angles)}
    branches = []
    for outcome in itertools.product((0, 1), repeat=len(discarded)):
        picks = dict(zip(discarded, outcome))
        e = np.array([[1.0]], dtype=complex)
        for k in range(n):
            factor = np.eye(dim_b, dtype=complex) if k in keep \
                else bras[k][picks[k]]
            e = np.kron(e, factor)
        branches.append([e])
    return branches


def _dense_rewards(rho_by_theta, strategy, dim_b, n, gamma):
    branches = _dense_branches(strategy, dim_b, n)
    pop = np.array([bin(i).count("1") for i in range(1 << n)])
    ball = (pop[np.arange(1 << n)[:, None] ^ np.arange(1 << n)[None, :]]
            <= math.floor(gamma * n)).astype(float)
    gs = []
    for theta in itertools.product((0, 1), repeat=n):
        rho = rho_by_theta[theta]
        w = np.stack([sum(e @ rho @ e.conj().T for e in br) for br in branches])
        gs.append(np.einsum("yx,mxad->myad", ball, w))
    return np.concatenate(gs)


def _qutrit_device():
    psi = np.zeros((6, 1), dtype=complex)
    psi[0, 0] = psi[4, 0] = 1.0 / math.sqrt(2.0)
    ideal = ideal_bb84_device()
    proj = np.diag([1.0, 0.0, 0.0]).astype(complex)
    bob = BinaryMeasurement.from_projector(proj)
    obs = np.diag([1.0, -1.0, -1.0]).astype(complex)
    return DeviceModel(dim_a=2, dim_b=3, sigma_ab=psi @ psi.conj().T,
                       alice_meas_0=ideal.alice_meas_0,
                       alice_meas_1=ideal.alice_meas_1,
                       bob_meas_0=bob, bob_meas_1=bob, test_t0=obs, test_t1=obs)


def _grid_strategies(n, suite):
    angles = tuple(float(a) for a in suite.rng.random(n) * (math.pi / 2))
    strats = [MeasureAll(angles=(0.3,)), MeasureAll(angles=angles),
              StoreSubset(keep=(0,)), StoreSubset(keep=(n - 1,), angles=angles[1:]),
              StoreSubset(keep=(n // 2,), angles=(0.2,))]
    if n >= 2:
        strats.append(StoreSubset(keep=(0, n - 1)))
    if n <= 3:
        strats.append(StoreSubset(keep=tuple(range(n))))
        dim_in = 2 ** n
        strats.append(GeneralEncoding.from_isometry(
            np.linalg.qr(suite.ginibre(2 * dim_in, dim_in))[0], 2))
        # two Kraus elements per branch, each a pair of rows of a unitary
        u, v = (np.linalg.qr(suite.ginibre(dim_in, dim_in))[0] / math.sqrt(2.0)
                for _ in range(2))
        strats.append(GeneralEncoding(tuple(
            (u[i:i + 2], v[i:i + 2]) for i in range(0, dim_in, 2))))
    return strats


def test_rewards_match_dense_construction():
    rs = RandomSuite(313)
    devices = [ideal_bb84_device(), random_qubit_device(rs.child(0)),
               random_qubit_device(rs.child(1))]
    worst = 0.0
    for di, device in enumerate(devices):
        for n in range(1, 6):
            rho = {theta: _dense_conditional_ops(device, theta)
                   for theta in itertools.product((0, 1), repeat=n)}
            strats = _grid_strategies(n, rs.child(100 + 10 * di + n))
            for gamma in (0.0, 0.5):
                ctx = _GameContext(device, n, gamma)
                for strat in strats:
                    got = ctx.rewards(strat)
                    want = _dense_rewards(rho, strat, device.dim_b, n, gamma)
                    assert got.shape == want.shape, (n, strat)
                    worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst <= 1e-12


def test_rewards_match_dense_construction_qutrit_memory():
    device = _qutrit_device()
    for n in (1, 2):
        rho = {theta: _dense_conditional_ops(device, theta)
               for theta in itertools.product((0, 1), repeat=n)}
        strat = StoreSubset(keep=tuple(range(n)))
        for gamma in (0.0, 0.5):
            got = _GameContext(device, n, gamma).rewards(strat)
            want = _dense_rewards(rho, strat, 3, n, gamma)
            assert np.max(np.abs(got - want)) <= 1e-12


def test_isometry_rewards_equal_stacked_encoding_rewards():
    rs = RandomSuite(317)
    for n, d, gamma in itertools.product((1, 2), (1, 2), (0.0, 0.5)):
        dim_in = 2 ** n
        for trial in range(3):
            ctx = _GameContext(random_qubit_device(rs.child(10 * n + trial)), n, gamma)
            for count in range(1, 5):
                v = np.stack([_isometry(rs.child(100 * count + i).ginibre(d * dim_in, dim_in))
                              for i in range(count)])
                want = np.concatenate([ctx.rewards(GeneralEncoding.from_isometry(vi, d))
                                       for vi in v])
                assert np.array_equal(ctx.isometry_rewards(v, d), want)


def test_product_strategy_validation_errors():
    qutrit = _qutrit_device()
    ideal = ideal_bb84_device()
    cases = [(qutrit, MeasureAll(angles=(0.1,)), 2, 1),
             (qutrit, StoreSubset(keep=(0,)), 2, 3),
             (ideal, MeasureAll(angles=(0.1, 0.2)), 3, 1),
             (ideal, StoreSubset(keep=(2,)), 2, 2),
             (ideal, StoreSubset(keep=(-1,)), 2, 2),
             # neither 0, 1 nor one angle per measured round: not cycled or cut
             (ideal, StoreSubset(keep=(0,), angles=(0.1, 0.2)), 4, 2),
             (ideal, StoreSubset(keep=(0,), angles=(0.1,) * 5), 3, 2),
             (ideal, StoreSubset(keep=(0, 1), angles=(0.1, 0.2)), 2, 4)]
    for device, strat, n, d in cases:
        with pytest.raises(StrategyError):
            exact_win_probability(device, strat, n, d, 0.0)
        with pytest.raises(StrategyError):
            strat.kraus_branches(device.dim_b, n)


# ---------------------------------------------------------------------------
# exact game values
# ---------------------------------------------------------------------------

def test_breidbart_attains_unit_memory_bound():
    device = ideal_bb84_device()
    res = exact_win_probability(device, breidbart(1), 1, 1, 0.0)
    assert res.win_prob == pytest.approx(bound_perfect(1, 1, 0.0), abs=1e-9)
    assert res.certified_gap <= 1e-7


def test_store_qubit_attains_qubit_memory_bound():
    device = ideal_bb84_device()
    res = exact_win_probability(device, StoreSubset(keep=(0,)), 1, 2, 0.0)
    assert res.win_prob == pytest.approx(1.0, abs=1e-9)
    assert bound_perfect(1, 2, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_win_probability_monotone_in_gamma():
    device = ideal_bb84_device()
    vals = [exact_win_probability(device, breidbart(2), 2, 1, g).win_prob
            for g in (0.0, 0.5)]
    assert vals[1] >= vals[0] - 1e-12


def test_per_theta_average_invariant():
    device = ideal_bb84_device()
    res = exact_win_probability(device, breidbart(2), 2, 1, 0.0)
    assert len(res.per_theta) == 4
    mean = sum(res.per_theta.values()) / 4
    assert mean == pytest.approx(res.win_prob, abs=1e-12)


def test_strategy_dimension_enforced():
    device = ideal_bb84_device()
    with pytest.raises(StrategyError):
        exact_win_probability(device, StoreSubset(keep=(0, 1)), 2, 2, 0.0)


def test_game_cap_enforced():
    device = ideal_bb84_device()
    with pytest.raises(DimensionCapError):
        exact_win_probability(device, breidbart(7), 7, 1, 0.0)


def test_general_encoding_roundtrip_and_value():
    # keep-the-qubit as an explicit single-branch instrument
    enc = GeneralEncoding(((np.eye(2, dtype=complex),),))
    device = ideal_bb84_device()
    res = exact_win_probability(device, enc, 1, 2, 0.0)
    assert res.win_prob == pytest.approx(1.0, abs=1e-9)
    back = strategy_from_obj(enc.to_obj())
    assert isinstance(back, GeneralEncoding)


def test_general_encoding_must_be_trace_preserving():
    bad = GeneralEncoding(((0.5 * np.eye(2, dtype=complex),),))
    with pytest.raises(StrategyError):
        exact_win_probability(ideal_bb84_device(), bad, 1, 2, 0.0)


def test_store_subset_rejects_repeated_rounds():
    with pytest.raises(StrategyError):
        StoreSubset(keep=(0, 0))
    with pytest.raises(StrategyError):
        strategy_from_obj({"kind": "store_subset", "keep": [1, 0, 1]})


def test_strategy_objects_roundtrip():
    for strat in (breidbart(2), StoreSubset(keep=(1,), angles=(0.3,)),
                  MeasureAll(angles=(0.1, 0.2))):
        back = strategy_from_obj(strat.to_obj())
        assert back == strat


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["win_prob", "per_theta", "certified_gap"])
def test_guess_result_rejects_non_finite_values(field, bad):
    values = {"win_prob": 0.5, "per_theta": {"0": 0.5, "1": 0.5}, "certified_gap": 1e-14}
    if field == "per_theta":
        values["per_theta"] = {"0": bad, "1": 0.5}
    else:
        values[field] = bad
    with pytest.raises(DomainError):
        adversary.GuessResult(**values)


@pytest.mark.parametrize("bad", [[math.nan], [math.inf], [True], "0.3", 0.3])
def test_product_strategies_reject_bad_angles(bad):
    with pytest.raises(StrategyError):
        MeasureAll(angles=bad)
    with pytest.raises(StrategyError):
        StoreSubset(keep=(0,), angles=bad)


@pytest.mark.parametrize("keep", [(0.7,), (True,), ("0",), 0])
def test_store_subset_rejects_non_integer_rounds(keep):
    with pytest.raises(StrategyError):
        StoreSubset(keep=keep)


def _mixed_device():
    """sigma_AB = I/4: every outcome of every round is equally likely, so
    each MAP guess is an exact tie."""
    ideal = ideal_bb84_device()
    return DeviceModel(dim_a=2, dim_b=2, sigma_ab=np.eye(4, dtype=complex) / 4,
                       alice_meas_0=ideal.alice_meas_0, alice_meas_1=ideal.alice_meas_1,
                       bob_meas_0=ideal.bob_meas_0, bob_meas_1=ideal.bob_meas_1,
                       test_t0=ideal.test_t0, test_t1=ideal.test_t1)


def test_product_decoders_are_povms_that_achieve_the_value():
    # every factorizing product attack: per basis string and branch the
    # decoders sum to the identity and are PSD, and on the dense game they
    # are worth win_prob
    rs = RandomSuite(421)
    devices = [ideal_bb84_device(), random_qubit_device(rs.child(0)),
               random_qubit_device(rs.child(1)), _mixed_device()]
    checked = 0
    for device, n in itertools.product(devices, (1, 2, 3)):
        angles = tuple(float(a) for a in rs.rng.random(n) * (math.pi / 2))
        for gamma in (0.0, 0.5):
            strats = [breidbart(n), MeasureAll(angles=angles)]
            if math.floor(gamma * n) == 0:
                strats += [StoreSubset(keep=(0,), angles=angles[1:]),
                           StoreSubset(keep=tuple(range(n)))]
            ctx = _GameContext(device, n, gamma)
            for strat in strats:
                res = _score_strategies(ctx, [strat], want_decoders=True)[0]
                f = np.array([res.decoders[key] for key in ctx.keys])
                f = f.reshape(-1, *f.shape[2:])          # as the rewards stack them
                eye = np.eye(f.shape[-1])
                assert np.max(np.abs(f.sum(axis=1) - eye)) <= 1e-12
                assert np.linalg.eigvalsh(f).min() >= -1e-12
                value = np.einsum("kyab,kyba->", f, ctx.rewards(strat)).real
                assert abs(value / len(ctx.keys) - res.win_prob) <= 1e-12, (strat, gamma)
                checked += 1
    assert checked == 80      # kept rounds meet no Hamming ball at n = 1 only


def test_measured_optimum_equals_stacked_numpy_form():
    # the per-round values and MAP guesses, bit for bit, as the stacked numpy
    # arrays over (rounds, bases, branches, outcomes) give them
    rs = RandomSuite(431)
    for trial in range(40):
        table = _GameContext(random_qubit_device(rs.child(trial)), 1, 0.0).table
        angles = rs.child(100 + trial).rng.random(5) * (math.pi / 2)
        cs = np.array([(math.cos(a), math.sin(a)) for a in angles])[:, :, None, None]
        c, s = cs[:, 0], cs[:, 1]
        d0, d1 = table[..., 0, 0].real, table[..., 1, 1].real
        cross = 2 * table[..., 0, 1].real
        p = np.stack([c * c * d0 + s * s * d1 + c * s * cross,
                      s * s * d0 + c * c * d1 - c * s * cross], axis=2)
        terms = [[(t[0][0].real, t[1][1].real, 2 * t[0][1].real) for t in basis]
                 for basis in table.tolist()]
        for i, a in enumerate(angles):
            values, guess = adversary._measured_optimum(terms, float(a))
            assert values == p[i].max(axis=2).sum(axis=1).tolist()
            assert guess == p[i].argmax(axis=2).tolist()


def test_game_table_equals_kron_formula_bit_for_bit():
    # the per-round table tr_A[(P^t_x (x) I) sigma_AB], as the chained
    # np.kron of each projector with the identity gives it
    rs = RandomSuite(437)
    devices = [random_qubit_device(rs.child(i)) for i in range(120)]
    devices += [adversary.random_rotated_ideal_device(rs.child(200 + i))
                for i in range(20)]
    devices += [ideal_bb84_device(), _mixed_device(), _qutrit_device()]
    for device in devices:
        da, db = device.dim_a, device.dim_b
        krons = np.array([[np.kron(p, np.eye(db)) for p in (m.p0, m.p1)]
                          for m in (device.alice_meas_0, device.alice_meas_1)])
        table = np.trace((krons @ device.sigma_ab).reshape(2, 2, da, db, da, db),
                         axis1=2, axis2=4)
        got = _GameContext(device, 1, 0.0).table
        assert got.dtype == table.dtype and got.tobytes() == table.tobytes()


def _product_digest() -> str:
    """One sha256 over the float hexes of every factorizing product result
    (win_prob, per_theta keys and values, certified_gap, converged) and its
    decoders' dtypes and bytes, from ``exact_win_probability`` and from one
    ``_score_strategies`` call per game, on a seeded grid: Breidbart,
    MeasureAll and StoreSubset with 0, 1 and one angle per measured round; n
    = 1-6; gamma 0, 0.2, 0.34 and 0.5; random, rotated-ideal and ideal
    devices, plus the mixed (all ties) and qutrit ones at n <= 3; decoders at
    n <= 3."""
    rs = RandomSuite(2409)
    h = hashlib.sha256()

    def put(res):
        values = [res.win_prob, res.certified_gap, res.converged]
        values += [v for item in res.per_theta.items() for v in item]
        h.update(" ".join(v.hex() if isinstance(v, float) else repr(v)
                          for v in values).encode() + b"\n")
        for key, branches in (res.decoders or {}).items():
            h.update(key.encode())
            for f in itertools.chain.from_iterable(branches):
                h.update(f.dtype.str.encode() + f.tobytes())

    for n, gamma in itertools.product(range(1, 7), (0.0, 0.2, 0.34, 0.5)):
        suite = rs.child(10 * n + int(gamma * 10))
        devices = [random_qubit_device(suite.child(0)),
                   adversary.random_rotated_ideal_device(suite.child(1)),
                   ideal_bb84_device()]
        if n <= 3:
            devices += [_mixed_device(), _qutrit_device()]
        want = n <= 3
        for device in devices:
            angles = tuple(float(a) for a in suite.rng.random(n) * (math.pi / 2))
            keep = tuple(sorted(suite.rng.choice(n, int(suite.rng.integers(n + 1)),
                                                 replace=False).tolist()))
            measured = n - len(keep)
            strats = [StoreSubset(keep=tuple(range(n)))]
            if device.dim_b == 2:
                strats += [breidbart(n), MeasureAll(angles=angles),
                           MeasureAll(angles=angles[:1]), StoreSubset(keep=keep),
                           StoreSubset(keep=keep, angles=angles[:min(measured, 1)]),
                           StoreSubset(keep=keep, angles=angles[:measured])]
            radius = math.floor(gamma * n)
            strats = [s for s in strats
                      if radius == 0 or None not in s.rounds(device.dim_b, n)]
            for strat in strats:
                put(exact_win_probability(device, strat, n, strat.memory_dim(
                    device.dim_b, n), gamma, want_decoders=want))
            for res in _score_strategies(_GameContext(device, n, gamma), strats,
                                         want_decoders=want):
                put(res)
    return h.hexdigest()


# The digest of the grid above, recorded before the product path was slimmed
# to one pass over its plans.
_PRODUCT_DIGEST = "f27fe69056f16c94a2df7b73931d82e7435feca6601dcc5a20f76c33680d50be"


def test_product_results_bit_identical_golden():
    assert _product_digest() == _PRODUCT_DIGEST


def test_product_decoders_take_the_first_guess_on_a_tie():
    # on the maximally mixed device both outcomes of every measured round are
    # equally likely; like argmax, MAP then guesses 0 on every branch
    device = _mixed_device()
    for n in (1, 2, 3):
        res = exact_win_probability(device, MeasureAll(angles=(0.3,)), n, 1, 0.0,
                                    want_decoders=True)
        assert res.win_prob == 0.5 ** n
        for branches in res.decoders.values():
            assert [[float(f[0, 0].real) for f in guesses] for guesses in branches] \
                == [[1.0] + [0.0] * (2 ** n - 1)] * 2 ** n


# at n = 2 the decoders are Kronecker products of per-round ones, MAP for
# measured rounds and Helstrom for kept ones, and one error is allowed in the
# last case
_REPLAY_CASES = ((breidbart(1), 1, 1, 0.0), (StoreSubset(keep=(0,)), 1, 2, 0.0),
                 (MeasureAll(angles=(0.2, 0.9)), 2, 1, 0.0),
                 (StoreSubset(keep=(1,), angles=(0.4,)), 2, 2, 0.0),
                 (MeasureAll(angles=(0.2, 0.9)), 2, 1, 0.5))


def test_monte_carlo_replay_matches_exact_value():
    device = ideal_bb84_device()
    for strat, n, d, gamma in _REPLAY_CASES:
        res = exact_win_probability(device, strat, n, d, gamma,
                                    want_decoders=True)
        trials = 20_000
        emp = replay_win_probability(device, strat, n, gamma, res.decoders,
                                     trials, seed=11)
        sigma = math.sqrt(res.win_prob * (1 - res.win_prob) / trials) + 1e-9
        assert abs(emp - res.win_prob) < 3 * sigma + 1e-9


def _replay_wins_with_choice(device, strategy, n, gamma, decoders, trials, seed):
    """Win count of the replay drawn by three ``Generator.choice`` calls per
    trial, each stage's distribution rebuilt every trial."""
    rng = RandomSuite(seed).rng
    ctx = _GameContext(device, n, 0.0)
    g = ctx.rewards(strategy)
    weights = np.maximum(0.0, np.einsum("kxii->kx", g).real)
    m_count = g.shape[0] // len(ctx.thetas)
    q = np.stack([adversary._kron_axes(np.trace(ctx.table[list(theta)], axis1=2,
                                                axis2=3), 1).real
                  for theta in ctx.thetas])
    total = q.sum(axis=1)
    wins = 0
    for _ in range(trials):
        ti = rng.integers(len(ctx.thetas))
        x = int(rng.choice(q.shape[1], p=q[ti] / total[ti]))
        joint = weights[ti * m_count:(ti + 1) * m_count, x]
        m = int(rng.choice(m_count, p=joint / joint.sum()))
        rho = g[ti * m_count + m, x] / joint[m]
        povm = np.asarray(decoders[ctx.keys[ti]][m])
        probs = np.maximum(0.0, np.einsum("yab,ba->y", povm, rho).real)
        y = int(rng.choice(len(probs), p=probs / probs.sum()))
        wins += int(bin(x ^ y).count("1") <= math.floor(gamma * n))
    return wins


@pytest.mark.parametrize("seed", [11, 12])
def test_replay_draws_as_generator_choice(seed):
    device = ideal_bb84_device()
    trials = 3_000
    for strat, n, d, gamma in _REPLAY_CASES:
        decoders = exact_win_probability(device, strat, n, d, gamma,
                                         want_decoders=True).decoders
        rate = replay_win_probability(device, strat, n, gamma, decoders, trials, seed=seed)
        assert round(rate * trials) == _replay_wins_with_choice(
            device, strat, n, gamma, decoders, trials, seed)


@pytest.mark.parametrize("bad", [np.nan, 0.0])
def test_replay_rejects_weights_it_cannot_draw_from(bad):
    # decoder outcome weights that are not finite, or that have no mass
    device = ideal_bb84_device()
    decoders = exact_win_probability(device, breidbart(1), 1, 1, 0.0,
                                     want_decoders=True).decoders
    broken = {key: [np.asarray(povm) * bad for povm in branches]
              for key, branches in decoders.items()}
    with pytest.raises(DomainError):
        replay_win_probability(device, breidbart(1), 1, 0.0, broken, 10)


# ---------------------------------------------------------------------------
# see-saw
# ---------------------------------------------------------------------------

def test_seesaw_finds_store_optimum():
    res, enc = seesaw_search(ideal_bb84_device(), 1, 2, restarts=3, seed=17,
                             iters=25)
    assert res.win_prob >= 1.0 - 1e-6


def test_seesaw_finds_breidbart_optimum():
    res, _ = seesaw_search(ideal_bb84_device(), 1, 1, restarts=3, seed=17,
                           iters=25)
    assert res.win_prob >= COS2_PI8 - 1e-4


def _sequential_seesaw(device, n, d, restarts, seed, gamma, iters):
    """The see-saw as one restart after another, each candidate scored in its
    own solver call, the winner certified as ``seesaw_search`` certifies it;
    also returns how many steps each restart took."""
    dim_in = device.dim_b ** n
    ctx = _GameContext(device, n, gamma)

    def score(v):
        g = ctx.rewards(GeneralEncoding.from_isometry(v, d))
        lower, _, _, _ = _discriminate_batch(g, tol=1e-7, qubit_first=True)
        return float(lower.reshape(len(ctx.thetas), -1).sum(axis=1).mean())

    def phase_fixed_qr(a):
        q, r = np.linalg.qr(a)
        diag = np.diagonal(r)
        return q * (diag / np.abs(diag))

    structured = _structured_isometries(device, n, d, dim_in)
    best_val, best_v, steps = -math.inf, None, []
    for r in range(restarts):
        suite = RandomSuite(child_seed(seed, r))
        v = structured[r] if r < len(structured) \
            else phase_fixed_qr(suite.ginibre(d * dim_in, dim_in))
        val = score(v)
        step, stale, taken = 0.35, 0, 0
        for _ in range(iters):
            taken += 1
            cand = phase_fixed_qr(v + step * suite.ginibre(*v.shape))
            cval = score(cand)
            if cval > val + 1e-12:
                v, val, stale = cand, cval, 0
            else:
                stale += 1
                if stale >= 4:
                    step *= 0.6
                    stale = 0
                    if step < 1e-3:
                        break
        steps.append(taken)
        if val > best_val:
            best_val, best_v = val, v
    # the winner is scored as seesaw_search scores it: once, closed form first,
    # at the certificate's default tol
    enc = GeneralEncoding.from_isometry(best_v, d)
    lower, upper, _, conv = _discriminate_batch(ctx.rewards(enc), qubit_first=True)
    return ctx.result(lower, upper, conv), enc, steps


def _assert_same_search(device, n, d, restarts, seed, gamma, iters):
    want, want_enc, steps = _sequential_seesaw(device, n, d, restarts, seed, gamma, iters)
    got, got_enc = seesaw_search(device, n, d, restarts=restarts, seed=seed,
                                 gamma=gamma, iters=iters)
    assert (got.win_prob, got.certified_gap, got.converged) == \
        (want.win_prob, want.certified_gap, want.converged)
    assert all(np.array_equal(a[0], b[0]) for a, b in zip(got_enc.kraus, want_enc.kraus))
    return steps


@pytest.mark.parametrize("n, d, gamma", [(1, 1, 0.0), (1, 2, 0.0), (2, 1, 0.0),
                                         (2, 2, 0.0), (2, 2, 0.5)])
def test_lockstep_seesaw_matches_sequential_restarts(n, d, gamma):
    # restarts 1..4 reach past the structured starts to Haar ones
    for trial in range(8):
        device = random_qubit_device(RandomSuite(child_seed(331, trial)))
        _assert_same_search(device, n, d, 1 + trial % 4, 40 + trial, gamma, 16)


def test_lockstep_seesaw_matches_when_one_restart_stops_early():
    # the second restart shrinks its step below 1e-3 and stops after 78 steps
    # while the first climbs on to the cap; had the second gone on, its later
    # accepts would change the result
    device = random_qubit_device(RandomSuite(child_seed(337, 0)))
    steps = _assert_same_search(device, 1, 1, 2, 7, 0.0, 100)
    assert steps[1] < steps[0] == 100


def _one_step_seesaw(device, n, d, restarts, seed, gamma, iters):
    """The see-saw as it was before the look-ahead: all restarts in lockstep,
    one step each per solver call; also returns how many steps each took."""
    dim_in = device.dim_b ** n
    ctx = _GameContext(device, n, gamma)
    structured = _structured_isometries(device, n, d, dim_in)
    suites = [RandomSuite(child_seed(seed, r)) for r in range(restarts)]
    v = np.stack([structured[r] if r < len(structured)
                  else _isometry(suites[r].ginibre(d * dim_in, dim_in))
                  for r in range(restarts)])
    val = _search_values(ctx, v, d)
    step = np.full(restarts, 0.35)
    stale = np.zeros(restarts, dtype=int)
    steps = [0] * restarts
    live = list(range(restarts))
    for _ in range(iters):
        noise = np.stack([suites[r].ginibre(*v.shape[1:]) for r in live])
        cand = _isometry(v[live] + step[live, None, None] * noise)
        cval = _search_values(ctx, cand, d)
        for r, c, cv in zip(list(live), cand, cval):
            steps[r] += 1
            if cv > val[r] + 1e-12:
                v[r], val[r], stale[r] = c, cv, 0
                continue
            stale[r] += 1
            if stale[r] >= 4:
                step[r] *= 0.6
                stale[r] = 0
                if step[r] < 1e-3:
                    live.remove(r)
        if not live:
            break
    enc = GeneralEncoding.from_isometry(v[int(np.argmax(val))], d)
    lower, upper, _, conv = _discriminate_batch(ctx.rewards(enc), qubit_first=True)
    return ctx.result(lower, upper, conv), enc, steps


def test_lookahead_seesaw_matches_one_step_climber():
    # 37 cases: six configs, three devices each, two (restarts, seed, iters)
    # settings per device, iters mostly not a multiple of the look-ahead, and
    # one where a restart stops early (step below 1e-3) while the other climbs on
    configs = [(1, 1, 0.0), (1, 2, 0.0), (2, 1, 0.0), (2, 2, 0.0), (2, 1, 0.5),
               (2, 2, 0.5)]
    cases = [(child_seed(347, trial), n, d, gamma, 1 + (trial + k) % 3, 60 + trial, iters)
             for n, d, gamma in configs for trial in range(3)
             for k, iters in enumerate((13, 30 - trial))]
    cases.append((child_seed(337, 0), 1, 1, 0.0, 2, 7, 100))
    early = 0
    for device_seed, n, d, gamma, restarts, seed, iters in cases:
        device = random_qubit_device(RandomSuite(device_seed))
        want, want_enc, steps = _one_step_seesaw(device, n, d, restarts, seed, gamma, iters)
        got, got_enc = seesaw_search(device, n, d, restarts=restarts, seed=seed,
                                     gamma=gamma, iters=iters)
        assert got == want
        assert all(np.array_equal(a[0], b[0]) for a, b in zip(got_enc.kraus, want_enc.kraus))
        early += min(steps) < iters
    assert early >= 1
    assert any(iters % adversary._LOOKAHEAD for *_, iters in cases)


def test_seesaw_needs_a_restart():
    with pytest.raises(DomainError):
        seesaw_search(ideal_bb84_device(), 1, 2, restarts=0)


def test_seesaw_never_beats_bound():
    rs = RandomSuite(311)
    for trial in range(10):
        suite = rs.child(trial)
        device = random_qubit_device(suite)
        eps = epsilon_plus_direct(device.alice_meas_0, device.alice_meas_1,
                                  device.sigma_a)
        res, _ = seesaw_search(device, 1, 2, restarts=2, seed=trial, iters=20)
        assert res.win_prob <= bound_perfect(1, 2, eps) + 1e-6


# ---------------------------------------------------------------------------
# random device families
# ---------------------------------------------------------------------------

_CHECKS = ("check_projector", "check_density_operator", "check_binary_observable",
           "is_hermitian")
_MEASUREMENTS = ("alice_meas_0", "alice_meas_1", "bob_meas_0", "bob_meas_1")


def _count_checks(monkeypatch) -> collections.Counter:
    """Count the calls of the structural checks, in every module that looks
    one of them up."""
    calls = collections.Counter()
    for name in _CHECKS:
        def counted(*args, _check=getattr(matcore, name), _name=name, **kwargs):
            calls[_name] += 1
            return _check(*args, **kwargs)
        for module in (matcore, jordan, protocols, adversary):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return calls


def _same_array(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("family", [random_qubit_device,
                                    adversary.random_rotated_ideal_device])
def test_drawn_devices_skip_checks_they_pass(monkeypatch, family):
    # a draw runs no check, and holds what the checking constructors return
    # on the same arrays, bit for bit and in dtype; the ideal device whose
    # Bob side the draws share is built, checked, once per process
    adversary._ideal_device()
    calls = _count_checks(monkeypatch)
    for seed in range(200):
        device = family(RandomSuite(child_seed(411, seed)))
        assert not calls, (seed, dict(calls))
        checked = DeviceModel(
            dim_a=device.dim_a, dim_b=device.dim_b, sigma_ab=device.sigma_ab,
            test_t0=device.test_t0, test_t1=device.test_t1, noise_q=device.noise_q,
            **{name: BinaryMeasurement(getattr(device, name).p0, getattr(device, name).p1)
               for name in _MEASUREMENTS})
        assert all(calls[name] for name in _CHECKS), dict(calls)
        calls.clear()
        for name in ("sigma_ab", "test_t0", "test_t1"):
            assert _same_array(getattr(device, name), getattr(checked, name)), name
        for name in _MEASUREMENTS:
            for part in ("p0", "p1"):
                assert _same_array(getattr(getattr(device, name), part),
                                   getattr(getattr(checked, name), part)), (name, part)
        assert (device.dim_a, device.dim_b, device.noise_q) == (2, 2, 0.0)
        DeviceModel.from_obj(json.loads(json.dumps(device.to_obj())))
        calls.clear()


def test_device_marginals_equal_checked_partial_trace():
    # sigma_a and sigma_b skip the checks, not a digit: bytes and dtype equal
    # the checked partial_trace on drawn, ideal and qutrit-memory devices
    devices = [ideal_bb84_device(), _qutrit_device()]
    for seed in range(20):
        suite = RandomSuite(child_seed(431, seed))
        devices += [random_qubit_device(suite), adversary.random_rotated_ideal_device(suite)]
    for device in devices:
        dims = [device.dim_a, device.dim_b]
        assert _same_array(device.sigma_a, partial_trace(device.sigma_ab, dims, [0]))
        assert _same_array(device.sigma_b, partial_trace(device.sigma_ab, dims, [1]))


@pytest.mark.parametrize("n, d", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 4), (3, 8)])
def test_strategy_family_equals_checked_construction(monkeypatch, n, d):
    # the family builds its members unchecked; each equals, field for field
    # and in type, what the checking constructor makes of the same fields
    angle_checks = []
    checked_angles = adversary._angle_tuple
    monkeypatch.setattr(adversary, "_angle_tuple",
                        lambda a: angle_checks.append(a) or checked_angles(a))
    for trial in range(10):
        family = strategy_family(n, d, 2, RandomSuite(child_seed(433, trial)))
        assert not angle_checks
        for s in family:
            if isinstance(s, MeasureAll):
                checked = MeasureAll(angles=s.angles)
            else:
                checked = StoreSubset(keep=s.keep, angles=s.angles)
            assert s == checked and hash(s) == hash(checked)
            assert s.to_obj() == checked.to_obj() and s.kind == checked.kind
            assert all(type(a) is float for a in s.angles)
            assert all(type(k) is int for k in getattr(s, "keep", ()))
            for x, y in zip(s.kraus_branches(2, n), checked.kraus_branches(2, n),
                            strict=True):
                assert all(_same_array(a, b) for a, b in zip(x, y, strict=True))
        angle_checks.clear()


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, d, gamma", [(1, 1, 0.0), (1, 2, 0.0), (2, 1, 0.0),
                                         (2, 2, 0.0), (2, 1, 0.5), (2, 2, 0.5)])
def test_family_scoring_equals_one_strategy_at_a_time(n, d, gamma):
    # one certified call per reward shape gives each strategy the result,
    # bit for bit, that its own call gives
    for trial in range(20):
        suite = RandomSuite(child_seed(353, trial))
        device = random_qubit_device(suite)
        family = [s for s in strategy_family(n, d, 2, suite) if s.memory_dim(2, n) <= d]
        assert len({s.memory_dim(2, n) for s in family}) == min(d, 2)
        batched = _score_strategies(_GameContext(device, n, gamma), family)
        assert batched == [exact_win_probability(device, s, n, d, gamma) for s in family]


def test_verify_key_lemma_small_runs():
    for n, d in ((1, 1), (1, 2), (2, 1), (2, 2)):
        rep = verify_key_lemma(8, n, d, seed=23)
        assert rep.passed, rep.violations[:1]
        assert rep.max_ratio <= 1.0 + 1e-6


def test_verify_key_lemma_reports_certificate_quality():
    rep = verify_key_lemma(4, 2, 2, gamma=0.5, seed=23)
    assert rep.details["converged"] is True
    assert 0.0 <= rep.details["worst_certified_gap"] <= 1e-9


def test_verify_key_lemma_imperfect_game():
    rep = verify_key_lemma(8, 2, 2, gamma=0.5, seed=23)
    assert rep.passed


def test_verify_key_lemma_deterministic_and_threaded():
    a = verify_key_lemma(6, 1, 2, seed=29)
    b = verify_key_lemma(6, 1, 2, seed=29)
    assert a.max_ratio == b.max_ratio


def test_memoryless_optimum_on_ideal_device_is_monogamy_value():
    # guessing with post-measurement information on the ideal device is the
    # monogamy game, worth cos^2(pi/8) = B(1, 1, 0)
    _, values, gap, converged = adversary._memoryless_optimum(
        _GameContext(ideal_bb84_device(), 1, 0.0))
    value = (values[0] + values[1]) / 2
    assert abs(value - COS2_PI8) <= 1e-12
    assert 0.0 <= gap <= 1e-12 and converged


def _memoryless_problem(device) -> np.ndarray:
    """The n = d = 1 problem, W_f = (T[0, f0] + T[1, f1]) / 2, built apart."""
    table = _GameContext(device, 1, 0.0).table
    return np.array([(table[0, f0] + table[1, f1]) / 2
                     for f0, f1 in itertools.product((0, 1), repeat=2)])


def test_memoryless_optimum_bounds_every_attack_and_is_bounded_by_b_prime():
    from di2pc.bounds import bound_imperfect
    problems, values, uppers = [], [], []
    for trial in range(120):
        suite = RandomSuite(child_seed(461, trial))
        device = random_qubit_device(suite)
        ctx = _GameContext(device, 1, 0.0)
        w = _memoryless_problem(device)[None]     # one guess per table f
        _, (v0, v1), gap, converged = adversary._memoryless_optimum(ctx)
        value = (v0 + v1) / 2
        upper = value + gap
        assert converged
        # a stop, not a tolerance: the optimum past B' would refute the bound
        eps = epsilon_plus_direct(device.alice_meas_0, device.alice_meas_1,
                                  device.sigma_a)
        bound = bound_imperfect(1, 1, eps, 0.0)
        assert value <= bound + adversary._WIN_SLACK, device.to_obj()
        # every attack is one POVM on Bob's qubit, so none beats the optimum
        family = strategy_family(1, 1, 2, suite)
        for strat, res in zip(family, _score_strategies(ctx, family)):
            assert res.win_prob <= upper + 1e-12, (trial, strat)
        res, _ = seesaw_search(device, 1, 1, restarts=2, seed=trial, iters=30)
        assert res.win_prob <= upper + 1e-12, trial
        # the optimum is the closed form of its own problem, built apart, up
        # to rounding: both lowers are float values of optimal POVMs
        lower_q, upper_q, _, _ = _discriminate_batch(w, qubit_first=True)
        assert abs(value - lower_q[0]) <= 1e-13 and value <= upper_q[0]
        assert lower_q[0] <= upper
        problems.append(w[0])
        values.append(value)
        uppers.append(upper)
    # the general certified path, without the closed form, brackets the same
    # optima: each pair of certified intervals overlaps
    lower_g, upper_g, _, conv_g = _discriminate_batch(np.array(problems))
    assert conv_g
    assert np.all(lower_g <= np.array(uppers)) and np.all(np.array(values) <= upper_g)


def test_memoryless_optimum_brackets_both_certified_paths(monkeypatch):
    ideal = ideal_bb84_device()
    tilted = np.diag([0.8, 0.2]).astype(complex)      # Alice's state, biased
    bob = np.array([[0.6, 0.2 - 0.1j], [0.2 + 0.1j, 0.4]])

    def product(rho_a, rho_b):
        return dataclasses.replace(ideal, sigma_ab=np.kron(rho_a, rho_b))
    # the ideal device (cos^2(pi/8), with ties); product states, whose
    # conditional states all coincide with rho_B: every pair has D = 0 when
    # rho_B = I/2, and every W_f is a multiple of rho_B, so that the largest
    # dominates (one active guess) unless all are equal
    devices = [ideal, product(tilted, np.eye(2) / 2), product(tilted, bob),
               product(np.eye(2) / 2, np.eye(2) / 2)]
    for family in (random_qubit_device, adversary.random_rotated_ideal_device):
        devices += [family(RandomSuite(child_seed(2525, i))) for i in range(500)]
    solve, fallbacks = adversary._discriminate_batch, []

    def counted(*args, **kwargs):
        fallbacks.append(1)
        return solve(*args, **kwargs)
    monkeypatch.setattr(adversary, "_discriminate_batch", counted)
    values, gaps, convs = np.array([(sum(v) / 2, gap, conv) for _, v, gap, conv in (
        adversary._memoryless_optimum(_GameContext(dev, 1, 0.0)) for dev in devices)]).T
    monkeypatch.undo()
    assert convs.all() and np.all((0.0 <= gaps) & (gaps <= 1e-13))
    assert abs(values[0] - COS2_PI8) <= 1e-15
    # Z guessed from the bias, X at random: (0.8 + 0.5) / 2; no bias: 1/2
    assert np.allclose(values[1:4], [0.65, 0.65, 0.5], rtol=0.0, atol=1e-15)
    # no single or pair settles 65 of the 500 Haar-random devices (three
    # active guesses) and none of the rotated ideal ones
    assert 0 < len(fallbacks) < len(devices) // 4
    w = np.array([_memoryless_problem(dev) for dev in devices])
    uppers = values + gaps
    for lower, upper, _, _ in (_discriminate_batch(w, qubit_first=True),
                               _discriminate_batch(w)):
        # intervals, not values: the general path can sit up to 8e-10 low
        assert np.all(values <= upper) and np.all(lower <= uppers)


def _optimum_encoding(device, rounds) -> GeneralEncoding:
    """``rounds`` (angles and "optimum" entries) as an instrument into no
    quantum memory: an optimum round's branches are the outcomes f of its
    POVM, each with the rows of sqrt(F_f) as Kraus elements, and a measured
    round's the two bras at its angle."""
    povm = adversary._memoryless_optimum(_GameContext(device, 1, 0.0))[0]
    factors = []
    for a in rounds:
        if a == "optimum":
            factors.append(matcore.psd_sqrt(povm)[:, :, None, :])
        else:
            c, s = math.cos(a), math.sin(a)
            factors.append(np.array([[[[c, s]]], [[[-s, c]]]], dtype=complex))
    kraus = adversary._kron_axes(factors, 4)          # (branches, elements, 1, 2^n)
    return GeneralEncoding(tuple(tuple(branch) for branch in kraus))


def test_optimum_rounds_equal_the_dense_game_of_their_instrument():
    # every round played with the memoryless optimum, or mixed with fixed
    # angles, scored round by round, against the certified dense game of the
    # same instrument (Kraus sqrt(F_f) per round, no quantum memory)
    rs = RandomSuite(2601)
    devices = [ideal_bb84_device()]
    devices += [random_qubit_device(rs.child(i)) for i in range(80)]
    devices += [adversary.random_rotated_ideal_device(rs.child(100 + i)) for i in range(25)]
    worst = 0.0
    for i, device in enumerate(devices):
        _, (v0, v1), gap1, conv1 = adversary._memoryless_optimum(
            _GameContext(device, 1, 0.0))
        assert conv1 and gap1 <= 1e-12
        angle = float(rs.child(200 + i).rng.random() * math.pi / 2)
        n = 1 + i % 3
        plans = [("optimum",) * n, tuple("optimum" if k % 2 == i % 2 else angle
                                         for k in range(n))]
        for rounds, gamma in itertools.product(plans, (0.0, 0.5)):
            res = exact_win_probability(device, MeasureAll(rounds), n, 1, gamma)
            want = exact_win_probability(device, _optimum_encoding(device, rounds), n, 1,
                                         gamma)
            assert res.converged and want.converged and res.certified_gap <= 1e-12
            worst = max(worst, abs(res.win_prob - want.win_prob),
                        *(abs(res.per_theta[k] - want.per_theta[k]) for k in res.per_theta))
            if n == 1 and rounds == ("optimum",):
                # the exact n = 1 optimum, within its gap
                assert abs(res.win_prob - (v0 + v1) / 2) <= gap1
                assert res.per_theta == {"0": v0, "1": v1}
    assert worst <= 1e-9
    # the monogamy value per round on the ideal device, and the rounds multiply
    for n in (1, 2, 3):
        res = exact_win_probability(ideal_bb84_device(), MeasureAll(("optimum",) * n), n, 1)
        assert abs(res.win_prob - COS2_PI8 ** n) <= 1e-12


def test_optimum_round_keeps_helstrom_rounds_and_its_decoders():
    # at n = d = 2 one round stored (Helstrom) and one on the optimum: the
    # product of the two n = 1 values, per basis string, and the decoders
    # read each optimum outcome's table entry
    for trial in range(20):
        device = random_qubit_device(RandomSuite(child_seed(2603, trial)))
        _, v, _, _ = adversary._memoryless_optimum(_GameContext(device, 1, 0.0))
        h = exact_win_probability(device, StoreSubset(keep=(0,)), 1, 2).per_theta
        for k in (0, 1):
            res = exact_win_probability(device, StoreSubset((k,), ("optimum",)), 2, 2,
                                        want_decoders=True)
            for key, value in res.per_theta.items():
                stored, played = int(key[k]), int(key[1 - k])
                assert abs(value - h[str(stored)] * v[played]) <= 1e-15
            # one decoder per (stored branch, POVM outcome f), f = 2 f0 + f1
            decoders = res.decoders["01"]
            assert len(decoders) == 4 and all(len(b) == 4 for b in decoders)
    ideal = exact_win_probability(ideal_bb84_device(), StoreSubset((1,), ("optimum",)), 2, 2)
    assert abs(ideal.win_prob - COS2_PI8) <= 1e-12


@pytest.mark.parametrize("angles", [("Optimum",), ("",), (None,), (["optimum"],),
                                    ("optimum ",), (b"optimum",)])
def test_optimum_token_is_checked_like_any_angle(angles):
    with pytest.raises(StrategyError):
        MeasureAll(angles)
    with pytest.raises(StrategyError):
        StoreSubset(keep=(0,), angles=angles)
    with pytest.raises(StrategyError):
        strategy_from_obj({"kind": "measure_all", "angles": list(angles)})


def test_optimum_round_refused_where_it_has_no_instrument():
    ideal = ideal_bb84_device()
    stored = StoreSubset((0,), ("optimum",))
    assert strategy_from_obj(stored.to_obj()) == stored
    # one error allowed with a stored round: the dense game, which needs an
    # instrument, and an optimum round's depends on the device
    with pytest.raises(StrategyError, match="factorizes"):
        exact_win_probability(ideal, stored, 2, 2, 0.5)
    with pytest.raises(StrategyError, match="factorizes"):
        _score_strategies(_GameContext(ideal, 2, 0.5), [breidbart(2), stored])
    for strat in (MeasureAll(("optimum",)), stored):
        with pytest.raises(StrategyError):
            strat.kraus_branches(2, 2)
        with pytest.raises(StrategyError):
            replay_win_probability(ideal, strat, 2, 0.0, {}, trials=10)
    # a qutrit wire has no memoryless optimum here
    qutrit = _qutrit_device()
    for strat, n, d in ((MeasureAll(("optimum",)), 1, 1), (stored, 2, 3)):
        with pytest.raises(StrategyError):
            exact_win_probability(qutrit, strat, n, d)


def test_key_lemma_products_replace_the_seesaw_at_d_1(monkeypatch):
    calls = []

    def refuse(*args, **kwargs):
        calls.append(args[1:3])
        raise AssertionError("see-saw reached")
    monkeypatch.setattr(adversary, "seesaw_search", refuse)
    for n in (1, 2):
        rep = verify_key_lemma(6, n, 1, seed=5)
        assert rep.passed and rep.details["converged"]
    assert not calls
    # at n = d = 2 with no error allowed it still runs where B' < 1
    with pytest.raises(AssertionError, match="see-saw reached"):
        verify_key_lemma(40, 2, 2, seed=1)
    assert calls == [(2, 2)]
    # a violation names the product attack's kind
    monkeypatch.setattr(adversary, "bound_imperfect", lambda *args: 0.25)
    for n in (1, 2):
        rep = verify_key_lemma(3, n, 1, seed=5)
        assert not rep.passed and len(rep.violations) == 3
        assert {v["strategy"] for v in rep.violations} == {"measure_all"}
        for v in rep.violations:
            device = DeviceModel.from_obj(v["device"])
            want = exact_win_probability(device, MeasureAll(("optimum",) * n), n, 1)
            assert v["win_prob"] == want.win_prob


def test_verify_norm_lemma_single_term_equality():
    rep = verify_norm_lemma(1, max_dim=4, max_terms=1, seed=1)
    assert rep.passed
    assert rep.max_ratio == pytest.approx(1.0, abs=1e-9)


def test_verify_norm_lemma_commuting_diagonal():
    # diagonal PSD matrices: both sides computable by hand
    from di2pc.matcore import operator_norm, psd_sqrt
    a = np.diag([1.0, 2.0]).astype(complex)
    b = np.diag([3.0, 1.0]).astype(complex)
    lhs = operator_norm(a + b)
    assert lhs == pytest.approx(4.0, abs=1e-12)      # max eig of diag(4, 3)
    roots = [psd_sqrt(a), psd_sqrt(b)]
    l_mat = np.array([[operator_norm(ri @ rj) for rj in roots] for ri in roots])
    # ||sqrt(A)sqrt(B)|| = max_i sqrt(a_i b_i) = sqrt(3)
    assert l_mat[0][1] == pytest.approx(math.sqrt(3.0), abs=1e-12)
    rhs = float(np.max(l_mat.sum(axis=0)))
    assert rhs == pytest.approx(3.0 + math.sqrt(3.0), abs=1e-12)
    assert lhs <= rhs + 1e-12


def test_verify_norm_lemma_fuzz():
    rep = verify_norm_lemma(300, seed=31)
    assert rep.passed
    assert rep.worst_slack >= -1e-9


def test_verify_overlap_lemma_fuzz():
    rep = verify_overlap_lemma(100, 2, 3, seed=37)
    assert rep.passed
    assert rep.worst_slack >= -1e-9


def test_verify_overlap_lemma_anticommuting_blocks():
    # beta = pi/4, d = 1: opposite bases force lhs <= 1/sqrt(2); the
    # deterministic POVM (1, 0) makes the inequality tight.
    from di2pc.adversary import _block_measurement
    from di2pc.matcore import operator_norm, psd_sqrt
    blocks = _block_measurement(math.pi / 4)
    for povm, expect_tight in (((1.0, 0.0), True), ((0.5, 0.5), False)):
        pi0 = sum(np.kron(blocks[(0, x)], np.array([[povm[x]]])) for x in (0, 1))
        pi1 = sum(np.kron(blocks[(1, x)], np.array([[povm[x]]])) for x in (0, 1))
        lhs = operator_norm(psd_sqrt(pi1) @ psd_sqrt(pi0))
        assert lhs <= 1.0 / math.sqrt(2.0) + 1e-9
        if expect_tight:
            assert lhs == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)


def test_verification_report_serializes():
    rep = verify_norm_lemma(5, seed=41)
    obj = rep.to_dict()
    assert obj["name"] == "norm-lemma" and obj["trials"] == 5


def test_strategy_family_respects_memory():
    suite = RandomSuite(43)
    fam = strategy_family(2, 1, 2, suite)
    assert all(s.memory_dim(2, 2) <= 1 for s in fam
               if not isinstance(s, StoreSubset))


def test_ball_factor_bounds_imperfect_win():
    # permutation argument: win(gamma) <= |ball| * win(0) for the same encoding
    from di2pc.bounds import hamming_ball
    device = ideal_bb84_device()
    for strat, d in ((breidbart(2), 1), (StoreSubset(keep=(1,)), 2)):
        w0 = exact_win_probability(device, strat, 2, d, 0.0).win_prob
        w_half = exact_win_probability(device, strat, 2, d, 0.5).win_prob
        assert w_half <= hamming_ball(2, 1) * w0 + 1e-9


def test_measure_all_matches_analytic_value():
    # Ideal device, n = 1, intercept at angle mu: the optimal decode picks
    # the likelier outcome per branch, giving
    #   win(mu) = [max(cos^2 mu, sin^2 mu)
    #              + max(cos^2(mu - pi/4), sin^2(mu - pi/4))] / 2.
    device = ideal_bb84_device()
    for mu in np.linspace(0.0, math.pi / 2, 13):
        res = exact_win_probability(device, MeasureAll(angles=(float(mu),)),
                                    1, 1, 0.0)
        c2 = math.cos(mu) ** 2
        x2 = math.cos(mu - math.pi / 4) ** 2
        expect = (max(c2, 1 - c2) + max(x2, 1 - x2)) / 2
        assert res.win_prob == pytest.approx(expect, abs=1e-12)


def test_only_stored_rounds_with_errors_allowed_reach_the_solver():
    # product attacks are scored round by round unless a kept round meets a
    # Hamming ball; then the dense game goes to the certified solver
    device = random_qubit_device(RandomSuite(359))
    cases = [(MeasureAll(angles=(0.3, 1.1, 0.2)), 1, 0.0, 0),
             (MeasureAll(angles=(0.3, 1.1, 0.2)), 1, 0.4, 0),
             (StoreSubset(keep=(1,)), 2, 0.0, 0),
             (StoreSubset(keep=(1,)), 2, 0.2, 0),      # floor(0.2 * 3) = 0
             (StoreSubset(keep=(1,)), 2, 0.4, 1),
             (GeneralEncoding.from_isometry(np.eye(8, dtype=complex), 1), 1, 0.0, 1)]
    for strat, d, gamma, calls in cases:
        with mock.patch.object(adversary, "_discriminate_batch",
                               wraps=adversary._discriminate_batch) as solve:
            res = exact_win_probability(device, strat, 3, d, gamma)
        assert solve.call_count == calls, (strat, gamma)
        assert res.converged
        if not calls:
            assert 0.0 < res.certified_gap <= 1e-12


def test_intercept_game_value_factorizes_over_rounds():
    # i.i.d. device, product strategy, perfect game: the two-round value is
    # the product of the single-round values.
    device = ideal_bb84_device()
    for a, b in ((0.1, 0.6), (math.pi / 8, math.pi / 8), (0.0, 0.5)):
        w1a = exact_win_probability(device, MeasureAll(angles=(a,)), 1, 1,
                                    0.0).win_prob
        w1b = exact_win_probability(device, MeasureAll(angles=(b,)), 1, 1,
                                    0.0).win_prob
        w2 = exact_win_probability(device, MeasureAll(angles=(a, b)), 2, 1,
                                   0.0).win_prob
        assert w2 == pytest.approx(w1a * w1b, abs=1e-10)


@pytest.mark.parametrize("n", [0, -2])
def test_game_needs_a_round(n):
    device = ideal_bb84_device()
    with pytest.raises(DomainError):
        exact_win_probability(device, breidbart(n), n, 1, 0.0)
    with pytest.raises(DomainError):
        seesaw_search(device, n, 1)
    with pytest.raises(DomainError):
        replay_win_probability(device, breidbart(n), n, 0.0, {}, 10)
    with pytest.raises(DomainError):
        verify_key_lemma(1, n, 1)


@pytest.mark.parametrize("call", [
    lambda: verify_overlap_lemma(2, 0, 1),
    lambda: verify_overlap_lemma(2, 1, 0),
    lambda: verify_norm_lemma(1, max_dim=0),
    lambda: verify_norm_lemma(1, max_terms=0),
])
def test_verifiers_reject_empty_ranges(call):
    with pytest.raises(DomainError):
        call()


def test_replay_needs_a_trial():
    device = ideal_bb84_device()
    res = exact_win_probability(device, breidbart(1), 1, 1, 0.0, want_decoders=True)
    with pytest.raises(DomainError):
        replay_win_probability(device, breidbart(1), 1, 0.0, res.decoders, 0)


def test_replay_capped_before_the_game_is_built():
    # 2^40 basis strings would be listed before the strategy's cap is read
    with pytest.raises(DimensionCapError):
        replay_win_probability(ideal_bb84_device(), breidbart(40), 40, 0.0, {}, 1)
