"""Tests for strategies, discrimination, the exact game, and the verifiers."""

import itertools
import math

import numpy as np
import pytest

from di2pc.adversary import (
    _discriminate_batch,
    _dual_upper,
    _GameContext,
    _haar_isometry,
    _ipm_single,
    _qubit_optimum,
    _search_values,
    _structured_isometries,
    GeneralEncoding,
    MeasureAll,
    StoreSubset,
    breidbart,
    exact_win_probability,
    optimal_discrimination,
    post_measurement_ensemble,
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
from di2pc.matcore import RandomSuite, child_seed, partial_trace, trace_norm
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
        v = _haar_isometry(RandomSuite(iso_seed), 8, 4)
        value = _search_values(ctx, v[None], 2)[0]
        g = ctx.rewards(GeneralEncoding.from_isometry(v, 2))
        _, upper, _, _ = _discriminate_batch(g, tol=1e-12)
        optimum = float(upper.reshape(4, -1).sum(axis=1).mean())
        assert value >= before - 1e-9
        assert optimum - 1e-9 <= value <= optimum


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

def test_ensemble_breidbart_branch_probabilities():
    device = ideal_bb84_device()
    ens = post_measurement_ensemble(device, breidbart(1), 1, (0,))
    assert ens.q == pytest.approx([0.5, 0.5], abs=1e-12)
    # two classical branches per outcome, each a 1-dim record
    for x in (0, 1):
        probs = [p for p, _ in ens.branch_states(x)]
        assert sum(probs) == pytest.approx(1.0, abs=1e-10)


def test_ensemble_store_all_steering():
    device = ideal_bb84_device()
    ens = post_measurement_ensemble(device, StoreSubset(keep=(0,)), 1, (0,))
    # conditional states are |0><0| and |1><1| for the Z basis
    st0 = ens.branch_ops[0][0] / np.trace(ens.branch_ops[0][0])
    st1 = ens.branch_ops[0][1] / np.trace(ens.branch_ops[0][1])
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
        ens = post_measurement_ensemble(device, strat, n, theta)
        assert ens.q.sum() == pytest.approx(1.0, abs=1e-10)


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
                v = np.stack([_haar_isometry(rs.child(100 * count + i), d * dim_in, dim_in)
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
             (ideal, StoreSubset(keep=(-1,)), 2, 2)]
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


def test_monte_carlo_replay_matches_exact_value():
    device = ideal_bb84_device()
    for strat, d in ((breidbart(1), 1), (StoreSubset(keep=(0,)), 2)):
        res = exact_win_probability(device, strat, 1, d, 0.0,
                                    want_decoders=True)
        trials = 20_000
        emp = replay_win_probability(device, strat, 1, 0.0, res.decoders,
                                     trials, seed=11)
        sigma = math.sqrt(res.win_prob * (1 - res.win_prob) / trials) + 1e-9
        assert abs(emp - res.win_prob) < 3 * sigma + 1e-9


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
    own solver call; also returns how many steps each restart took."""
    dim_in = device.dim_b ** n
    ctx = _GameContext(device, n, gamma)

    def score(v):
        g = ctx.rewards(GeneralEncoding.from_isometry(v, d))
        lower, _, _, _ = _discriminate_batch(g, tol=1e-7, max_iter=80,
                                             dual_every=10 ** 9, refine=False)
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
    enc = GeneralEncoding.from_isometry(best_v, d)
    return exact_win_probability(device, enc, n, d, gamma, _ctx=ctx), enc, steps


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


def test_seesaw_needs_a_restart():
    with pytest.raises(DomainError):
        seesaw_search(ideal_bb84_device(), 1, 2, restarts=0)
    with pytest.raises(DomainError):
        verify_key_lemma(1, 1, 1, seed=3, seesaw_restarts=0)


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
# verifiers
# ---------------------------------------------------------------------------

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
    c = verify_key_lemma(6, 1, 2, seed=29, threads=3)
    assert a.max_ratio == b.max_ratio == c.max_ratio


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
