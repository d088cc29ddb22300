"""Tests for the device model and the WSE / PV honest simulations."""

import json
import math

import numpy as np
import pytest
from scipy.stats import chisquare

from di2pc.adversary import random_qubit_device, random_rotated_ideal_device
from di2pc.chsh import TSIRELSON, chsh_value
from di2pc.errors import DomainError
from di2pc.jordan import BinaryMeasurement, epsilon_plus_direct
from di2pc.matcore import RandomSuite
from di2pc.protocols import (
    DeviceModel,
    PvConfig,
    _BLOCK,
    _sample_rounds,
    apply_depolarizing,
    completeness_report,
    ideal_bb84_device,
    run_pv,
    run_wse,
    wilson_interval,
)


# ---------------------------------------------------------------------------
# oracles: the per-element implementations the array code replaced
# ---------------------------------------------------------------------------

def oracle_outcome_table(device, noisy=True):
    """One np.kron and one trace per (bases, outcomes) entry."""
    state = device.noisy_sigma_ab() if noisy else device.sigma_ab
    table = np.zeros((2, 2, 2, 2))
    for ta, am in enumerate((device.alice_meas_0, device.alice_meas_1)):
        for tb, bm in enumerate((device.bob_meas_0, device.bob_meas_1)):
            for x, pa in enumerate((am.p0, am.p1)):
                for y, pb in enumerate((bm.p0, bm.p1)):
                    table[ta, tb, x, y] = max(0.0, float(
                        np.trace(np.kron(pa, pb) @ state).real))
    sums = table.sum(axis=(2, 3))
    assert np.max(np.abs(sums - 1.0)) <= 1e-8
    return table / sums[:, :, None, None]


def oracle_sample_rounds(table, theta, theta_prime, rng):
    """Sampling through an (n, 4) array of per-round cdf rows."""
    cdf = np.cumsum(table.reshape(2, 2, 4), axis=-1)
    rows = cdf[theta, theta_prime]
    u = rng.random(theta.size)
    joint = (u[:, None] > rows).sum(axis=1)
    return (joint >> 1).astype(np.uint8), (joint & 1).astype(np.uint8)


def oracle_bits(a):
    return "".join(str(int(b)) for b in a)


def oracle_wse_obj(device, n, seed):
    """``run_wse(device, n, seed).to_obj()`` computed element by element."""
    rng = RandomSuite(seed).rng
    theta = rng.integers(0, 2, size=n).astype(np.uint8)
    theta_prime = rng.integers(0, 2, size=n).astype(np.uint8)
    x, x_prime = oracle_sample_rounds(oracle_outcome_table(device), theta,
                                      theta_prime, rng)
    index_set = [k for k in range(n) if theta[k] == theta_prime[k]]
    return {"n": n, "theta": oracle_bits(theta), "x": oracle_bits(x),
            "theta_prime": oracle_bits(theta_prime),
            "x_prime": oracle_bits(x_prime), "index_set": index_set,
            "substring": oracle_bits(x_prime[k] for k in index_set)}


def oracle_pv_obj(device, n, gamma, seed):
    """``run_pv(device, unit_line_config(n, gamma), seed).to_obj()``, element
    by element; the honest prover at the midpoint answers in exactly 1.0."""
    rng = RandomSuite(seed).rng
    theta = rng.integers(0, 2, size=n).astype(np.uint8)
    x, y = oracle_sample_rounds(oracle_outcome_table(device), theta, theta, rng)
    errors = sum(int(a != b) for a, b in zip(x, y))
    return {"n": n, "x": oracle_bits(x), "y": oracle_bits(y), "qber": errors / n,
            "rt_v1": 1.0, "rt_v2": 1.0,
            "accepted": errors <= math.floor(gamma * n)}


def unit_line_config(n, gamma):
    return PvConfig(pos_v1=0.0, pos_v2=1.0, pos_claimed=0.5, n=n, gamma=gamma,
                    delta_t=1.0)


def random_device(suite, dim_a, dim_b, noise_q):
    """Random state and projective measurements of random rank (0 to full,
    so some outcomes are certain and some impossible)."""
    def meas(dim):
        rank = int(suite.rng.integers(0, dim + 1))
        return BinaryMeasurement.from_projector(suite.projector(dim, rank))
    return DeviceModel(
        dim_a=dim_a, dim_b=dim_b, sigma_ab=suite.density_operator(dim_a * dim_b),
        alice_meas_0=meas(dim_a), alice_meas_1=meas(dim_a),
        bob_meas_0=meas(dim_b), bob_meas_1=meas(dim_b),
        test_t0=suite.observable(dim_b), test_t1=suite.observable(dim_b),
        noise_q=noise_q)


def product_device(bits):
    """Product basis state |a b> measured in Z in both bases: every table row
    is a point mass, so three of the four cdf entries tie."""
    ket = np.zeros((4, 1))
    ket[2 * bits[0] + bits[1], 0] = 1.0
    ideal = ideal_bb84_device()
    z = ideal.alice_meas_0
    return DeviceModel(dim_a=2, dim_b=2, sigma_ab=ket @ ket.T,
                       alice_meas_0=z, alice_meas_1=z, bob_meas_0=z, bob_meas_1=z,
                       test_t0=ideal.test_t0, test_t1=ideal.test_t1)


def oracle_devices():
    devices = [ideal_bb84_device(), ideal_bb84_device(noise_q=0.1),
               ideal_bb84_device(noise_q=1.0)]
    devices += [product_device(b) for b in ((0, 0), (0, 1), (1, 0), (1, 1))]
    devices += [random_qubit_device(RandomSuite(s)) for s in range(8)]
    devices += [random_rotated_ideal_device(RandomSuite(s)) for s in range(8)]
    devices += [random_device(RandomSuite(s), 1 + s % 4, 1 + (s // 4) % 4,
                              (s % 5) / 4) for s in range(16)]
    return devices


def test_ideal_device_reaches_tsirelson():
    device = ideal_bb84_device()
    assert chsh_value(device) == pytest.approx(TSIRELSON, abs=1e-10)


def test_ideal_device_anticommuting_measurements():
    device = ideal_bb84_device()
    eps = epsilon_plus_direct(device.alice_meas_0, device.alice_meas_1,
                              device.sigma_a)
    assert eps == pytest.approx(0.0, abs=1e-12)


def test_ideal_device_matched_basis_correlation():
    device = ideal_bb84_device()
    table = device.outcome_table()
    for basis in (0, 1):
        agree = table[basis, basis, 0, 0] + table[basis, basis, 1, 1]
        assert agree == pytest.approx(1.0, abs=1e-12)


def test_depolarizing_endpoints():
    rho = ideal_bb84_device().sigma_a
    assert np.max(np.abs(apply_depolarizing(rho, 0.0) - rho)) < 1e-15
    out = apply_depolarizing(rho, 1.0)
    assert np.max(np.abs(out - np.eye(2) / 2)) < 1e-15
    with pytest.raises(DomainError):
        apply_depolarizing(rho, 1.5)


def test_noise_gives_half_q_error_rate():
    # depolarizing q on the wire flips a matched-basis bit with prob q/2
    q = 0.1
    device = ideal_bb84_device(noise_q=q)
    table = device.outcome_table()
    for basis in (0, 1):
        err = table[basis, basis, 0, 1] + table[basis, basis, 1, 0]
        assert err == pytest.approx(q / 2, abs=1e-12)


def test_noise_monte_carlo_matches_half_q():
    device = ideal_bb84_device(noise_q=0.1)
    tr = run_wse(device, 1_000_000, seed=3)
    matched = tr.index_set
    err = float(np.mean(tr.x[matched] != tr.x_prime[matched]))
    assert err == pytest.approx(0.05, rel=0.05)


def test_wse_ideal_runs_match_exactly():
    device = ideal_bb84_device()
    for seed in range(50):
        tr = run_wse(device, 200, seed=seed)
        assert np.array_equal(tr.substring, tr.x[tr.index_set])
        assert np.array_equal(tr.index_set,
                              np.flatnonzero(tr.theta == tr.theta_prime))


def test_wse_index_set_fraction():
    device = ideal_bb84_device()
    sizes = [run_wse(device, 100, seed=s).index_set.size for s in range(400)]
    mean = np.mean(sizes) / 100
    sigma = math.sqrt(0.25 / (400 * 100))
    assert abs(mean - 0.5) < 4 * sigma


def test_wse_index_set_patterns_uniform():
    # every basis-agreement pattern over n=8 rounds is equally likely
    device = ideal_bb84_device()
    n = 8
    counts = np.zeros(2 ** n)
    runs = 10_000
    for s in range(runs):
        tr = run_wse(device, n, seed=s)
        idx = 0
        for k in tr.index_set:
            idx |= 1 << int(k)
        counts[idx] += 1
    _, pvalue = chisquare(counts)
    assert pvalue > 0.01


def test_wse_transcript_json():
    tr = run_wse(ideal_bb84_device(), 10, seed=1)
    obj = tr.to_obj()
    assert len(obj["theta"]) == 10
    assert obj["substring"] == "".join(obj["x_prime"][k] for k in obj["index_set"])
    json.dumps(obj)


def test_wse_seed_determinism():
    device = ideal_bb84_device()
    a = run_wse(device, 64, seed=9)
    b = run_wse(device, 64, seed=9)
    assert np.array_equal(a.theta, b.theta) and np.array_equal(a.x_prime, b.x_prime)


def test_pv_honest_midpoint_accepts():
    device = ideal_bb84_device()
    cfg = PvConfig(pos_v1=0.0, pos_v2=2.0, pos_claimed=1.0, n=100, gamma=0.0,
                   delta_t=2.0)
    tr = run_pv(device, cfg, seed=1)
    assert tr.accepted and tr.qber == 0.0
    assert tr.rt_v1 == pytest.approx(2.0, abs=1e-12)
    assert tr.rt_v2 == pytest.approx(2.0, abs=1e-12)


def test_pv_rejects_when_time_budget_too_small():
    device = ideal_bb84_device()
    cfg = PvConfig(pos_v1=0.0, pos_v2=2.0, pos_claimed=1.0, n=50, gamma=0.5,
                   delta_t=1.9)
    assert not run_pv(device, cfg, seed=1).accepted


def test_pv_noise_vs_gamma_acceptance():
    device = ideal_bb84_device(noise_q=0.04)
    cfg = PvConfig(pos_v1=0.0, pos_v2=1.0, pos_claimed=0.5, n=10_000,
                   gamma=0.05, delta_t=1.0)
    accepted = sum(run_pv(device, cfg, seed=s).accepted for s in range(50))
    assert accepted == 50  # expected QBER 0.02, threshold 0.05


def test_pv_displaced_prover_timing_excess():
    device = ideal_bb84_device()
    cfg = PvConfig(pos_v1=0.0, pos_v2=2.0, pos_claimed=1.0, n=10, gamma=0.5,
                   delta_t=2.0)
    for delta in np.linspace(0.05, 0.9, 10):
        tr_r = run_pv(device, cfg, seed=1, prover_pos=1.0 + delta)
        excess = max(tr_r.rt_v1 - 2.0, tr_r.rt_v2 - 2.0)
        assert excess >= 2 * delta - 1e-9
        assert not tr_r.accepted
        tr_l = run_pv(device, cfg, seed=1, prover_pos=1.0 - delta)
        assert max(tr_l.rt_v1 - 2.0, tr_l.rt_v2 - 2.0) >= 2 * delta - 1e-9


def test_pv_asymmetric_claim_timing():
    device = ideal_bb84_device()
    cfg = PvConfig(pos_v1=0.0, pos_v2=4.0, pos_claimed=1.0, n=10, gamma=0.5,
                   delta_t=6.0)
    tr = run_pv(device, cfg, seed=2)
    assert tr.rt_v1 == pytest.approx(2.0, abs=1e-12)
    assert tr.rt_v2 == pytest.approx(6.0, abs=1e-12)


def test_pv_config_validation():
    with pytest.raises(DomainError):
        PvConfig(pos_v1=0.0, pos_v2=1.0, pos_claimed=1.5, n=10, gamma=0.0,
                 delta_t=1.0)


def test_completeness_report_ideal():
    rep = completeness_report(ideal_bb84_device(), n=100, gamma=0.01,
                              trials=50, seed=4)
    assert rep["wse_match_rate"] == 1.0
    assert rep["pv_accept_rate"] == 1.0
    assert rep["empirical_qber"] == 0.0


def test_completeness_report_noisy_qber():
    rep = completeness_report(ideal_bb84_device(noise_q=0.02), n=2000,
                              gamma=0.05, trials=30, seed=4)
    lo, hi = rep["qber_interval"]
    assert lo <= 0.01 <= hi
    assert rep["empirical_qber"] == pytest.approx(0.01, abs=0.004)


def test_completeness_report_deterministic():
    a = completeness_report(ideal_bb84_device(noise_q=0.1), 100, 0.1, 20, seed=8)
    b = completeness_report(ideal_bb84_device(noise_q=0.1), 100, 0.1, 20, seed=8)
    assert a == b


def test_wilson_interval_sane():
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert 0.0 <= lo and hi <= 1.0
    with pytest.raises(DomainError):
        wilson_interval(0, 0)


@pytest.mark.parametrize("successes", [-1, 4, 5, 2.5e9])
def test_wilson_interval_refuses_successes_outside_trials(successes):
    # these used to reach sqrt of a negative: ValueError, math domain error
    with pytest.raises(DomainError, match="successes"):
        wilson_interval(successes, 3)
    assert wilson_interval(0, 3)[0] == pytest.approx(0.0, abs=1e-15)
    assert wilson_interval(3, 3)[1] == 1.0


def test_device_json_roundtrip():
    device = ideal_bb84_device(noise_q=0.25)
    obj = device.to_obj()
    text = json.dumps(obj)
    back = DeviceModel.from_obj(json.loads(text))
    assert back.noise_q == 0.25
    assert np.max(np.abs(back.sigma_ab - device.sigma_ab)) < 1e-15
    assert np.max(np.abs(back.alice_meas_1.p0 - device.alice_meas_1.p0)) < 1e-15
    assert np.max(np.abs(back.test_t1 - device.test_t1)) < 1e-15


def test_device_validation_catches_bad_state():
    device = ideal_bb84_device()
    with pytest.raises(DomainError):
        DeviceModel(dim_a=2, dim_b=2, sigma_ab=np.eye(4),  # trace 4
                    alice_meas_0=device.alice_meas_0,
                    alice_meas_1=device.alice_meas_1,
                    bob_meas_0=device.bob_meas_0, bob_meas_1=device.bob_meas_1,
                    test_t0=device.test_t0, test_t1=device.test_t1)


def test_wse_single_round_matched_basis_seed_search():
    # find a seed where theta = theta' at n = 1; the index set is then {0}
    device = ideal_bb84_device()
    for seed in range(100):
        tr = run_wse(device, 1, seed=seed)
        if tr.theta[0] == tr.theta_prime[0]:
            assert list(tr.index_set) == [0]
            assert tr.substring[0] == tr.x[0]
            return
    pytest.fail("no matching-basis seed found in 100 tries")


def test_wse_transcript_records_conservative_zeta():
    device = ideal_bb84_device()
    tr = run_wse(device, 16, seed=5, test_rounds=20_000)
    assert tr.zeta_conservative is not None
    # ideal device: huge violation, certificate well below 1
    assert 0.0 <= tr.zeta_conservative < 0.5
    assert "zeta_conservative" in tr.to_obj()
    assert run_wse(device, 16, seed=5).zeta_conservative is None


def test_pv_transcript_records_conservative_zeta():
    device = ideal_bb84_device()
    cfg = PvConfig(pos_v1=0.0, pos_v2=1.0, pos_claimed=0.5, n=50, gamma=0.1,
                   delta_t=1.0)
    tr = run_pv(device, cfg, seed=5, test_rounds=20_000)
    assert tr.zeta_conservative is not None and tr.accepted


# ---------------------------------------------------------------------------
# the array code against the oracles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("noisy", [True, False])
def test_outcome_table_equals_loop_oracle(noisy):
    for device in oracle_devices():
        assert np.array_equal(device.outcome_table(noisy),
                              oracle_outcome_table(device, noisy))


class _FixedDraws:
    """Stands in for a Generator whose ``random`` returns chosen values."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size):
        assert size == self.u.size
        return self.u


def test_sample_rounds_equals_oracle_on_cdf_ties():
    # rows with zero-probability outcomes make cdf entries tie, and draws that
    # hit a cdf value exactly test the strict comparison
    table = np.array([[0.5, 0.0, 0.0, 0.5], [0.0, 1.0, 0.0, 0.0],
                      [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.25, 0.75]]).reshape(2, 2, 2, 2)
    draws = np.array([0.0, 0.25, 0.5, 0.75, 1.0 - 2.0 ** -53, 0.1, 0.6])
    theta = np.repeat(np.array([0, 0, 1, 1], dtype=np.uint8), draws.size)
    theta_prime = np.repeat(np.array([0, 1, 0, 1], dtype=np.uint8), draws.size)
    u = np.tile(draws, 4)
    got = _sample_rounds(table, theta, theta_prime, _FixedDraws(u))
    want = oracle_sample_rounds(table, theta, theta_prime, _FixedDraws(u))
    for g, w in zip(got, want):
        assert g.dtype == np.uint8 and np.array_equal(g, w)


def test_sample_rounds_equals_oracle_on_devices():
    for i, device in enumerate(oracle_devices()):
        table = device.outcome_table()
        bases = np.random.default_rng(i).integers(0, 2, size=(2, 5000)).astype(np.uint8)
        got = _sample_rounds(table, bases[0], bases[1], np.random.default_rng(100 + i))
        want = oracle_sample_rounds(table, bases[0], bases[1],
                                    np.random.default_rng(100 + i))
        for g, w in zip(got, want):
            assert g.dtype == np.uint8 and np.array_equal(g, w)


@pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
def test_blocked_sampling_equals_one_shot_draws(n):
    # bases and uniforms drawn block by block follow the stream of one draw
    # of size n each: all theta, then all theta', then all u
    for i, device in enumerate(oracle_devices()[:4]):
        table = device.outcome_table()
        rng = RandomSuite(i).rng
        theta = rng.integers(0, 2, size=n).astype(np.uint8)
        theta_prime = rng.integers(0, 2, size=n).astype(np.uint8)
        x, x_prime = oracle_sample_rounds(table, theta, theta_prime, rng)
        tr = run_wse(device, n, seed=i)
        for got, want in ((tr.theta, theta), (tr.theta_prime, theta_prime),
                          (tr.x, x), (tr.x_prime, x_prime)):
            assert got.dtype == np.uint8 and np.array_equal(got, want)
        rng = RandomSuite(i).rng
        theta = rng.integers(0, 2, size=n).astype(np.uint8)
        x, y = oracle_sample_rounds(table, theta, theta, rng)
        pv = run_pv(device, unit_line_config(n, 0.1), seed=i)
        assert np.array_equal(pv.x, x) and np.array_equal(pv.y, y)


def test_transcripts_equal_oracle_encodings_on_listed_devices():
    for i, device in enumerate(oracle_devices()):
        n = 1 + 97 * i
        assert run_wse(device, n, seed=i).to_obj() == oracle_wse_obj(device, n, i)
        assert (run_pv(device, unit_line_config(n, 0.1), seed=i).to_obj()
                == oracle_pv_obj(device, n, 0.1, i))
