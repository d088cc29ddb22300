"""Tests for the exact CHSH value, the certificate map, and sampled estimation."""

import math

import numpy as np
import pytest

from di2pc.chsh import (
    TSIRELSON,
    ChshEstimate,
    chsh_value,
    estimate_chsh,
    half_width,
    zeta_from_violation,
)
from di2pc.errors import DomainError, NonphysicalViolationError
from di2pc.jordan import BinaryMeasurement, epsilon_plus_direct
from di2pc.matcore import RandomSuite, operator_norm
from di2pc.protocols import DeviceModel, ideal_bb84_device

Z = np.diag([1.0, -1.0]).astype(complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
T0 = (Z + X) / math.sqrt(2.0)
T1 = (Z - X) / math.sqrt(2.0)


def epr_state():
    phi = np.zeros((4, 1))
    phi[0] = phi[3] = 1.0 / math.sqrt(2.0)
    return phi @ phi.T


def chsh_operator(a0, a1, t0, t1):
    """The reference W = A0xT0 + A0xT1 + A1xT0 - A1xT1, whose tr(W rho) the
    exact value must equal."""
    return (np.kron(a0, t0) + np.kron(a0, t1) + np.kron(a1, t0) - np.kron(a1, t1))


def reference_value(device):
    a0, a1 = device.alice_meas_0.observable, device.alice_meas_1.observable
    w = chsh_operator(a0, a1, device.test_t0, device.test_t1)
    return float(np.trace(w @ device.sigma_ab).real)


def qubit_device(a0, a1, t0, t1, state):
    """A two-qubit device with these testing observables and state; Bob's
    measurements, which the test does not read, are the ideal device's."""
    ideal = ideal_bb84_device()
    eye = np.eye(2)
    return DeviceModel(dim_a=2, dim_b=2, sigma_ab=state,
                       alice_meas_0=BinaryMeasurement.from_projector((eye + a0) / 2),
                       alice_meas_1=BinaryMeasurement.from_projector((eye + a1) / 2),
                       bob_meas_0=ideal.bob_meas_0, bob_meas_1=ideal.bob_meas_1,
                       test_t0=t0, test_t1=t1)


def test_operator_collapses_for_equal_settings():
    w = chsh_operator(Z, Z, Z, Z)
    assert np.max(np.abs(w - 2.0 * np.kron(Z, Z))) < 1e-12
    assert operator_norm(w) == pytest.approx(2.0, abs=1e-9)


def test_operator_reaches_tsirelson():
    assert operator_norm(chsh_operator(Z, X, T0, T1)) == pytest.approx(TSIRELSON, abs=1e-9)


def test_operator_hermitian_random_quadruples():
    # the reference is Hermitian with norm <= 2 sqrt(2), and the exact value
    # is its expectation
    rs = RandomSuite(211)
    for trial in range(200):
        suite = rs.child(trial)
        obs = [suite.observable(2) for _ in range(4)]
        w = chsh_operator(*obs)
        assert np.max(np.abs(w - w.conj().T)) < 1e-10
        assert operator_norm(w) <= TSIRELSON + 1e-9
        device = qubit_device(*obs, suite.density_operator(4))
        assert abs(chsh_value(device) - reference_value(device)) <= 1e-12


def test_value_epr_optimal():
    device = qubit_device(Z, X, T0, T1, epr_state())
    assert chsh_value(device) == pytest.approx(TSIRELSON, abs=1e-10)


def test_value_product_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    device = qubit_device(Z, X, T0, T1, rho)
    assert chsh_value(device) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_value_classical_form_collapses():
    # equal settings: W = 2 A0 x T0, so S = 2 tr(A0 x T0 rho) in [-2, 2]
    rs = RandomSuite(213)
    for trial in range(100):
        suite = rs.child(trial)
        a = suite.observable(2)
        t = suite.observable(2)
        rho = suite.density_operator(4)
        s = chsh_value(qubit_device(a, a, t, t, rho))
        expect = 2.0 * float(np.trace(np.kron(a, t) @ rho).real)
        assert s == pytest.approx(expect, abs=1e-10)
        assert abs(s) <= 2.0 + 1e-9


def test_value_equals_trace_of_operator():
    # the exact value sums the joint-outcome table estimate_chsh samples;
    # it equals tr(W sigma_AB) on the ideal device, on commuting devices
    # (classical, |S| <= 2) and on 137 random ones of several dimensions
    devices = [ideal_bb84_device(), qubit_device(Z, Z, Z, Z, epr_state()),
               qubit_device(Z, Z, T0, T0, np.eye(4) / 4)]
    devices += _estimate_devices()
    assert len(devices) >= 100
    for device in devices:
        assert abs(chsh_value(device) - reference_value(device)) <= 1e-12
    assert chsh_value(devices[0]) == pytest.approx(TSIRELSON, abs=1e-12)
    assert chsh_value(devices[1]) == pytest.approx(2.0, abs=1e-12)


def test_zeta_endpoints_exact():
    assert zeta_from_violation(2.0) == pytest.approx(1.0, abs=1e-12)
    assert zeta_from_violation(TSIRELSON) == pytest.approx(0.0, abs=1e-12)


def test_zeta_midpoint_value():
    # 0.625 * sqrt(1.75)
    assert zeta_from_violation(2.5) == pytest.approx(0.8267972847076845, abs=1e-12)


def test_zeta_no_certificate_below_two():
    assert zeta_from_violation(1.5) == 1.0
    assert zeta_from_violation(math.nextafter(2.0, 0.0)) == 1.0
    assert zeta_from_violation(-TSIRELSON) == 1.0


def test_zeta_nonphysical_raises():
    with pytest.raises(NonphysicalViolationError):
        zeta_from_violation(2.9)


def test_zeta_rejects_nan():
    # the clamp to [0, 1] would turn nan into the strongest certificate, 0
    with pytest.raises(DomainError):
        zeta_from_violation(math.nan)


def test_zeta_strictly_decreasing_on_grid():
    grid = np.linspace(2.0, TSIRELSON, 10_000)
    vals = [zeta_from_violation(float(s)) for s in grid]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_half_width_formula():
    hw = half_width(1000, 0.05)
    assert hw == pytest.approx(4.0 * math.sqrt(math.log(8.0 / 0.05) / 2000.0),
                               abs=1e-15)
    with pytest.raises(DomainError):
        half_width(1000, 0.0)


def test_estimate_ideal_device_close_to_tsirelson():
    device = ideal_bb84_device()
    est = estimate_chsh(device, rounds_per_setting=100_000, delta=0.05, seed=7)
    assert abs(est.s_hat - TSIRELSON) < 0.02
    assert est.half_width == pytest.approx(
        half_width(100_000, 0.05), abs=1e-15)


def test_estimate_deterministic_device_exact():
    ident = np.eye(2, dtype=complex)
    meas = BinaryMeasurement(ident.copy(), np.zeros((2, 2), dtype=complex) + 0j)
    # identity observable = assign +1 always; build directly via observables
    device = ideal_bb84_device()
    det = DeviceModel(dim_a=2, dim_b=2, sigma_ab=np.eye(4) / 4,
                      alice_meas_0=BinaryMeasurement(ident, np.zeros((2, 2))),
                      alice_meas_1=BinaryMeasurement(ident, np.zeros((2, 2))),
                      bob_meas_0=device.bob_meas_0, bob_meas_1=device.bob_meas_1,
                      test_t0=ident, test_t1=ident)
    est = estimate_chsh(det, rounds_per_setting=100, delta=0.1, seed=0)
    assert est.s_hat == 2.0


def test_estimate_seed_reproducibility():
    device = ideal_bb84_device()
    a = estimate_chsh(device, 1000, 0.05, seed=5)
    b = estimate_chsh(device, 1000, 0.05, seed=5)
    c = estimate_chsh(device, 1000, 0.05, seed=6)
    assert a.s_hat == b.s_hat
    assert a.s_hat != c.s_hat


def test_estimate_converges_with_rounds():
    device = ideal_bb84_device()
    errs = []
    for rounds in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
        errors = [abs(estimate_chsh(device, rounds, 0.05, seed=s).s_hat - TSIRELSON)
                  for s in range(5)]
        errs.append(float(np.mean(errors)))
    assert errs[-1] < errs[0]
    assert errs[-1] < 5e-3


def test_estimate_invariant_rejects_bad_delta():
    with pytest.raises(DomainError):
        estimate_chsh(ideal_bb84_device(), 100, 1.5, seed=0)


def test_estimate_magnitude_invariant():
    with pytest.raises(DomainError):
        ChshEstimate(s_hat=4.5, rounds_per_setting=10, confidence_delta=0.1,
                     half_width=0.1)


def test_conservative_zeta_from_interval():
    est = ChshEstimate(s_hat=2.7, rounds_per_setting=10 ** 5,
                       confidence_delta=0.01,
                       half_width=half_width(10 ** 5, 0.01))
    assert est.s_conservative == pytest.approx(2.7 - est.half_width)
    assert est.zeta_conservative == pytest.approx(
        zeta_from_violation(est.s_conservative), abs=1e-12)


def test_certificate_soundness_on_random_devices():
    # eps_+ <= zeta(S) whenever S >= 2 certifies; uncertified trials give 1.
    from di2pc.adversary import random_qubit_device, random_rotated_ideal_device
    rs = RandomSuite(219)
    certified = 0
    for trial in range(500):
        suite = rs.child(trial)
        device = (random_rotated_ideal_device(suite) if trial % 2
                  else random_qubit_device(suite))
        s = chsh_value(device)
        eps = epsilon_plus_direct(device.alice_meas_0, device.alice_meas_1,
                                  device.sigma_a)
        assert eps <= zeta_from_violation(min(s, TSIRELSON)) + 1e-9
        certified += int(s >= 2.0)
    assert certified > 100  # the rotated-ideal family does violate CHSH


def _oracle_joint_outcome_probs(obs_a, obs_t, state):
    """The per-setting loop estimate_chsh used before it shared the device's
    outcome table: eigenprojectors of each observable, one trace per outcome."""
    wa, va = np.linalg.eigh((obs_a + obs_a.conj().T) / 2)
    wt, vt = np.linalg.eigh((obs_t + obs_t.conj().T) / 2)
    sa = np.where(wa >= 0, 1.0, -1.0)
    st = np.where(wt >= 0, 1.0, -1.0)
    probs, signs_a, signs_t = [], [], []
    for s_a in (1.0, -1.0):
        pa = va[:, sa == s_a]
        proj_a = pa @ pa.conj().T if pa.size else np.zeros_like(obs_a)
        for s_t in (1.0, -1.0):
            pt = vt[:, st == s_t]
            proj_t = pt @ pt.conj().T if pt.size else np.zeros_like(obs_t)
            probs.append(max(0.0, float(np.trace(np.kron(proj_a, proj_t) @ state).real)))
            signs_a.append(s_a)
            signs_t.append(s_t)
    p = np.array(probs)
    assert abs(p.sum() - 1.0) <= 1e-8
    return p / p.sum(), np.array(signs_a), np.array(signs_t)


def _oracle_estimate(device, rounds, delta, seed):
    rng = RandomSuite(seed).rng
    correlators = []
    for obs_a in (device.alice_meas_0.observable, device.alice_meas_1.observable):
        for obs_t in (device.test_t0, device.test_t1):
            probs, signs_a, signs_t = _oracle_joint_outcome_probs(obs_a, obs_t,
                                                                  device.sigma_ab)
            counts = rng.multinomial(rounds, probs)
            correlators.append(float(np.sum(counts * signs_a * signs_t)) / rounds)
    e00, e01, e10, e11 = correlators
    return e00 + e01 + e10 - e11


def _estimate_devices():
    from di2pc.adversary import random_qubit_device, random_rotated_ideal_device
    from test_protocols import product_device, random_device
    devices = [ideal_bb84_device(noise_q=q) for q in (0.0, 0.02, 0.1, 0.5, 1.0)]
    devices += [product_device(b) for b in ((0, 0), (0, 1), (1, 0), (1, 1))]
    for s in range(30):
        devices.append(random_qubit_device(RandomSuite(s)))
        devices.append(random_rotated_ideal_device(RandomSuite(100 + s)))
    for s in range(48):
        suite = RandomSuite(200 + s)
        devices.append(random_device(suite, 1 + s % 4, 1 + (s // 4) % 4, 0.0))
    return devices


def test_estimate_equals_eigenprojector_loop_oracle():
    # estimate_chsh reads the device's outcome-table builder; its estimates
    # equal the per-setting eigenprojector loop it replaced, bit for bit
    devices = _estimate_devices()
    assert len(devices) >= 100
    for i, device in enumerate(devices):
        for rounds, seed in ((1, i), (1000, 3 * i), (123_457, 5 + i)):
            est = estimate_chsh(device, rounds, 0.01, seed=seed)
            assert est.s_hat == _oracle_estimate(device, rounds, 0.01, seed)
