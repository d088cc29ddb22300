"""Honest-party simulation: device model, weak string erasure, position verification.

The device is i.i.d.: one bipartite single-round state sigma_AB, Alice's two
projective binary measurements, Bob's two, and two testing observables on the
B side. Depolarizing noise of strength ``noise_q`` acts on the wire that
carries B to the other party (Alice -> Bob in WSE, V1 -> prover in PV); the
testing device is local to Alice, so the Bell test sees the state before the
wire.

Rounds are sampled independently (the i.i.d. structure makes this exact) in
array code: all 16 Born probabilities come from one batched product, each
round's outcome pair is one uniform draw counted against the cdf of its
basis setting (no (n, 4) temporaries), bases and draws are taken in
fixed-size blocks into uint8 arrays, and transcripts encode bit strings
straight from byte buffers, so the CLI's cap of 10^7 rounds runs in seconds.

Position verification runs on a 1-D line with unit signal speed: both
dispatches are scheduled to arrive at the claimed position simultaneously,
the honest prover replies instantly, and each verifier checks its own
dispatch-to-answer interval against the allowance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionCapError, DomainError, ShapeError
from .chsh import ChshSetup, _outcome_table, estimate_chsh
from .jordan import BinaryMeasurement
from .matcore import (
    Array,
    RandomSuite,
    _partial_trace,
    check_binary_observable,
    check_density_operator,
    child_seed,
    matrix_from_obj,
    matrix_to_obj,
    tensor_product,
)

__all__ = [
    "DeviceModel",
    "WseTranscript",
    "PvConfig",
    "PvTranscript",
    "ideal_bb84_device",
    "apply_depolarizing",
    "run_wse",
    "run_pv",
    "completeness_report",
    "wilson_interval",
]

# Largest wire dimension a device file may declare; checked before any of its
# matrices is built (sigma_AB is then at most 256 x 256).
_DEVICE_DIM_CAP = 16

# Timing slack of the PV acceptance rule, for float arithmetic on event times.
_TIME_TOL = 1e-9


@dataclass(frozen=True)
class DeviceModel:
    """Single-round device description shared by all protocols."""

    dim_a: int
    dim_b: int
    sigma_ab: Array
    alice_meas_0: BinaryMeasurement
    alice_meas_1: BinaryMeasurement
    bob_meas_0: BinaryMeasurement
    bob_meas_1: BinaryMeasurement
    test_t0: Array
    test_t1: Array
    noise_q: float = 0.0

    def __post_init__(self):
        sigma = check_density_operator(self.sigma_ab)
        if sigma.shape[0] != self.dim_a * self.dim_b:
            raise ShapeError("sigma_ab dimension does not match dim_a * dim_b")
        for m in (self.alice_meas_0, self.alice_meas_1):
            if m.dim != self.dim_a:
                raise ShapeError("Alice measurement dimension mismatch")
        for m in (self.bob_meas_0, self.bob_meas_1):
            if m.dim != self.dim_b:
                raise ShapeError("Bob measurement dimension mismatch")
        t0 = check_binary_observable(self.test_t0)
        t1 = check_binary_observable(self.test_t1)
        if t0.shape[0] != self.dim_b or t1.shape[0] != self.dim_b:
            raise ShapeError("testing observable dimension mismatch")
        if not 0.0 <= self.noise_q <= 1.0:
            raise DomainError(f"noise_q must lie in [0, 1], got {self.noise_q!r}")
        object.__setattr__(self, "sigma_ab", sigma)
        object.__setattr__(self, "test_t0", t0)
        object.__setattr__(self, "test_t1", t1)

    def alice_measurement(self, basis: int) -> BinaryMeasurement:
        return self.alice_meas_0 if basis == 0 else self.alice_meas_1

    # sigma_ab was checked (or, for a drawn device, built) as a density
    # operator of dimension dim_a * dim_b, so its marginals skip the checks

    @property
    def sigma_a(self) -> Array:
        return _partial_trace(self.sigma_ab, [self.dim_a, self.dim_b], [0])

    @property
    def sigma_b(self) -> Array:
        return _partial_trace(self.sigma_ab, [self.dim_a, self.dim_b], [1])

    def noisy_sigma_ab(self) -> Array:
        """State after the B wire: (id x Dep_q) applied to sigma_AB."""
        if self.noise_q == 0.0:
            return self.sigma_ab
        mixed_b = tensor_product(self.sigma_a, np.eye(self.dim_b) / self.dim_b)
        return (1.0 - self.noise_q) * self.sigma_ab + self.noise_q * mixed_b

    def chsh_setup(self) -> ChshSetup:
        """Testing configuration: Alice's observables against the test device."""
        return ChshSetup(
            a0=self.alice_meas_0.observable, a1=self.alice_meas_1.observable,
            t0=self.test_t0, t1=self.test_t1, state=self.sigma_ab)

    def outcome_table(self, noisy: bool = True) -> np.ndarray:
        """Joint outcome pmf, indexed [theta_a, theta_b, x, x'].

        Born probabilities of Alice measuring in basis theta_a and the remote
        party in basis theta_b, with the wire noise applied when ``noisy``.
        """
        state = self.noisy_sigma_ab() if noisy else self.sigma_ab
        pa = np.array([[m.p0, m.p1] for m in (self.alice_meas_0, self.alice_meas_1)])
        pb = np.array([[m.p0, m.p1] for m in (self.bob_meas_0, self.bob_meas_1)])
        return _outcome_table(pa, pb, state)

    def to_obj(self) -> dict:
        return {
            "dim_a": self.dim_a, "dim_b": self.dim_b,
            "sigma_ab": matrix_to_obj(self.sigma_ab),
            "alice_p0_b0": matrix_to_obj(self.alice_meas_0.p0),
            "alice_p0_b1": matrix_to_obj(self.alice_meas_1.p0),
            "bob_p0_b0": matrix_to_obj(self.bob_meas_0.p0),
            "bob_p0_b1": matrix_to_obj(self.bob_meas_1.p0),
            "t0": matrix_to_obj(self.test_t0),
            "t1": matrix_to_obj(self.test_t1),
            "noise_q": self.noise_q,
        }

    @staticmethod
    def from_obj(obj: dict) -> "DeviceModel":
        if not isinstance(obj, dict):
            raise ShapeError(f"device object must be a JSON object, got {type(obj).__name__}")
        try:
            dim_a = int(obj["dim_a"])
            dim_b = int(obj["dim_b"])
            if max(dim_a, dim_b) > _DEVICE_DIM_CAP:
                raise DimensionCapError(
                    f"device wires are capped at dimension {_DEVICE_DIM_CAP}, "
                    f"got dim_a={dim_a}, dim_b={dim_b}")
            noise_q = float(obj.get("noise_q", 0.0))
            mats = {k: matrix_from_obj(obj[k]) for k in (
                "sigma_ab", "alice_p0_b0", "alice_p0_b1",
                "bob_p0_b0", "bob_p0_b1", "t0", "t1")}
        except KeyError as exc:
            raise ShapeError(f"device object is missing field {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise ShapeError(f"malformed device object: {exc}") from exc
        return DeviceModel(
            dim_a=dim_a, dim_b=dim_b, sigma_ab=mats["sigma_ab"],
            alice_meas_0=BinaryMeasurement.from_projector(mats["alice_p0_b0"]),
            alice_meas_1=BinaryMeasurement.from_projector(mats["alice_p0_b1"]),
            bob_meas_0=BinaryMeasurement.from_projector(mats["bob_p0_b0"]),
            bob_meas_1=BinaryMeasurement.from_projector(mats["bob_p0_b1"]),
            test_t0=mats["t0"], test_t1=mats["t1"], noise_q=noise_q)


def ideal_bb84_device(noise_q: float = 0.0) -> DeviceModel:
    """EPR pair with Z/X measurements and (Z +- X)/sqrt(2) testing observables."""
    phi = np.zeros((4, 1))
    phi[0, 0] = phi[3, 0] = 1.0 / math.sqrt(2.0)
    epr = phi @ phi.T
    z0 = np.diag([1.0, 0.0]).astype(complex)
    plus = np.full((2, 2), 0.5, dtype=complex)
    zmeas = BinaryMeasurement.from_projector(z0)
    xmeas = BinaryMeasurement.from_projector(plus)
    sz = np.diag([1.0, -1.0]).astype(complex)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return DeviceModel(
        dim_a=2, dim_b=2, sigma_ab=epr,
        alice_meas_0=zmeas, alice_meas_1=xmeas,
        bob_meas_0=zmeas, bob_meas_1=xmeas,
        test_t0=(sz + sx) / math.sqrt(2.0), test_t1=(sz - sx) / math.sqrt(2.0),
        noise_q=noise_q)


def apply_depolarizing(state: Array, q: float) -> Array:
    """(1 - q) rho + q I/dim on a single system."""
    if not 0.0 <= q <= 1.0:
        raise DomainError(f"depolarizing strength must lie in [0, 1], got {q!r}")
    rho = check_density_operator(state)
    d = rho.shape[0]
    return (1.0 - q) * rho + q * np.eye(d) / d


def _bits(a: np.ndarray) -> str:
    """A 0/1 array as a string of '0' and '1' characters."""
    return (a.astype(np.uint8) + ord("0")).tobytes().decode("ascii")


@dataclass(frozen=True)
class WseTranscript:
    """Outcome of one weak-string-erasure run.

    ``zeta_conservative`` is recorded when the run was preceded by a testing
    phase: the certificate derived from the lower edge of the estimate's
    confidence interval, i.e. what the security pipeline may rely on.
    """

    theta: np.ndarray
    x: np.ndarray
    theta_prime: np.ndarray
    x_prime: np.ndarray
    index_set: np.ndarray
    substring: np.ndarray
    zeta_conservative: float | None = None

    @property
    def n(self) -> int:
        return int(self.theta.size)

    def to_obj(self) -> dict:
        obj = {
            "n": self.n,
            "theta": _bits(self.theta), "x": _bits(self.x),
            "theta_prime": _bits(self.theta_prime), "x_prime": _bits(self.x_prime),
            "index_set": self.index_set.tolist(),
            "substring": _bits(self.substring),
        }
        if self.zeta_conservative is not None:
            obj["zeta_conservative"] = self.zeta_conservative
        return obj


# Rounds are drawn this many at a time, so that no int64 or float64 array of
# length n is held; the draws of one kind follow each other in the stream as
# one call of size n would make them.
_BLOCK = 1 << 16


def _random_bases(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniform basis bits as uint8, the stream of rng.integers(0, 2, n)."""
    out = np.empty(n, dtype=np.uint8)
    for start in range(0, n, _BLOCK):
        out[start:start + _BLOCK] = rng.integers(0, 2, size=min(_BLOCK, n - start))
    return out


def _sample_rounds(table: np.ndarray, theta: np.ndarray, theta_prime: np.ndarray,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Per-round joint outcomes (x, x') from the pmf of each round's basis pair.

    One uniform draw per round, in blocks; the joint outcome 2x + x' is the
    number of cdf entries of setting 2 theta + theta' that the draw exceeds.
    """
    cdf = np.cumsum(table.reshape(4, 4), axis=-1)
    x = np.empty(theta.size, dtype=np.uint8)
    x_prime = np.empty(theta.size, dtype=np.uint8)
    for start in range(0, theta.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        setting = 2 * theta[block] + theta_prime[block]
        u = rng.random(setting.size)
        joint = np.zeros(setting.size, dtype=np.uint8)
        for j in range(4):
            joint += u > cdf[setting, j]
        x[block], x_prime[block] = joint >> 1, joint & 1
    return x, x_prime


def _testing_phase(device: DeviceModel, seed, test_rounds: int | None,
                   test_delta: float) -> float | None:
    """Optional pre-protocol Bell test; returns the conservative certificate."""
    if not test_rounds:
        return None
    test_suite = RandomSuite(seed).child(987_654_321)
    est = estimate_chsh(device, test_rounds, test_delta,
                        seed=test_suite.seed_sequence)
    return est.zeta_conservative


def run_wse(device: DeviceModel, n: int, seed: int = 0,
            test_rounds: int | None = None,
            test_delta: float = 0.01) -> WseTranscript:
    """Protocol run: uniform bases on both sides, Born-rule outcomes, sifting.

    The index set is exactly {k : theta'_k = theta_k} and the substring is
    Bob's outcome string restricted to it. When ``test_rounds`` is given,
    the run starts with the Bell-testing phase and the transcript records
    the conservative certificate used downstream.
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    zeta = _testing_phase(device, seed, test_rounds, test_delta)
    rng = RandomSuite(seed).rng
    theta = _random_bases(rng, n)
    theta_prime = _random_bases(rng, n)
    x, x_prime = _sample_rounds(device.outcome_table(), theta, theta_prime, rng)
    index_set = np.flatnonzero(theta == theta_prime)
    return WseTranscript(theta=theta, x=x, theta_prime=theta_prime,
                         x_prime=x_prime, index_set=index_set,
                         substring=x_prime[index_set], zeta_conservative=zeta)


@dataclass(frozen=True)
class PvConfig:
    """Geometry and acceptance parameters for 1-D position verification.

    Positions are in length units with unit signal speed, so times and
    distances share a scale. ``delta_t`` is the per-verifier round-trip
    allowance.
    """

    pos_v1: float
    pos_v2: float
    pos_claimed: float
    n: int
    gamma: float
    delta_t: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.pos_v1, self.pos_v2, self.pos_claimed))):
            raise DomainError("positions must be finite")
        if not self.pos_v1 < self.pos_claimed < self.pos_v2:
            raise DomainError("claimed position must lie strictly between the verifiers")
        if self.n < 1:
            raise DomainError("n must be at least 1")
        if not 0.0 <= self.gamma <= 0.5:
            raise DomainError(f"gamma must lie in [0, 0.5], got {self.gamma!r}")
        if not 0.0 <= self.delta_t < math.inf:
            raise DomainError(f"delta_t must be finite and at least 0, got {self.delta_t!r}")


@dataclass(frozen=True)
class PvTranscript:
    x: np.ndarray
    y: np.ndarray
    qber: float
    rt_v1: float
    rt_v2: float
    accepted: bool
    zeta_conservative: float | None = None

    def to_obj(self) -> dict:
        obj = {
            "n": int(self.x.size), "x": _bits(self.x), "y": _bits(self.y),
            "qber": self.qber, "rt_v1": self.rt_v1, "rt_v2": self.rt_v2,
            "accepted": self.accepted,
        }
        if self.zeta_conservative is not None:
            obj["zeta_conservative"] = self.zeta_conservative
        return obj


def run_pv(device: DeviceModel, cfg: PvConfig, seed: int = 0,
           prover_pos: float | None = None,
           test_rounds: int | None = None,
           test_delta: float = 0.01) -> PvTranscript:
    """Timed 1-D run with an honest prover (optionally displaced).

    V1 dispatches the quantum rounds at t0 - (claimed - v1) and V2 dispatches
    theta at t0 - (v2 - claimed), so both arrive at the claimed position at
    t0. A prover at ``prover_pos`` (default: the claim) answers the moment
    both arrivals are in; each verifier measures its own dispatch-to-answer
    interval. Acceptance needs d_H(x, y) <= floor(gamma n) and both
    intervals within delta_t + _TIME_TOL. ``test_rounds`` prepends V1's
    Bell-testing phase and records the conservative certificate.
    """
    pos_p = cfg.pos_claimed if prover_pos is None else float(prover_pos)
    if not cfg.pos_v1 <= pos_p <= cfg.pos_v2:
        raise DomainError("prover must sit between the verifiers")
    zeta = _testing_phase(device, seed, test_rounds, test_delta)
    rng = RandomSuite(seed).rng
    theta = _random_bases(rng, cfg.n)
    # Honest prover measures in the announced bases: basis pairs coincide.
    x, y = _sample_rounds(device.outcome_table(), theta, theta, rng)

    t0 = 0.0
    dispatch_v1 = t0 - (cfg.pos_claimed - cfg.pos_v1)
    dispatch_v2 = t0 - (cfg.pos_v2 - cfg.pos_claimed)
    arrive_state = dispatch_v1 + (pos_p - cfg.pos_v1)
    arrive_theta = dispatch_v2 + (cfg.pos_v2 - pos_p)
    t_reply = max(arrive_state, arrive_theta)
    rt_v1 = (t_reply + (pos_p - cfg.pos_v1)) - dispatch_v1
    rt_v2 = (t_reply + (cfg.pos_v2 - pos_p)) - dispatch_v2

    errors = int(np.count_nonzero(x != y))
    qber = errors / cfg.n
    accepted = (errors <= math.floor(cfg.gamma * cfg.n)
                and rt_v1 <= cfg.delta_t + _TIME_TOL
                and rt_v2 <= cfg.delta_t + _TIME_TOL)
    return PvTranscript(x=x, y=y, qber=qber, rt_v1=rt_v1, rt_v2=rt_v2,
                        accepted=accepted, zeta_conservative=zeta)


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion."""
    if trials < 1:
        raise DomainError("trials must be at least 1")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    spread = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - spread), min(1.0, center + spread)


def completeness_report(device: DeviceModel, n: int, gamma: float,
                        trials: int, seed: int = 0) -> dict:
    """Monte-Carlo honest-party statistics over ``trials`` seeded runs.

    Reports the WSE matched-substring agreement rate, the PV acceptance rate
    at the honest geometry, and the pooled matched-basis QBER, each with a
    Wilson 95% interval.
    """
    if trials < 1:
        raise DomainError("trials must be at least 1")
    span = 1.0
    cfg = PvConfig(pos_v1=0.0, pos_v2=span, pos_claimed=span / 2, n=n,
                   gamma=gamma, delta_t=span)
    wse_ok = 0
    pv_ok = 0
    matched = 0
    matched_errors = 0
    for i in range(trials):
        wse_seed = child_seed(seed, 2 * i)
        pv_seed = child_seed(seed, 2 * i + 1)
        tr = run_wse(device, n, wse_seed)
        same = np.array_equal(tr.substring, tr.x[tr.index_set])
        wse_ok += int(same)
        matched += int(tr.index_set.size)
        matched_errors += int(np.count_nonzero(
            tr.substring != tr.x[tr.index_set]))
        pv = run_pv(device, cfg, pv_seed)
        pv_ok += int(pv.accepted)
    qber = matched_errors / matched if matched else 0.0
    return {
        "trials": trials,
        "n": n,
        "wse_match_rate": wse_ok / trials,
        "wse_match_interval": wilson_interval(wse_ok, trials),
        "pv_accept_rate": pv_ok / trials,
        "pv_accept_interval": wilson_interval(pv_ok, trials),
        "empirical_qber": qber,
        "qber_interval": (wilson_interval(matched_errors, matched)
                          if matched else (0.0, 1.0)),
    }
