"""CHSH operator, exact violation, certificate map, and sampled estimation.

The testing protocol estimates S = tr(W rho) for the operator

    W = A0 x T0 + A0 x T1 + A1 x T0 - A1 x T1

and converts it into the certificate zeta = S/4 * sqrt(8 - S^2), an upper
bound on the effective absolute anti-commutator of the main device's two
measurements whenever S >= 2.

Sampled estimation cycles the four setting pairs deterministically with an
equal number of rounds each, so the only randomness is the Born-rule outcome
draw; the reported half width is 4*sqrt(ln(8/delta)/(2*rounds_per_setting)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonphysicalViolationError, ShapeError
from .matcore import (
    Array,
    RandomSuite,
    check_binary_observable,
    check_density_operator,
    operator_norm,
    tensor_product,
)

__all__ = [
    "TSIRELSON",
    "ChshSetup",
    "ChshEstimate",
    "ZetaCertificate",
    "chsh_operator",
    "chsh_value",
    "zeta_from_violation",
    "zeta_certificate",
    "estimate_chsh",
    "half_width",
]

TSIRELSON = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class ChshSetup:
    """Two binary observables per side plus the shared state."""

    a0: Array
    a1: Array
    t0: Array
    t1: Array
    state: Array

    def __post_init__(self):
        a0 = check_binary_observable(self.a0)
        a1 = check_binary_observable(self.a1)
        t0 = check_binary_observable(self.t0)
        t1 = check_binary_observable(self.t1)
        state = check_density_operator(self.state)
        if a0.shape != a1.shape or t0.shape != t1.shape:
            raise ShapeError("observables on one side must share a dimension")
        if state.shape[0] != a0.shape[0] * t0.shape[0]:
            raise ShapeError(
                f"state dimension {state.shape[0]} != "
                f"{a0.shape[0]} x {t0.shape[0]}")
        for name, m in (("a0", a0), ("a1", a1), ("t0", t0), ("t1", t1), ("state", state)):
            object.__setattr__(self, name, m)


@dataclass(frozen=True)
class ChshEstimate:
    """Empirical CHSH estimate with its Hoeffding-style confidence radius."""

    s_hat: float
    rounds_per_setting: int
    confidence_delta: float
    half_width: float

    def __post_init__(self):
        if abs(self.s_hat) > 4.0 + 1e-12:
            raise DomainError("empirical CHSH estimate cannot exceed 4 in magnitude")

    @property
    def s_conservative(self) -> float:
        """Lower edge of the confidence interval, used for certification."""
        return self.s_hat - self.half_width

    @property
    def zeta_conservative(self) -> float:
        return zeta_certificate(min(self.s_conservative, TSIRELSON)).zeta


@dataclass(frozen=True)
class ZetaCertificate:
    """Certificate value with a flag marking whether S >= 2 backed it."""

    zeta: float
    certified: bool


def chsh_operator(setup: ChshSetup) -> Array:
    """W = A0xT0 + A0xT1 + A1xT0 - A1xT1; Hermitian with norm <= 2*sqrt(2)."""
    w = (tensor_product(setup.a0, setup.t0) + tensor_product(setup.a0, setup.t1)
         + tensor_product(setup.a1, setup.t0) - tensor_product(setup.a1, setup.t1))
    norm = operator_norm(w)
    if norm > TSIRELSON + 1e-9:
        raise DomainError(f"CHSH operator norm {norm!r} exceeds the Tsirelson bound")
    return w


def chsh_value(setup: ChshSetup) -> float:
    """Exact S = tr(W rho) for the given setup."""
    s = float(np.trace(chsh_operator(setup) @ setup.state).real)
    if abs(s) > TSIRELSON + 1e-9:
        raise DomainError(f"CHSH value {s!r} exceeds the Tsirelson bound")
    return s


def zeta_certificate(s: float) -> ZetaCertificate:
    """Map a CHSH value onto the anti-commutator certificate.

    For s >= 2 the certificate is zeta = s/4 * sqrt(8 - s^2), clamped to
    [0, 1]. Below 2 the lemma gives nothing, so zeta = 1 is returned with
    ``certified=False``. Values above 2*sqrt(2) (plus tolerance) raise, and
    so does nan, which the clamp would otherwise turn into zeta = 0.
    """
    s = float(s)
    if math.isnan(s):
        raise DomainError("CHSH value must be a number, got nan")
    if s > TSIRELSON + 1e-9:
        raise NonphysicalViolationError(
            f"CHSH value {s!r} exceeds the quantum maximum 2*sqrt(2)")
    if s < 2.0:
        return ZetaCertificate(1.0, False)
    zeta = s / 4.0 * math.sqrt(max(0.0, 8.0 - s * s))
    return ZetaCertificate(min(1.0, max(0.0, zeta)), True)


def zeta_from_violation(s: float) -> float:
    return zeta_certificate(s).zeta


def half_width(rounds_per_setting: int, delta: float) -> float:
    if not 0.0 < delta < 1.0:
        raise DomainError(f"confidence delta must lie in (0, 1), got {delta!r}")
    if rounds_per_setting < 1:
        raise DomainError("rounds_per_setting must be at least 1")
    return 4.0 * math.sqrt(math.log(8.0 / delta) / (2.0 * rounds_per_setting))


def _joint_outcome_probs(obs_a: Array, obs_t: Array, state: Array) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Outcome probabilities of a product of binary observables on a state.

    Returns (probabilities, signs_a, signs_t) over the joint eigenspaces,
    splitting each observable into its +-1 eigenprojectors.
    """
    wa, va = np.linalg.eigh((obs_a + obs_a.conj().T) / 2)
    wt, vt = np.linalg.eigh((obs_t + obs_t.conj().T) / 2)
    sa = np.where(wa >= 0, 1.0, -1.0)
    st = np.where(wt >= 0, 1.0, -1.0)
    probs = []
    signs_a = []
    signs_t = []
    for s_a in (1.0, -1.0):
        pa = va[:, sa == s_a]
        proj_a = pa @ pa.conj().T if pa.size else np.zeros_like(obs_a)
        for s_t in (1.0, -1.0):
            pt = vt[:, st == s_t]
            proj_t = pt @ pt.conj().T if pt.size else np.zeros_like(obs_t)
            prob = float(np.trace(np.kron(proj_a, proj_t) @ state).real)
            probs.append(max(0.0, prob))
            signs_a.append(s_a)
            signs_t.append(s_t)
    p = np.array(probs)
    total = p.sum()
    if abs(total - 1.0) > 1e-8:
        raise DomainError(f"outcome probabilities sum to {total!r}")
    return p / total, np.array(signs_a), np.array(signs_t)


def estimate_chsh(device, rounds_per_setting: int, delta: float,
                  seed=0) -> ChshEstimate:
    """Monte-Carlo estimate of S from the device's testing observables.

    The four setting pairs are cycled deterministically with
    ``rounds_per_setting`` i.i.d. Born-rule samples each; the empirical
    correlators combine into s_hat = E00 + E01 + E10 - E11.
    """
    hw = half_width(rounds_per_setting, delta)
    setup = device.chsh_setup()
    rng = RandomSuite(seed).rng
    correlators = []
    for obs_a in (setup.a0, setup.a1):
        for obs_t in (setup.t0, setup.t1):
            probs, signs_a, signs_t = _joint_outcome_probs(obs_a, obs_t, setup.state)
            counts = rng.multinomial(rounds_per_setting, probs)
            correlators.append(float(np.sum(counts * signs_a * signs_t))
                               / rounds_per_setting)
    e00, e01, e10, e11 = correlators
    s_hat = e00 + e01 + e10 - e11
    return ChshEstimate(s_hat=s_hat, rounds_per_setting=rounds_per_setting,
                        confidence_delta=delta, half_width=hw)
