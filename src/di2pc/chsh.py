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

from .errors import DimensionCapError, DomainError, NonphysicalViolationError, ShapeError
from .matcore import (
    Array,
    RandomSuite,
    _herm,
    _kron,
    check_binary_observable,
    check_density_operator,
    dagger,
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

# Most rounds per setting: a count up to this is exact as a float64 (and
# fits the int64 the multinomial draw takes).
_ROUNDS_CAP = 2 ** 53


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
    if math.isinf(8.0 / delta):
        raise DomainError(f"confidence delta {delta!r} is too small: 8/delta overflows")
    if rounds_per_setting < 1:
        raise DomainError("rounds_per_setting must be at least 1")
    return 4.0 * math.sqrt(math.log(8.0 / delta) / (2.0 * rounds_per_setting))


def _eigenprojectors(obs: Array) -> list[Array]:
    """Projectors onto the +1 and -1 eigenspaces of a binary observable."""
    w, v = np.linalg.eigh(_herm(obs))
    plus, minus = v[:, w >= 0], v[:, w < 0]
    return [plus @ dagger(plus), minus @ dagger(minus)]


def _outcome_table(proj_a: np.ndarray, proj_b: np.ndarray, state: Array) -> np.ndarray:
    """Joint outcome pmf of two binary measurements per side on ``state``,
    indexed [setting_a, setting_b, x, y].

    ``proj_a`` and ``proj_b`` hold each side's projectors, indexed
    [setting, outcome]. All 16 kron(P^s_x, Q^t_y) are formed at once, in one
    stacked Kronecker product.
    """
    krons = _kron(proj_a[:, None, :, None], proj_b[None, :, None, :])
    table = np.maximum(np.trace(krons @ state, axis1=-2, axis2=-1).real, 0.0)
    sums = table.sum(axis=(2, 3))
    if np.max(np.abs(sums - 1.0)) > 1e-8:
        raise DomainError("outcome table rows do not normalize")
    return table / sums[:, :, None, None]


def estimate_chsh(device, rounds_per_setting: int, delta: float,
                  seed=0) -> ChshEstimate:
    """Monte-Carlo estimate of S from the device's testing observables.

    The four setting pairs are cycled deterministically with
    ``rounds_per_setting`` i.i.d. Born-rule samples each; the empirical
    correlators combine into s_hat = E00 + E01 + E10 - E11.
    """
    hw = half_width(rounds_per_setting, delta)
    if rounds_per_setting > _ROUNDS_CAP:
        raise DimensionCapError(
            f"estimate_chsh is capped at {_ROUNDS_CAP} rounds per setting, "
            f"got {rounds_per_setting}")
    # Projectors from the observables' eigenvectors, not the device's stored
    # p0/p1: the two differ by roundoff, which the multinomial draw turns
    # into other counts, and so into other `chsh` output.
    proj_a = np.array([_eigenprojectors(m.observable)
                       for m in (device.alice_meas_0, device.alice_meas_1)])
    proj_t = np.array([_eigenprojectors(t) for t in (device.test_t0, device.test_t1)])
    table = _outcome_table(proj_a, proj_t, device.sigma_ab)
    rng = RandomSuite(seed).rng
    # joint outcome (x, y) counts with the sign (-1)^(x + y)
    correlators = [int(np.dot(rng.multinomial(rounds_per_setting, probs), (1, -1, -1, 1)))
                   / rounds_per_setting for probs in table.reshape(4, 4)]
    e00, e01, e10, e11 = correlators
    s_hat = e00 + e01 + e10 - e11
    return ChshEstimate(s_hat=s_hat, rounds_per_setting=rounds_per_setting,
                        confidence_delta=delta, half_width=hw)
