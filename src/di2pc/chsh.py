"""Exact CHSH violation, certificate map, and sampled estimation.

The testing protocol measures S = E00 + E01 + E10 - E11, where E_ab is the
correlator of Alice's observable A_a against the testing observable T_b on
the device's state, and converts it into the certificate zeta = S/4 *
sqrt(8 - S^2), an upper bound on the effective absolute anti-commutator of
the main device's two measurements whenever S >= 2. The exact value and the
sampled estimate read one joint-outcome table (``_test_table``).

Sampled estimation cycles the four setting pairs deterministically with an
equal number of rounds each, so the only randomness is the Born-rule outcome
draw; the reported half width is 4*sqrt(ln(8/delta)/(2*rounds_per_setting)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionCapError, DomainError, NonphysicalViolationError
from .matcore import Array, RandomSuite, _herm, _kron, dagger

__all__ = [
    "TSIRELSON",
    "ChshEstimate",
    "chsh_value",
    "zeta_from_violation",
    "estimate_chsh",
    "half_width",
]

TSIRELSON = 2.0 * math.sqrt(2.0)

# Most rounds per setting: a count up to this is exact as a float64 (and
# fits the int64 the multinomial draw takes).
_ROUNDS_CAP = 2 ** 53

# The sign (-1)^(x + y) of each joint outcome (x, y), in the table's order.
_SIGNS = (1, -1, -1, 1)


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
        return zeta_from_violation(min(self.s_conservative, TSIRELSON))


def zeta_from_violation(s: float) -> float:
    """Map a CHSH value onto the anti-commutator certificate.

    For s >= 2 the certificate is zeta = s/4 * sqrt(8 - s^2), clamped to
    [0, 1]. Below 2 the lemma gives nothing, so zeta = 1. Values above
    2*sqrt(2) (plus tolerance) raise, and so does nan, which the clamp would
    otherwise turn into zeta = 0.
    """
    s = float(s)
    if math.isnan(s):
        raise DomainError("CHSH value must be a number, got nan")
    if s > TSIRELSON + 1e-9:
        raise NonphysicalViolationError(
            f"CHSH value {s!r} exceeds the quantum maximum 2*sqrt(2)")
    if s < 2.0:
        return 1.0
    zeta = s / 4.0 * math.sqrt(max(0.0, 8.0 - s * s))
    return min(1.0, max(0.0, zeta))


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


def _test_table(device) -> np.ndarray:
    """The testing protocol's joint outcome pmf: Alice's two observables
    against the two testing observables on sigma_AB, indexed [a, b, x, y].

    Projectors from the observables' eigenvectors, not the device's stored
    p0/p1: the two differ by roundoff, which the multinomial draw turns into
    other counts, and so into other `chsh` output.
    """
    proj_a = np.array([_eigenprojectors(m.observable)
                       for m in (device.alice_meas_0, device.alice_meas_1)])
    proj_t = np.array([_eigenprojectors(t) for t in (device.test_t0, device.test_t1)])
    return _outcome_table(proj_a, proj_t, device.sigma_ab)


def chsh_value(device) -> float:
    """Exact S = E00 + E01 + E10 - E11 of the device's testing protocol, the
    Born-rule mean of what ``estimate_chsh`` samples."""
    e00, e01, e10, e11 = (_test_table(device).reshape(4, 4) @ _SIGNS).tolist()
    s = e00 + e01 + e10 - e11
    if abs(s) > TSIRELSON + 1e-9:
        raise DomainError(f"CHSH value {s!r} exceeds the Tsirelson bound")
    return s


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
    rng = RandomSuite(seed).rng
    correlators = [int(np.dot(rng.multinomial(rounds_per_setting, probs), _SIGNS))
                   / rounds_per_setting for probs in _test_table(device).reshape(4, 4)]
    e00, e01, e10, e11 = correlators
    s_hat = e00 + e01 + e10 - e11
    return ChshEstimate(s_hat=s_hat, rounds_per_setting=rounds_per_setting,
                        confidence_delta=delta, half_width=hw)
