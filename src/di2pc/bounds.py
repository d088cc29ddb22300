"""Closed-form security bounds for the bounded-storage guessing game.

Central quantities, for n rounds, adversary memory dimension d, certificate
zeta in [0, 1] and error tolerance gamma in [0, 1/2]:

    q       = sqrt((1 + zeta)/2)
    base    = (1 + q)/2
    t       = floor(-log2(d) / log2(q^2))                      (threshold)
    B       = sqrt(d)*base^n - sum_{k<=t} C(n,k) 2^-n (sqrt(d) q^k - 1)
    B_sum   = 2^-n [ sum_{k<=t} C(n,k) + sqrt(d) sum_{k>t} C(n,k) q^k ]
    B'      = 2^{h(gamma) n} * B

``B`` and ``B_sum`` are algebraically equal (binomial theorem); evaluating
both is the module's self-check. The same B' certifies the guessing game,
WSE in the noisy-entanglement model, and position verification; reports only
differ by a label.

All logarithms are base 2. Degenerate zeta = 1 makes the threshold infinite
and the bound exactly 1 through the ordinary formulas (binomials vanish past
n), so no special casing of the bound value is needed. Up to n = 1000 both
forms are evaluated linearly in extended precision (exact binomials); beyond
that, log2-space evaluation keeps n up to 10^6 from overflowing or losing
the exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapExceededError, DomainError
from .chsh import zeta_from_violation

__all__ = [
    "INSECURE",
    "BoundReport",
    "SecurityRegion",
    "threshold",
    "binary_entropy",
    "bound_perfect",
    "bound_perfect_raw",
    "bound_perfect_log2",
    "bound_perfect_sumform",
    "bound_perfect_sumform_log2",
    "bound_imperfect",
    "bound_imperfect_log2",
    "decay_condition",
    "decay_margin",
    "security_region",
    "gamma_star",
    "min_rounds",
    "hamming_ball",
    "minentropy_rate",
    "bound_report",
]

INSECURE = "insecure"

_LOG2E = 1.0 / math.log(2.0)
# Effectively infinite threshold used when log((1+zeta)/2) = 0; every sum
# below caps the threshold at n, which reproduces the t := n convention.
_T_INF = 10 ** 18


def _validate(n: int, d: int, zeta: float, gamma: float = 0.0) -> None:
    if n < 1 or int(n) != n:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    if d < 1 or int(d) != d:
        raise DomainError(f"d must be a positive integer, got {d!r}")
    if not 0.0 <= zeta <= 1.0:
        raise DomainError(f"zeta must lie in [0, 1], got {zeta!r}")
    if not 0.0 <= gamma <= 0.5:
        raise DomainError(f"gamma must lie in [0, 0.5], got {gamma!r}")


@dataclass(frozen=True)
class BoundReport:
    """Evaluated bound for one parameter point.

    ``kind`` labels which adversarial quantity the number certifies
    (guessing game, WSE in the noisy-entanglement model, or PV); the formula
    is one and the same. ``minentropy_rate`` is computed from the log2 of
    the imperfect bound, so it stays finite even when ``b_imperfect``
    underflows to 0.0 in double precision.
    """

    n: int
    d: int
    zeta: float
    gamma: float
    threshold_t: int
    b_perfect: float
    b_imperfect: float
    minentropy_rate: float
    secure: bool
    kind: str = "guessing"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind, "n": self.n, "d": self.d,
            "zeta": self.zeta, "gamma": self.gamma,
            "threshold_t": self.threshold_t,
            "b_perfect": self.b_perfect, "b_imperfect": self.b_imperfect,
            "minentropy_rate": self.minentropy_rate, "secure": self.secure,
        }


def _q(zeta: float) -> float:
    return math.sqrt((1.0 + zeta) / 2.0)


def _log2_base(zeta: float) -> float:
    return math.log2((1.0 + _q(zeta)) / 2.0)


def threshold(d: int, zeta: float) -> int:
    """t = floor(-log2(d) / log2((1+zeta)/2)).

    For zeta = 1 the divisor vanishes; the limit is 0 for d = 1 and +infinity
    for d >= 2, represented by a huge sentinel that every consumer clips to n.
    """
    _validate(1, d, zeta)
    if d == 1:
        return 0
    log_ratio = math.log2((1.0 + zeta) / 2.0)
    if log_ratio == 0.0:
        return _T_INF
    return int(math.floor(-math.log2(d) / log_ratio))


def binary_entropy(gamma: float) -> float:
    """h(gamma) in bits, with h(0) = h(1) = 0 by continuity."""
    if not 0.0 <= gamma <= 1.0:
        raise DomainError(f"binary_entropy needs gamma in [0, 1], got {gamma!r}")
    if gamma in (0.0, 1.0):
        return 0.0
    return float(-gamma * math.log2(gamma) - (1.0 - gamma) * math.log2(1.0 - gamma))


# Linear-space evaluation is exact enough up to this n (binomials and the
# value itself stay inside double range); larger n switches to log space.
_LINEAR_N = 1000


# Extended precision for the linear path: the closed form raises (1+q)/2 to
# the n-th power, which amplifies a half-ulp of the base to n ulps; 80-bit
# long doubles keep the residual far below the 1e-12 identity budget. (On
# platforms where longdouble is plain float64 the identity still holds to
# roughly 2e-12.)
_LD = np.longdouble


@lru_cache(maxsize=None)
def _comb_longs(n: int) -> np.ndarray:
    """C(n, 0..n) as long doubles; exact integers rounded once on conversion."""
    return np.array([_LD(math.comb(n, k)) for k in range(n + 1)])


def _log2_binom(n: int, k: np.ndarray) -> np.ndarray:
    """log2 C(n, k) for integers 0 <= k <= n: running sums of
    log2((n - i + 1) / i) up to min(k, n - k). Float64 throughout; against a
    60-digit reference the bound forms stay within 1e-9 bits up to n = 1e5."""
    half = np.minimum(k, n - k)
    i = np.arange(1, half.max() + 1)
    table = np.zeros(len(i) + 1)
    np.cumsum(np.log2((n - i + 1) / i), out=table[1:])
    return table[half]


def _closed_linear(n: int, d: int, zeta: float) -> float:
    """Closed form: sqrt(d) base^n - sum_{k<=t} C(n,k) 2^-n (sqrt(d) q^k - 1)."""
    q = np.sqrt((1 + _LD(zeta)) / 2)
    t = min(threshold(d, zeta), n)
    sqrt_d = np.sqrt(_LD(d))
    main = sqrt_d * ((1 + q) / 2) ** _LD(n)
    scale = _LD(2.0) ** (-n)
    ks = np.arange(0, t + 1)
    coeff = np.clip(sqrt_d * q ** ks - 1, 0, None)
    corr = np.sum(_comb_longs(n)[: t + 1] * scale * coeff)
    return float(main - corr)


def _sum_linear(n: int, d: int, zeta: float) -> float:
    """Binomial-sum form: 2^-n [ sum_head C(n,k) + sqrt(d) sum_tail C(n,k) q^k ]."""
    q = np.sqrt((1 + _LD(zeta)) / 2)
    t = min(threshold(d, zeta), n)
    scale = _LD(2.0) ** (-n)
    combs = _comb_longs(n)
    ks = np.arange(0, n + 1)
    weights = np.where(ks <= t, _LD(1.0), np.sqrt(_LD(d)) * q ** ks)
    return float(np.sum(combs * scale * weights))


def bound_perfect_log2(n: int, d: int, zeta: float) -> float:
    """log2 of the raw (pre-clamp) closed-form bound B(n, d, zeta).

    Large n is evaluated as log2(main) + log1p(-correction/main): the
    correction terms (all nonnegative for k <= t) are summed relative to the
    main term sqrt(d) * base^n, so nothing overflows or loses the exponent.
    """
    _validate(n, d, zeta)
    if zeta == 1.0:
        return 0.0
    if n <= _LINEAR_N:
        return math.log2(_closed_linear(n, d, zeta))
    t = min(threshold(d, zeta), n)
    log2_main = 0.5 * math.log2(d) + n * _log2_base(zeta)
    ks = np.arange(0, t + 1)
    coeff = math.sqrt(d) * (_q(zeta) ** ks) - 1.0
    coeff = np.maximum(coeff, 0.0)  # k = t can dip below 0 by roundoff
    with np.errstate(divide="ignore"):
        log2_terms = _log2_binom(n, ks) - n + np.log2(np.where(coeff > 0, coeff, 1.0))
    log2_terms = np.where(coeff > 0, log2_terms, -np.inf)
    ratio = math.fsum(np.exp2(log2_terms - log2_main).tolist())
    if ratio >= 1.0:
        # Mathematically ratio < 1 always; roundoff can graze it from below.
        ratio = math.nextafter(1.0, 0.0)
    return log2_main + math.log1p(-ratio) * _LOG2E


def bound_perfect_raw(n: int, d: int, zeta: float) -> float:
    """Raw closed-form bound before clamping to [0, 1]; may exceed 1."""
    _validate(n, d, zeta)
    if zeta == 1.0:
        return 1.0
    if n <= _LINEAR_N:
        return _closed_linear(n, d, zeta)
    return float(2.0 ** bound_perfect_log2(n, d, zeta))


def bound_perfect(n: int, d: int, zeta: float) -> float:
    """Key-lemma bound B(n, d, zeta), clamped into [0, 1]."""
    return min(1.0, bound_perfect_raw(n, d, zeta))


def bound_perfect_sumform_log2(n: int, d: int, zeta: float) -> float:
    """log2 of 2^-n [ sum_{k<=t} C(n,k) + sqrt(d) sum_{k>t} C(n,k) q^k ]."""
    _validate(n, d, zeta)
    if zeta == 1.0:
        return 0.0
    if n <= _LINEAR_N:
        return math.log2(_sum_linear(n, d, zeta))
    t = min(threshold(d, zeta), n)
    ks = np.arange(0, n + 1)
    log2_terms = _log2_binom(n, ks) - n
    tail = ks > t
    log2_terms = log2_terms + np.where(
        tail, 0.5 * math.log2(d) + ks * math.log2(_q(zeta)), 0.0)
    peak = float(np.max(log2_terms))
    return peak + math.log2(math.fsum(np.exp2(log2_terms - peak).tolist()))


def bound_perfect_sumform(n: int, d: int, zeta: float) -> float:
    """Raw bound via the explicit binomial-sum form (binomial-theorem identity)."""
    _validate(n, d, zeta)
    if zeta == 1.0:
        return 1.0
    if n <= _LINEAR_N:
        return _sum_linear(n, d, zeta)
    return float(2.0 ** bound_perfect_sumform_log2(n, d, zeta))


def bound_imperfect_log2(n: int, d: int, zeta: float, gamma: float) -> float:
    """log2 of the raw imperfect-game bound 2^{h(gamma) n} B(n, d, zeta)."""
    if gamma > 0.5:
        raise DomainError(f"gamma must be at most 0.5, got {gamma!r}")
    _validate(n, d, zeta, gamma)
    return binary_entropy(gamma) * n + bound_perfect_log2(n, d, zeta)


def bound_imperfect(n: int, d: int, zeta: float, gamma: float) -> float:
    """B'(n, d, zeta, gamma), clamped into [0, 1]; gamma = 0 reduces to B."""
    if gamma > 0.5:
        raise DomainError(f"gamma must be at most 0.5, got {gamma!r}")
    _validate(n, d, zeta, gamma)
    if n <= _LINEAR_N:
        # The entropy factor is exactly 1.0 at gamma = 0, so this reduces to
        # bound_perfect bit for bit.
        return min(1.0, 2.0 ** (binary_entropy(gamma) * n) * bound_perfect_raw(n, d, zeta))
    return min(1.0, float(2.0 ** bound_imperfect_log2(n, d, zeta, gamma)))


def decay_margin(zeta: float, gamma: float) -> float:
    """Asymptotic decay rate of B' in bits per round (positive means secure)."""
    _validate(1, 1, zeta, gamma)
    return -_log2_base(zeta) - binary_entropy(gamma)


def decay_condition(zeta: float, gamma: float) -> bool:
    """True iff gamma <= 1/2 and h(gamma) < -log2((1 + sqrt((1+zeta)/2))/2)."""
    return gamma <= 0.5 and decay_margin(zeta, gamma) > 0.0


def gamma_star(zeta: float, tol: float = 1e-10) -> float:
    """Largest gamma with exponential decay, by bisection on h(gamma) = rate.

    Returns 0.0 when the region is empty (zeta = 1, i.e. no violation).
    """
    _validate(1, 1, zeta)
    target = -_log2_base(zeta)
    if target <= 0.0:
        return 0.0
    lo, hi = 0.0, 0.5
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if binary_entropy(mid) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


@dataclass(frozen=True)
class SecurityRegion:
    """Decay-condition table over an (S, gamma) grid plus the boundary curve."""

    s_grid: list[float]
    gamma_grid: list[float]
    zetas: list[float]
    secure: list[list[bool]]        # indexed [i_s][i_gamma]
    boundary: list[float]           # gamma*(S) per grid S

    def rows(self):
        for i, s in enumerate(self.s_grid):
            for j, g in enumerate(self.gamma_grid):
                yield {"S": s, "gamma": g, "zeta": self.zetas[i],
                       "secure": self.secure[i][j], "gamma_star": self.boundary[i]}


def security_region(s_grid, gamma_grid) -> SecurityRegion:
    """Evaluate the decay condition on a grid of violations and QBERs."""
    s_grid = [float(s) for s in s_grid]
    gamma_grid = [float(g) for g in gamma_grid]
    if any(b < a for a, b in zip(s_grid, s_grid[1:])) or \
       any(b < a for a, b in zip(gamma_grid, gamma_grid[1:])):
        raise DomainError("grids must be sorted ascending")
    if s_grid and (s_grid[0] < 2.0 - 1e-12 or s_grid[-1] > 2.0 * math.sqrt(2.0) + 1e-9):
        raise DomainError("S grid must lie within [2, 2*sqrt(2)]")
    if gamma_grid and (gamma_grid[0] < 0.0 or gamma_grid[-1] > 0.5):
        raise DomainError("gamma grid must lie within [0, 0.5]")
    zetas = [zeta_from_violation(min(s, 2.0 * math.sqrt(2.0))) for s in s_grid]
    table = [[decay_condition(z, g) for g in gamma_grid] for z in zetas]
    boundary = [gamma_star(z) for z in zetas]
    return SecurityRegion(s_grid, gamma_grid, zetas, table, boundary)


def hamming_ball(n: int, radius: int) -> int:
    """Exact number of strings within Hamming distance ``radius`` of a point."""
    if not 0 <= radius <= n:
        raise DomainError(f"radius must lie in [0, {n}], got {radius!r}")
    return sum(math.comb(n, k) for k in range(radius + 1))


def minentropy_rate(bound_value: float, n: int) -> float:
    """Certified min-entropy rate alpha = -log2(bound)/n in bits per round."""
    if n < 1:
        raise DomainError("n must be at least 1")
    if bound_value < 0.0 or bound_value > 1.0 + 1e-12:
        raise DomainError(f"bound value {bound_value!r} outside [0, 1]")
    if bound_value == 0.0:
        return math.inf
    return -math.log2(min(1.0, bound_value)) / n


def min_rounds(d: int, zeta: float, gamma: float, eps_target: float,
               n_cap: int = 10 ** 6) -> int | str:
    """Smallest n with B'(n, d, zeta, gamma) <= eps_target, or ``INSECURE``.

    Exponential search brackets the eventually-monotone tail, binary search
    pins the boundary, and local monotonicity at the result is re-checked.
    Raises ``CapExceededError`` if n_cap rounds do not suffice (distinct from
    the insecure outcome).
    """
    if not 0.0 < eps_target < 1.0:
        raise DomainError(f"eps_target must lie in (0, 1), got {eps_target!r}")
    _validate(1, d, zeta, gamma)
    if not decay_condition(zeta, gamma):
        return INSECURE
    log2_eps = math.log2(eps_target)

    def ok(n: int) -> bool:
        return bound_imperfect_log2(n, d, zeta, gamma) <= log2_eps

    hi = 1
    while not ok(hi):
        hi *= 2
        if hi > n_cap:
            if ok(n_cap):
                hi = n_cap
                break
            raise CapExceededError(
                f"bound does not reach {eps_target!r} within n <= {n_cap}")
    lo = hi // 2  # ok(lo) is False (or lo == 0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    n_star = hi
    if n_star < n_cap and not ok(n_star + 1):
        raise DomainError(
            f"bound is not locally decreasing at n = {n_star}; result unreliable")
    return n_star


def bound_report(n: int, d: int, zeta: float | None = None,
                 gamma: float = 0.0, s: float | None = None,
                 kind: str = "guessing") -> BoundReport:
    """Assemble the full report for one parameter point.

    Exactly one of ``zeta`` or ``s`` must be given; ``s`` is converted with
    the certificate map first.
    """
    if (zeta is None) == (s is None):
        raise DomainError("provide exactly one of zeta or S")
    if s is not None:
        zeta = zeta_from_violation(s)
    if kind not in ("guessing", "wse_ne", "pv"):
        raise DomainError(f"unknown report kind {kind!r}")
    _validate(n, d, zeta, gamma)
    t = min(threshold(d, zeta), n)
    b = bound_perfect(n, d, zeta)
    log2_bi = bound_imperfect_log2(n, d, zeta, gamma)
    bi = min(1.0, float(2.0 ** log2_bi))
    rate = 0.0 if log2_bi >= 0.0 else -min(0.0, log2_bi) / n
    return BoundReport(n=n, d=d, zeta=zeta, gamma=gamma, threshold_t=t,
                       b_perfect=b, b_imperfect=bi,
                       minentropy_rate=rate,
                       secure=decay_condition(zeta, gamma), kind=kind)
