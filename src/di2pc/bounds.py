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
WSE against a memory of bounded dimension d (no storage channel is
modelled), and position verification; reports only differ by a label.

All logarithms are base 2. Both forms go through one guarded evaluator,
prepared once per (d, zeta) and form by ``_curve``: the threshold t and
every piece that does not depend on n (sqrt(d), base and the clipped
coefficients sqrt(d) q^k - 1 for k <= t on the linear path; log2 of sqrt(d)
and of base, and the log2 of the positive coefficients in log space) are
computed once, and each evaluation at an n does only the n-dependent work,
in the same order of operations as a one-point evaluation. ``min_rounds``
validates its inputs, prepares one curve and computes h(gamma) once per
query, and its probes only evaluate; every public B/B' function and
``bound_report`` validate and prepare for their one point. Where t >= n
(which includes zeta = 1, whose threshold is infinite) every weight
min(1, sqrt(d) q^k) is 1, and the guard returns B = 1 and log2 B = 0
exactly without evaluating either form; the closed form would lose that
value for large d, as it cancels two terms of size sqrt(d) base^n.
Otherwise, up to n = 1000 both forms are evaluated linearly in extended
precision (exact binomials); beyond that, log2-space evaluation keeps n up
to 10^6 from overflowing or losing the exponent. There the closed form
returns log2 of its main term in O(1), skipping the O(t) correction sum,
wherever a tail bound proves that the sum cannot change a bit of the
result (``_ClosedForm.log2`` gives the proof). Where the linear closed
form cancels to 0 or below (t < n with d past about 2^212), the evaluator
raises ``DomainError`` naming the point.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

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
    "bound_report",
]

INSECURE = "insecure"

_LOG2E = 1.0 / math.log(2.0)
_LOG2_LOG2E = math.log2(_LOG2E)
# Effectively infinite threshold used when log((1+zeta)/2) = 0; reports cap
# it at n, and the bound's guard takes it as t >= n.
_T_INF = 10 ** 18


# The largest memory dimension the bound takes: past it no float holds d,
# and sqrt(d) overflows on both evaluation paths.
_D_MAX = sys.float_info.max


def _integral(x) -> bool:
    """Whether x is a whole number: an int, or a float such as 5.0 (nan and
    inf are not)."""
    try:
        return int(x) == x
    except (ValueError, OverflowError):
        return False


def _validate(n: int, d: int, zeta: float, gamma: float = 0.0) -> tuple[int, int]:
    """Check one point; returns n and d as ints, which an integral float
    such as 5.0 passes as, so that every path sees an int."""
    if not (n >= 1 and _integral(n)):
        raise DomainError(f"n must be a positive integer, got {n!r}")
    # compared before any conversion, in O(1) even for a huge int, and not
    # printed: a large enough int has no decimal string
    if d > _D_MAX:
        raise DomainError(f"d must be at most {_D_MAX!r}, the largest float")
    if not (d >= 1 and _integral(d)):
        raise DomainError(f"d must be a positive integer, got {d!r}")
    if not 0.0 <= zeta <= 1.0:
        raise DomainError(f"zeta must lie in [0, 1], got {zeta!r}")
    if not 0.0 <= gamma <= 0.5:
        raise DomainError(f"gamma must lie in [0, 0.5], got {gamma!r}")
    return int(n), int(d)


@dataclass(frozen=True)
class BoundReport:
    """Evaluated bound for one parameter point.

    ``kind`` labels which adversarial quantity the number certifies
    (guessing game, WSE against a memory of bounded dimension d with no
    storage channel modelled, or PV); the formula is one and the same.
    ``minentropy_rate`` is computed from the log2 of the imperfect bound, so
    it stays finite even when ``b_imperfect`` underflows to 0.0 in double
    precision.
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
    _, d = _validate(1, d, zeta)
    return 0 if d == 1 else _threshold(d, zeta)


def _threshold(d: int, zeta: float) -> int:
    """``threshold`` without validation, and the sentinel at zeta = 1 for
    d = 1 too: every weight sqrt(d) q^k is then at least 1."""
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


class _ClosedForm:
    """The closed form at one (d, zeta) with threshold t, as a function of n:
    sqrt(d) base^n - sum_{k<=t} C(n,k) 2^-n (sqrt(d) q^k - 1).

    What does not depend on n is computed once, on the first call of each
    path, so evaluating many n at one (d, zeta) repeats only the n-dependent
    work."""

    __slots__ = ("d", "zeta", "t", "_linear_pieces", "_log2_pieces")

    def __init__(self, d: int, zeta: float, t: int):
        self.d, self.zeta, self.t = d, zeta, t
        self._linear_pieces = self._log2_pieces = None

    def linear(self, n: int) -> float:
        """In extended precision, with exact binomials."""
        if self._linear_pieces is None:
            q = np.sqrt((1 + _LD(self.zeta)) / 2)
            sqrt_d = np.sqrt(_LD(self.d))
            coeff = np.clip(sqrt_d * q ** np.arange(0, self.t + 1) - 1, 0, None)
            self._linear_pieces = sqrt_d, (1 + q) / 2, coeff
        sqrt_d, base, coeff = self._linear_pieces
        main = sqrt_d * base ** _LD(n)
        corr = np.add.reduce(_comb_longs(n)[: self.t + 1] * _LD(2.0) ** (-n) * coeff)
        return float(main - corr)

    def log2(self, n: int) -> float:
        """log2 of the closed form, as log2(main) + log1p(-correction/main):
        the correction terms (all positive) are summed relative to the main
        term sqrt(d) * base^n, so nothing overflows or loses the exponent.

        Where a tail bound shows that the correction cannot move a bit, this
        returns log2(main) without the O(t) sum. The positive coefficients
        sit at k <= top; where 2 top <= n, C(n, k) <= 2^(n h(top/n)) and
        0 < coeff_k < sqrt(d), so ratio = correction/main is at most
        R = (top + 1) 2^(n (h(top/n) - 1) + log2 sqrt(d) - log2 main), and
        the sum adds x = log1p(-ratio) log2(e), |x| <= R log2(e) / (1 - R).
        ``_log2_tail`` is log2(R log2(e)) plus eps = n (top + 1) 2^-48
        bits, which covers the float error of every exponent involved: the
        cumulative sum behind log2 C(n, k) rounds at most top partial sums
        below n and top terms below 64, and a term's exponent or R's adds
        a few more roundings of magnitude below 3n. The skip fires where
        that is below ulp(log2 main) / 16. exp2, fsum, log1p, the factor
        log2(e) and 1 / (1 - R) add a relative 2^-48 at most, so the
        computed |x| stays below ulp / 4, and log2 main + x rounds to log2
        main (a quarter ulp, not a half, covers a power of two stepping
        down). The skip thus returns what the sum returns, bit for bit; the
        sum runs where 2 top > n, log2 main = 0 or the bound is too large."""
        if self._log2_pieces is None:
            coeff = math.sqrt(self.d) * (_q(self.zeta) ** np.arange(0, self.t + 1)) - 1.0
            # k = t can dip to 0 or below by roundoff, and every k does at
            # d = 1; such terms add an exact 0 to the correction, left out
            ks = np.flatnonzero(coeff > 0)
            self._log2_pieces = (0.5 * math.log2(self.d), _log2_base(self.zeta),
                                 ks, np.log2(coeff[ks]), int(ks[-1]) if len(ks) else -1)
        half_log2_d, log2_base, ks, log2_coeff, top = self._log2_pieces
        log2_main = half_log2_d + n * log2_base
        if 0 <= 2 * top <= n and log2_main and \
                self._log2_tail(n, top, log2_main) < math.log2(math.ulp(log2_main)) - 4:
            return log2_main
        ratio = 0.0
        if len(ks):
            log2_terms = _log2_binom(n, ks) - n + log2_coeff
            ratio = math.fsum(np.exp2(log2_terms - log2_main).tolist())
        if ratio >= 1.0:
            # Mathematically ratio < 1 always; roundoff can graze it from below.
            ratio = math.nextafter(1.0, 0.0)
        return log2_main + math.log1p(-ratio) * _LOG2E

    def _log2_tail(self, n: int, top: int, log2_main: float) -> float:
        """log2 of ``log2``'s bound on how far the correction moves log2 B."""
        p = top / n
        h = -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p) if top else 0.0
        return (math.log2(top + 1) + n * (h - 1.0) + self._log2_pieces[0] - log2_main
                + _LOG2_LOG2E + n * (top + 1) * 2.0 ** -48)


class _SumForm:
    """The binomial-sum form at one (d, zeta) with threshold t, as a function
    of n: 2^-n [ sum_{k<=t} C(n,k) + sqrt(d) sum_{k>t} C(n,k) q^k ]."""

    __slots__ = ("d", "zeta", "t")

    def __init__(self, d: int, zeta: float, t: int):
        self.d, self.zeta, self.t = d, zeta, t

    def linear(self, n: int) -> float:
        q = np.sqrt((1 + _LD(self.zeta)) / 2)
        ks = np.arange(0, n + 1)
        weights = np.where(ks <= self.t, _LD(1.0), np.sqrt(_LD(self.d)) * q ** ks)
        return float(np.add.reduce(_comb_longs(n) * _LD(2.0) ** (-n) * weights))

    def log2(self, n: int) -> float:
        """Summed relative to its largest term."""
        ks = np.arange(0, n + 1)
        log2_terms = _log2_binom(n, ks) - n
        log2_terms = log2_terms + np.where(
            ks > self.t, 0.5 * math.log2(self.d) + ks * math.log2(_q(self.zeta)), 0.0)
        peak = float(np.max(log2_terms))
        return peak + math.log2(math.fsum(np.exp2(log2_terms - peak).tolist()))


class _Bound(NamedTuple):
    b: float              # raw B (the closed form may exceed 1 by roundoff)
    log2_b: float
    b_prime: float        # B' clamped into [0, 1]
    log2_b_prime: float   # raw log2 B'


def _curve(d: int, zeta: float, form=_ClosedForm):
    """The one evaluator of B and B': prepared once per (d, zeta) and form,
    it returns ``evaluate(n, h)`` for B at n rounds and B' with entropy
    h = h(gamma). Inputs are taken as validated.

    Where t >= n (which includes zeta = 1) every weight min(1, sqrt(d) q^k) of
    the sum form is 1, so B is exactly 1; both forms would otherwise lose it
    to roundoff, the closed form by cancelling two terms of size
    sqrt(d) base^n. Otherwise B is evaluated linearly up to ``_LINEAR_N`` and
    in log2 space past it, where B' is clamped in the exponent (2^log2 B'
    overflows once log2 B' passes 1024).
    """
    t = _threshold(d, zeta)
    path = form(d, zeta, t)

    def evaluate(n: int, h: float) -> _Bound:
        h_n = h * n
        if t >= n:
            return _Bound(1.0, 0.0, 1.0, h_n)
        if n <= _LINEAR_N:
            b = path.linear(n)
            if not b > 0.0:
                # only the closed form gets here: its two terms cancel past
                # every digit (the sum form adds positive terms only)
                raise DomainError(
                    f"the bound at n = {n}, d = {d:.6g}, zeta = {zeta!r} reads "
                    f"{b!r}: its closed form loses every digit to cancellation "
                    "at this memory dimension")
            log2_b = math.log2(b)
            # The entropy factor is exactly 1.0 at gamma = 0, so B' = B bit for bit.
            return _Bound(b, log2_b, min(1.0, 2.0 ** h_n * b), h_n + log2_b)
        log2_b = path.log2(n)
        return _Bound(float(2.0 ** log2_b), log2_b,
                      float(2.0 ** min(0.0, h_n + log2_b)), h_n + log2_b)

    return evaluate


def _bound(n: int, d: int, zeta: float, gamma: float = 0.0, form=_ClosedForm) -> _Bound:
    """B and B' at one point: what every public B/B' function and
    ``bound_report`` return a part of."""
    n, d = _validate(n, d, zeta, gamma)
    return _curve(d, zeta, form)(n, binary_entropy(gamma))


def bound_perfect_raw(n: int, d: int, zeta: float) -> float:
    """Raw closed-form bound before clamping to [0, 1]; may exceed 1."""
    return _bound(n, d, zeta).b


def bound_perfect(n: int, d: int, zeta: float) -> float:
    """Key-lemma bound B(n, d, zeta), clamped into [0, 1]."""
    return min(1.0, _bound(n, d, zeta).b)


def bound_perfect_sumform_log2(n: int, d: int, zeta: float) -> float:
    """log2 of 2^-n [ sum_{k<=t} C(n,k) + sqrt(d) sum_{k>t} C(n,k) q^k ]."""
    return _bound(n, d, zeta, form=_SumForm).log2_b


def bound_perfect_sumform(n: int, d: int, zeta: float) -> float:
    """Raw bound via the explicit binomial-sum form (binomial-theorem identity)."""
    return _bound(n, d, zeta, form=_SumForm).b


def bound_imperfect_log2(n: int, d: int, zeta: float, gamma: float) -> float:
    """log2 of the raw imperfect-game bound 2^{h(gamma) n} B(n, d, zeta)."""
    return _bound(n, d, zeta, gamma).log2_b_prime


def bound_imperfect(n: int, d: int, zeta: float, gamma: float) -> float:
    """B'(n, d, zeta, gamma), clamped into [0, 1]; gamma = 0 reduces to B."""
    return _bound(n, d, zeta, gamma).b_prime


def decay_margin(zeta: float, gamma: float) -> float:
    """Asymptotic decay rate of B' in bits per round (positive means secure)."""
    _validate(1, 1, zeta, gamma)
    return -_log2_base(zeta) - binary_entropy(gamma)


def decay_condition(zeta: float, gamma: float) -> bool:
    """True iff gamma <= 1/2 and h(gamma) < -log2((1 + sqrt((1+zeta)/2))/2)."""
    return gamma <= 0.5 and decay_margin(zeta, gamma) > 0.0


# Width of the bisection bracket at which gamma_star stops.
_GAMMA_STAR_TOL = 1e-10


def gamma_star(zeta: float) -> float:
    """Largest gamma with exponential decay, by bisection on h(gamma) = rate.

    Returns 0.0 when the region is empty (zeta = 1, i.e. no violation).
    """
    _validate(1, 1, zeta)
    target = -_log2_base(zeta)
    if target <= 0.0:
        return 0.0
    lo, hi = 0.0, 0.5
    while hi - lo > _GAMMA_STAR_TOL:
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
    if not (n >= 0 and _integral(n)):
        raise DomainError(f"n must be a nonnegative integer, got {n!r}")
    if not (0 <= radius <= n and _integral(radius)):
        raise DomainError(f"radius must be an integer in [0, {n}], got {radius!r}")
    return sum(math.comb(int(n), k) for k in range(int(radius) + 1))


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
    _, d = _validate(1, d, zeta, gamma)
    if not decay_condition(zeta, gamma):
        return INSECURE
    log2_eps = math.log2(eps_target)
    evaluate, h = _curve(d, zeta), binary_entropy(gamma)

    def ok(n: int) -> bool:
        return evaluate(n, h).log2_b_prime <= log2_eps

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


def bound_report(n: int, d: int, zeta: float, gamma: float = 0.0,
                 kind: str = "guessing") -> BoundReport:
    """Assemble the full report for one parameter point."""
    if kind not in ("guessing", "wse_ne", "pv"):
        raise DomainError(f"unknown report kind {kind!r}")
    bound = _bound(n, d, zeta, gamma)
    n, d = int(n), int(d)               # validated as integral by _bound
    log2_bi = bound.log2_b_prime
    rate = 0.0 if log2_bi >= 0.0 else -log2_bi / n
    return BoundReport(n=n, d=d, zeta=zeta, gamma=gamma,
                       threshold_t=min(threshold(d, zeta), n),
                       b_perfect=min(1.0, bound.b), b_imperfect=bound.b_prime,
                       minentropy_rate=rate,
                       secure=decay_condition(zeta, gamma), kind=kind)
