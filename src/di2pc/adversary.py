"""Exact adversary evaluation for the bounded-storage guessing game.

The game: Alice measures her half of sigma_AB^(x)n in uniformly random bases
theta and later announces theta; Bob, who received the B halves but may keep
only a d-dimensional quantum memory (plus unlimited classical notes), must
output a guess y with d_H(x, y) <= floor(gamma n).

For a concrete encoding strategy the winning probability is computed
exactly. A product attack whose value factorizes (every round measured, or
no error allowed) is scored round by round from closed-form per-round optima
(``_product_results``), its value exact up to a stated rounding allowance.
For every other strategy, for every theta the post-measurement ensemble on
Bob's memory is built branch by classical branch, and the optimal decoding
is a quantum state discrimination problem with a dual certificate
(eigenvalue lifting), so every reported value comes with a certified
optimality gap. Guesses whose reward operator another guess dominates are
dropped first; closed forms solve what is left where they exist (scalar
memories, one guess, two-outcome Helstrom), and a fixed-point iteration
with an interior-point fallback solves the rest, on one schedule. The dual
bound is rounded outward, so it stays at or above the value of the
returned POVM in float64.

The module also hosts the see-saw encoding search (a heuristic lower bound
on the game value) and the three fuzzed inequality verifiers backing the
security statement: the key-lemma bound itself, the norm-of-sum inequality,
and the per-block overlap bounds, each folded into its report chunk by
chunk by one loop (``_run_trials``); the norm and overlap verifiers take the
roots and norms of a chunk's trials of one shape in one stacked call each.
The key-lemma fuzz scores its strategy family in one call
(``_score_strategies``): the product attacks round by round, the rest in
one certified solver call per reward shape. Where the bound is below 1 it
adds product attacks that play rounds with the n = 1 memoryless optimum, one
guessing problem with post-measurement information per device
(``_memoryless_optimum``): every round at d = 1, which at n = 1 is the
exact optimum, and at n = d = 2 with no error allowed the other round of
one stored, beside the see-saw, which runs only at d = 2. The search's
restarts climb together, and one solver call scores several steps ahead of
every live restart, their rewards built straight from the stacked
isometries. There every qubit problem, with any number of guesses, goes
first to an exact closed form (the Bloch-vector dual solved over its active
sets, pairs first, ``_qubit_optimum``), one call for the whole batch; only
the problems whose closed-form gap check fails go on to the certified path
above. The winner is scored once more the same way: its value is achieved
by the returned POVM and its bound is the outward-rounded dual, so it
carries its own certificate. Only the see-saw and the memoryless optimum
enter the closed form.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bounds import bound_imperfect
from .errors import DimensionCapError, DomainError, ShapeError, StrategyError
from .jordan import BinaryMeasurement, _epsilon_plus
from .matcore import (
    Array,
    RandomSuite,
    as_matrix,
    check_density_operator,
    child_seed,
    _EQ_TOL,
    _herm,
    _isometry,
    _kron,
    dagger,
    induced_norm,
    operator_norm,
    psd_sqrt,
)
from .protocols import DeviceModel, ideal_bb84_device

__all__ = [
    "MeasureAll",
    "StoreSubset",
    "GeneralEncoding",
    "breidbart",
    "GuessResult",
    "DiscriminationResult",
    "optimal_discrimination",
    "exact_win_probability",
    "replay_win_probability",
    "seesaw_search",
    "random_qubit_device",
    "random_rotated_ideal_device",
    "strategy_family",
    "strategy_from_obj",
    "verify_key_lemma",
    "verify_norm_lemma",
    "verify_overlap_lemma",
    "VerificationReport",
]

BREIDBART_ANGLE = math.pi / 8

_GAME_CAP_ROUNDS = 6
_ENCODING_CAP_ROUNDS = 3

_EPS = float(np.finfo(float).eps)
_FLOAT_MAX = float(np.finfo(float).max)


def _require_positive(**values: int) -> None:
    """Raise ``DomainError`` for the first of ``values`` below 1."""
    for name, value in values.items():
        if value < 1:
            raise DomainError(f"{name} must be at least 1, got {value}")


def _round_kraus(angle: float | str | None, dim_b: int) -> Array:
    """One round's Kraus factors, shape (branches, mem, dim_b): the identity
    for a kept round (None), else the two bras of the qubit basis at
    ``angle`` from the Z axis. An optimum round has none: its instrument
    depends on the device."""
    if angle is None:
        return np.eye(dim_b, dtype=complex)[None]
    if isinstance(angle, str):
        raise StrategyError("an 'optimum' round has no fixed instrument: it is scored "
                            "only where the attack's value factorizes (every round "
                            "measured, or no error allowed)")
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[[c, s]], [[-s, c]]], dtype=complex)


def _kron_axes(factors: list[Array], ndim: int) -> Array:
    """Kronecker product of per-round factors taken axis by axis.

    Every factor has ``ndim`` axes; axis i of the result indexes the tuple of
    the factors' axis-i indices, round 0 most significant, which is the
    index order of a chained ``np.kron``.
    """
    out = np.ones((1,) * ndim, dtype=complex)
    interleave = [j for i in range(ndim) for j in (i, i + ndim)]
    for f in factors:
        shape = [a * b for a, b in zip(out.shape, f.shape)]
        out = np.multiply.outer(out, f).transpose(interleave).reshape(shape)
    return out


# ---------------------------------------------------------------------------
# attack strategies: each yields per-classical-outcome Kraus lists B^(x)n -> memory
# ---------------------------------------------------------------------------

# The angle entry of a round played with the n = 1 memoryless optimum.
_OPTIMUM = "optimum"


def _angle_tuple(angles) -> tuple[float | str, ...]:
    """``angles`` as a tuple of floats and ``"optimum"`` entries;
    ``StrategyError`` unless each entry is that token or a real number that
    is a finite float (nan fails the comparison, and a bool is not one)."""
    if not isinstance(angles, (list, tuple)) or not all(
            a == _OPTIMUM if isinstance(a, str) else
            isinstance(a, numbers.Real) and not isinstance(a, bool) and abs(a) <= _FLOAT_MAX
            for a in angles):
        raise StrategyError(f"angles must be a list of finite numbers or {_OPTIMUM!r}, "
                            f"got {angles!r}")
    return tuple(a if isinstance(a, str) else float(a) for a in angles)


class _ProductStrategy:
    """An attack that treats every round on its own: ``rounds(dim_b, n)``
    gives, per round, the measurement angle, ``"optimum"`` for a round
    played with the memoryless optimum (``_memoryless_optimum``), or
    ``None`` for a kept round."""

    def kraus_branches(self, dim_b: int, n: int) -> list[list[Array]]:
        e = _kron_axes([_round_kraus(a, dim_b) for a in self.rounds(dim_b, n)], 3)
        return [[branch] for branch in e]


@dataclass(frozen=True)
class MeasureAll(_ProductStrategy):
    """Measure every round immediately in a fixed basis; keep only the record.

    ``angles`` gives one qubit measurement angle per round (a single entry is
    broadcast); the Breidbart angle pi/8 is the classic instance. An entry
    ``"optimum"`` plays its round with the n = 1 memoryless optimum, whose
    POVM depends on the device. Quantum memory used: none (dimension 1).
    """

    angles: tuple[float | str, ...]
    kind: str = field(default="measure_all", init=False)

    def __post_init__(self):
        object.__setattr__(self, "angles", _angle_tuple(self.angles))

    def memory_dim(self, dim_b: int, n: int) -> int:
        return 1

    def rounds(self, dim_b: int, n: int) -> tuple[float | str, ...]:
        if dim_b != 2:
            raise StrategyError("measure_all is parameterized for qubit wires only")
        angles = self.angles if len(self.angles) == n else tuple(self.angles) * n
        if len(angles) != n:
            raise StrategyError(f"need {n} angles, got {len(self.angles)}")
        return tuple(angles)

    def to_obj(self) -> dict:
        return {"kind": self.kind, "angles": list(self.angles)}


@dataclass(frozen=True)
class StoreSubset(_ProductStrategy):
    """Keep the rounds in ``keep`` in quantum memory, measure out the rest.

    The kept factors must fit the memory (product of their dimensions <= d is
    checked at evaluation time); discarded rounds are measured at ``angles``:
    none (the Breidbart angle pi/8), one (broadcast), or one per measured
    round, in round order, each a float or ``"optimum"`` as in
    ``MeasureAll``. A round is kept at most once, so ``memory_dim`` counts
    what is stored.
    """

    keep: tuple[int, ...]
    angles: tuple[float | str, ...] = ()
    kind: str = field(default="store_subset", init=False)

    def __post_init__(self):
        if not isinstance(self.keep, (list, tuple)) or not all(
                isinstance(k, numbers.Integral) and not isinstance(k, bool)
                for k in self.keep):
            raise StrategyError(f"keep must be a list of round indices, got {self.keep!r}")
        if len(set(self.keep)) != len(self.keep):
            raise StrategyError(f"keep indices {list(self.keep)} repeat a round")
        object.__setattr__(self, "keep", tuple(map(int, self.keep)))
        object.__setattr__(self, "angles", _angle_tuple(self.angles))

    def memory_dim(self, dim_b: int, n: int) -> int:
        return dim_b ** len(self.keep)

    def rounds(self, dim_b: int, n: int) -> tuple[float | str | None, ...]:
        keep = set(self.keep)
        if any(k < 0 or k >= n for k in keep):
            raise StrategyError(f"keep indices {sorted(keep)} out of range for n={n}")
        discarded = [k for k in range(n) if k not in keep]
        if discarded and dim_b != 2:
            raise StrategyError("measured-out rounds are parameterized for qubits only")
        if len(self.angles) not in (0, 1, len(discarded)):
            raise StrategyError(f"need 0, 1 or {len(discarded)} angles for the measured "
                                f"rounds, got {len(self.angles)}")
        angles = self.angles if len(self.angles) == len(discarded) \
            else (self.angles or (BREIDBART_ANGLE,)) * len(discarded)
        measured = iter(angles)
        return tuple(None if k in keep else next(measured) for k in range(n))

    def to_obj(self) -> dict:
        return {"kind": self.kind, "keep": list(self.keep), "angles": list(self.angles)}


@dataclass(frozen=True)
class GeneralEncoding:
    """Explicit quantum instrument: one completely-positive map per outcome.

    ``kraus`` lists, per classical outcome, the operation elements mapping
    B^(x)n into the memory space; jointly they must be trace preserving.
    """

    kraus: tuple[tuple[Array, ...], ...]
    kind: str = field(default="general_encoding", init=False)

    def __post_init__(self):
        if not self.kraus or not all(self.kraus):
            raise StrategyError("an encoding needs at least one branch, and "
                                "every branch at least one Kraus element")

    def memory_dim(self, dim_b: int, n: int) -> int:
        return int(self.kraus[0][0].shape[0])

    def kraus_array(self, dim_b: int, n: int) -> Array:
        """The Kraus elements stacked, shape (M, K, mem, Din): element k of
        branch m at [m, k], each branch zero-padded to the longest."""
        dim_in = dim_b ** n
        mem = self.memory_dim(dim_b, n)
        e = np.zeros((len(self.kraus), max(map(len, self.kraus)), mem, dim_in),
                     dtype=complex)
        for m, branch in enumerate(self.kraus):
            for k, op in enumerate(branch):
                op = as_matrix(op)
                if op.shape[1] != dim_in:
                    raise ShapeError(
                        f"Kraus input dimension {op.shape[1]} != {dim_in}")
                if op.shape[0] != mem:
                    raise StrategyError(
                        f"Kraus output dimension {op.shape[0]} != {mem}: every "
                        "element must map into the same memory")
                e[m, k] = op
        total = np.einsum("mkai,mkaj->ij", e.conj(), e)
        if np.max(np.abs(total - np.eye(dim_in))) > _EQ_TOL:
            raise StrategyError(f"encoding is not trace preserving within {_EQ_TOL:g}")
        return e

    def to_obj(self) -> dict:
        from .matcore import matrix_to_obj
        return {"kind": self.kind,
                "kraus": [[matrix_to_obj(e) for e in branch] for branch in self.kraus]}

    @staticmethod
    def from_isometry(v: Array, d: int) -> "GeneralEncoding":
        """Split an isometry into C^d (x) C^M as M single-Kraus branches."""
        v = as_matrix(v)
        if v.shape[0] % d != 0:
            raise ShapeError("isometry rows must be divisible by the memory dimension")
        m_count = v.shape[0] // d
        rows = v.reshape(d, m_count, v.shape[1])
        return GeneralEncoding(tuple(
            (rows[:, m, :].copy(),) for m in range(m_count)))


Strategy = MeasureAll | StoreSubset | GeneralEncoding


def breidbart(n: int) -> MeasureAll:
    """The intermediate-basis intercept attack, one pi/8 measurement per round."""
    return MeasureAll(angles=(BREIDBART_ANGLE,) * n)


def strategy_from_obj(obj: dict) -> Strategy:
    """The strategy a ``to_obj`` object describes; ``StrategyError`` for a
    malformed one."""
    from .matcore import matrix_from_obj
    if not isinstance(obj, dict):
        raise StrategyError(f"a strategy must be an object, got {type(obj).__name__}")

    def listed(key: str, default=None) -> tuple:
        value = obj.get(key, default)
        if not isinstance(value, (list, tuple)):
            raise StrategyError(f"{obj.get('kind')} needs a list {key!r}, got {value!r}")
        return tuple(value)

    kind = obj.get("kind")
    if kind == "measure_all":
        return MeasureAll(angles=listed("angles"))
    if kind == "store_subset":
        return StoreSubset(keep=listed("keep"), angles=listed("angles", ()))
    if kind == "general_encoding":
        return GeneralEncoding(tuple(
            tuple(matrix_from_obj(e) for e in branch) for branch in listed("kraus")))
    raise DomainError(f"unknown strategy kind {kind!r}")


def _check_caps(strategy: Strategy, n: int) -> None:
    cap = _ENCODING_CAP_ROUNDS if isinstance(strategy, GeneralEncoding) \
        else _GAME_CAP_ROUNDS
    if n > cap:
        raise DimensionCapError(
            f"{strategy.kind} evaluation is capped at n <= {cap}, got {n}")


# ---------------------------------------------------------------------------
# optimal discrimination with dual certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscriminationResult:
    win_prob: float
    upper_bound: float
    dual_gap: float
    povm: list[Array]
    converged: bool


def _dual_upper(g: np.ndarray, y: np.ndarray, outward: bool = True) -> np.ndarray:
    """Feasible dual values tr(Y) + max(0, mu) dim, where mu is the largest
    eigenvalue of any G_y - Y, so that Y + max(0, mu) I >= G_y for every y.

    Rounded ``outward`` for a reported certificate: ``eigvalsh`` and the
    trace are backward stable, so their float64 error is a small multiple of
    eps times the magnitudes that enter (the diagonal of Y and the spectra of
    G_y - Y); a few ulps of those are added, so that the bound stays at or
    above what a POVM achieves. The solver's inner loops, which only compare
    candidate duals, skip it.
    """
    d = g.shape[-1]
    excess = np.linalg.eigvalsh(g - y[:, None, :, :])
    mu = np.clip(excess[:, :, -1].max(axis=1), 0.0, None)
    upper = np.einsum("bii->b", y).real + mu * d
    if not outward:
        return upper
    # the spectra are sorted, so their largest magnitude sits at an end
    spread = np.maximum(-excess[:, :, 0], excess[:, :, -1]).max(axis=1)
    magnitude = np.abs(np.diagonal(y, axis1=1, axis2=2).real).sum(axis=1) + d * spread
    return upper + 4 * d * _EPS * magnitude


def _dual_operator(g: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The dual candidate herm(sum_y G_y F_y), optimal at the optimal POVM."""
    return _herm(np.einsum("bkij,bkjl->bil", g, f))


def _undominated(g: np.ndarray) -> np.ndarray:
    """Mask (batch, outcomes) of the outcomes no other outcome dominates.

    Outcome y is dropped when some kept z has G_z >= G_y (to a relative
    1e-13): moving F_y onto F_z then loses nothing, so the optimum over the
    kept outcomes is the optimum over all. Domination implies a larger
    trace, so outcomes are taken in decreasing trace, each tested against the
    outcomes kept before it only; among equal operators the lowest index is
    kept. Nothing larger than (batch, kept, dim, dim) is allocated.
    """
    b, k, _, _ = g.shape
    tr = np.einsum("bkii->bk", g).real
    scale = tr.max(axis=1)
    order = np.argsort(-np.round(tr / np.where(scale > 0, scale, 1.0)[:, None], 12),
                       axis=1, kind="stable")
    eps = 1e-13 * scale[:, None]
    rows = np.arange(b)
    kept = order[:, :1].copy()           # per problem, padded by its first entry
    count = np.ones(b, dtype=int)
    for j in range(1, k):
        y = order[:, j]
        low = np.linalg.eigvalsh(g[rows[:, None], kept] - g[rows, y][:, None])[..., 0]
        new = ~(low >= -eps).any(axis=1)
        if not new.any():
            continue
        if count[new].max() == kept.shape[1]:
            kept = np.concatenate([kept, kept[:, :1]], axis=1)
        kept[new, count[new]] = y[new]
        count += new
    keep = np.zeros((b, k), dtype=bool)
    keep[rows[:, None], kept] = True
    return keep


def _complete(f: np.ndarray) -> np.ndarray:
    """Repair POVMs, shape (..., outcomes, dim, dim), to sum to the identity
    exactly: F_y -> S F_y S with S = (sum_y F_y)^(-1/2), which keeps them PSD."""
    w, v = np.linalg.eigh(f.sum(axis=-3))
    root = np.sqrt(np.maximum(w, 1e-300))[..., None, :]
    fix = (v / root) @ dagger(v)
    return fix[..., None, :, :] @ f @ fix[..., None, :, :]


def _helstrom(g0: np.ndarray, g1: np.ndarray) -> np.ndarray:
    """Optimal two-outcome POVM element F_0 (Helstrom): the projector onto
    the positive part of G_0 - G_1, one eigendecomposition per problem."""
    w, v = np.linalg.eigh(_herm(g0 - g1))
    return np.einsum("bij,bj,bkj->bik", v, (w > 0).astype(float), np.conj(v))


_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
                  dtype=complex)


_I2 = np.eye(2)
_I2.flags.writeable = False


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only, for tables that a cache shares."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _length(x: np.ndarray) -> np.ndarray:
    """Euclidean length along the last axis of a real array: the arithmetic
    of ``np.linalg.norm(x, axis=-1)`` without its per-call dispatch."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


@lru_cache(maxsize=None)
def _pair_tables(k: int) -> tuple[np.ndarray, ...]:
    """``_pair_roots``'s tables for k guesses, built once and read-only: the
    pairs' members ys < zs, the pairs' rows among the candidates (after the k
    singles), I_k (the singles' hull weights) and the active mask of the
    singles, then the pairs."""
    ys, zs = np.triu_indices(k, 1)
    eye = np.eye(k)
    return _read_only(ys, zs, k + np.arange(ys.size), eye,
                      np.concatenate([eye, eye[ys] + eye[zs]]) > 0)


@lru_cache(maxsize=None)
def _set_tables(k: int, s: int) -> tuple[np.ndarray, ...]:
    """``_set_roots``'s tables for the active sets of s of k guesses, built
    once and read-only: the sets, shape (count, s), their one-hot rows
    (count, s, k), the active mask of their roots (two per set) and I_{s-1},
    which stands in for the Gram matrix of a degenerate set."""
    sets = np.array(list(itertools.combinations(range(k), s)))
    onehot = np.eye(k)[sets]
    return _read_only(sets, onehot, np.repeat(onehot.sum(axis=1), 2, axis=0) > 0,
                      np.eye(s - 1))


def _polish(t: np.ndarray, roots: np.ndarray, diff: np.ndarray, be: np.ndarray,
            e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two Newton steps on the active equations of ``_qubit_optimum`` as they
    stand, |b - beta_y| = a' - (alpha_y - alpha_0) in the unknowns (t, a').
    Their squares, which the closed form solves, lose up to all digits of a
    root when two guesses nearly dominate one another (both sides of the
    quadratic then share a factor that cancels); these equations do not.
    A step whose Jacobian is singular or undefined is skipped."""
    lift = np.concatenate([np.zeros_like(e[..., :1]), e], axis=-1)[..., None, :]
    span = np.swapaxes(diff, -1, -2)[..., None, :, :]
    for _ in range(2):
        b = be[..., None, 0, :] + np.einsum("...rj,...jx->...rx", t, diff)
        vec = b[..., None, :] - be[..., None, :, :]
        dist = _length(vec)
        jac = np.concatenate([(vec / dist[..., None]) @ span,
                              -np.ones(dist.shape + (1,))], axis=-1)
        det = np.linalg.det(jac)
        ok = np.isfinite(det) & (det != 0)
        step = np.linalg.solve(np.where(ok[..., None, None], jac, np.eye(jac.shape[-1])),
                               (dist - roots[..., None] + lift)[..., None])[..., 0]
        step[~ok] = 0.0
        t, roots = t - step[..., :-1], roots - step[..., -1]
    return t, roots


def _pair_roots(alpha: np.ndarray, beta: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Dual candidates (a, b, hull weights c, active mask) of every single
    guess and every pair, in closed form: a single y sits at (alpha_y,
    beta_y); a pair y, z with D = |beta_z - beta_y| at a = (alpha_y + alpha_z
    + D) / 2 and b = beta_y + t (beta_z - beta_y), t = (alpha_z - alpha_y +
    D) / (2 D), where both equations hold with equality. Singles come first."""
    nb, k = alpha.shape
    ys, zs, at, eye, active = _pair_tables(k)
    diff = beta[:, zs] - beta[:, ys]
    dist = _length(diff)
    t = (alpha[:, zs] - alpha[:, ys] + dist) / (2 * dist)
    c = np.zeros((nb, k + ys.size, k))
    c[:, :k] = eye
    c[:, at, ys] = 1.0 - t
    c[:, at, zs] = t
    a = np.concatenate([alpha, (alpha[:, ys] + alpha[:, zs] + dist) / 2], axis=1)
    b = np.concatenate([beta, beta[:, ys] + t[..., None] * diff], axis=1)
    return a, b, c, active


def _set_roots(alpha: np.ndarray, beta: np.ndarray, s: int
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Dual candidates, as ``_pair_roots`` returns them, of every active set
    of s >= 3 guesses, two roots per set. With b = beta_0 + sum_j t_j
    (beta_j - beta_0), the differences of the active equations are linear in
    (t, a), and |b - beta_0| = a - alpha_0 leaves one quadratic in a, whose
    roots ``_polish`` refines."""
    nb, k = alpha.shape
    sets, onehot, active, eye = _set_tables(k, s)
    al, be = alpha[:, sets], beta[:, sets]      # (nb, sets, s), (.., 3)
    diff = be[..., 1:, :] - be[..., :1, :]      # rows beta_j - beta_0
    e = al[..., 1:] - al[..., :1]
    gram = diff @ np.swapaxes(diff, -1, -2)
    # det over the product of the diagonal, in [0, 1], flags sets whose
    # Bloch vectors are (nearly) affinely dependent
    ratio = np.linalg.det(gram) / np.prod(np.einsum("...ii->...i", gram), axis=-1)
    solvable = ratio > 1e-10
    gram = np.where(solvable[..., None, None], gram, eye)
    # t = p + a' q with a' = a - alpha_0
    pq = np.linalg.solve(2 * gram, np.stack([(diff ** 2).sum(-1) - e ** 2,
                                             2 * e], axis=-1))
    p_vec = np.einsum("...j,...jx->...x", pq[..., 0], diff)
    q_vec = np.einsum("...j,...jx->...x", pq[..., 1], diff)
    # |p_vec + a' q_vec|^2 = a'^2, i.e. A a'^2 - 2 B a' - C = 0
    qa = 1.0 - (q_vec ** 2).sum(-1)
    qb = (p_vec * q_vec).sum(-1)
    qc = (p_vec ** 2).sum(-1)
    top = qb + np.copysign(np.sqrt(np.clip(qb ** 2 + qa * qc, 0.0, None)), qb)
    roots = np.stack([top / qa, -qc / top], axis=-1)
    roots[~solvable] = np.nan
    t = pq[..., None, :, 0] + roots[..., None] * pq[..., None, :, 1]
    t, roots = _polish(t, roots, diff, be, e)
    hull = np.concatenate([1.0 - t.sum(-1, keepdims=True), t], axis=-1)
    a = (al[..., :1] + roots).reshape(nb, -1)
    b = np.einsum("...rs,...sx->...rx", hull, be).reshape(nb, -1, 3)
    c = np.einsum("...rs,...sk->...rk", hull, onehot).reshape(nb, -1, k)
    return a, b, c, active


def _qubit_optimum(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact optima of 2 x 2 discrimination problems (Deconinck & Terhal,
    PRA 81, 062304, 2010), batched; returns (POVM, dual operator Y).

    With G_y = alpha_y I + beta_y . sigma and Y = a I + b . sigma, the dual
    min tr Y s.t. Y >= G_y reads min 2a s.t. a >= alpha_y + |b - beta_y|. At
    the optimum a set S of guesses is active (equality) and b lies in the
    convex hull of their beta_y; S can be taken affinely independent, so it
    has one to four members (one only where a guess dominates). Singles and
    pairs have closed forms (``_pair_roots``) and settle most problems;
    triples (``_set_roots``) are solved only for the problems no single or
    pair settles, and quadruples only for those still open after that. A
    root is kept when it is dual feasible, its active equations hold and its
    hull weights c are nonnegative. Such a root is optimal: F_y = w_y (I -
    n_y . sigma), with n_y = (b - beta_y) / (a - alpha_y) and w_y
    proportional to c_y (a - alpha_y), sums to I and achieves 2a. The
    smallest kept a wins, and among the roots that reach it the first, which
    has the fewest active guesses (the POVM weights of a larger set are
    ill-determined where it reaches the same a); a problem with no kept root
    gets the uniform POVM and its dual operator, which a gap check rejects.
    """
    nb, k = g.shape[:2]
    re, im = g.real, g.imag
    alpha = (re[..., 0, 0] + re[..., 1, 1]) / 2
    beta = np.empty((nb, k, 3))
    np.add(re[..., 0, 1], re[..., 1, 0], out=beta[..., 0])
    np.subtract(im[..., 1, 0], im[..., 0, 1], out=beta[..., 1])
    np.subtract(re[..., 0, 0], re[..., 1, 1], out=beta[..., 2])
    beta /= 2
    eps = 1e-12 * np.abs(alpha).max(axis=1)
    a, b, c = np.zeros(nb), np.zeros((nb, 3)), np.zeros((nb, k))
    found = np.zeros(nb, dtype=bool)
    # degenerate sets give inf or nan roots, which the checks below discard
    with np.errstate(all="ignore"):
        # singles and pairs first, then larger sets for what is still open
        rows, al, be, margin = np.arange(nb), alpha, beta, eps[:, None, None]
        for s in range(2, max(2, min(k, 4)) + 1):
            if s > 2:
                rows = np.flatnonzero(~found)
                if not rows.size:
                    break
                al, be, margin = alpha[rows], beta[rows], eps[rows, None, None]
            ca, cb, cc, active = (_pair_roots(al, be) if s == 2
                                  else _set_roots(al, be, s))
            slack = ca[..., None] - al[:, None] - _length(cb[:, :, None] - be[:, None])
            kept = (np.isfinite(ca) & (cc >= 0.0).all(-1)
                    & ((slack >= -margin) & ((np.abs(slack) <= margin) | ~active)).all(-1))
            a_kept = np.where(kept, ca, np.inf)
            low = a_kept.min(axis=1)
            best = np.argmax(a_kept <= (low + margin[:, 0, 0])[:, None], axis=1)
            hit = np.isfinite(low)
            at, pick = rows[hit], (np.flatnonzero(hit), best[hit])
            a[at], b[at], c[at] = ca[pick], cb[pick], cc[pick]
            found[at] = True
        # F_y = c_y (r_y I - v_y . sigma) / sum_y c_y r_y with v_y = b - beta_y and
        # r_y = a - alpha_y, raised to |v_y| where roundoff left it below, so
        # that every F_y is PSD; sum_y c_y v_y = 0 keeps the sum at I
        v = b[:, None] - beta
        r = c * np.maximum(a[:, None] - alpha, _length(v))
        f = r[..., None, None] * _I2 - np.einsum("bk,bkx,xij->bkij", c, v, _PAULI)
        total = r.sum(axis=1)
        single = ~(total > 0)             # one active guess, which takes F = I
        if single.any():
            f[single] = c[single, :, None, None] * _I2
            total[single] = 1.0
        f /= total[:, None, None, None]
        y = a[:, None, None] * _I2 + np.einsum("bx,xij->bij", b, _PAULI)
    if not found.all():
        f[~found] = _I2 / k
        y[~found] = _dual_operator(g[~found], f[~found])
    return _complete(f), y


@lru_cache(maxsize=None)
def _hermitian_basis(dim: int) -> np.ndarray:
    """Orthonormal real basis of Hermitian dim x dim matrices, tr(Ba Bb) = delta."""
    basis = []
    for i in range(dim):
        e = np.zeros((dim, dim), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for i in range(dim):
        for j in range(i + 1, dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[i, j] = e[j, i] = inv_sqrt2
            basis.append(e)
            e = np.zeros((dim, dim), dtype=complex)
            e[i, j] = 1j * inv_sqrt2
            e[j, i] = -1j * inv_sqrt2
            basis.append(e)
    return np.stack(basis)


def _ipm_single(g: np.ndarray, gap_target: float) -> tuple[np.ndarray, np.ndarray]:
    """Central-path solver for min tr(Y) s.t. Y >= G_y on one small problem.

    Newton steps on the log-det barrier; at parameter t the matrices
    F_y = (1/t)(Y - G_y)^{-1} form an (almost) exact POVM with duality gap
    k*dim/t, so driving t past k*dim/gap_target certifies the target.
    Returns the POVM, repaired to sum to the identity exactly, and the dual
    operator Y; the caller evaluates both (``_dual_upper`` lifts Y), so both
    sides stay sound independently of solver accuracy.
    """
    k, dim, _ = g.shape
    basis = _hermitian_basis(dim)
    m = basis.shape[0]
    eye = np.eye(dim, dtype=complex)
    lam0 = max(float(np.linalg.eigvalsh(gy)[-1]) for gy in g)
    if lam0 <= 0.0:
        return np.broadcast_to(eye / k, g.shape).copy(), np.zeros_like(eye)
    y = (lam0 + 1.0) * eye
    t = max(1.0, k * dim)
    t_final = 4.0 * k * dim / max(gap_target, 1e-12)
    grad_eye = np.array([float(np.trace(b).real) for b in basis])
    while True:
        for _ in range(40):
            inv = _herm(np.linalg.inv(y[None] - g))
            grad = t * grad_eye - np.einsum("aij,yji->a", basis, inv).real
            bp = np.einsum("yij,ajk,ykl->yail", inv, basis, inv)
            hess = np.einsum("bij,yaji->ab", basis, bp).real
            hess = _herm(hess) + 1e-13 * np.eye(m)
            try:
                delta = -np.linalg.solve(hess, grad)
            except np.linalg.LinAlgError:
                break
            decrement = float(-grad @ delta)
            if decrement <= 1e-11:
                break
            dy = np.einsum("a,aij->ij", delta, basis)
            step = 1.0
            for _ in range(60):
                trial = y + step * dy
                if float(np.linalg.eigvalsh(trial[None] - g).min()) > 0.0:
                    break
                step *= 0.5
            else:
                break
            y = y + step * dy
            if step == 1.0 and decrement < 1e-10:
                break
        if t >= t_final:
            break
        t = min(t * 20.0, t_final)
    return _complete(_herm(np.linalg.inv(y[None] - g)) / t), y


# The fixed point runs at most ``_SWEEPS`` sweeps, and it and its fallback aim
# at ``_TARGET`` times ``tol``. A batch stops once every gap in it is within
# the aim, and pruned batches are small, so aiming at ``tol`` itself would
# leave values anywhere up to ``tol`` below the optimum; a problem still open
# by more than ``tol`` gets the fallback.
_TARGET = 1e-3
_SWEEPS = 200


def _fixed_point(g: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Ježek–Řeháček–Fiurášek fixed point on a batch of problems.

    Returns the best POVM found per problem and the best dual operator Y
    (unlifted), the dual evaluated at every sweep. After at most ``_SWEEPS``
    sweeps, problems whose gap the iteration failed to close are handed to
    the central-path solver; its certificates replace the weaker ones.
    """
    b, k, d, _ = g.shape
    eye = np.broadcast_to(np.eye(d, dtype=complex), (b, d, d))
    f = np.broadcast_to(np.eye(d, dtype=complex) / k, g.shape).copy()
    best_lower = np.full(b, -np.inf)
    best_upper = np.full(b, np.inf)
    best_f = f.copy()
    best_y = np.zeros((b, d, d), dtype=complex)

    def certify(f: np.ndarray) -> None:
        y = _dual_operator(g, f)
        upper = _dual_upper(g, y, outward=False)
        better = upper < best_upper
        best_upper[better] = upper[better]
        best_y[better] = y[better]

    stale = 0
    window_mark = -np.inf
    for it in range(_SWEEPS):
        lower = np.einsum("bkij,bkji->b", f, g).real
        gained = lower > best_lower
        if gained.any():
            best_f[gained] = f[gained]
            stale = 0
        else:
            stale += 1
        best_lower = np.maximum(best_lower, lower)
        certify(f)
        if np.all(best_upper - best_lower <= _TARGET * tol):
            break
        if it % 25 == 24:
            total = float(best_lower.sum())
            if total - window_mark < 1e-12 * max(1.0, abs(total)):
                break  # value has stopped moving; the dual pins the gap
            window_mark = total
        if stale >= 12:
            break
        m = _herm(np.einsum("bkij,bkjl,bklm->bim", g, f, g))
        w, v = np.linalg.eigh(m)
        wmax = np.clip(w[:, -1:], 1e-300, None)
        inv_sqrt = np.where(w > 1e-14 * wmax, 1.0 / np.sqrt(np.clip(w, 1e-300, None)), 0.0)
        s = np.einsum("bij,bj,bkj->bik", v, inv_sqrt, np.conj(v))
        f = s[:, None] @ g @ f @ g @ s[:, None]
        slack = eye - f.sum(axis=1)
        f = f + slack[:, None] / k
    certify(best_f)
    for i in np.flatnonzero(best_upper - best_lower > tol):
        fi, yi = _ipm_single(g[i], gap_target=_TARGET * tol)
        if np.einsum("yij,yji->", fi, g[i]).real > best_lower[i]:
            best_f[i] = fi
        upper = _dual_upper(g[i:i + 1], yi[None], outward=False)[0]
        if upper < best_upper[i]:
            best_upper[i] = upper
            best_y[i] = yi
    return best_f, best_y


def _pruned(g: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """POVMs and dual operators of ``_discriminate_batch``'s general path.

    Dominated outcomes are dropped first (``_undominated``) and get zero POVM
    elements. Problems left with one outcome take the identity, those with
    two the Helstrom measurement; the rest run the fixed point on their kept
    outcomes only (``_fixed_point``), one batch per kept count.
    """
    b, k, d, _ = g.shape
    keep = _undominated(g)
    count = keep.sum(axis=1)
    idx = np.argsort(~keep, axis=1, kind="stable")   # kept outcomes first
    eye = np.eye(d, dtype=complex)
    f = np.zeros_like(g)
    y = np.empty((b, d, d), dtype=complex)
    one = np.flatnonzero(count == 1)
    f[one, idx[one, 0]] = eye
    two = np.flatnonzero(count == 2)
    if two.size:                 # a one-outcome batch has no second column
        f0 = _helstrom(g[two, idx[two, 0]], g[two, idx[two, 1]])
        f[two, idx[two, 0]] = f0
        f[two, idx[two, 1]] = eye - f0
    closed = count <= 2
    y[closed] = _dual_operator(g[closed], f[closed])
    rest = np.flatnonzero(~closed)
    for c in np.unique(count[rest]):
        sel = rest[count[rest] == c]
        cols = idx[sel, :c]
        f[sel[:, None], cols], y[sel] = _fixed_point(g[sel[:, None], cols], tol)
    return f, y


def _discriminate_batch(g: np.ndarray, tol: float = 1e-9, qubit_first: bool = False,
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Batched certified discrimination.

    ``g`` has shape (batch, outcomes, dim, dim): PSD reward operators. The
    optimal POVM maximizes sum_y tr(F_y G_y). Returns (lower, upper, povm,
    converged): ``lower`` is achieved by the returned POVM and ``upper`` by a
    lifted dual-feasible operator, both evaluated on the full ``g``, and
    ``converged`` says whether every gap is within ``tol``.

    Scalar memories take the best guess. Otherwise ``_pruned`` solves the
    batch: dominated outcomes dropped, closed forms for one and two kept
    outcomes, the fixed point and its fallback (one schedule, see
    ``_fixed_point``) for the rest. With ``qubit_first`` (the see-saw's
    scoring, and the memoryless optimum where its own singles and pairs do
    not settle a problem) every qubit problem goes to the closed form
    ``_qubit_optimum`` first, on all its outcomes and all in one call, and
    only the problems whose gap there exceeds ``tol`` go on to ``_pruned``.
    Soundness does not rest on either: a wrong drop or a wrong root can only
    widen the certified gap.
    """
    b, k, d, _ = g.shape
    if d == 1:
        vals = g[:, :, 0, 0].real
        best = vals.argmax(axis=1)
        f = np.zeros_like(g)
        f[np.arange(b), best, 0, 0] = 1.0
        top = vals.max(axis=1)
        return top, top, f, True
    if d == 2 and qubit_first:
        f, y = _qubit_optimum(g)
        lower = np.einsum("bkij,bkji->b", f, g).real
        upper = _dual_upper(g, y)
        # written so that a nan gap fails too
        rest = np.flatnonzero(~(upper - lower <= tol))
        if not rest.size:           # nothing to redo: these are the values
            return lower, upper, f, True
        f[rest], y[rest] = _pruned(g[rest], tol)
    else:
        f, y = _pruned(g, tol)
    lower = np.einsum("bkij,bkji->b", f, g).real
    upper = _dual_upper(g, y)
    return lower, upper, f, bool(np.all(upper - lower <= tol))


def optimal_discrimination(ensemble, tol: float = 1e-9) -> DiscriminationResult:
    """Optimal success for one ensemble.

    ``ensemble`` is either a list of (probability, density matrix) pairs or
    a list of unnormalized PSD reward operators; the objective is
    max_POVM sum_y tr(F_y G_y).
    """
    ops = []
    for item in ensemble:
        if isinstance(item, tuple):
            p, rho = item
            ops.append(float(p) * check_density_operator(rho))
        else:
            ops.append(as_matrix(item))
    if not ops:
        raise DomainError("ensemble must be non-empty")
    d = ops[0].shape[0]
    if any(o.shape != (d, d) for o in ops):
        raise ShapeError("ensemble operators must share one dimension")
    g = np.stack(ops)[None]
    lower, upper, f, conv = _discriminate_batch(g, tol)
    return DiscriminationResult(
        win_prob=float(lower[0]), upper_bound=float(upper[0]),
        dual_gap=float(max(0.0, upper[0] - lower[0])),
        povm=[f[0, i] for i in range(len(ops))], converged=conv)


# ---------------------------------------------------------------------------
# exact game evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GuessResult:
    """Certified winning probability of a strategy.

    ``win_prob`` is achieved by explicit decoders (a valid lower bound on
    the optimum for this encoding); ``certified_gap`` bounds how far the
    optimal decoding could exceed it. For a strategy scored from the dense
    game that is the solver's dual gap. For a product attack scored round
    by round (see ``exact_win_probability``) the value is the optimum in
    closed form, and ``certified_gap`` is only an allowance for its float64
    rounding, at most 1e-12, plus the certified gap of each round played on
    the memoryless optimum; ``converged`` is then true unless that round's
    solve failed to converge. Every value must be finite.
    """

    win_prob: float
    per_theta: dict[str, float]
    certified_gap: float
    converged: bool = True
    decoders: dict | None = None

    def __post_init__(self):
        n_thetas = len(self.per_theta)
        mean = sum(self.per_theta.values()) / n_thetas
        # a nan or an infinity anywhere makes the sum nan or infinite
        if not math.isfinite(self.win_prob + self.certified_gap + mean):
            raise DomainError(f"non-finite result: win_prob {self.win_prob!r}, "
                              f"gap {self.certified_gap!r}, per-theta mean {mean!r}")
        if abs(mean - self.win_prob) > 1e-12:
            raise DomainError("per-theta values do not average to win_prob")


def _product_rewards(table: Array, rounds: tuple[float | None, ...]) -> Array:
    """Branch operators of a product instrument for every basis string.

    ``table[t, x]`` is the per-round conditional operator tr_A[(P^t_x (x) I)
    sigma_AB]. Returns shape (thetas, branches, outcomes, mem, mem), each axis
    in big-endian round order; entry [theta, m, x] is E_m rho^theta_x E_m^+.
    """
    factors = []
    for angle in rounds:
        k = _round_kraus(angle, table.shape[-1])
        factors.append(np.einsum("mai,txij,mbj->tmxab", k, table, k.conj()))
    return _kron_axes(factors, 5)


@lru_cache(maxsize=None)
def _basis_strings(n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[str, ...], np.ndarray]:
    """The 2^n basis strings in the dense game's order (round 0 most
    significant): as tuples, as keys such as "01", and as a (2^n, n) bit
    array; shared between contexts, so none of them can be written."""
    thetas = tuple(itertools.product((0, 1), repeat=n))
    bits = np.array(thetas)
    bits.flags.writeable = False
    return thetas, tuple("".join(map(str, theta)) for theta in thetas), bits


@lru_cache(maxsize=None)
def _spread_identity(dim: int) -> np.ndarray:
    """The dim x dim identity shaped (dim, 1, dim), so that A[..., :, None,
    :, None] times it is kron(A, I) before its reshape; shared between
    contexts, so it cannot be written."""
    eye = np.eye(dim)[:, None, :]
    eye.flags.writeable = False
    return eye


class _GameContext:
    """Strategy-independent game data for one (device, n, gamma) triple.

    Caches the per-round conditional B-side operators and the Hamming-ball
    membership matrix, so that repeated strategy evaluations (the see-saw
    inner loop in particular) skip the setup cost.
    """

    def __init__(self, device: DeviceModel, n: int, gamma: float):
        _require_positive(n=n)
        if not 0.0 <= gamma <= 0.5:
            raise DomainError(f"gamma must lie in [0, 0.5], got {gamma!r}")
        self.device = device
        self.n = n
        self.gamma = gamma
        self.radius = math.floor(gamma * n)
        self.thetas, self.keys, self.bits = _basis_strings(n)
        # tr_A[(P^t_x (x) I) sigma_AB] for all four projectors at once: one
        # stacked product, and no re-validation of the device's fields. The
        # Kronecker products are ``_kron``'s broadcast against a shared
        # identity, and the trace is ``np.trace``'s reduction: bit for bit.
        da, db = device.dim_a, device.dim_b
        m0, m1 = device.alice_meas_0, device.alice_meas_1
        p = np.array((m0.p0, m0.p1, m1.p0, m1.p1)).reshape(2, 2, da, 1, da, 1)
        krons = (p * _spread_identity(db)).reshape(2, 2, da * db, da * db)
        self.table = np.add.reduce((krons @ device.sigma_ab).reshape(
            2, 2, da, db, da, db).diagonal(0, 2, 4), -1)
        self._dense = None       # (thetas, outcomes, Din, Din), built on first use
        self._ball = None        # (guesses, outcomes), built on first use

    def rewards(self, strategy: Strategy) -> np.ndarray:
        """Stacked reward operators, shape (thetas*branches, guesses, mem, mem).
        The caller checks the strategy's cap (``_check_caps``)."""
        if isinstance(strategy, GeneralEncoding):
            return self._instrument_rewards(
                strategy.kraus_array(self.device.dim_b, self.n)[None])
        return self.round_rewards(strategy.rounds(self.device.dim_b, self.n))

    def round_rewards(self, rounds: tuple[float | None, ...]) -> np.ndarray:
        """``rewards`` of the product attack with these ``rounds``."""
        w = _product_rewards(self.table, rounds)
        return self._masked(w.reshape(-1, *w.shape[2:]))

    def isometry_rewards(self, v: np.ndarray, d: int) -> np.ndarray:
        """Rewards of a stack of isometries, shape (c, d*M, Din), each split
        into M single-Kraus branches as ``GeneralEncoding.from_isometry``
        splits it: equal to stacking ``rewards`` of those encodings, shape
        (c*thetas*M, guesses, d, d). The encodings' trace-preservation check
        is skipped, so ``v`` must hold isometries (QR output does)."""
        c, rows, dim_in = v.shape
        # branch m of isometry i is its one Kraus element e[i, m, 0]
        e = np.ascontiguousarray(
            v.reshape(c, d, rows // d, dim_in).transpose(0, 2, 1, 3))[:, :, None]
        return self._instrument_rewards(e)

    def _instrument_rewards(self, e: np.ndarray) -> np.ndarray:
        """Rewards of a stack of instruments, Kraus element k of branch m of
        instrument i at ``e[i, m, k]``, shape (c, M, K, mem, Din): returns
        shape (c*thetas*M, guesses, mem, mem)."""
        w = np.einsum("nmkab,txbc,nmkdc->ntmxad", e, self.dense(), e.conj())
        return self._masked(w.reshape(-1, *w.shape[3:]))

    def dense(self) -> np.ndarray:
        """Conditional operators on all of B^(x)n, shape (thetas, outcomes,
        Din, Din), built on first use."""
        if self._dense is None:
            self._dense = _product_rewards(self.table, (None,) * self.n)[:, 0]
        return self._dense

    def _masked(self, w: np.ndarray) -> np.ndarray:
        """Hamming-ball rewards: guess y collects every outcome within the
        radius of it."""
        if self.radius == 0:
            return w
        if self._ball is None:
            # ball[y, x] = 1 when popcount(x xor y) <= radius
            idx = np.arange(1 << self.n)
            pop = np.array([bin(i).count("1") for i in idx])
            self._ball = (pop[idx[:, None] ^ idx] <= self.radius).astype(float)
        return np.einsum("yx,mxad->myad", self._ball, w)

    def decoders(self, f: np.ndarray) -> dict:
        """Decoders keyed by basis string from stacked POVMs, shape
        (thetas*branches, guesses, mem, mem): per branch, one element per
        guess."""
        m_count = f.shape[0] // len(self.thetas)
        return {key: [[f[ti * m_count + m, y] for y in range(f.shape[1])]
                      for m in range(m_count)]
                for ti, key in enumerate(self.keys)}

    def result(self, lower: np.ndarray, upper: np.ndarray, converged: bool,
               decoders: dict | None = None) -> GuessResult:
        """A result from values and bounds per basis string, or per (basis
        string, branch), summed per basis string."""
        n_thetas = len(self.thetas)
        low = lower.reshape(n_thetas, -1).sum(axis=1)
        gap = np.clip(upper - lower, 0.0, None).reshape(n_thetas, -1).sum(axis=1)
        per_theta = dict(zip(self.keys, low.tolist()))
        win = float(low.sum() / n_thetas)
        return GuessResult(win_prob=win, per_theta=per_theta,
                           certified_gap=float(gap.sum() / n_thetas),
                           converged=converged, decoders=decoders)


def _measured_optimum(terms: list, angle: float) -> tuple[list[float], list[list[int]]]:
    """A qubit round measured at ``angle``: its value per basis, and its MAP
    guess per basis and branch. ``terms[t][x]`` holds T_00, T_11 and 2 Re
    T_01 of T = table[t, x]; branch m has the bra K_m of ``_round_kraus``,
    (c, s) or (-s, c), so tr(K_m T K_m^+) = c^2 T_00 + s^2 T_11 +- 2 c s Re
    T_01, summed in that order. Branch m guesses the first x where that is
    largest, as ``argmax`` does, and a basis is worth 0 + max_0 + max_1.
    """
    c, s = math.cos(angle), math.sin(angle)
    cc, ss, cs = c * c, s * s, c * s
    values, guesses = [], []
    for (a0, b0, x0), (a1, b1, x1) in terms:
        p0, p1 = cc * a0 + ss * b0 + cs * x0, cc * a1 + ss * b1 + cs * x1
        q0, q1 = ss * a0 + cc * b0 - cs * x0, ss * a1 + cc * b1 - cs * x1
        values.append(0.0 + (p1 if p1 > p0 else p0) + (q1 if q1 > q0 else q0))
        guesses.append([int(p1 > p0), int(q1 > q0)])
    return values, guesses


# The outward rounding of ``_memoryless_optimum``'s certificate, per unit of
# its magnitude; derived in its docstring.
_BLOCH_ALLOWANCE = 16 * _EPS
# The four single guesses, then the six pairs in ``_pair_tables``' order.
_GUESS_SETS = tuple(itertools.chain(itertools.combinations(range(4), 1),
                                    itertools.combinations(range(4), 2)))
# Outcome f = 2 f_0 + f_1 of a memoryless POVM is the guess table theta ->
# f_theta: its guess per basis at [theta, f], and the decoders that read it,
# shape (bases, outcomes, guesses, 1, 1), 1 at the guess.
_BASES = np.array([[0], [1]])
_TABLE_GUESSES = np.array([[0, 0, 1, 1], [0, 1, 0, 1]])
_TABLE_DECODERS = (np.arange(2) == _TABLE_GUESSES[..., None])[..., None, None]
_read_only(_BASES, _TABLE_GUESSES, _TABLE_DECODERS)


def _memoryless_optimum(ctx: _GameContext) -> tuple[np.ndarray, list[float], float, bool]:
    """The one-round game with no quantum memory, solved: (POVM, values per
    basis, certified gap, converged). The optimum is the values' mean.

    Bob's best attack is one POVM whose outcome is a guess table f: Theta ->
    X, read once theta is announced: guessing with post-measurement
    information (Gopal & Wehner, PRA 82, 022326, 2010). Its value is the
    optimum of one qubit problem with a guess per table, W_f = (table[0, f0]
    + table[1, f1]) / 2 = alpha_f I + beta_f . sigma, solved in float
    arithmetic by ``_qubit_optimum``'s formulas and checks on the singles
    and pairs of ``_pair_roots``. The kept root fixes the POVM (outcome f at
    2 f0 + f1): I on a single y, worth 2 alpha_y, or on a pair the Helstrom
    measurement F_y, F_z = (I -+ n . sigma) / 2, n = (beta_z - beta_y) / D,
    worth alpha_y + alpha_z + D (D >= |alpha_z - alpha_y| as 0 <= t <= 1):
    2a either way. (``_qubit_optimum``'s general form of that POVM divides
    by sum_f c_f r_f = 2 t (1 - t) D, which magnifies rounding: it put
    values up to 5e-15 above the optimum.) Per basis the POVM wins v(theta)
    = sum_f tr(F_f table[theta, f_theta]), and the optimum is (v(0) + v(1))
    / 2. Y = a I + b . sigma, exact as the floats a, b define it, certifies
    2a + 2 mu: mu = max(0, max_f (alpha_f - a + |beta_f - b|)) is the
    largest eigenvalue of any W_f - Y. The gap is that bound less the mean.

    Rounding: with u = eps / 2 and m = |a| + |b| + max_f (|alpha_f| +
    |beta_f|), each computed eigenvalue is within 11 u m of the exact one of
    the exact table average: 2 u m each for alpha_f and beta_f (two roundings
    each, the halvings exact), u m each for alpha_f - a and b - beta_f, 3 u m
    for a length of three terms, 2 u m for their sum. Doubled, plus 6 u m for
    the final sum, that is below the 32 u m (``_BLOCH_ALLOWANCE`` m) added.

    A problem no single or pair settles (three active guesses; never four,
    as beta_00 + beta_11 = beta_01 + beta_10 makes the points coplanar), or
    whose gap exceeds its tol, goes to ``_discriminate_batch``, whose POVM
    is then the round's. One problem per call, so that a trial's value does
    not depend on its neighbours.
    """
    t0, t1 = ctx.table.tolist()
    alpha, beta = [], []
    for (p00, p01), (p10, p11) in t0:
        for (q00, q01), (q10, q11) in t1:
            w00, w11 = (p00.real + q00.real) / 2, (p11.real + q11.real) / 2
            w01, w10 = (p01 + q01) / 2, (p10 + q10) / 2
            alpha.append((w00 + w11) / 2)
            beta.append(((w01.real + w10.real) / 2, (w10.imag - w01.imag) / 2,
                         (w00 - w11) / 2))
    margin = 1e-12 * max(map(abs, alpha))
    kept = []
    for active in _GUESS_SETS:
        y, z = active[0], active[-1]
        if y == z:
            a, b, diff, dist = alpha[y], beta[y], None, None
        else:
            diff = [q - p for p, q in zip(beta[y], beta[z])]
            dist = math.sqrt(diff[0] * diff[0] + diff[1] * diff[1] + diff[2] * diff[2])
            t = (alpha[z] - alpha[y] + dist) / (2 * dist) if dist > 0 else math.nan
            if not 0.0 <= t <= 1.0:         # a hull weight, 1 - t or t, below 0
                continue
            a = (alpha[y] + alpha[z] + dist) / 2
            b = [p + t * q for p, q in zip(beta[y], diff)]
        slack = []
        for al, (p, q, s) in zip(alpha, beta):
            e, g, h = b[0] - p, b[1] - q, b[2] - s
            slack.append(a - al - math.sqrt(e * e + g * g + h * h))
        if min(slack) >= -margin and all(abs(slack[f]) <= margin for f in active):
            kept.append((a, b, slack, active, diff, dist))
    povm = None
    if kept:
        low = min(k[0] for k in kept) + margin
        a, b, slack, active, diff, dist = next(k for k in kept if k[0] <= low)
        y, z = active[0], active[-1]
        m = abs(a) + math.sqrt(b[0] * b[0] + b[1] * b[1] + b[2] * b[2]) + max(
            abs(al) + math.sqrt(p * p + q * q + s * s) for al, (p, q, s) in zip(alpha, beta))
        upper = 2 * a + 2 * max(0.0, -min(slack)) + _BLOCH_ALLOWANCE * m
        if upper - 2 * a <= 1e-9:           # ``_discriminate_batch``'s tol
            povm, converged = np.zeros((4, 2, 2), dtype=complex), True
            if y == z:
                povm[y] = _I2
            else:
                nx, ny, nz = (q / (2 * dist) for q in diff)     # n . sigma / 2
                half = np.array([[nz, nx - 1j * ny], [nx + 1j * ny, -nz]])
                povm[y], povm[z] = _I2 / 2 - half, _I2 / 2 + half
    if povm is None:
        t = ctx.table
        w = (t[0][:, None] + t[1][None, :]).reshape(-1, *t.shape[2:]) / 2
        _, up, f, converged = _discriminate_batch(w[None], qubit_first=True)
        povm, upper = f[0], float(up[0])
    values = np.einsum("fab,tfba->t", povm, ctx.table[_BASES, _TABLE_GUESSES]).real.tolist()
    return povm, values, max(0.0, upper - (values[0] + values[1]) / 2), converged

def _within_radius(v: np.ndarray, radius: int) -> np.ndarray:
    """P[at most ``radius`` rounds fail] for independent rounds that succeed
    with probabilities ``v``, shape (..., rounds): the Poisson-binomial cdf,
    by the recursion over rounds on the failure count, truncated past the
    radius."""
    dist = np.zeros(v.shape[:-1] + (min(radius, v.shape[-1]) + 1,))
    dist[..., 0] = 1.0
    for i in range(v.shape[-1]):
        win = v[..., i:i + 1]
        dist[..., 1:] = dist[..., 1:] * win + dist[..., :-1] * (1.0 - win)
        dist[..., 0] *= win[..., 0]
    return dist.sum(axis=-1)


# A product attack's value per basis string is exact up to float64 rounding:
# a few ulps in each round's value (eigh's backward error grows with dim_b)
# and one per round and term in the product or the recursion. This allowance
# per round and per dimension of B covers them; at the caps (n = 6, dim_b =
# 16) it comes to 4e-13.
_PRODUCT_ALLOWANCE = 16 * _EPS


def _product_results(ctx: _GameContext, plans: list[tuple[float | str | None, ...]],
                     want_decoders: bool) -> list[GuessResult]:
    """The optimal values of product attacks whose values factorize (every
    round measured, or no error allowed), from their per-round optima;
    ``plans`` holds each attack's ``rounds``.

    The rounds are independent games, since the device is memoryless and
    the attack acts round by round. With every round measured the memory is
    classical, so the rounds' success indicators under per-round MAP
    decoding are independent Bernoulli variables, and given the record no
    guess beats MAP in any round: the value at radius r is the
    Poisson-binomial cdf at r of the per-round failure probabilities. With
    no error allowed it is the product of the per-round values, kept rounds
    included, since the guessing probability of product cq-states is
    multiplicative (König, Renner & Schaffner, IEEE TIT 55, 4337, 2009). The
    decoders are the Kronecker product of the per-round ones, every basis
    string at once, in the dense game's branch and guess order. Each
    distinct round is solved once; the values are scalar products, round 0
    first, or the recursion; one reduction takes all win and gap means.

    An optimum round measures the POVM of ``_memoryless_optimum``, and its
    outcome f guesses f_theta. That guess can fall short of MAP on the
    outcome, but by at most the round's certified gap on average over the
    bases, since MAP on that POVM stays below the certified bound. The
    value per basis string rises by at most the sum of its rounds' shortfalls
    (it is a probability that is nondecreasing, with slope at most 1, in
    each round's value), so each optimum round adds its gap to the
    attack's, and its convergence carries over.
    """
    if not plans:
        return []
    terms = [[(t00, t11, 2 * t01) for (t00, t01), (_, t11) in basis]
             for basis in ctx.table.real.tolist()] if ctx.device.dim_b == 2 else None
    optima = {}     # per distinct round: its values and its decoders per basis
    solved = None   # the optimum round's certified gap and convergence
    for a in {a for rounds in plans for a in rounds}:
        if a is None:       # Helstrom, worth (tr(G_0 + G_1) + ||G_0 - G_1||_1) / 2
            f0 = _helstrom(ctx.table[:, 0], ctx.table[:, 1])
            f = np.stack([f0, np.eye(ctx.device.dim_b) - f0], axis=1)
            optima[a] = np.einsum("txab,txba->t", f, ctx.table).real.tolist(), f[:, None]
        elif a == _OPTIMUM:
            _, values, gap, converged = _memoryless_optimum(ctx)
            optima[a], solved = (values, _TABLE_DECODERS), (gap, converged)
        else:
            values, guess = _measured_optimum(terms, a)
            f = None
            if want_decoders:   # MAP: 1 at the guess, a 1 x 1 element per outcome
                f = (np.arange(2) == np.array(guess)[..., None])[..., None, None]
            optima[a] = values, f
    if ctx.radius == 0:
        lows = []
        for rounds in plans:
            low = [1.0]
            for a in rounds:
                low = [p * q for p in low for q in optima[a][0]]
            lows.append(low)
    else:
        # (attacks, rounds, bases) -> (attacks, basis strings, rounds)
        v = np.array([[optima[a][0] for a in rounds] for rounds in plans])
        v = v.reshape(len(plans), ctx.n, 2)[:, np.arange(ctx.n), ctx.bits]
        lows = _within_radius(v, ctx.radius).tolist()
    # (attacks, 2, basis strings): values, and gaps as the dense path forms
    # them, upper - lower, which rounding keeps >= 0 here, so they need no clip
    allowance = _PRODUCT_ALLOWANCE * (ctx.n + 1) * ctx.device.dim_b
    sums = np.add.reduce([(low, [(p + allowance) - p for p in low]) for low in lows],
                         axis=-1).tolist()
    results = []
    for rounds, low, (win, gap) in zip(plans, lows, sums):
        decoders = {key: [list(branch) for branch in f] for key, f in zip(
            ctx.keys, _kron_axes([optima[a][1] for a in rounds], 5))} if want_decoders else None
        gap, converged = gap / len(low), True
        if solved is not None and _OPTIMUM in rounds:
            gap, converged = gap + rounds.count(_OPTIMUM) * solved[0], solved[1]
        results.append(GuessResult(win / len(low), dict(zip(ctx.keys, low)), gap,
                                   converged, decoders))
    return results


def exact_win_probability(device: DeviceModel, strategy: Strategy, n: int,
                          d: int, gamma: float = 0.0, tol: float = 1e-9,
                          want_decoders: bool = False) -> GuessResult:
    """Exact winning probability of ``strategy`` with optimal decoding.

    Enumerates all 2^n basis strings. A product attack (``MeasureAll``,
    ``StoreSubset``) is scored round by round wherever its value factorizes,
    that is when it measures every round (any gamma) or when floor(gamma n)
    = 0: the device is memoryless, so per-round MAP and Helstrom values
    combine exactly (``_product_results`` gives the two arguments), and
    ``certified_gap`` is then a rounding allowance of at most 1e-12, not a
    solver gap, plus the certified gap of any round on the memoryless
    optimum. Such a round exists only there: anywhere else it raises
    ``StrategyError``. Every other strategy (``StoreSubset`` with errors
    allowed, ``GeneralEncoding``) goes to the dense game: for each basis
    string the discrimination of the post-measurement ensemble (with
    Hamming-ball rewards when gamma > 0) is solved branch by classical
    branch, with a dual certificate. The strategy must fit the stated memory
    dimension d.
    """
    _require_positive(d=d)
    _check_caps(strategy, n)
    mem = strategy.memory_dim(device.dim_b, n)
    if mem > d:
        raise StrategyError(f"strategy needs memory dimension {mem} > allowed {d}")
    return _score_strategies(_GameContext(device, n, gamma), [strategy], tol,
                             want_decoders)[0]


def _score_strategies(ctx: _GameContext, strategies: list[Strategy], tol: float = 1e-9,
                      want_decoders: bool = False) -> list[GuessResult]:
    """Certified results of several strategies on one game, in their order;
    the caller checks their caps. A product attack whose value factorizes
    is scored round by round (``_product_results``). The dense rewards of
    all other strategies with one reward shape (guesses, mem, mem) are
    stacked and solved in one certified call; each strategy's result, its
    ``converged`` included, is read from its own slice.
    """
    rounds = [s.rounds(ctx.device.dim_b, ctx.n) if isinstance(s, _ProductStrategy)
              else None for s in strategies]
    dense = [i for i, r in enumerate(rounds) if r is None or (ctx.radius > 0 and None in r)]
    product = _product_results(ctx, [r for i, r in enumerate(rounds) if i not in dense],
                               want_decoders)
    if not dense:
        return product
    results = dict(zip([i for i in range(len(strategies)) if i not in dense], product))
    rewards = {i: ctx.rewards(strategies[i]) for i in dense}
    shapes: dict[tuple, list[int]] = {}
    for i, g in rewards.items():
        shapes.setdefault(g.shape[1:], []).append(i)
    for members in shapes.values():
        # a lone strategy's rewards go in as they are, not copied
        g = rewards[members[0]] if len(members) == 1 \
            else np.concatenate([rewards[i] for i in members])
        lower, upper, f, _ = _discriminate_batch(g, tol)
        ends = np.cumsum([len(rewards[i]) for i in members])
        for i, end in zip(members, ends):
            part = slice(end - len(rewards[i]), end)
            low, up = lower[part], upper[part]
            results[i] = ctx.result(low, up, bool(np.all(up - low <= tol)),
                                    ctx.decoders(f[part]) if want_decoders else None)
    return [results[i] for i in range(len(strategies))]


# How far Alice's outcome probabilities for one basis string may sum from 1.
_PROB_SUM_TOL = 1e-10


def _draw(rng: np.random.Generator, cdfs: dict, key: tuple, weights) -> int:
    """The index ``rng.choice(len(w), p=w / w.sum())`` draws, ``w =
    weights(*key)``: one ``rng.random()`` placed in the table that ``choice``
    builds from ``p`` (its running sum over its last entry), kept in ``cdfs``
    under ``key``."""
    cdf = cdfs.get(key)
    if cdf is None:
        w = weights(*key)
        mass = w.sum()
        if not (np.isfinite(w).all() and (w >= 0).all() and mass > 0):
            raise DomainError(f"cannot draw from the weights {w!r}")
        cdf = (w / mass).cumsum()
        cdf /= cdf[-1]
        cdfs[key] = cdf
    return int(cdf.searchsorted(rng.random(), side="right"))


def replay_win_probability(device: DeviceModel, strategy: Strategy, n: int,
                           gamma: float, decoders: dict, trials: int,
                           seed: int = 0) -> float:
    """Monte-Carlo replay of a strategy with fixed decoders.

    Samples theta, Alice's outcome, the classical branch and the decoder
    outcome per trial; the empirical win rate should reproduce the exact
    value within sampling error.
    """
    _require_positive(trials=trials)
    _check_caps(strategy, n)
    rng = RandomSuite(seed).rng
    radius = math.floor(gamma * n)
    wins = 0
    ctx = _GameContext(device, n, 0.0)
    # branch operators E_m rho^theta_x E_m^+ of the unmasked rewards, and
    # their weights
    g = ctx.rewards(strategy)
    weights = np.maximum(0.0, np.einsum("kxii->kx", g).real)
    m_count = g.shape[0] // len(ctx.thetas)
    # Alice's outcome distribution per basis string, a product over rounds
    q = np.stack([_kron_axes(np.trace(ctx.table[list(theta)], axis1=2, axis2=3), 1).real
                  for theta in ctx.thetas])
    total = q.sum(axis=1)
    off = np.abs(total - 1.0) > _PROB_SUM_TOL
    if off.any():
        raise DomainError(f"outcome probabilities sum to {total[off][0]!r}")

    def branch_weights(ti, x):
        return weights[ti * m_count:(ti + 1) * m_count, x]

    def decoder_weights(ti, m, x):
        rho = g[ti * m_count + m, x] / weights[ti * m_count + m, x]
        povm = np.asarray(decoders[ctx.keys[ti]][m])
        return np.maximum(0.0, np.einsum("yab,ba->y", povm, rho).real)

    # each stage's table is built once per theta, (theta, x) and (theta, m, x)
    cdfs: dict[tuple, np.ndarray] = {}
    for _ in range(trials):
        ti = int(rng.integers(len(ctx.thetas)))
        x = _draw(rng, cdfs, (ti,), q.__getitem__)
        m = _draw(rng, cdfs, (ti, x), branch_weights)
        y = _draw(rng, cdfs, (ti, m, x), decoder_weights)
        wins += int(bin(x ^ y).count("1") <= radius)
    return wins / trials


# ---------------------------------------------------------------------------
# see-saw search over encodings
# ---------------------------------------------------------------------------

def _structured_isometries(device: DeviceModel, n: int, d: int,
                           m_count: int) -> list[Array]:
    """Known-good starting points: store-what-fits and intercept measurements."""
    dim_in = device.dim_b ** n
    inits: list[Array] = []
    keep_size = 0
    while device.dim_b ** (keep_size + 1) <= d and keep_size < n:
        keep_size += 1
    for keep in itertools.combinations(range(n), keep_size):
        strat = StoreSubset(keep=keep) if keep else breidbart(n)
        e = np.array([br[0] for br in strat.kraus_branches(device.dim_b, n)])
        if len(e) <= m_count:
            # row i * m_count + m is row i of branch m (GeneralEncoding.from_isometry)
            v = np.zeros((d, m_count, dim_in), dtype=complex)
            v[:e.shape[1], :len(e)] = e.transpose(1, 0, 2)
            inits.append(v.reshape(d * m_count, dim_in))
    return inits


# Gap within which a search step takes the closed form's value.
_SEARCH_TOL = 1e-7


def _search_values(ctx: _GameContext, v: np.ndarray, d: int) -> np.ndarray:
    """The see-saw's objective for a stack of isometries ``v``, shape (c, d*M,
    Din), in one solver call: each one's winning probability, on qubit
    memories from the closed form, so the value is exact to roundoff."""
    lower, _, _, _ = _discriminate_batch(ctx.isometry_rewards(v, d),
                                         tol=_SEARCH_TOL, qubit_first=True)
    return lower.reshape(len(v), len(ctx.thetas), -1).sum(axis=2).mean(axis=1)


# A restart's step shrinks by 0.6 after four rejections in a row, and the
# restart ends once it falls below ``_MIN_STEP``. Each solver call scores up
# to ``_LOOKAHEAD`` steps of every live restart.
_MIN_STEP = 1e-3
_LOOKAHEAD = 8


def _rejected(step: float, stale: int) -> tuple[float, int]:
    """A restart's step size and stale count after one more rejection."""
    stale += 1
    return (step * 0.6, 0) if stale >= 4 else (step, stale)


def _lookahead_steps(step: float, stale: int, left: int) -> list[float]:
    """The step sizes of a restart's next candidates, at most ``_LOOKAHEAD``
    and ``left`` of them, as they go if every one is rejected."""
    sizes = []
    while len(sizes) < min(_LOOKAHEAD, left) and step >= _MIN_STEP:
        sizes.append(step)
        step, stale = _rejected(step, stale)
    return sizes


def seesaw_search(device: DeviceModel, n: int, d: int, restarts: int = 4,
                  seed: int = 0, gamma: float = 0.0, iters: int = 60,
                  _ctx: "_GameContext | None" = None,
                  ) -> tuple[GuessResult, GeneralEncoding]:
    """Alternating search for a strong encoding.

    The decoding step is always optimal (the discrimination solver); the
    encoding step perturbs the instrument's isometry with shrinking random
    steps, accepting improvements. Structured starts (store what fits, the
    intercept measurement) seed the first restarts, Haar isometries the
    rest. The restarts climb together, each drawing its perturbations from
    its own random stream, and one solver call scores up to ``_LOOKAHEAD``
    steps of every live restart: a rejected step leaves the isometry as it
    was, so the candidates of the steps ahead are known if all of them are
    rejected. Each restart then applies its own accept, shrink and stop rule
    to its candidates in order; at its first accept the rest are dropped and
    their perturbations kept for the next call, so each one follows the path
    it would follow alone, one step at a time. The best isometry (the first
    restart among equals) is scored once more, at the certificate's default
    tolerance: its value comes from the returned POVM and its bound from the
    outward-rounded dual, both on the full rewards, so the value is a valid
    lower bound on the game optimum for this device, with its gap.
    """
    _require_positive(restarts=restarts)
    if n > 2 or d > max(2, device.dim_b):
        raise DimensionCapError("see-saw is capped at n <= 2 and qubit-size memories")
    dim_in = device.dim_b ** n
    m_count = dim_in
    ctx = _ctx if _ctx is not None else _GameContext(device, n, gamma)
    structured = _structured_isometries(device, n, d, m_count)
    suites = [RandomSuite(child_seed(seed, r)) for r in range(restarts)]
    v = np.stack([structured[r] if r < len(structured)
                  else _isometry(suites[r].ginibre(d * m_count, dim_in))
                  for r in range(restarts)])
    val = _search_values(ctx, v, d)
    step = [0.35] * restarts
    stale = [0] * restarts
    left = [iters] * restarts                  # steps each restart may still take
    noise: list[list[Array]] = [[] for _ in range(restarts)]   # drawn, not yet used
    live = [r for r in range(restarts) if iters > 0]
    while live:
        # each live restart's next steps as they would go if all were rejected
        sizes = {r: _lookahead_steps(step[r], stale[r], left[r]) for r in live}
        for r in live:
            while len(noise[r]) < len(sizes[r]):
                noise[r].append(suites[r].ginibre(*v.shape[1:]))
        cand = _isometry(np.stack([v[r] + s * noise[r][j]
                                   for r in live for j, s in enumerate(sizes[r])]))
        cval = _search_values(ctx, cand, d)
        at = 0
        for r in list(live):
            count = len(sizes[r])
            for c, cv in zip(cand[at:at + count], cval[at:at + count]):
                noise[r].pop(0)
                left[r] -= 1
                if cv > val[r] + 1e-12:
                    v[r], val[r], stale[r] = c, cv, 0
                    break           # the later candidates perturbed the old v
                step[r], stale[r] = _rejected(step[r], stale[r])
            at += count
            if step[r] < _MIN_STEP or not left[r]:
                live.remove(r)
    enc = GeneralEncoding.from_isometry(v[int(np.argmax(val))], d)
    lower, upper, _, conv = _discriminate_batch(ctx.rewards(enc), qubit_first=True)
    return ctx.result(lower, upper, conv), enc


# ---------------------------------------------------------------------------
# random device families
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _ideal_device() -> DeviceModel:
    """The ideal BB84 device whose Bob side and testing observables the
    random families share; built once, its fields are never written."""
    return ideal_bb84_device()


def _trusted(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields`` as
    given (fields left out keep their class defaults), built without its
    ``__post_init__`` checks. Only for what this module builds itself: the
    devices the random families below draw, whose arrays are complex, of the
    right shapes, and a density operator, projectors and observables by
    construction (checking them again would double the cost of a draw), and
    the members of ``strategy_family``. The public constructors and
    ``DeviceModel.from_obj`` keep every check."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _trusted_device(sigma: Array, alice: list[tuple[Array, Array]]) -> DeviceModel:
    """A drawn qubit device: state ``sigma`` and Alice's pairs (p0, p1), with
    the ideal device's Bob side and testing observables."""
    ideal = _ideal_device()
    meas = [_trusted(BinaryMeasurement, p0=p0, p1=p1) for p0, p1 in alice]
    return _trusted(DeviceModel, dim_a=2, dim_b=2, sigma_ab=sigma,
                    alice_meas_0=meas[0], alice_meas_1=meas[1],
                    bob_meas_0=ideal.bob_meas_0, bob_meas_1=ideal.bob_meas_1,
                    test_t0=ideal.test_t0, test_t1=ideal.test_t1, noise_q=0.0)


def random_qubit_device(suite: RandomSuite) -> DeviceModel:
    """Haar-random single-round qubit device.

    sigma_AB is the two-qubit marginal of a Haar pure state with a qubit
    purifier; Alice's two binary measurements are Haar-rotated rank-one
    projective pairs. Bob's honest side and the testing observables are the
    BB84 defaults (they do not enter the guessing game).
    """
    psi = suite.pure_state(8).reshape(8, 1)
    # tr_C |psi><psi| over the last qubit, as ``partial_trace`` sums it
    sigma = np.trace((psi @ dagger(psi)).reshape(4, 2, 4, 2), axis1=1, axis2=3)
    alice = []
    for _ in range(2):
        u = suite.unitary(2)
        p0 = u[:, :1] @ dagger(u[:, :1])
        alice.append((p0, np.eye(2) - p0))
    return _trusted_device(sigma, alice)


# The depolarizing weight of a rotated ideal device is uniform below this.
_ROTATED_MAX_NOISE = 0.3


def random_rotated_ideal_device(suite: RandomSuite) -> DeviceModel:
    """Locally rotated, partially depolarized EPR device; violates CHSH often."""
    ideal = _ideal_device()
    ua = suite.unitary(2)
    noise = float(suite.rng.random() * _ROTATED_MAX_NOISE)
    rot = _kron(ua, np.eye(2))
    sigma = rot @ ideal.sigma_ab @ dagger(rot)
    sigma = (1.0 - noise) * sigma + noise * np.eye(4) / 4
    return _trusted_device(sigma, [
        (ua @ m.p0 @ dagger(ua), ua @ m.p1 @ dagger(ua))
        for m in (ideal.alice_meas_0, ideal.alice_meas_1)])


def strategy_family(n: int, d: int, dim_b: int, suite: RandomSuite) -> list[Strategy]:
    """Concrete attacks pitted against the bound in the fuzz campaigns.

    Built unchecked with ``_trusted``: their angles are float tuples and
    their kept rounds distinct indices by construction, so each member
    equals its checked construction."""
    def measure_all(angles: tuple[float, ...]) -> MeasureAll:
        return _trusted(MeasureAll, angles=angles)

    def store(keep: tuple[int, ...], angles: tuple[float, ...] = ()) -> StoreSubset:
        return _trusted(StoreSubset, keep=keep, angles=angles)

    family: list[Strategy] = [measure_all((BREIDBART_ANGLE,) * n)]
    base_angles = [0.0, math.pi / 4, 3 * math.pi / 8]
    for a in base_angles:
        family.append(measure_all((a,) * n))
    for _ in range(2):
        family.append(measure_all(tuple((suite.rng.random(n) * (math.pi / 2)).tolist())))
    if d >= dim_b:
        for k in range(n):
            family.append(store((k,)))
            family.append(store((k,), (0.0,) * (n - 1)))
    if d >= dim_b ** n and n >= 2:
        family.append(store(tuple(range(n))))
    return family


# ---------------------------------------------------------------------------
# fuzzed verifiers for the three technical inequalities
# ---------------------------------------------------------------------------

# An attack value counts against B' only past this margin, which covers the
# solver's certified gaps and the bound's rounding.
_WIN_SLACK = 1e-6
# The norm and overlap inequalities fail only at slacks below -_SLACK_TOL.
_SLACK_TOL = 1e-9
# ||K|| must equal ||sum A_i|| to this fraction of max(1, ||sum A_i||).
_K_NORM_RTOL = 1e-7
# The overlap bound's two forms, equal identically, must agree to this.
_FORMS_TOL = 1e-12


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a fuzz campaign against one inequality."""

    name: str
    trials: int
    passed: bool
    max_ratio: float
    worst_slack: float
    violations: list[dict] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name, "trials": self.trials, "passed": self.passed,
            "max_ratio": self.max_ratio, "worst_slack": self.worst_slack,
            "violations": self.violations, "details": self.details,
        }


# Trials per chunk of the verifiers: a chunk's records are dropped once
# folded, so memory does not grow with the number of trials, and the norm and
# overlap verifiers stack the chunk's trials of one shape into one call.
_CHUNK = 256


def _run_trials(name: str, trials: int, work, check, details,
                fold=None) -> VerificationReport:
    """Run the trials chunk by chunk and fold their records into a report.

    ``work(ts)`` returns the records of the trials in the range ``ts``, in
    index order, each drawn from its trial's own random stream;
    ``check(record)`` yields one (ratio, slack, violation or None) row per
    instance checked. Only the violations and running aggregates outlive a
    chunk: ``fold(acc, record)`` folds each record into the running value
    ``acc`` (None before the first), and ``details(acc)`` gives the report's
    details. With no trial the worst slack would stay infinite and
    ``passed`` would hold vacuously, so at least one is needed.
    """
    _require_positive(trials=trials)
    violations = []
    max_ratio, worst_slack, acc = 0.0, math.inf, None
    for start in range(0, trials, _CHUNK):
        for rec in work(range(start, min(start + _CHUNK, trials))):
            for ratio, slack, violation in check(rec):
                max_ratio = max(max_ratio, ratio)
                worst_slack = min(worst_slack, slack)
                if violation is not None:
                    violations.append(violation)
            if fold is not None:
                acc = fold(acc, rec)
    return VerificationReport(
        name=name, trials=trials, passed=not violations, max_ratio=max_ratio,
        worst_slack=worst_slack, violations=violations, details=details(acc))


def _shape_groups(keys: list) -> dict:
    """Positions in a chunk by shape key, each group in trial order."""
    groups: dict = {}
    for pos, key in enumerate(keys):
        groups.setdefault(key, []).append(pos)
    return groups


# The see-saw the key-lemma fuzz runs at d = 2, on every device whose bound
# is below 1.
_KEY_LEMMA_RESTARTS = 2
_KEY_LEMMA_ITERS = 30


def verify_key_lemma(trials: int, n: int, d: int, gamma: float = 0.0,
                     seed: int = 0) -> VerificationReport:
    """Pit strategy families and stronger attacks against B'(n, d, eps_+, gamma).

    The stronger attacks run on every device whose bound is below 1. At d =
    1 that is the product attack with every round on the n = 1 memoryless
    optimum (``_memoryless_optimum``: one 2 x 2 problem with four guesses,
    solved and certified in scalar Bloch arithmetic), which at n = 1 is the
    exact optimum. At d = 2 it is the see-saw search, and at n = 2 with no
    error allowed also the two product attacks that store one round and
    play the other on the optimum. The certificate uses the device's exact
    effective anti-commutator, the sharpest value the proof supports, so
    any CHSH-derived zeta >= eps_+ passes a fortiori. A violation report
    carries the offending device and the winning attack's kind.
    """
    if n > 2 or d > 2:
        raise DimensionCapError("key-lemma fuzz is capped at n <= 2, d <= 2")
    if d == 1:
        products = [MeasureAll((_OPTIMUM,) * n)]
    elif n == d == 2 and math.floor(gamma * n) == 0:
        products = [StoreSubset((k,), (_OPTIMUM,)) for k in range(n)]
    else:
        products = []

    def work(trial: int) -> dict:
        suite = RandomSuite(child_seed(seed, trial))
        device = random_qubit_device(suite)
        eps = _epsilon_plus(device.alice_meas_0.observable,
                            device.alice_meas_1.observable, device.sigma_a)
        bound = bound_imperfect(n, d, eps, gamma)
        ctx = _GameContext(device, n, gamma)
        # A saturated bound (B' = 1) cannot be challenged by any probability;
        # a stronger attack only adds information below it.
        attacks = [s for s in strategy_family(n, d, device.dim_b, suite)
                   if s.memory_dim(device.dim_b, n) <= d]
        if bound < 1.0:
            attacks += products
        # (value, gap, converged, kind) per attack; the first best one wins
        scored = [(res.win_prob, res.certified_gap, res.converged, strat.kind)
                  for strat, res in zip(attacks, _score_strategies(ctx, attacks))]
        if bound < 1.0 and d > 1:
            res, _enc = seesaw_search(device, n, d, restarts=_KEY_LEMMA_RESTARTS,
                                      seed=int(suite.rng.integers(2 ** 32)),
                                      gamma=gamma, iters=_KEY_LEMMA_ITERS, _ctx=ctx)
            scored.append((res.win_prob, res.certified_gap, res.converged, "seesaw"))
        win, gap, converged, kind = max(scored, key=lambda s: s[0])
        return {"trial": trial, "epsilon_plus": eps, "bound": bound,
                "win_prob": win, "strategy": kind, "device": device,
                "certified_gap": gap, "converged": converged}

    def check(rec: dict):
        bound, best_win = rec["bound"], rec["win_prob"]
        violated = best_win > bound + _WIN_SLACK
        yield (best_win / bound if bound > 0 else math.inf, bound + _WIN_SLACK - best_win,
               {"trial": rec["trial"], "epsilon_plus": rec["epsilon_plus"],
                "bound": bound, "win_prob": best_win, "strategy": rec["strategy"],
                "device": rec["device"].to_obj()} if violated else None)

    def fold(acc, rec: dict) -> tuple[float, bool]:
        gap, converged = rec["certified_gap"], bool(rec["converged"])
        return (gap, converged) if acc is None else \
            (max(acc[0], gap), acc[1] and converged)

    return _run_trials(
        "key-lemma", trials, lambda ts: [work(t) for t in ts], check,
        lambda acc: {"n": n, "d": d, "gamma": gamma, "seed": seed,
                     "worst_certified_gap": acc[0], "converged": acc[1]}, fold)


def verify_norm_lemma(trials: int, max_dim: int = 16, max_terms: int = 8,
                      seed: int = 0) -> VerificationReport:
    """Fuzz ||sum A_i|| <= max_j sum_i ||sqrt(A_i) sqrt(A_j)|| on random PSD sets.

    Also checks the proof's intermediate chain
    ||sum A_i|| = ||K|| <= ||L|| <= sqrt(||L||_1^I ||L||_inf^I) on the same
    instances, with K the block matrix of sqrt(A_i) sqrt(A_j) and L its
    entrywise norm matrix.
    """
    _require_positive(max_dim=max_dim, max_terms=max_terms)
    if max_dim > 16 or max_terms > 8:
        raise DimensionCapError("norm-lemma fuzz is capped at dim <= 16, N <= 8")

    def work(ts: range) -> list[dict]:
        drawn = []
        for trial in ts:
            suite = RandomSuite(child_seed(seed, trial))
            rng = suite.rng
            dim = int(rng.integers(1, max_dim + 1))
            n_terms = int(rng.integers(1, max_terms + 1))
            drawn.append(np.array([suite.psd(dim, scale=float(rng.random() * 2 + 0.1))
                                   for _ in range(n_terms)]))
        records = [None] * len(drawn)
        for (n_terms, dim), pos in _shape_groups([a.shape[:2] for a in drawn]).items():
            mats = np.array([drawn[p] for p in pos])            # (T, N, dim, dim)
            roots = psd_sqrt(mats)
            prods = roots[:, :, None] @ roots[:, None, :]      # sqrt(A_i) sqrt(A_j)
            lhs = operator_norm(sum(mats[:, i] for i in range(n_terms)))
            l_mat = operator_norm(prods)
            rhs = l_mat.sum(axis=1).max(axis=-1)
            k_block = prods.transpose(0, 1, 3, 2, 4).reshape(
                len(pos), n_terms * dim, n_terms * dim)
            k_norm = operator_norm(k_block)
            l_norm = operator_norm(l_mat)
            hoelder = np.sqrt(induced_norm(l_mat, 1) * induced_norm(l_mat, math.inf))
            for row, p in enumerate(pos):
                records[p] = {"trial": ts[p], "dim": dim, "terms": n_terms,
                              "lhs": float(lhs[row]), "rhs": float(rhs[row]),
                              "k_norm": float(k_norm[row]), "l_norm": float(l_norm[row]),
                              "hoelder": float(hoelder[row])}
        return records

    def check(rec: dict):
        slack = min(rec["rhs"] - rec["lhs"], rec["l_norm"] - rec["k_norm"],
                    rec["hoelder"] - rec["l_norm"])
        violated = slack < -_SLACK_TOL or \
            abs(rec["k_norm"] - rec["lhs"]) > _K_NORM_RTOL * max(1.0, rec["lhs"])
        yield (rec["lhs"] / rec["rhs"] if rec["rhs"] > 0 else math.inf, slack,
               rec if violated else None)

    return _run_trials("norm-lemma", trials, work, check, lambda _: {
        "max_dim": max_dim, "max_terms": max_terms, "seed": seed})


def _block_measurement(beta: float) -> dict[tuple[int, int], Array]:
    """Within-block projectors P^theta_x for a two-dimensional Jordan block."""
    c, s = math.cos(beta), math.sin(beta)
    zero_one = np.array([c, s], dtype=complex)
    p = {
        (0, 0): np.diag([1.0, 0.0]).astype(complex),
        (0, 1): np.diag([0.0, 1.0]).astype(complex),
        (1, 0): np.outer(zero_one, zero_one.conj()),
    }
    p[(1, 1)] = np.eye(2, dtype=complex) - p[(1, 0)]
    return p


def _overlap_pairs(thetas: list, betas: np.ndarray, d_use: int,
                   lhs: np.ndarray) -> list[dict]:
    """Both bound forms against ``lhs[theta', theta]`` for every ordered pair."""
    peak = [max(math.cos(b), math.sin(b)) for b in betas]
    eps = [abs(math.cos(2 * b)) for b in betas]
    pairs = []
    for (i, tp), (j, t) in itertools.product(enumerate(thetas), repeat=2):
        w = [a ^ b for a, b in zip(tp, t)]
        prod_max = math.prod(peak[k] ** w[k] for k in range(len(betas)))
        prod_eps = math.prod(((1 + eps[k]) / 2) ** (w[k] / 2) for k in range(len(betas)))
        pairs.append({"theta_prime": list(tp), "theta": list(t), "lhs": float(lhs[i, j]),
                      "rhs_angles": min(1.0, math.sqrt(d_use) * prod_max),
                      "rhs_eps": min(1.0, math.sqrt(d_use) * prod_eps)})
    return pairs


def verify_overlap_lemma(trials: int, n: int, d: int,
                         seed: int = 0) -> VerificationReport:
    """Fuzz the per-block overlap bounds against random angles and POVMs.

    Builds Pi^theta = sum_x P^theta_{x|b} (x) F^theta_x from random block
    angles beta and random Bob POVMs on dimension d, and checks both bound
    forms (the max{cos, sin} product and its (1+eps)/2 rewriting, which are
    equal identically) against ||sqrt(Pi^theta') sqrt(Pi^theta)|| for every
    ordered basis pair.
    """
    _require_positive(n=n, d=d)
    if n > 2 or d > 3:
        raise DimensionCapError("overlap fuzz is capped at n <= 2, d <= 3")
    def work(ts: range) -> list[dict]:
        drawn = []
        for trial in ts:
            suite = RandomSuite(child_seed(seed, trial))
            rng = suite.rng
            n_use = int(rng.integers(1, n + 1))
            d_use = int(rng.integers(1, d + 1))
            betas = rng.random(n_use) * (math.pi / 2)
            # one POVM per basis string theta, one element per outcome x
            povms = np.array([suite.povm(d_use, 2 ** n_use) for _ in range(2 ** n_use)])
            drawn.append((betas, povms))
        records = [None] * len(drawn)
        shapes = [(betas.size, povms.shape[-1]) for betas, povms in drawn]
        for (n_use, d_use), pos in _shape_groups(shapes).items():
            thetas = list(itertools.product((0, 1), repeat=n_use))   # also the x
            bits, size = np.array(thetas), len(thetas)
            # blocks[t, k, theta_k, x_k] is block k's projector P^theta_k_x_k
            blocks = np.array([[[[m[(tk, xk)] for xk in (0, 1)] for tk in (0, 1)]
                                for m in map(_block_measurement, drawn[p][0])]
                               for p in pos])
            proj = np.ones((len(pos), size, size, 1, 1), dtype=complex)
            for k in range(n_use):                    # proj[t, theta, x] = P^theta_x
                picked = blocks[:, k][:, bits[:, k, None], bits[None, :, k]]
                proj = _kron(proj, picked)
            povms = np.array([drawn[p][1] for p in pos])
            pi = np.zeros((len(pos), size) + (size * d_use,) * 2, dtype=complex)
            for xi in range(size):
                pi += _kron(proj[:, :, xi], povms[:, :, xi])
            roots = psd_sqrt(pi)
            # lhs[t, theta', theta] = ||sqrt(Pi^theta') sqrt(Pi^theta)||
            lhs = operator_norm(roots[:, :, None] @ roots[:, None, :])
            for row, p in enumerate(pos):
                betas = drawn[p][0]
                records[p] = {"trial": ts[p], "n": n_use, "d": d_use,
                              "betas": [float(x) for x in betas],
                              "pairs": _overlap_pairs(thetas, betas, d_use, lhs[row])}
        return records

    def check(rec: dict):
        for pair in rec["pairs"]:
            lhs, rhs1, rhs2 = pair["lhs"], pair["rhs_angles"], pair["rhs_eps"]
            slack = min(rhs1 - lhs, rhs2 - lhs)
            violated = slack < -_SLACK_TOL or abs(rhs1 - rhs2) > _FORMS_TOL
            yield (lhs / rhs1 if rhs1 > 0 else math.inf, slack,
                   {"trial": rec["trial"], "n": rec["n"], "d": rec["d"],
                    "betas": rec["betas"], **pair} if violated else None)

    return _run_trials("overlap-lemma", trials, work, check,
                       lambda _: {"n": n, "d": d, "seed": seed})
