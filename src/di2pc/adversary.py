"""Exact adversary evaluation for the bounded-storage guessing game.

The game: Alice measures her half of sigma_AB^(x)n in uniformly random bases
theta and later announces theta; Bob, who received the B halves but may keep
only a d-dimensional quantum memory (plus unlimited classical notes), must
output a guess y with d_H(x, y) <= floor(gamma n).

For a concrete encoding strategy the winning probability is computed
exactly: for every theta the post-measurement ensemble on Bob's memory is
built branch by classical branch, and the optimal decoding is a quantum
state discrimination problem with a dual certificate (eigenvalue lifting),
so every reported value comes with a certified optimality gap. Guesses whose
reward operator another guess dominates are dropped first; closed forms
solve what is left where they exist (scalar memories, one guess, two-outcome
Helstrom), and a fixed-point iteration with an interior-point fallback
solves the rest. The dual bound is rounded outward, so it stays at or above
the value of the returned POVM in float64.

The module also hosts the see-saw encoding search (a heuristic lower bound
on the game value) and the three fuzzed inequality verifiers backing the
security statement: the key-lemma bound itself, the norm-of-sum inequality,
and the per-block overlap bounds. The search's restarts climb in lockstep:
at each step the candidates of all live restarts are scored in one call of
the solver's uncertified search mode, their rewards built straight from the
stacked isometries. In that mode qubit memories with any number of guesses
get an exact closed form (the Bloch-vector dual solved over its active
sets, ``_qubit_optimum``) instead of the fixed point, one closed-form call
for the whole batch; the value the search returns is re-certified on the
certified path, which the closed form does not enter.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bounds import bound_imperfect
from .errors import DimensionCapError, DomainError, ShapeError, StrategyError
from .jordan import BinaryMeasurement, epsilon_plus_direct
from .matcore import (
    Array,
    RandomSuite,
    as_matrix,
    check_density_operator,
    child_seed,
    dagger,
    induced_norm,
    operator_norm,
    partial_trace,
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
    "PostMeasurementEnsemble",
    "post_measurement_ensemble",
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


def _round_kraus(angle: float | None, dim_b: int) -> Array:
    """One round's Kraus factors, shape (branches, mem, dim_b): the identity
    for a kept round (None), else the two bras of the qubit basis at
    ``angle`` from the Z axis."""
    if angle is None:
        return np.eye(dim_b, dtype=complex)[None]
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

class _ProductStrategy:
    """An attack that treats every round on its own: ``rounds(dim_b, n)``
    gives, per round, the measurement angle or ``None`` for a kept round."""

    def kraus_branches(self, dim_b: int, n: int) -> list[list[Array]]:
        e = _kron_axes([_round_kraus(a, dim_b) for a in self.rounds(dim_b, n)], 3)
        return [[branch] for branch in e]


@dataclass(frozen=True)
class MeasureAll(_ProductStrategy):
    """Measure every round immediately in a fixed basis; keep only the record.

    ``angles`` gives one qubit measurement angle per round (a single float is
    broadcast); the Breidbart angle pi/8 is the classic instance. Quantum
    memory used: none (dimension 1).
    """

    angles: tuple[float, ...]
    kind: str = field(default="measure_all", init=False)

    def memory_dim(self, dim_b: int, n: int) -> int:
        return 1

    def rounds(self, dim_b: int, n: int) -> tuple[float, ...]:
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
    checked at evaluation time); discarded rounds are measured at ``angles``.
    A round is kept at most once, so ``memory_dim`` counts what is stored.
    """

    keep: tuple[int, ...]
    angles: tuple[float, ...] = ()
    kind: str = field(default="store_subset", init=False)

    def __post_init__(self):
        if len(set(self.keep)) != len(self.keep):
            raise StrategyError(f"keep indices {list(self.keep)} repeat a round")

    def memory_dim(self, dim_b: int, n: int) -> int:
        return dim_b ** len(self.keep)

    def rounds(self, dim_b: int, n: int) -> tuple[float | None, ...]:
        keep = set(self.keep)
        if any(k < 0 or k >= n for k in keep):
            raise StrategyError(f"keep indices {sorted(keep)} out of range for n={n}")
        discarded = [k for k in range(n) if k not in keep]
        if discarded and dim_b != 2:
            raise StrategyError("measured-out rounds are parameterized for qubits only")
        angles = self.angles if len(self.angles) == len(discarded) \
            else tuple(self.angles or (BREIDBART_ANGLE,)) * len(discarded)
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

    def kraus_branches(self, dim_b: int, n: int) -> list[list[Array]]:
        dim_in = dim_b ** n
        mem = self.memory_dim(dim_b, n)
        total = None
        for branch in self.kraus:
            for e in branch:
                e = as_matrix(e)
                if e.shape[1] != dim_in:
                    raise ShapeError(
                        f"Kraus input dimension {e.shape[1]} != {dim_in}")
                if e.shape[0] != mem:
                    raise StrategyError(
                        f"Kraus output dimension {e.shape[0]} != {mem}: every "
                        "element must map into the same memory")
                total = dagger(e) @ e if total is None else total + dagger(e) @ e
        if total is None or np.max(np.abs(total - np.eye(dim_in))) > 1e-9:
            raise StrategyError("encoding is not trace preserving within 1e-9")
        return [[as_matrix(e) for e in branch] for branch in self.kraus]

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
    from .matcore import matrix_from_obj
    kind = obj.get("kind")
    if kind == "measure_all":
        return MeasureAll(angles=tuple(float(a) for a in obj["angles"]))
    if kind == "store_subset":
        return StoreSubset(keep=tuple(int(k) for k in obj["keep"]),
                           angles=tuple(float(a) for a in obj.get("angles", ())))
    if kind == "general_encoding":
        return GeneralEncoding(tuple(
            tuple(matrix_from_obj(e) for e in branch) for branch in obj["kraus"]))
    raise DomainError(f"unknown strategy kind {kind!r}")


# ---------------------------------------------------------------------------
# post-measurement ensembles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PostMeasurementEnsemble:
    """Bob's side of the game after Alice measured with input ``theta``.

    ``branch_ops[m][x]`` is the unnormalized memory operator for classical
    outcome m and Alice outcome x; its trace is the joint probability of
    (x, m). ``q[x]`` marginalizes the branches.
    """

    theta: tuple[int, ...]
    branch_ops: np.ndarray
    q: np.ndarray

    @property
    def n_outcomes(self) -> int:
        return len(self.q)

    def branch_states(self, x: int) -> list[tuple[float, Array]]:
        """Normalized conditional memory states per branch given outcome x."""
        out = []
        for ops in self.branch_ops:
            p = float(np.trace(ops[x]).real)
            if p > 1e-15:
                out.append((p / max(self.q[x], 1e-300), ops[x] / p))
        return out


def post_measurement_ensemble(device: DeviceModel, strategy: Strategy,
                              n: int, theta) -> PostMeasurementEnsemble:
    """Apply the strategy's instrument to the conditional states for ``theta``."""
    ctx = _GameContext(device, n, 0.0)
    return ctx.ensemble(ctx.rewards(strategy), theta)


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


def _herm(a: np.ndarray) -> np.ndarray:
    return (a + np.conj(np.swapaxes(a, -1, -2))) / 2


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
    root = np.sqrt(np.clip(w, 1e-300, None))[..., None, :]
    fix = (v / root) @ np.conj(np.swapaxes(v, -1, -2))
    return fix[..., None, :, :] @ f @ fix[..., None, :, :]


def _helstrom(g0: np.ndarray, g1: np.ndarray) -> np.ndarray:
    """Optimal two-outcome POVM element F_0 (Helstrom): the projector onto
    the positive part of G_0 - G_1, one eigendecomposition per problem."""
    w, v = np.linalg.eigh(_herm(g0 - g1))
    return np.einsum("bij,bj,bkj->bik", v, (w > 0).astype(float), np.conj(v))


_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
                  dtype=complex)


@lru_cache(maxsize=None)
def _active_sets(k: int) -> tuple[np.ndarray, ...]:
    """The subsets of k guesses with 1..min(k, 4) members, one (count, size)
    index array per size."""
    return tuple(np.array(list(itertools.combinations(range(k), s)))
                 for s in range(1, min(k, 4) + 1))


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
        dist = np.linalg.norm(vec, axis=-1)
        jac = np.concatenate([(vec / dist[..., None]) @ span,
                              -np.ones(dist.shape + (1,))], axis=-1)
        det = np.linalg.det(jac)
        ok = np.isfinite(det) & (det != 0)
        step = np.linalg.solve(np.where(ok[..., None, None], jac, np.eye(jac.shape[-1])),
                               (dist - roots[..., None] + lift)[..., None])[..., 0]
        step[~ok] = 0.0
        t, roots = t - step[..., :-1], roots - step[..., -1]
    return t, roots


def _qubit_optimum(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact optima of 2 x 2 discrimination problems (Deconinck & Terhal,
    PRA 81, 062304, 2010), batched; returns (POVM, dual operator Y).

    With G_y = alpha_y I + beta_y . sigma and Y = a I + b . sigma, the dual
    min tr Y s.t. Y >= G_y reads min 2a s.t. a >= alpha_y + |b - beta_y|. At
    the optimum a set S of guesses is active (equality) and b lies in the
    convex hull of their beta_y; S can be taken affinely independent, so it
    has one to four members (one only where a guess dominates). Every such S
    is solved at once: with b = beta_0 + sum_j t_j (beta_j - beta_0), the
    differences of the active equations are linear in (t, a), and
    |b - beta_0| = a - alpha_0 leaves one quadratic in a, whose roots
    ``_polish`` refines. A root is kept when it is dual feasible, its active
    equations hold and its hull weights c are nonnegative. Such a root is
    optimal: F_y = w_y (I - n_y . sigma), with n_y = (b - beta_y) /
    (a - alpha_y) and w_y proportional to c_y (a - alpha_y), sums to I and
    achieves 2a. The smallest kept a wins; a problem with no kept root gets
    the uniform POVM and its dual operator, which a gap check rejects.
    """
    nb, k = g.shape[:2]
    alpha = (g[..., 0, 0].real + g[..., 1, 1].real) / 2
    beta = np.stack([(g[..., 0, 1].real + g[..., 1, 0].real) / 2,
                     (g[..., 1, 0].imag - g[..., 0, 1].imag) / 2,
                     (g[..., 0, 0].real - g[..., 1, 1].real) / 2], axis=-1)
    cands_a, cands_b, cands_c, active = [], [], [], []
    # degenerate sets give inf or nan roots, which the checks below discard
    with np.errstate(all="ignore"):
        for sets in _active_sets(k):
            s = sets.shape[1]
            al, be = alpha[:, sets], beta[:, sets]      # (nb, sets, s), (.., 3)
            diff = be[..., 1:, :] - be[..., :1, :]      # rows beta_j - beta_0
            e = al[..., 1:] - al[..., :1]
            gram = diff @ np.swapaxes(diff, -1, -2)
            # det over the product of the diagonal, in [0, 1], flags sets whose
            # Bloch vectors are (nearly) affinely dependent
            ratio = np.linalg.det(gram) / np.prod(np.einsum("...ii->...i", gram), axis=-1)
            solvable = ratio > 1e-10
            gram = np.where(solvable[..., None, None], gram, np.eye(s - 1))
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
            if s > 1:
                t, roots = _polish(t, roots, diff, be, e)
            hull = np.concatenate([1.0 - t.sum(-1, keepdims=True), t], axis=-1)
            onehot = np.eye(k)[sets]                     # (sets, s, k)
            cands_a.append((al[..., :1] + roots).reshape(nb, -1))
            cands_b.append(np.einsum("...rs,...sx->...rx", hull, be).reshape(nb, -1, 3))
            cands_c.append(np.einsum("...rs,...sk->...rk", hull, onehot).reshape(nb, -1, k))
            active.append(np.repeat(onehot.sum(axis=1), 2, axis=0) > 0)
        a = np.concatenate(cands_a, axis=1)
        b = np.concatenate(cands_b, axis=1)
        c = np.concatenate(cands_c, axis=1)
        active = np.concatenate(active)
        slack = (a[..., None] - alpha[:, None]
                 - np.linalg.norm(b[:, :, None] - beta[:, None], axis=-1))
        eps = 1e-12 * np.abs(alpha).max(axis=1)[:, None, None]
        kept = (np.isfinite(a) & (slack >= -eps).all(-1) & (c >= 0.0).all(-1)
                & ((np.abs(slack) <= eps) | ~active).all(-1))
        # the smallest a, and among the roots that reach it the first, which
        # has the fewest active guesses: the POVM weights of a larger set
        # are ill-determined where it reaches the same a
        a_kept = np.where(kept, a, np.inf)
        low = a_kept.min(axis=1)
        best = np.argmax(a_kept <= (low + eps[:, 0, 0])[:, None], axis=1)
        found = np.isfinite(low)
        rows = np.arange(nb)
        a, b, c = a[rows, best], b[rows, best], c[rows, best]
        # F_y = c_y (r_y I - v_y . sigma) / sum_y c_y r_y with v_y = b - beta_y and
        # r_y = a - alpha_y, raised to |v_y| where roundoff left it below, so
        # that every F_y is PSD; sum_y c_y v_y = 0 keeps the sum at I
        v = b[:, None] - beta
        r = c * np.maximum(a[:, None] - alpha, np.linalg.norm(v, axis=-1))
        f = r[..., None, None] * np.eye(2) - np.einsum("bk,bkx,xij->bkij", c, v, _PAULI)
        total = r.sum(axis=1)
        single = ~(total > 0)             # one active guess, which takes F = I
        f[single] = c[single, :, None, None] * np.eye(2)
        f[~single] /= total[~single, None, None, None]
        y = a[:, None, None] * np.eye(2) + np.einsum("bx,xij->bij", b, _PAULI)
    f[~found] = np.eye(2) / k
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
            hess = (hess + hess.T) / 2 + 1e-13 * np.eye(m)
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


# The fixed point and its fallback aim at this fraction of ``tol``. A batch
# stops once every gap in it is within the aim, and pruned batches are small,
# so aiming at ``tol`` itself would leave values anywhere up to ``tol`` below
# the optimum; a problem still open by more than ``tol`` gets the fallback.
_TARGET = 1e-3


def _fixed_point(g: np.ndarray, tol: float, max_iter: int, dual_every: int,
                 refine: bool) -> tuple[np.ndarray, np.ndarray]:
    """Ježek–Řeháček–Fiurášek fixed point on a batch of problems.

    Returns the best POVM found per problem and the best dual operator Y
    (unlifted). The dual is evaluated every ``dual_every`` sweeps
    (certification is not needed at every step of a search). Problems whose
    gap the iteration fails to close are handed to the central-path solver
    when ``refine`` is set; its certificates replace the weaker ones.
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

    converged = False
    stale = 0
    window_mark = -np.inf
    sweeps = min(max_iter, 200) if refine else max_iter
    for it in range(sweeps):
        lower = np.einsum("bkij,bkji->b", f, g).real
        gained = lower > best_lower
        if gained.any():
            best_f[gained] = f[gained]
            stale = 0
        else:
            stale += 1
        best_lower = np.maximum(best_lower, lower)
        if it % dual_every == 0:
            certify(f)
            if np.all(best_upper - best_lower <= _TARGET * tol):
                converged = True
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
    if refine and not converged:
        for i in np.flatnonzero(best_upper - best_lower > tol):
            fi, yi = _ipm_single(g[i], gap_target=_TARGET * tol)
            if np.einsum("yij,yji->", fi, g[i]).real > best_lower[i]:
                best_f[i] = fi
            upper = _dual_upper(g[i:i + 1], yi[None], outward=False)[0]
            if upper < best_upper[i]:
                best_upper[i] = upper
                best_y[i] = yi
    return best_f, best_y


def _discriminate_batch(g: np.ndarray, tol: float = 1e-9,
                        max_iter: int = 10_000, dual_every: int = 1,
                        refine: bool = True,
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Batched certified discrimination.

    ``g`` has shape (batch, outcomes, dim, dim): PSD reward operators. The
    optimal POVM maximizes sum_y tr(F_y G_y). Returns (lower, upper, povm,
    converged): ``lower`` is achieved by the returned POVM and ``upper`` by a
    lifted dual-feasible operator, both evaluated on the full ``g``, and
    ``converged`` says whether every gap is within ``tol``.

    Dominated outcomes are dropped first (``_undominated``) and get zero POVM
    elements. Problems left with one outcome take the identity, those with
    two the Helstrom measurement; the rest run the fixed point on their kept
    outcomes only (``_fixed_point``). In search mode (``refine`` off) qubit
    problems first try the closed form ``_qubit_optimum``, all in one call,
    kept where its gap on the kept outcomes is within ``tol``. Soundness
    does not rest on the pruning: a wrong drop can only widen the certified
    gap.
    """
    b, k, d, _ = g.shape
    if d == 1:
        vals = g[:, :, 0, 0].real
        best = vals.argmax(axis=1)
        f = np.zeros_like(g)
        f[np.arange(b), best, 0, 0] = 1.0
        top = vals.max(axis=1)
        return top, top, f, True
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
    if d == 2 and not refine and rest.size:
        # one closed-form call: each problem is padded to the widest kept
        # count with copies of its last kept guess, which add only degenerate
        # sets and later duplicates of its own sets, so its root is unchanged
        slot = np.arange(count[rest].max())
        pos = np.minimum(slot, count[rest, None] - 1)
        gc = g[rest[:, None], np.take_along_axis(idx[rest], pos, axis=1)]
        fc, yc = _qubit_optimum(gc)
        fc[pos < slot] = 0.0
        f[rest[:, None], idx[rest, :slot.size]] = fc
        y[rest] = yc
        rest = rest[_dual_upper(gc, yc) - np.einsum("bkij,bkji->b", fc, gc).real > tol]
    for c in np.unique(count[rest]):
        sel = rest[count[rest] == c]
        cols = idx[sel, :c]
        f[sel[:, None], cols], y[sel] = _fixed_point(g[sel[:, None], cols], tol,
                                                     max_iter, dual_every, refine)
    lower = np.einsum("bkij,bkji->b", f, g).real
    upper = _dual_upper(g, y)
    return lower, upper, f, bool(np.all(upper - lower <= tol))


def optimal_discrimination(ensemble, tol: float = 1e-9,
                           max_iter: int = 10_000) -> DiscriminationResult:
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
    lower, upper, f, conv = _discriminate_batch(g, tol, max_iter)
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
    optimal decoding could exceed it.
    """

    win_prob: float
    per_theta: dict[str, float]
    certified_gap: float
    converged: bool = True
    decoders: dict | None = None

    def __post_init__(self):
        n_thetas = len(self.per_theta)
        mean = sum(self.per_theta.values()) / n_thetas
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


class _GameContext:
    """Strategy-independent game data for one (device, n, gamma) triple.

    Caches the per-round conditional B-side operators and the Hamming-ball
    membership matrix, so that repeated strategy evaluations (the see-saw
    inner loop in particular) skip the setup cost.
    """

    def __init__(self, device: DeviceModel, n: int, gamma: float):
        if not 0.0 <= gamma <= 0.5:
            raise DomainError(f"gamma must lie in [0, 0.5], got {gamma!r}")
        self.device = device
        self.n = n
        self.gamma = gamma
        self.radius = math.floor(gamma * n)
        self.thetas = list(itertools.product((0, 1), repeat=n))
        dims = [device.dim_a, device.dim_b]
        eye_b = np.eye(device.dim_b)
        self.table = np.array([
            [partial_trace(np.kron(p, eye_b) @ device.sigma_ab, dims, [1])
             for p in (meas.p0, meas.p1)]
            for meas in (device.alice_measurement(0), device.alice_measurement(1))])
        self._dense = None       # (thetas, outcomes, Din, Din), built on first use
        if self.radius > 0:
            # ball_mask[y, x] = 1 when popcount(x xor y) <= radius
            idx = np.arange(1 << n)
            pop = np.array([bin(i).count("1") for i in idx])
            self.ball_mask = (pop[idx[:, None] ^ idx] <= self.radius).astype(float)
        else:
            self.ball_mask = None

    def rewards(self, strategy: Strategy) -> np.ndarray:
        """Stacked reward operators, shape (thetas*branches, guesses, mem, mem)."""
        _check_caps(strategy, self.n)
        if isinstance(strategy, GeneralEncoding):
            branches = strategy.kraus_branches(self.device.dim_b, self.n)
            # (M, K, mem, Din): each branch's Kraus elements, zero-padded to K
            e = np.zeros((len(branches), max(map(len, branches)),
                          *branches[0][0].shape), dtype=complex)
            for m, br in enumerate(branches):
                e[m, :len(br)] = br
            w = np.einsum("mkab,txbc,mkdc->tmxad", e, self.dense(), e.conj())
        else:
            w = _product_rewards(self.table,
                                 strategy.rounds(self.device.dim_b, self.n))
        return self._masked(w.reshape(-1, *w.shape[2:]))

    def isometry_rewards(self, v: np.ndarray, d: int) -> np.ndarray:
        """Rewards of a stack of isometries, shape (c, d*M, Din), each split
        into M single-Kraus branches as ``GeneralEncoding.from_isometry``
        splits it: equal to stacking ``rewards`` of those encodings, shape
        (c*thetas*M, guesses, d, d). The encodings' trace-preservation check
        is skipped, so ``v`` must hold isometries (QR output does)."""
        c, rows, dim_in = v.shape
        # (c, M, d, Din): branch m of isometry i is e[i, m]
        e = np.ascontiguousarray(
            v.reshape(c, d, rows // d, dim_in).transpose(0, 2, 1, 3))
        w = np.einsum("nmab,txbc,nmdc->ntmxad", e, self.dense(), e.conj())
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
        if self.ball_mask is None:
            return w
        return np.einsum("yx,mxad->myad", self.ball_mask, w)

    def ensemble(self, g: np.ndarray, theta) -> PostMeasurementEnsemble:
        """The slice of unmasked rewards ``g`` that belongs to ``theta``."""
        theta = tuple(int(t) for t in theta)
        if len(theta) != self.n:
            raise ShapeError(f"theta must have length {self.n}")
        probs = np.trace(self.table[list(theta)], axis1=2, axis2=3)
        q = _kron_axes(probs, 1).real
        total = q.sum()
        if abs(total - 1.0) > 1e-10:
            raise DomainError(f"outcome probabilities sum to {total!r}")
        m_count = g.shape[0] // len(self.thetas)
        ti = self.thetas.index(theta)
        return PostMeasurementEnsemble(
            theta=theta, branch_ops=g[ti * m_count:(ti + 1) * m_count], q=q)

    def result(self, lower: np.ndarray, upper: np.ndarray, f: np.ndarray,
               converged: bool, want_decoders: bool) -> GuessResult:
        n_thetas = len(self.thetas)
        low = lower.reshape(n_thetas, -1).sum(axis=1)
        gap = np.clip(upper - lower, 0.0, None).reshape(n_thetas, -1).sum(axis=1)
        per_theta = {"".join(str(t) for t in theta): float(v)
                     for theta, v in zip(self.thetas, low)}
        decoders = None
        if want_decoders:
            m_count = f.shape[0] // n_thetas
            decoders = {}
            for ti, theta in enumerate(self.thetas):
                key = "".join(str(t) for t in theta)
                decoders[key] = [[f[ti * m_count + m, y] for y in range(f.shape[1])]
                                 for m in range(m_count)]
        win = float(low.sum() / n_thetas)
        return GuessResult(win_prob=win, per_theta=per_theta,
                           certified_gap=float(gap.sum() / n_thetas),
                           converged=converged, decoders=decoders)


def exact_win_probability(device: DeviceModel, strategy: Strategy, n: int,
                          d: int, gamma: float = 0.0, tol: float = 1e-9,
                          max_iter: int = 10_000,
                          want_decoders: bool = False,
                          _ctx: "_GameContext | None" = None) -> GuessResult:
    """Exact winning probability of ``strategy`` with optimal decoding.

    Enumerates all 2^n basis strings; for each, solves the discrimination of
    the post-measurement ensemble (with Hamming-ball rewards when gamma > 0)
    branch by classical branch. The strategy must fit the stated memory
    dimension d.
    """
    if d < 1:
        raise DomainError("memory dimension d must be at least 1")
    _check_caps(strategy, n)
    mem = strategy.memory_dim(device.dim_b, n)
    if mem > d:
        raise StrategyError(f"strategy needs memory dimension {mem} > allowed {d}")
    ctx = _ctx if _ctx is not None else _GameContext(device, n, gamma)
    g = ctx.rewards(strategy)
    lower, upper, f, conv = _discriminate_batch(g, tol, max_iter)
    return ctx.result(lower, upper, f, conv, want_decoders)


def replay_win_probability(device: DeviceModel, strategy: Strategy, n: int,
                           gamma: float, decoders: dict, trials: int,
                           seed: int = 0) -> float:
    """Monte-Carlo replay of a strategy with fixed decoders.

    Samples theta, Alice's outcome, the classical branch and the decoder
    outcome per trial; the empirical win rate should reproduce the exact
    value within sampling error.
    """
    rng = RandomSuite(seed).rng
    radius = math.floor(gamma * n)
    wins = 0
    ctx = _GameContext(device, n, 0.0)
    g = ctx.rewards(strategy)
    for _ in range(trials):
        theta = ctx.thetas[rng.integers(len(ctx.thetas))]
        ens = ctx.ensemble(g, theta)
        x = int(rng.choice(len(ens.q), p=ens.q / ens.q.sum()))
        joint = np.array([max(0.0, float(np.trace(ops[x]).real))
                          for ops in ens.branch_ops])
        m = int(rng.choice(len(joint), p=joint / joint.sum()))
        rho = ens.branch_ops[m][x] / joint[m]
        povm = decoders["".join(str(t) for t in theta)][m]
        probs = np.array([max(0.0, float(np.trace(f @ rho).real)) for f in povm])
        y = int(rng.choice(len(probs), p=probs / probs.sum()))
        wins += int(bin(x ^ y).count("1") <= radius)
    return wins / trials


# ---------------------------------------------------------------------------
# see-saw search over encodings
# ---------------------------------------------------------------------------

def _isometry(a: np.ndarray) -> np.ndarray:
    """Q factors of a matrix or a stack of them, column phases fixed so that
    R has a positive diagonal."""
    q, r = np.linalg.qr(a)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def _haar_isometry(suite: RandomSuite, rows: int, cols: int) -> Array:
    return _isometry(suite.ginibre(rows, cols))


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


def _search_values(ctx: _GameContext, v: np.ndarray, d: int) -> np.ndarray:
    """The see-saw's objective for a stack of isometries ``v``, shape (c, d*M,
    Din), in one solver call: each one's winning probability under the
    solver's search mode (no certificate; on qubit memories the closed form,
    so the value is exact to roundoff)."""
    lower, _, _, _ = _discriminate_batch(ctx.isometry_rewards(v, d), tol=1e-7,
                                         max_iter=80, dual_every=10 ** 9,
                                         refine=False)
    return lower.reshape(len(v), len(ctx.thetas), -1).sum(axis=2).mean(axis=1)


def seesaw_search(device: DeviceModel, n: int, d: int, restarts: int = 4,
                  seed: int = 0, gamma: float = 0.0, iters: int = 60,
                  tol: float = 1e-9) -> tuple[GuessResult, GeneralEncoding]:
    """Alternating search for a strong encoding.

    The decoding step is always optimal (the discrimination solver); the
    encoding step perturbs the instrument's isometry with shrinking random
    steps, accepting improvements. Structured starts (store what fits, the
    intercept measurement) seed the first restarts, Haar isometries the
    rest. The restarts climb in lockstep: at each step every live restart
    draws its perturbation from its own random stream, all candidates are
    scored in one solver call, and each restart applies its own accept,
    shrink and stop rule, so each one follows the path it would follow
    alone. The best value (the first restart among equals) is re-certified
    at full precision and is a valid lower bound on the game optimum for
    this device.
    """
    if restarts < 1:
        raise DomainError(f"restarts must be at least 1, got {restarts}")
    if n > 2 or d > max(2, device.dim_b):
        raise DimensionCapError("see-saw is capped at n <= 2 and qubit-size memories")
    dim_in = device.dim_b ** n
    m_count = dim_in
    ctx = _GameContext(device, n, gamma)
    structured = _structured_isometries(device, n, d, m_count)
    suites = [RandomSuite(child_seed(seed, r)) for r in range(restarts)]
    v = np.stack([structured[r] if r < len(structured)
                  else _haar_isometry(suites[r], d * m_count, dim_in)
                  for r in range(restarts)])
    val = _search_values(ctx, v, d)
    step = np.full(restarts, 0.35)
    stale = np.zeros(restarts, dtype=int)
    live = list(range(restarts))
    for _ in range(iters):
        noise = np.stack([suites[r].ginibre(*v.shape[1:]) for r in live])
        cand = _isometry(v[live] + step[live, None, None] * noise)
        cval = _search_values(ctx, cand, d)
        for r, c, cv in zip(list(live), cand, cval):
            if cv > val[r] + 1e-12:
                v[r], val[r], stale[r] = c, cv, 0
                continue
            stale[r] += 1
            if stale[r] >= 4:
                step[r] *= 0.6
                stale[r] = 0
                if step[r] < 1e-3:
                    live.remove(r)
        if not live:
            break
    enc = GeneralEncoding.from_isometry(v[int(np.argmax(val))], d)
    res = exact_win_probability(device, enc, n, d, gamma, tol=tol, _ctx=ctx)
    return res, enc


# ---------------------------------------------------------------------------
# random device families
# ---------------------------------------------------------------------------

def random_qubit_device(suite: RandomSuite) -> DeviceModel:
    """Haar-random single-round qubit device.

    sigma_AB is the two-qubit marginal of a Haar pure state with a qubit
    purifier; Alice's two binary measurements are Haar-rotated rank-one
    projective pairs. Bob's honest side and the testing observables are the
    BB84 defaults (they do not enter the guessing game).
    """
    psi = suite.pure_state(8).reshape(8, 1)
    sigma = partial_trace(psi @ dagger(psi), [2, 2, 2], [0, 1])
    projs = []
    for _ in range(2):
        u = suite.unitary(2)
        projs.append(u[:, :1] @ dagger(u[:, :1]))
    ideal = ideal_bb84_device()
    return DeviceModel(
        dim_a=2, dim_b=2, sigma_ab=sigma,
        alice_meas_0=BinaryMeasurement.from_projector(projs[0]),
        alice_meas_1=BinaryMeasurement.from_projector(projs[1]),
        bob_meas_0=ideal.bob_meas_0, bob_meas_1=ideal.bob_meas_1,
        test_t0=ideal.test_t0, test_t1=ideal.test_t1)


def random_rotated_ideal_device(suite: RandomSuite, max_noise: float = 0.3) -> DeviceModel:
    """Locally rotated, partially depolarized EPR device; violates CHSH often."""
    ideal = ideal_bb84_device()
    ua = suite.unitary(2)
    noise = float(suite.rng.random() * max_noise)
    rot = np.kron(ua, np.eye(2))
    sigma = rot @ ideal.sigma_ab @ dagger(rot)
    sigma = (1.0 - noise) * sigma + noise * np.eye(4) / 4
    return DeviceModel(
        dim_a=2, dim_b=2, sigma_ab=sigma,
        alice_meas_0=BinaryMeasurement(ua @ ideal.alice_meas_0.p0 @ dagger(ua),
                                       ua @ ideal.alice_meas_0.p1 @ dagger(ua)),
        alice_meas_1=BinaryMeasurement(ua @ ideal.alice_meas_1.p0 @ dagger(ua),
                                       ua @ ideal.alice_meas_1.p1 @ dagger(ua)),
        bob_meas_0=ideal.bob_meas_0, bob_meas_1=ideal.bob_meas_1,
        test_t0=ideal.test_t0, test_t1=ideal.test_t1)


def strategy_family(n: int, d: int, dim_b: int, suite: RandomSuite) -> list[Strategy]:
    """Concrete attacks pitted against the bound in the fuzz campaigns."""
    family: list[Strategy] = [breidbart(n)]
    base_angles = [0.0, math.pi / 4, 3 * math.pi / 8]
    for a in base_angles:
        family.append(MeasureAll(angles=(a,) * n))
    for _ in range(2):
        family.append(MeasureAll(angles=tuple(
            suite.rng.random(n) * (math.pi / 2))))
    if d >= dim_b:
        for k in range(n):
            family.append(StoreSubset(keep=(k,)))
            family.append(StoreSubset(keep=(k,), angles=(0.0,) * (n - 1)))
    if d >= dim_b ** n and n >= 2:
        family.append(StoreSubset(keep=tuple(range(n))))
    return family


# ---------------------------------------------------------------------------
# fuzzed verifiers for the three technical inequalities
# ---------------------------------------------------------------------------

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


def _run_trials(worker, trials: int, threads: int) -> list[dict]:
    """Run independent trial workers, optionally on a thread pool.

    Each worker derives its randomness from its own trial index, so results
    are identical for any thread count; records come back sorted by index.
    A campaign needs at least one trial: with none, the reports' worst slack
    would stay at infinity and ``passed`` would hold vacuously.
    """
    if trials < 1:
        raise DomainError(f"trials must be at least 1, got {trials}")
    if threads <= 1:
        return [worker(t) for t in range(trials)]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, range(trials)))


def verify_key_lemma(trials: int, n: int, d: int, gamma: float = 0.0,
                     seed: int = 0, seesaw_restarts: int = 2,
                     seesaw_iters: int = 30, threads: int = 1) -> VerificationReport:
    """Pit strategy families and see-saw attacks against B'(n, d, eps_+, gamma).

    The certificate uses the device's exact effective anti-commutator, the
    sharpest value the proof supports, so any CHSH-derived zeta >= eps_+
    passes a fortiori. A violation report carries the offending device.
    """
    if n > 2 or d > 2:
        raise DimensionCapError("key-lemma fuzz is capped at n <= 2, d <= 2")

    def work(trial: int) -> dict:
        suite = RandomSuite(child_seed(seed, trial))
        device = random_qubit_device(suite)
        eps = epsilon_plus_direct(device.alice_meas_0, device.alice_meas_1,
                                  device.sigma_a)
        bound = bound_imperfect(n, d, eps, gamma)
        ctx = _GameContext(device, n, gamma)
        best: GuessResult | None = None
        best_kind = ""
        for strat in strategy_family(n, d, device.dim_b, suite):
            if strat.memory_dim(device.dim_b, n) > d:
                continue
            res = exact_win_probability(device, strat, n, d, gamma, _ctx=ctx)
            if best is None or res.win_prob > best.win_prob:
                best, best_kind = res, strat.kind
        # A saturated bound (B' = 1) cannot be challenged by any probability;
        # the see-saw search only adds information below it.
        if bound < 1.0:
            res, _enc = seesaw_search(device, n, d, restarts=seesaw_restarts,
                                      seed=int(suite.rng.integers(2 ** 32)),
                                      gamma=gamma, iters=seesaw_iters)
            if res.win_prob > best.win_prob:
                best, best_kind = res, "seesaw"
        return {"trial": trial, "epsilon_plus": eps, "bound": bound,
                "win_prob": best.win_prob, "strategy": best_kind, "device": device,
                "certified_gap": best.certified_gap, "converged": best.converged}

    records = _run_trials(work, trials, threads)
    max_ratio = 0.0
    worst_slack = math.inf
    violations: list[dict] = []
    for rec in records:
        bound, best_win = rec["bound"], rec["win_prob"]
        max_ratio = max(max_ratio, best_win / bound if bound > 0 else math.inf)
        worst_slack = min(worst_slack, bound + 1e-6 - best_win)
        if best_win > bound + 1e-6:
            violations.append({
                "trial": rec["trial"], "epsilon_plus": rec["epsilon_plus"],
                "bound": bound, "win_prob": best_win,
                "strategy": rec["strategy"], "device": rec["device"].to_obj(),
            })
    return VerificationReport(
        name="key-lemma", trials=trials, passed=not violations,
        max_ratio=max_ratio, worst_slack=worst_slack, violations=violations,
        details={"n": n, "d": d, "gamma": gamma, "seed": seed,
                 "worst_certified_gap": max(r["certified_gap"] for r in records),
                 "converged": all(r["converged"] for r in records)})


def verify_norm_lemma(trials: int, max_dim: int = 16, max_terms: int = 8,
                      seed: int = 0, threads: int = 1) -> VerificationReport:
    """Fuzz ||sum A_i|| <= max_j sum_i ||sqrt(A_i) sqrt(A_j)|| on random PSD sets.

    Also checks the proof's intermediate chain
    ||sum A_i|| = ||K|| <= ||L|| <= sqrt(||L||_1^I ||L||_inf^I) on the same
    instances, with K the block matrix of sqrt(A_i) sqrt(A_j) and L its
    entrywise norm matrix.
    """
    if max_dim > 16 or max_terms > 8:
        raise DimensionCapError("norm-lemma fuzz is capped at dim <= 16, N <= 8")

    def work(trial: int) -> dict:
        suite = RandomSuite(child_seed(seed, trial))
        rng = suite.rng
        dim = int(rng.integers(1, max_dim + 1))
        n_terms = int(rng.integers(1, max_terms + 1))
        mats = [suite.psd(dim, scale=float(rng.random() * 2 + 0.1))
                for _ in range(n_terms)]
        roots = [psd_sqrt(a) for a in mats]
        lhs = operator_norm(sum(mats))
        l_mat = np.array([[operator_norm(ri @ rj) for rj in roots] for ri in roots])
        rhs = float(np.max(l_mat.sum(axis=0)))
        k_block = np.block([[ri @ rj for rj in roots] for ri in roots])
        k_norm = operator_norm(k_block)
        l_norm = operator_norm(l_mat)
        hoelder = math.sqrt(induced_norm(l_mat, 1) * induced_norm(l_mat, math.inf))
        return {"trial": trial, "dim": dim, "terms": n_terms, "lhs": lhs,
                "rhs": rhs, "k_norm": k_norm, "l_norm": l_norm,
                "hoelder": hoelder}

    records = _run_trials(work, trials, threads)
    max_ratio = 0.0
    worst_slack = math.inf
    violations: list[dict] = []
    for rec in records:
        slack = min(rec["rhs"] - rec["lhs"], rec["l_norm"] - rec["k_norm"],
                    rec["hoelder"] - rec["l_norm"])
        worst_slack = min(worst_slack, slack)
        max_ratio = max(max_ratio,
                        rec["lhs"] / rec["rhs"] if rec["rhs"] > 0 else math.inf)
        if slack < -1e-9 or abs(rec["k_norm"] - rec["lhs"]) > 1e-7 * max(1.0, rec["lhs"]):
            violations.append(rec)
    return VerificationReport(
        name="norm-lemma", trials=trials, passed=not violations,
        max_ratio=max_ratio, worst_slack=worst_slack, violations=violations,
        details={"max_dim": max_dim, "max_terms": max_terms, "seed": seed})


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


def verify_overlap_lemma(trials: int, n: int, d: int,
                         seed: int = 0, threads: int = 1) -> VerificationReport:
    """Fuzz the per-block overlap bounds against random angles and POVMs.

    Builds Pi^theta = sum_x P^theta_{x|b} (x) F^theta_x from random block
    angles beta and random Bob POVMs on dimension d, and checks both bound
    forms (the max{cos, sin} product and its (1+eps)/2 rewriting, which are
    equal identically) against ||sqrt(Pi^theta') sqrt(Pi^theta)|| for every
    ordered basis pair.
    """
    if n > 2 or d > 3:
        raise DimensionCapError("overlap fuzz is capped at n <= 2, d <= 3")
    thetas_cache = {m: list(itertools.product((0, 1), repeat=m)) for m in (1, 2)}

    def work(trial: int) -> dict:
        suite = RandomSuite(child_seed(seed, trial))
        rng = suite.rng
        n_use = int(rng.integers(1, n + 1))
        d_use = int(rng.integers(1, d + 1))
        betas = rng.random(n_use) * (math.pi / 2)
        blocks = [_block_measurement(b) for b in betas]
        thetas = thetas_cache[n_use]
        povms = {theta: suite.povm(d_use, 2 ** n_use) for theta in thetas}
        pis = {}
        for theta in thetas:
            pi = np.zeros((2 ** n_use * d_use,) * 2, dtype=complex)
            for xi, x in enumerate(itertools.product((0, 1), repeat=n_use)):
                proj = np.array([[1.0]], dtype=complex)
                for k in range(n_use):
                    proj = np.kron(proj, blocks[k][(theta[k], x[k])])
                pi += np.kron(proj, povms[theta][xi])
            pis[theta] = psd_sqrt(pi)
        pairs = []
        for tp in thetas:
            for t in thetas:
                lhs = operator_norm(pis[tp] @ pis[t])
                w = [a ^ b for a, b in zip(tp, t)]
                prod_max = math.prod(
                    max(math.cos(betas[k]), math.sin(betas[k])) ** w[k]
                    for k in range(n_use))
                eps = [abs(math.cos(2 * betas[k])) for k in range(n_use)]
                prod_eps = math.prod(
                    ((1 + eps[k]) / 2) ** (w[k] / 2) for k in range(n_use))
                rhs1 = min(1.0, math.sqrt(d_use) * prod_max)
                rhs2 = min(1.0, math.sqrt(d_use) * prod_eps)
                pairs.append({"theta_prime": list(tp), "theta": list(t),
                              "lhs": lhs, "rhs_angles": rhs1, "rhs_eps": rhs2})
        return {"trial": trial, "n": n_use, "d": d_use,
                "betas": [float(x) for x in betas], "pairs": pairs}

    records = _run_trials(work, trials, threads)
    max_ratio = 0.0
    worst_slack = math.inf
    violations: list[dict] = []
    for rec in records:
        for pair in rec["pairs"]:
            lhs, rhs1, rhs2 = pair["lhs"], pair["rhs_angles"], pair["rhs_eps"]
            slack = min(rhs1 - lhs, rhs2 - lhs)
            worst_slack = min(worst_slack, slack)
            max_ratio = max(max_ratio, lhs / rhs1 if rhs1 > 0 else math.inf)
            if slack < -1e-9 or abs(rhs1 - rhs2) > 1e-12:
                violations.append({
                    "trial": rec["trial"], "n": rec["n"], "d": rec["d"],
                    "betas": rec["betas"], **pair,
                })
    return VerificationReport(
        name="overlap-lemma", trials=trials, passed=not violations,
        max_ratio=max_ratio, worst_slack=worst_slack, violations=violations,
        details={"n": n, "d": d, "seed": seed})
