"""Simultaneous block decomposition of two projective binary measurements.

Any two orthogonal projectors decompose the space into invariant blocks of
dimension one or two (Jordan's lemma / Halmos' two-subspace theorem). Each
block carries an angle ``beta`` in [0, pi/2]; the effective absolute
anti-commutator of the measurement pair on a state then has two independent
routes:

- direct:  eps_+ = tr(|{A0, A1}| sigma) / 2  with  A_t = p0_t - p1_t,
- blocks:  eps_+ = sum_j p_j * |cos(2*beta_j)|  with  p_j = tr(S_j sigma).

The two routes agreeing is the module's main cross-check.

Construction: the four trivial intersections (range/kernel of the first
projector against range/kernel of the second) become one-dimensional blocks
with beta in {0, pi/2}; on the generic part the compression of the second
projector to the range of the first is diagonalized, eigenvalues c in
(delta, 1-delta) giving cos^2(beta) = c. Basis phases are fixed so that both
block overlaps <0^0|0^1> = cos(beta) and <1^0|0^1> = sin(beta) are real and
nonnegative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArityError, DomainError, ShapeError
from .matcore import (
    Array,
    _EQ_TOL,
    _herm,
    as_matrix,
    check_density_operator,
    check_povm,
    check_projector,
    dagger,
    psd_sqrt,
    tensor_product,
)

__all__ = [
    "BinaryMeasurement",
    "JordanBlock",
    "JordanDecomposition",
    "decompose_pair",
    "block_probabilities",
    "epsilon_plus_direct",
    "epsilon_plus_blocks",
    "naimark_dilate",
]

# Compressed-projector eigenvalues within this of 0 or 1 form 1-dim blocks.
_ANGLE_CLASS = 1e-8
# Max entry error of the blocks' reconstruction of the input projectors.
_BLOCK_RECON = 1e-8


@dataclass(frozen=True)
class BinaryMeasurement:
    """A projective binary measurement {p0, p1} with p0 + p1 = identity."""

    p0: Array
    p1: Array

    def __post_init__(self):
        p0 = as_matrix(self.p0)
        p1 = as_matrix(self.p1)
        if p0.shape != p1.shape or p0.shape[0] != p0.shape[1]:
            raise ShapeError("measurement elements must be square and congruent")
        check_projector(p0)
        check_projector(p1)
        if np.max(np.abs(p0 + p1 - np.eye(p0.shape[0]))) > _EQ_TOL:
            raise DomainError("binary measurement elements must sum to the identity")
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "p1", p1)

    @property
    def dim(self) -> int:
        return self.p0.shape[0]

    @property
    def observable(self) -> Array:
        return self.p0 - self.p1

    @staticmethod
    def from_projector(p0: Array) -> "BinaryMeasurement":
        p0 = as_matrix(p0)
        return BinaryMeasurement(p0, np.eye(p0.shape[0]) - p0)


@dataclass(frozen=True)
class JordanBlock:
    """One invariant block of a projector pair.

    ``basis_vectors`` holds one or two orthonormal columns of the ambient
    space. For two-dimensional blocks they are (|0^0>, |1^0>), the eigenbasis
    of the first projector restricted to the block. For one-dimensional
    blocks the single column plays the role of |0^0> when ``rank_p0`` is 1
    (vector in the range of p0) and of |1^0> when it is 0; ``angle_beta``
    is then 0 or pi/2 and together with ``rank_p0`` pins down which of the
    four trivial intersection classes the block is.
    """

    index: int
    block_dim: int
    angle_beta: float
    basis_vectors: Array
    rank_p0: int = 1

    @property
    def epsilon(self) -> float:
        """Block anti-commutator magnitude |cos(2 beta)|."""
        return abs(math.cos(2.0 * self.angle_beta))

    @property
    def subspace_projector(self) -> Array:
        v = self.basis_vectors
        return v @ dagger(v)

    def projector_p0(self) -> Array:
        """Contribution of this block to the first measurement's 0-outcome."""
        if self.block_dim == 2 or self.rank_p0 == 1:
            v = self.basis_vectors[:, 0:1]
            return v @ dagger(v)
        return np.zeros((self.basis_vectors.shape[0],) * 2, dtype=complex)

    def projector_p1(self) -> Array:
        """Contribution of this block to the second measurement's 0-outcome.

        Built from the angle formula |0^1> = cos(beta)|0^0> + sin(beta)|1^0>,
        with the null vector standing in for the missing basis column of
        one-dimensional blocks.
        """
        d = self.basis_vectors.shape[0]
        c, s = math.cos(self.angle_beta), math.sin(self.angle_beta)
        if self.block_dim == 2:
            vec = c * self.basis_vectors[:, 0] + s * self.basis_vectors[:, 1]
        elif self.rank_p0 == 1:
            vec = c * self.basis_vectors[:, 0]
        else:
            vec = s * self.basis_vectors[:, 0]
        return np.outer(vec, vec.conj())


@dataclass(frozen=True)
class JordanDecomposition:
    blocks: list[JordanBlock] = field(default_factory=list)
    total_dim: int = 0

    def __post_init__(self):
        if sum(b.block_dim for b in self.blocks) != self.total_dim:
            raise ShapeError("block dimensions must sum to the total dimension")

    def reconstruct_p0(self) -> Array:
        out = np.zeros((self.total_dim, self.total_dim), dtype=complex)
        for b in self.blocks:
            out += b.projector_p0()
        return out

    def reconstruct_p1(self) -> Array:
        out = np.zeros((self.total_dim, self.total_dim), dtype=complex)
        for b in self.blocks:
            out += b.projector_p1()
        return out

    def angles(self) -> list[float]:
        return [b.angle_beta for b in self.blocks]


def _orthonormal_columns(vectors: list[Array], dim: int) -> Array:
    if not vectors:
        return np.zeros((dim, 0), dtype=complex)
    return np.column_stack(vectors)


def decompose_pair(m0: BinaryMeasurement, m1: BinaryMeasurement) -> JordanDecomposition:
    """Simultaneous block decomposition of two projective measurements.

    Eigenvalues of the compressed projector within ``_ANGLE_CLASS`` of 0
    or 1 are folded into one-dimensional blocks; everything in between forms
    a two-dimensional block with cos^2(beta) equal to the eigenvalue.
    """
    if m0.dim != m1.dim:
        raise ShapeError(f"measurements act on different dimensions {m0.dim} != {m1.dim}")
    p = m0.p0
    q = m1.p0
    dim = m0.dim
    delta = _ANGLE_CLASS

    blocks: list[JordanBlock] = []

    # Basis of ran(p) from its eigendecomposition.
    w, v = np.linalg.eigh(_herm(p))
    if np.any((w > delta) & (w < 1 - delta)):
        raise DomainError("first input is not projective within tolerance")
    ran_p = v[:, w > 0.5]

    # Compress q to ran(p): eigenvalues are cos^2(beta) of the blocks meeting ran(p).
    generic_one: list[Array] = []   # |0^0> columns of 2-dim blocks
    generic_two: list[Array] = []   # matching |1^0> columns
    if ran_p.shape[1] > 0:
        comp = dagger(ran_p) @ q @ ran_p
        cw, cv = np.linalg.eigh(_herm(comp))
        for c, col in zip(cw, (ran_p @ cv).T):
            c = float(min(1.0, max(0.0, c)))
            vec = col / np.linalg.norm(col)
            if c >= 1.0 - delta:
                blocks.append(JordanBlock(len(blocks), 1, 0.0,
                                          vec.reshape(dim, 1), rank_p0=1))
            elif c <= delta:
                blocks.append(JordanBlock(len(blocks), 1, math.pi / 2,
                                          vec.reshape(dim, 1), rank_p0=1))
            else:
                beta = math.acos(math.sqrt(c))
                qv = q @ vec
                zero_one = qv / np.linalg.norm(qv)      # |0^1>, overlap cos(beta) >= 0
                one_zero = (zero_one - math.cos(beta) * vec) / math.sin(beta)
                one_zero = one_zero / np.linalg.norm(one_zero)
                basis = np.column_stack([vec, one_zero])
                blocks.append(JordanBlock(len(blocks), 2, beta, basis, rank_p0=1))
                generic_one.append(vec)
                generic_two.append(one_zero)

    # Remainder of ker(p) after removing the |1^0> legs of the generic blocks.
    used = _orthonormal_columns(
        [b.basis_vectors[:, j] for b in blocks for j in range(b.block_dim)], dim)
    rem_proj = np.eye(dim) - used @ dagger(used)
    rw, rv = np.linalg.eigh(_herm(rem_proj))
    rem = rv[:, rw > 0.5]
    if rem.shape[1] > 0:
        comp = dagger(rem) @ q @ rem
        cw, cv = np.linalg.eigh(_herm(comp))
        for c, col in zip(cw, (rem @ cv).T):
            vec = col / np.linalg.norm(col)
            # Mathematically c must be 0 or 1 here; classify by the nearest.
            if c >= 0.5:
                blocks.append(JordanBlock(len(blocks), 1, math.pi / 2,
                                          vec.reshape(dim, 1), rank_p0=0))
            else:
                blocks.append(JordanBlock(len(blocks), 1, 0.0,
                                          vec.reshape(dim, 1), rank_p0=0))

    dec = JordanDecomposition(blocks, dim)
    err0 = np.max(np.abs(dec.reconstruct_p0() - p)) if blocks else 0.0
    err1 = np.max(np.abs(dec.reconstruct_p1() - q)) if blocks else 0.0
    if max(err0, err1) > _BLOCK_RECON:
        raise DomainError(
            f"decomposition failed to reconstruct inputs (errors {err0:.2e}, {err1:.2e});"
            " inputs are likely not projective within tolerance")
    return dec


def block_probabilities(dec: JordanDecomposition, sigma: Array) -> np.ndarray:
    """Probabilities p_j = tr(S_j sigma) of the state landing in each block."""
    sigma = check_density_operator(sigma)
    if sigma.shape[0] != dec.total_dim:
        raise ShapeError("state dimension does not match the decomposition")
    probs = np.array([float(np.trace(b.subspace_projector @ sigma).real)
                      for b in dec.blocks])
    if np.any(probs < -1e-12):
        raise DomainError(f"negative block probability {probs.min():.3e}")
    return np.clip(probs, 0.0, None)


def _epsilon_plus(a0: Array, a1: Array, sigma: Array) -> float:
    """eps_+ = tr(|{A0, A1}| sigma) / 2 for Hermitian observables and a
    density operator of their dimension, unchecked; |.| is taken of the
    Hermitian part, as ``matrix_abs`` takes it of a Hermitian matrix."""
    w, v = np.linalg.eigh(_herm(a0 @ a1 + a1 @ a0))
    val = 0.5 * float(np.trace((v * np.abs(w)) @ dagger(v) @ sigma).real)
    if not -1e-9 <= val <= 1.0 + 1e-9:
        raise DomainError(f"effective anti-commutator {val!r} outside [0, 1]")
    return min(1.0, max(0.0, val))


def epsilon_plus_direct(m0: BinaryMeasurement, m1: BinaryMeasurement,
                        sigma: Array) -> float:
    """eps_+ = tr(|{A0, A1}| sigma) / 2 evaluated from the definition."""
    if m0.dim != m1.dim:
        raise ShapeError("measurements act on different dimensions")
    sigma = check_density_operator(sigma)
    if sigma.shape[0] != m0.dim:
        raise ShapeError("state dimension does not match the measurements")
    return _epsilon_plus(m0.observable, m1.observable, sigma)


def epsilon_plus_blocks(dec: JordanDecomposition, sigma: Array) -> float:
    """eps_+ = sum_j p_j |cos(2 beta_j)| from the block data."""
    probs = block_probabilities(dec, sigma)
    val = float(sum(p * b.epsilon for p, b in zip(probs, dec.blocks)))
    return min(1.0, max(0.0, val))


def naimark_dilate(povm: list[Array] | tuple[Array, Array]
                   ) -> tuple[BinaryMeasurement, Array]:
    """Dilate a 2-element POVM to a projective pair on the doubled space.

    Returns ``(measurement, isometry)`` where the isometry V maps the
    original space into dim x 2 and ``tr(E_i rho) = tr(P_i V rho V^dagger)``
    for all states.
    """
    if len(povm) != 2:
        raise ArityError(f"naimark_dilate needs exactly 2 POVM elements, got {len(povm)}")
    e0, e1 = check_povm(povm)
    d = e0.shape[0]
    ket0 = np.array([[1.0], [0.0]])
    ket1 = np.array([[0.0], [1.0]])
    v = tensor_product(psd_sqrt(e0), ket0) + tensor_product(psd_sqrt(e1), ket1)
    p0 = tensor_product(np.eye(d), np.diag([1.0, 0.0]))
    p1 = tensor_product(np.eye(d), np.diag([0.0, 1.0]))
    return BinaryMeasurement(p0, p1), v
