"""Finite-dimensional complex operator algebra.

Dense complex matrices (numpy arrays) with the handful of primitives the rest
of the package is built on: tensor products with a dimension cap, partial
traces, a Hermitian eigensolver as the single numerical kernel, matrix square
root / absolute value, operator and induced norms, structural validators for
density operators / binary observables / POVMs, a JSON wire encoding, and a
seeded random ensemble suite for the fuzz tests. It is the package's one
linear-algebra kernel: no other module forms a conjugate transpose, a
Hermitian part, a Kronecker product or a Haar isometry by hand.

Conventions
-----------
- Matrices are ``numpy.ndarray`` with ``dtype=complex128``, row-major.
- ``dagger``, ``eig_hermitian``, ``is_hermitian``, ``psd_sqrt``,
  ``operator_norm`` and ``induced_norm`` take one matrix or a stack of them,
  shape ``(..., rows, cols)``; on a stack they give per matrix the bytes of
  the 2-D call, and their checks hold for every matrix of it. A norm is a
  float for one matrix and an array of shape ``(...)`` for a stack.
- The operator norm is computed from the eigenvalues of ``M^dagger M``.
- Eigenvalues of nearly-PSD operators in ``[-_PSD_CLAMP, 0)`` are clamped to 0.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import ArityError, DimensionCapError, DomainError, ShapeError

Array = np.ndarray

# Dense tensor products refuse to grow past this dimension.
DIMENSION_CAP = 4096
# Max entry deviation allowed by Hermiticity and identity checks.
_EQ_TOL = 1e-9
# Hermiticity, PSD floor and trace slack of density operators; PSD floor of
# POVM elements.
_STATE_TOL = 1e-10
# Eigenvalues in [-_PSD_CLAMP, 0) are roundoff and clamp to 0.
_PSD_CLAMP = 1e-10

__all__ = [
    "as_matrix",
    "tensor_product",
    "partial_trace",
    "operator_norm",
    "trace_norm",
    "induced_norm",
    "psd_sqrt",
    "matrix_abs",
    "eig_hermitian",
    "dagger",
    "is_hermitian",
    "check_density_operator",
    "check_binary_observable",
    "check_projector",
    "check_povm",
    "matrix_to_obj",
    "matrix_from_obj",
    "RandomSuite",
    "child_seed",
]


def _as_stack(m: object) -> Array:
    """Coerce to a finite complex matrix or stack of them; reject NaN/Inf."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2:
        raise ShapeError(f"expected a matrix or a stack of them, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise DomainError("matrix contains non-finite entries")
    return a


def as_matrix(m: object) -> Array:
    """Coerce to a finite 2-D complex array; reject NaN/Inf entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={a.ndim}")
    return _as_stack(a)


def _per_matrix(values: Array, ndim: int) -> float | Array:
    """A float for one matrix (``ndim`` 2), else the array over the stack."""
    return float(values) if ndim == 2 else values


def dagger(m: Array) -> Array:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return np.asarray(m).conj().swapaxes(-1, -2)


def _herm(m: Array) -> Array:
    """Hermitian part (M + M^dagger) / 2 of a matrix or a stack, unchecked."""
    return (m + dagger(m)) / 2


def _kron(a: Array, b: Array) -> Array:
    """``np.kron`` of each pair of matrices of two broadcast stacks, the same
    products in the same order, so bit for bit; unchecked, and in the input
    dtypes."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    s = out.shape
    return out.reshape(s[:-4] + (s[-4] * s[-3], s[-2] * s[-1]))


def _isometry(a: Array) -> Array:
    """Q factor of the QR decomposition of a matrix or of each matrix of a
    stack, its column phases fixed so that R has a positive diagonal: Haar
    distributed for a Ginibre input."""
    q, r = np.linalg.qr(a)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def tensor_product(a: Array, b: Array, max_dim: int = DIMENSION_CAP) -> Array:
    """Kronecker product with a hard cap on the output dimension."""
    a = as_matrix(a)
    b = as_matrix(b)
    rows = a.shape[0] * b.shape[0]
    cols = a.shape[1] * b.shape[1]
    if max(rows, cols) > max_dim:
        raise DimensionCapError(
            f"tensor product would be {rows}x{cols}, above the cap {max_dim}"
        )
    return _kron(a, b)


def partial_trace(rho: Array, dims: Sequence[int], keep: Iterable[int]) -> Array:
    """Trace out all tensor factors not in ``keep``.

    ``dims`` lists the local dimensions in tensor order; their product must
    equal the dimension of ``rho``. The result acts on the kept factors in
    their original order, and has the same trace as the input.
    """
    rho = as_matrix(rho)
    dims = [int(d) for d in dims]
    if any(d < 1 for d in dims):
        raise DomainError("local dimensions must be positive")
    total = math.prod(dims)
    if rho.shape != (total, total):
        raise ShapeError(f"state is {rho.shape}, dims {dims} give {total}")
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ShapeError(f"keep indices {keep} out of range for {len(dims)} factors")
    return _partial_trace(rho, dims, keep)


def _partial_trace(rho: Array, dims: list[int], keep: list[int]) -> Array:
    """``partial_trace`` unchecked: ``rho`` is a square array of dimension
    prod(dims), and ``keep`` lists distinct factor indices in ascending
    order."""
    n = len(dims)
    t = rho.reshape(dims + dims)
    # Trace out factors from the highest index down so positions stay valid.
    removed = 0
    for idx in sorted(set(range(n)) - set(keep), reverse=True):
        cur_n = n - removed
        t = np.trace(t, axis1=idx, axis2=idx + cur_n)
        removed += 1
    kept_dim = math.prod(dims[k] for k in keep) if keep else 1
    return t.reshape(kept_dim, kept_dim)


def eig_hermitian(m: Array) -> tuple[Array, Array]:
    """Eigendecomposition of a Hermitian matrix or of each matrix of a stack.

    Returns ``(w, v)`` with eigenvalues ascending and orthonormal eigenvector
    columns, so ``m = v @ diag(w) @ v^dagger``. Raises ``DomainError`` if any
    input matrix is not Hermitian within ``_EQ_TOL`` (max entry deviation).
    """
    m = _as_stack(m)
    if m.shape[-2] != m.shape[-1]:
        raise ShapeError("eig_hermitian needs a square matrix")
    if not is_hermitian(m):
        raise DomainError("matrix is not Hermitian within tolerance")
    return np.linalg.eigh(_herm(m))


def is_hermitian(m: Array, tol: float = _EQ_TOL) -> bool:
    """Whether a square matrix, or every matrix of a stack, is Hermitian
    within ``tol`` (max entry deviation)."""
    m = np.asarray(m)
    return m.shape[-2] == m.shape[-1] and np.max(np.abs(m - dagger(m))) <= tol


def operator_norm(m: Array) -> float | Array:
    """Largest singular value, computed from the eigenvalues of M^dagger M."""
    m = _as_stack(m)
    if m.shape[-1] == 0:
        return _per_matrix(np.zeros(m.shape[:-2]), m.ndim)
    w = np.linalg.eigvalsh(_herm(dagger(m) @ m))[..., -1]
    return _per_matrix(np.sqrt(np.where(w > 0.0, w, 0.0)), m.ndim)


def trace_norm(m: Array) -> float:
    """Schatten 1-norm; for Hermitian input the sum of |eigenvalues|."""
    m = as_matrix(m)
    if is_hermitian(m):
        return float(np.sum(np.abs(np.linalg.eigvalsh(_herm(m)))))
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def induced_norm(m: Array, p: float) -> float | Array:
    """Induced vector-p norm for p=1 (max column sum) or p=inf (max row sum)."""
    a = np.abs(_as_stack(m))
    if p not in (1, math.inf):
        raise DomainError("induced_norm supports p=1 and p=inf only")
    if 0 in a.shape[-2:]:
        return _per_matrix(np.zeros(a.shape[:-2]), a.ndim)
    return _per_matrix(a.sum(axis=-2 if p == 1 else -1).max(axis=-1), a.ndim)


def psd_sqrt(m: Array) -> Array:
    """Principal square root of a PSD matrix or of each matrix of a stack.

    Eigenvalues in ``[-_PSD_CLAMP, 0)`` are treated as roundoff and clamped
    to zero; anything more negative, in any matrix, raises ``DomainError``.
    """
    w, v = eig_hermitian(m)
    low = w[..., 0].min()
    if low < -_PSD_CLAMP:
        raise DomainError(f"matrix is not PSD: min eigenvalue {low:.3e}")
    return (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ dagger(v)


def matrix_abs(m: Array) -> Array:
    """|M| = sqrt(M^dagger M); for Hermitian input via eigenvalue absolute values."""
    m = as_matrix(m)
    if is_hermitian(m):
        w, v = np.linalg.eigh(_herm(m))
        return (v * np.abs(w)) @ dagger(v)
    w, v = np.linalg.eigh(_herm(dagger(m) @ m))
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ dagger(v)


# ---------------------------------------------------------------------------
# structural validators
# ---------------------------------------------------------------------------

def check_density_operator(rho: Array) -> Array:
    """Validate Hermiticity, positivity and unit trace; returns the matrix."""
    rho = as_matrix(rho)
    if rho.shape[0] != rho.shape[1]:
        raise ShapeError("density operator must be square")
    if not is_hermitian(rho, _STATE_TOL):
        raise DomainError("density operator is not Hermitian within tolerance")
    w = np.linalg.eigvalsh(_herm(rho))
    if w[0] < -_STATE_TOL:
        raise DomainError(f"density operator has eigenvalue {w[0]:.3e} < 0")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > _STATE_TOL:
        raise DomainError(f"density operator has trace {tr!r} != 1")
    return rho


def check_binary_observable(m: Array) -> Array:
    """Validate a Hermitian matrix squaring to the identity (eigenvalues +-1)."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ShapeError("observable must be square")
    if not is_hermitian(m):
        raise DomainError("observable is not Hermitian within tolerance")
    d = m.shape[0]
    if np.max(np.abs(m @ m - np.eye(d))) > _EQ_TOL:
        raise DomainError("observable does not square to the identity")
    return m


def check_projector(p: Array) -> Array:
    p = as_matrix(p)
    if not is_hermitian(p) or np.max(np.abs(p @ p - p)) > _EQ_TOL:
        raise DomainError("matrix is not an orthogonal projector within tolerance")
    return p


def check_povm(elements: Sequence[Array]) -> list[Array]:
    """Validate PSD elements of matching size summing to the identity."""
    if not elements:
        raise ArityError("POVM needs at least one element")
    mats = [as_matrix(e) for e in elements]
    d = mats[0].shape[0]
    for e in mats:
        if e.shape != (d, d):
            raise ShapeError("POVM elements must share one square dimension")
        if not is_hermitian(e):
            raise DomainError("POVM element is not Hermitian")
        w = np.linalg.eigvalsh(_herm(e))
        if w[0] < -_STATE_TOL:
            raise DomainError(f"POVM element has eigenvalue {w[0]:.3e} < 0")
    total = sum(mats)
    if np.max(np.abs(total - np.eye(d))) > _EQ_TOL:
        raise DomainError("POVM elements do not sum to the identity")
    return mats


# ---------------------------------------------------------------------------
# JSON wire format: {"rows": R, "cols": C, "data": [[re, im], ...]} row-major
# ---------------------------------------------------------------------------

def matrix_to_obj(m: Array) -> dict:
    m = as_matrix(m)
    data = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def matrix_from_obj(obj: dict) -> Array:
    try:
        rows, cols, data = int(obj["rows"]), int(obj["cols"]), obj["data"]
        if rows < 1 or cols < 1:
            raise ShapeError("matrix dimensions must be positive")
        if not isinstance(data, list):
            raise ShapeError("matrix data must be a list of [re, im] pairs")
        if len(data) != rows * cols:
            raise ShapeError(f"expected {rows * cols} entries, got {len(data)}")
        flat = np.array([complex(re, im) for re, im in data], dtype=complex)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ShapeError(f"malformed matrix object: {exc}") from exc
    return as_matrix(flat.reshape(rows, cols))


# ---------------------------------------------------------------------------
# seeded random ensembles
# ---------------------------------------------------------------------------

def child_seed(master: int, counter: int) -> np.random.SeedSequence:
    """Counter-derived child seed, independent of scheduling order."""
    return np.random.SeedSequence(entropy=master, spawn_key=(counter,))


class RandomSuite:
    """Deterministic generators for Haar unitaries, states, POVMs, projectors.

    All draws come from one PCG64 stream fixed by ``seed``, so a fixed seed
    reproduces identical output across runs. ``child(counter)`` derives an
    independent suite for parallel workloads.
    """

    def __init__(self, seed: int | np.random.SeedSequence = 0):
        if isinstance(seed, np.random.SeedSequence):
            self._seq = seed
        else:
            self._seq = np.random.SeedSequence(entropy=int(seed))
        self.rng = np.random.Generator(np.random.PCG64(self._seq))

    @property
    def seed_sequence(self) -> np.random.SeedSequence:
        return self._seq

    def child(self, counter: int) -> "RandomSuite":
        return RandomSuite(np.random.SeedSequence(
            entropy=self._seq.entropy, spawn_key=self._seq.spawn_key + (int(counter),)))

    def ginibre(self, rows: int, cols: int) -> Array:
        re = self.rng.standard_normal((rows, cols))
        im = self.rng.standard_normal((rows, cols))
        return (re + 1j * im) / math.sqrt(2.0)

    def unitary(self, dim: int) -> Array:
        """Haar-random unitary via QR of a Ginibre matrix with phase fixing."""
        return _isometry(self.ginibre(dim, dim))

    def pure_state(self, dim: int) -> Array:
        v = self.ginibre(dim, 1)[:, 0]
        return v / np.linalg.norm(v)

    def density_operator(self, dim: int) -> Array:
        g = self.ginibre(dim, dim)
        rho = g @ dagger(g)
        return rho / np.trace(rho).real

    def psd(self, dim: int, scale: float = 1.0) -> Array:
        g = self.ginibre(dim, dim)
        return scale * (g @ dagger(g)) / dim

    def projector(self, dim: int, rank: int) -> Array:
        if not 0 <= rank <= dim:
            raise DomainError(f"rank {rank} out of range for dimension {dim}")
        if rank == 0:
            return np.zeros((dim, dim), dtype=complex)
        u = self.unitary(dim)[:, :rank]
        return u @ dagger(u)

    def povm(self, dim: int, n_elements: int) -> list[Array]:
        """Random POVM: normalized Wishart pieces S^{-1/2} G_i G_i^dagger S^{-1/2}."""
        if n_elements < 1:
            raise ArityError("POVM needs at least one element")
        gs = [self.ginibre(dim, dim) for _ in range(n_elements)]
        ws = [g @ dagger(g) for g in gs]
        total = sum(ws)
        w, v = np.linalg.eigh(_herm(total))
        if w[0] <= 0:
            raise DomainError("degenerate draw while normalizing a random POVM")
        inv_sqrt = (v / np.sqrt(w)) @ dagger(v)
        return [inv_sqrt @ wi @ inv_sqrt for wi in ws]

    def observable(self, dim: int) -> Array:
        """Random binary observable U diag(+-1) U^dagger with a random split."""
        signs = np.where(self.rng.random(dim) < 0.5, 1.0, -1.0)
        if np.all(signs == signs[0]) and dim > 1:
            signs[0] = -signs[0]
        u = self.unitary(dim)
        return (u * signs) @ dagger(u)
