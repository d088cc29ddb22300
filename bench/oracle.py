"""Reference computations made apart from the program under test.

The benchmark checks the program's outputs against these: ``B'`` in mpmath
at adaptive precision, closed-form attack values, and the physics of a
device (its effective anti-commutator, CHSH value and single-round intercept
value) computed directly with numpy from the device's matrices. Nothing here
imports the program.
"""

from __future__ import annotations

import math

import numpy as np
from mpmath import mp, mpf

TSIRELSON = 2.0 * math.sqrt(2.0)
BREIDBART_ANGLE = math.pi / 8
BREIDBART_BASE = (2.0 + math.sqrt(2.0)) / 4.0  # cos^2(pi/8)


# -- the bound --------------------------------------------------------------

def zeta_from_s(s: float) -> float:
    """Certificate zeta = S/4 sqrt(8 - S^2), clipped into [0, 1]."""
    return min(1.0, max(0.0, s / 4.0 * math.sqrt(max(0.0, 8.0 - s * s))))


def _entropy(gamma) -> mpf:
    g = mpf(gamma)
    if g == 0 or g == 1:
        return mpf(0)
    return -(g * mp.log(g, 2) + (1 - g) * mp.log(1 - g, 2))


def _perfect(n: int, d: int, zeta: float) -> tuple[mpf, mpf]:
    """(B, main term) of the closed form at the current working precision."""
    z = mpf(zeta)
    if z >= 1:
        return mpf(1), mpf(1)
    ratio = (1 + z) / 2
    q = mp.sqrt(ratio)
    sqrt_d = mp.sqrt(d)
    main = sqrt_d * ((1 + q) / 2) ** n
    t = 0 if d == 1 else min(n, int(mp.floor(mp.log(d) / -mp.log(ratio))))
    head = mpf(0)
    comb = 1
    qk = mpf(1)
    for k in range(t + 1):
        head += comb * (sqrt_d * qk - 1)
        comb = comb * (n - k) // (k + 1)
        qk *= q
    return main - head / mpf(2) ** n, main


def bprime(n: int, d: int, zeta: float, gamma: float = 0.0) -> mpf:
    """Unclamped B'(n, d, zeta, gamma) to about 30 significant digits.

    The closed form subtracts the head of the binomial sum from the main
    term; the precision is raised by the number of digits that subtraction
    cancels.
    """
    dps = 40
    while True:
        with mp.workdps(dps):
            b, main = _perfect(n, d, zeta)
            lost = 0 if b <= 0 else int(mp.log10(main / b))
            if b > 0 and lost <= dps - 32:
                return +(mpf(2) ** (_entropy(gamma) * n) * b)
        dps = max(dps + 40, lost + 60)


def bprime_clamped(n: int, d: int, zeta: float, gamma: float = 0.0) -> float:
    return float(min(mpf(1), bprime(n, d, zeta, gamma)))


def gamma_star(zeta: float) -> float:
    """Root of h(gamma) = -log2((1 + sqrt((1+zeta)/2))/2) in [0, 1/2]."""
    with mp.workdps(40):
        rate = -mp.log((1 + mp.sqrt((1 + mpf(zeta)) / 2)) / 2, 2)
        if rate <= 0:
            return 0.0
        lo, hi = mpf(0), mpf("0.5")
        for _ in range(120):
            mid = (lo + hi) / 2
            if _entropy(mid) < rate:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def gamma_star_float(zeta: float) -> float:
    """Float bisection of the same root, for generating inputs."""
    rate = -math.log2((1.0 + math.sqrt((1.0 + zeta) / 2.0)) / 2.0)
    lo, hi = 0.0, 0.5
    for _ in range(60):
        mid = (lo + hi) / 2.0
        h = -mid * math.log2(mid) - (1 - mid) * math.log2(1 - mid)
        lo, hi = (mid, hi) if h < rate else (lo, mid)
    return lo


def store_intercept_win(n: int, d: int, zeta: float, gamma: float) -> float:
    """Exact win of a concrete attack on a device certified by ``zeta``.

    Device: an EPR pair, Alice measuring Z and the basis at Bloch angle phi
    with cos(phi) = zeta, so eps_+ = zeta. Bob keeps floor(log2 d) rounds in
    memory (guessed without error once theta is announced) and measures the
    rest at the bisecting angle, right with probability (1 + q)/2 each,
    q = sqrt((1+zeta)/2). The game is won with at most floor(gamma n) errors.
    """
    kept = min(n, int(math.floor(math.log2(d) + 1e-12)))
    m = n - kept
    radius = math.floor(gamma * n)
    p_ok = (1.0 + math.sqrt((1.0 + zeta) / 2.0)) / 2.0
    e = np.arange(0, min(radius, m) + 1)
    log_terms = (np.array([math.lgamma(m + 1) - math.lgamma(k + 1) - math.lgamma(m - k + 1)
                           for k in e])
                 + e * math.log1p(-p_ok) + (m - e) * math.log(p_ok))
    top = float(log_terms.max())
    return math.exp(top) * float(np.exp(log_terms - top).sum())


# -- devices ----------------------------------------------------------------

def _herm_abs(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    return (v * np.abs(w)) @ v.conj().T


def reduced_a(sigma_ab: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    return np.einsum("ijkj->ik", sigma_ab.reshape(dim_a, dim_b, dim_a, dim_b))


def eps_plus(p0_b0: np.ndarray, p0_b1: np.ndarray, sigma_a: np.ndarray) -> float:
    """tr(|{A0, A1}| sigma_A)/2 with A_b = 2 P_b - I."""
    eye = np.eye(p0_b0.shape[0])
    a0, a1 = 2 * p0_b0 - eye, 2 * p0_b1 - eye
    return 0.5 * float(np.trace(_herm_abs(a0 @ a1 + a1 @ a0) @ sigma_a).real)


def intercept_single_round(sigma_ab: np.ndarray, p0_b0: np.ndarray,
                           p0_b1: np.ndarray, angle: float) -> float:
    """Win probability of measuring Bob's qubit at ``angle``, one round.

    Bob keeps only his outcome m; once theta is announced he outputs the x
    that maximises p(x, m | theta). Basis bras are (cos, sin), (-sin, cos).
    """
    c, s = math.cos(angle), math.sin(angle)
    bras = [np.array([[c, s]]), np.array([[-s, c]])]
    eye = np.eye(2)
    total = 0.0
    for p0 in (p0_b0, p0_b1):
        for bra in bras:
            bob = bra.conj().T @ bra
            joint = [float(np.trace(np.kron(px, bob) @ sigma_ab).real)
                     for px in (p0, eye - p0)]
            total += max(joint)
    return total / 2.0


def chsh_value(sigma_ab: np.ndarray, p0_b0: np.ndarray, p0_b1: np.ndarray,
               t0: np.ndarray, t1: np.ndarray) -> float:
    eye = np.eye(p0_b0.shape[0])
    a0, a1 = 2 * p0_b0 - eye, 2 * p0_b1 - eye
    corr = lambda a, t: float(np.trace(np.kron(a, t) @ sigma_ab).real)
    return corr(a0, t0) + corr(a0, t1) + corr(a1, t0) - corr(a1, t1)


def haar_isometry(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    g = (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / math.sqrt(2)
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _mat_obj(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]),
            "data": [[float(z.real), float(z.imag)] for z in m.reshape(-1)]}


_Z0 = np.diag([1.0, 0.0]).astype(complex)
_PLUS = np.full((2, 2), 0.5, dtype=complex)
_SZ = np.diag([1.0, -1.0]).astype(complex)
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_EPR = np.zeros((4, 4), dtype=complex)
_EPR[np.ix_([0, 3], [0, 3])] = 0.5


class Device:
    """A qubit device as matrices plus its JSON object for the program."""

    def __init__(self, sigma_ab, p0_b0, p0_b1):
        self.sigma_ab = np.asarray(sigma_ab, dtype=complex)
        self.p0_b0 = np.asarray(p0_b0, dtype=complex)
        self.p0_b1 = np.asarray(p0_b1, dtype=complex)
        self.t0 = (_SZ + _SX) / math.sqrt(2.0)
        self.t1 = (_SZ - _SX) / math.sqrt(2.0)

    @property
    def sigma_a(self):
        return reduced_a(self.sigma_ab, 2, 2)

    @property
    def eps_plus(self) -> float:
        return eps_plus(self.p0_b0, self.p0_b1, self.sigma_a)

    @property
    def chsh(self) -> float:
        return chsh_value(self.sigma_ab, self.p0_b0, self.p0_b1, self.t0, self.t1)

    def intercept(self, angle: float) -> float:
        return intercept_single_round(self.sigma_ab, self.p0_b0, self.p0_b1, angle)

    def to_obj(self) -> dict:
        return {"dim_a": 2, "dim_b": 2, "sigma_ab": _mat_obj(self.sigma_ab),
                "alice_p0_b0": _mat_obj(self.p0_b0),
                "alice_p0_b1": _mat_obj(self.p0_b1),
                "bob_p0_b0": _mat_obj(_Z0), "bob_p0_b1": _mat_obj(_PLUS),
                "t0": _mat_obj(self.t0), "t1": _mat_obj(self.t1),
                "noise_q": 0.0}


def ideal_device() -> Device:
    return Device(_EPR, _Z0, _PLUS)


def rotated_device(rng: np.random.Generator, noise: float) -> Device:
    """EPR + BB84 rotated on Alice's side, then depolarised by ``noise``."""
    u = haar_isometry(rng, 2, 2)
    rot = np.kron(u, np.eye(2))
    sigma = (1.0 - noise) * (rot @ _EPR @ rot.conj().T) + noise * np.eye(4) / 4
    return Device(sigma, u @ _Z0 @ u.conj().T, u @ _PLUS @ u.conj().T)


def random_device(rng: np.random.Generator) -> Device:
    """Two-qubit marginal of a Haar pure state on three qubits, with Alice's
    two binary measurements Haar-rotated rank-one projectors."""
    psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi /= np.linalg.norm(psi)
    full = np.outer(psi, psi.conj()).reshape(4, 2, 4, 2)
    sigma = np.einsum("iaja->ij", full)
    projs = []
    for _ in range(2):
        col = haar_isometry(rng, 2, 2)[:, :1]
        projs.append(col @ col.conj().T)
    return Device(sigma, projs[0], projs[1])
