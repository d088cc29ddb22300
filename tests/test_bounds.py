"""Tests for the closed-form security bounds."""

import collections
import functools
import hashlib
import math
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest

import di2pc
from di2pc import bounds
from di2pc.bounds import (
    INSECURE,
    binary_entropy,
    bound_imperfect,
    bound_imperfect_log2,
    bound_perfect,
    bound_perfect_raw,
    bound_perfect_sumform,
    bound_perfect_sumform_log2,
    bound_report,
    decay_condition,
    gamma_star,
    hamming_ball,
    min_rounds,
    security_region,
    threshold,
)
from di2pc.chsh import TSIRELSON, zeta_from_violation
from di2pc.errors import CapExceededError, DomainError

COS2_PI8 = math.cos(math.pi / 8) ** 2          # 0.8535533905932737
RATE0 = -math.log2(COS2_PI8)                   # 0.22844669683638807
ZETA_25 = 0.8267972847076845                   # zeta(2.5)
# Root of h(gamma) = RATE0, frozen from a 50-digit mpmath bisection.
GAMMA_STAR_TSIRELSON = 0.037017583652391484


def test_threshold_examples():
    assert threshold(1, 0.3) == 0
    assert threshold(2, 0.0) == 1
    assert threshold(4, ZETA_25) == 15


def test_threshold_degenerate_zeta_one():
    assert threshold(1, 1.0) == 0
    assert threshold(2, 1.0) >= 10 ** 18  # effectively infinite; clipped to n


def test_bound_perfect_unit_memory():
    assert bound_perfect(1, 1, 0.0) == pytest.approx(COS2_PI8, abs=1e-12)


def test_bound_perfect_qubit_memory_saturates():
    assert bound_perfect(1, 2, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_bound_perfect_trivial_at_zeta_one():
    for n, d in ((1, 1), (5, 2), (50, 16)):
        assert bound_perfect(n, d, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_bound_perfect_large_n_value():
    # sqrt(2) * cos^2(pi/8)^100 minus a negligible correction
    val = bound_perfect(100, 2, 0.0)
    assert val == pytest.approx(math.sqrt(2.0) * COS2_PI8 ** 100, rel=1e-9)
    assert val == pytest.approx(1.8775183142468892e-07, rel=1e-9)


def test_sumform_examples():
    # d = 2^n, zeta = 0: the first sum covers every k, so the value is 1
    for n in (1, 3, 6):
        assert bound_perfect_sumform(n, 2 ** n, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert bound_perfect_sumform(1, 2, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_sumform_exact_binomial_oracle():
    # Independent big-integer evaluation of the explicit sum for small n.
    for n in (1, 2, 5, 10, 20):
        for d in (1, 2, 4, 16):
            for zeta in (0.0, 0.3, 0.7):
                q = math.sqrt((1.0 + zeta) / 2.0)
                t = min(threshold(d, zeta), n)
                head = sum(math.comb(n, k) for k in range(t + 1))
                tail = sum(math.comb(n, k) * q ** k for k in range(t + 1, n + 1))
                expect = (head + math.sqrt(d) * tail) / 2 ** n
                assert bound_perfect_sumform(n, d, zeta) == pytest.approx(
                    expect, rel=1e-12)


def test_forms_agree_on_small_grid():
    for n in (1, 7, 40, 120):
        for d in (1, 2, 32, 2 ** 20):
            for zeta in (0.0, 0.2, 0.5, 0.9):
                raw = bound_perfect_raw(n, d, zeta)
                sf = bound_perfect_sumform(n, d, zeta)
                assert raw == pytest.approx(sf, rel=1e-12)


@pytest.mark.parametrize("n", [2000, 20000, 100000])
def test_log_space_forms_match_mpmath(n):
    # Past the linear range both forms run in log2 space; a 60-digit
    # evaluation of the closed form is the reference for both (they are
    # equal algebraically).
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        for d, zeta in ((2, 0.0), (16, 0.5), (2 ** 20, 0.9)):
            q = mpmath.sqrt((1 + mpmath.mpf(zeta)) / 2)
            t = min(int(mpmath.floor(-mpmath.log(d, 2) / mpmath.log(q ** 2, 2))), n)
            main = mpmath.sqrt(d) * ((1 + q) / 2) ** n
            corr = mpmath.fsum(mpmath.binomial(n, k) * (mpmath.sqrt(d) * q ** k - 1)
                               for k in range(t + 1)) / mpmath.mpf(2) ** n
            expect = float(mpmath.log(main - corr, 2))
            assert abs(bound_imperfect_log2(n, d, zeta, 0.0) - expect) <= 1e-9
            assert abs(bound_perfect_sumform_log2(n, d, zeta) - expect) <= 1e-9


def test_import_leaves_scipy_unloaded():
    src = str(pathlib.Path(di2pc.__file__).resolve().parents[1])
    # the package loads lazily, so the child imports every submodule before it
    # looks: no runtime module may pull in scipy, which only the tests use
    code = (f"import importlib, sys; sys.path.insert(0, {src!r}); import di2pc; "
            "[importlib.import_module(f'di2pc.{m}') for m in di2pc._SUBMODULES]; "
            "print(sorted(m for m in sys.modules if m.startswith('di2pc.')), "
            "'scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    loaded, _, scipy_loaded = out.stdout.strip().rpartition(" ")
    assert loaded == str(sorted(f"di2pc.{m}" for m in di2pc._SUBMODULES))
    assert scipy_loaded == "False"


def test_every_export_resolves():
    # the benchmark's tracer wraps each module's entry points by __all__: a
    # deleted function must leave it (test_package.py checks the package's
    # own table)
    import importlib
    package = pathlib.Path(di2pc.__file__).parent
    for path in sorted(package.glob("[!_]*.py")):
        module = importlib.import_module(f"di2pc.{path.stem}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (path.stem, name)


def test_binary_entropy_examples():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-12)
    assert binary_entropy(0.01) == pytest.approx(0.08079313589591118, abs=1e-12)


def test_bound_imperfect_reduces_at_gamma_zero():
    for n, d, zeta in ((3, 2, 0.1), (50, 4, 0.5)):
        assert bound_imperfect(n, d, zeta, 0.0) == bound_perfect(n, d, zeta)


def test_bound_imperfect_scales_by_entropy_factor():
    b = bound_perfect_raw(100, 2, 0.0)
    expect = min(1.0, 2.0 ** (binary_entropy(0.01) * 100) * b)
    assert bound_imperfect(100, 2, 0.0, 0.01) == pytest.approx(expect, rel=1e-12)


def test_bound_imperfect_rejects_large_gamma():
    with pytest.raises(DomainError):
        bound_imperfect(10, 2, 0.0, 0.6)


def test_bound_monotone_in_d_zeta_gamma():
    for n in (5, 60):
        ds = [1, 2, 8, 64]
        vals = [bound_perfect_raw(n, d, 0.2) for d in ds]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
        zs = np.linspace(0.0, 1.0, 11)
        vals = [bound_perfect_raw(n, 4, float(z)) for z in zs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        gs = np.linspace(0.0, 0.5, 11)
        vals = [bound_imperfect(n, 4, 0.2, float(g)) for g in gs]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


def test_decay_condition_examples():
    assert decay_condition(0.0, 0.0)
    assert not decay_condition(1.0, 0.0)
    assert not decay_condition(0.0, 0.05)   # h(0.05) = 0.2864 > 0.2284


def test_exponential_decay_profile():
    # d=2, zeta=0: B(n) <= 2^(-0.2 n) for all n >= 18
    for n in range(18, 501):
        assert bound_perfect(n, 2, 0.0) <= 2.0 ** (-0.2 * n)


def test_gamma_star_oracle_value():
    assert gamma_star(0.0) == pytest.approx(GAMMA_STAR_TSIRELSON, abs=1e-9)
    assert gamma_star(1.0) == 0.0


def test_gamma_star_grid_scan_oracle():
    # Independent oracle: fine grid scan of the strict decay condition.
    gammas = np.linspace(0.0, 0.5, 2_000_001)
    ok = -np.log2(0.5 + 0.5 * math.sqrt(0.5))
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -gammas * np.log2(gammas) - (1 - gammas) * np.log2(1 - gammas)
    h[0] = 0.0
    last_secure = float(gammas[np.flatnonzero(h < ok)[-1]])
    assert gamma_star(0.0) == pytest.approx(last_secure, abs=5e-7)


def test_security_region_shape_and_boundary():
    s_grid = list(np.linspace(2.0, TSIRELSON, 40))
    g_grid = list(np.linspace(0.0, 0.5, 30))
    region = security_region(s_grid, g_grid)
    assert region.boundary[0] == pytest.approx(0.0, abs=1e-12)       # S = 2
    assert region.boundary[-1] == pytest.approx(GAMMA_STAR_TSIRELSON, abs=1e-6)
    # boundary is monotone nondecreasing in S
    assert all(b >= a - 1e-12 for a, b in zip(region.boundary, region.boundary[1:]))
    # table matches the boundary: secure iff gamma < gamma_star
    for i, s in enumerate(region.s_grid):
        for j, g in enumerate(region.gamma_grid):
            assert region.secure[i][j] == (g < region.boundary[i] or
                                           (g == 0.0 and region.boundary[i] > 0.0))


def test_security_region_rejects_unsorted():
    with pytest.raises(DomainError):
        security_region([2.5, 2.0], [0.0, 0.1])


def test_min_rounds_reference_point():
    n = min_rounds(2, 0.0, 0.0, 2.0 ** -20)
    assert n == 90
    assert bound_imperfect(n, 2, 0.0, 0.0) <= 2.0 ** -20
    assert bound_imperfect(n - 1, 2, 0.0, 0.0) > 2.0 ** -20


def test_min_rounds_insecure():
    assert min_rounds(2, 1.0, 0.0, 0.5) == INSECURE
    assert min_rounds(2, 0.0, 0.1, 0.5) == INSECURE


def test_min_rounds_cap():
    with pytest.raises(CapExceededError):
        min_rounds(2, 0.0, 0.0, 1e-9, n_cap=10)


def test_min_rounds_boundary_property_random():
    rng = np.random.default_rng(1)
    for _ in range(20):
        d = int(rng.integers(1, 5))
        zeta = float(rng.random() * 0.8)
        eps = float(2.0 ** -rng.integers(4, 40))
        n = min_rounds(d, zeta, 0.0, eps)
        assert bound_imperfect(n, d, zeta, 0.0) <= eps
        if n > 1:
            assert bound_imperfect(n - 1, d, zeta, 0.0) > eps


def test_hamming_ball_examples():
    assert hamming_ball(10, 0) == 1
    assert hamming_ball(10, 10) == 2 ** 10
    assert hamming_ball(20, 5) == 21700
    assert hamming_ball(20, 10) <= 2 ** 20


def test_hamming_ball_entropy_bound():
    for n in range(1, 65):
        for gamma in np.arange(0.0, 0.51, 0.05):
            radius = math.floor(gamma * n)
            assert hamming_ball(n, radius) <= 2.0 ** (binary_entropy(gamma) * n) + 1e-9


def test_minentropy_rate_examples():
    # the report's rate is -log2(B')/n, read in log space: 0 where B is
    # exactly 1, the monogamy rate at d = 1, and finite where B' underflows
    assert bound_report(n=10, d=2 ** 62, zeta=0.99).minentropy_rate == 0.0
    assert bound_report(n=10, d=1, zeta=1.0).minentropy_rate == 0.0
    for n in (7, 5000):
        rep = bound_report(n=n, d=1, zeta=0.0)
        assert rep.minentropy_rate == pytest.approx(RATE0, abs=1e-12)
    assert rep.b_imperfect == 0.0


def test_minentropy_rate_reference_point():
    assert bound_report(n=100, d=2, zeta=0.0).minentropy_rate == pytest.approx(
        0.22345, abs=1e-4)


def test_bound_report_fields_consistent():
    # n = 1000 and 1001 sit on either side of the linear / log-space split
    for n in (100, 1000, 1001):
        rep = bound_report(n=n, d=2, zeta=zeta_from_violation(TSIRELSON), gamma=0.0,
                           kind="pv")
        assert rep.zeta == pytest.approx(0.0, abs=1e-12)
        assert rep.threshold_t == min(threshold(2, rep.zeta), n)
        assert rep.b_imperfect >= rep.b_perfect - 1e-15
        assert rep.minentropy_rate == pytest.approx(
            -math.log2(rep.b_imperfect) / n, abs=1e-9)
        assert rep.secure
        assert rep.kind == "pv"
        # the report's one evaluation of B equals the public evaluators bit for bit
        assert rep.b_perfect == bound_perfect(n, 2, rep.zeta)
        assert rep.b_imperfect == bound_imperfect(n, 2, rep.zeta, 0.0)


def test_bound_report_shares_the_public_evaluators():
    # one evaluation of B and B' serves the report, on both paths
    rng = np.random.default_rng(14)
    for _ in range(300):
        n = int(rng.integers(1, 3000))
        d = int(2 ** rng.integers(0, 40))
        zeta = float(rng.choice([rng.random(), 0.0, 1.0]))
        gamma = float(rng.choice([0.0, rng.random() / 2, rng.random() / 20]))
        rep = bound_report(n=n, d=d, zeta=zeta, gamma=gamma)
        assert rep.b_imperfect == bound_imperfect(n, d, zeta, gamma)
        assert rep.b_perfect == bound_perfect(n, d, zeta)
        if gamma == 0.0:
            assert rep.b_imperfect == rep.b_perfect


def test_bound_is_exactly_one_where_every_weight_is_one():
    # where t >= n (zeta = 1 included) B is exactly 1 on both forms and both
    # paths; for large d the closed form used to cancel to far below 1
    points = 0
    for d in (1, 2, 2 ** 64, 2 ** 300, 2 ** 1000):
        for zeta in (0.0, 0.1, 0.5, 0.9, 0.99, 1.0):
            for n in (1, 10, 500, 999, 1000, 1001, 1500, 5000):
                if zeta < 1.0 and threshold(d, zeta) < n:
                    continue
                points += n > 1000
                assert bound_perfect_raw(n, d, zeta) == 1.0
                assert bound_perfect_sumform(n, d, zeta) == 1.0
                assert bound_perfect_sumform_log2(n, d, zeta) == 0.0
                assert bound_imperfect(n, d, zeta, 0.0) == 1.0
                assert bound_imperfect_log2(n, d, zeta, 0.0) == 0.0
                rep = bound_report(n=n, d=d, zeta=zeta)
                assert (rep.b_perfect, rep.b_imperfect, rep.minentropy_rate) == (
                    1.0, 1.0, 0.0)
    assert points >= 20   # the log-space path is covered too


def test_imperfect_bound_clamps_before_overflow():
    # log2 B' = h(1/2) n + log2 B passes 1024 here; the value clamps to 1
    assert bound_imperfect_log2(1500, 1, 0.0, 0.5) > 1024
    assert bound_imperfect(1500, 1, 0.0, 0.5) == 1.0
    rep = bound_report(n=1500, d=1, zeta=0.0, gamma=0.5)
    assert rep.b_imperfect == 1.0
    assert rep.minentropy_rate == 0.0


def test_memory_dimension_past_float_range_rejected():
    # both paths take sqrt(d) in floating point; such a d used to overflow
    # there (OverflowError, or a math domain error in bound_report)
    big = int(sys.float_info.max) + 1
    for call in (lambda d: bound_perfect(2000, d, 0.5),
                 lambda d: bound_perfect(10, d, 0.5),
                 lambda d: bound_report(n=10, d=d, zeta=0.5),
                 lambda d: min_rounds(d, 0.5, 0.0, 1e-6),
                 lambda d: threshold(d, 0.5)):
        for d in (big, 2 ** 3000):
            with pytest.raises(DomainError):
                call(d)
    assert bound_perfect(2000, 2 ** 1000, 0.5) == 1.0


@pytest.mark.parametrize("n", [5, 5000])
def test_integral_float_arguments_read_as_ints(n):
    # n = 5.0 passed validation and then raised TypeError in the exact
    # binomials; every path now sees the int, on both sides of the split
    funcs = [bound_perfect, bound_perfect_raw, bound_perfect_sumform,
             bound_perfect_sumform_log2,
             lambda n, d, zeta: bound_imperfect(n, d, zeta, 0.05),
             lambda n, d, zeta: bound_imperfect_log2(n, d, zeta, 0.05)]
    for d, zeta in ((2, 0.1), (16, 0.5), (2 ** 20, 0.0)):
        for f in funcs:
            want = f(n, d, zeta).hex()
            assert f(float(n), d, zeta).hex() == want
            assert f(n, float(d), zeta).hex() == want
        want = bound_report(n=n, d=d, zeta=zeta, gamma=0.05)
        got = bound_report(n=float(n), d=float(d), zeta=zeta, gamma=0.05)
        assert got.to_dict() == want.to_dict()
        assert type(got.n) is type(got.d) is int
    assert threshold(16.0, 0.5) == threshold(16, 0.5)
    assert min_rounds(16.0, 0.5, 0.0, 1e-6) == min_rounds(16, 0.5, 0.0, 1e-6)
    assert hamming_ball(float(n), 2.0) == hamming_ball(n, 2)
    # non-integral, nan and inf are refused as the domain, not by int()
    for bad in (5.5, -1, math.nan, math.inf):
        with pytest.raises(DomainError):
            hamming_ball(bad, 0)
        with pytest.raises(DomainError):
            bound_perfect(bad, 2, 0.1)
        with pytest.raises(DomainError):
            bound_perfect(5, bad, 0.1)
    for bad in (1.5, math.nan):
        with pytest.raises(DomainError):
            hamming_ball(5, bad)


def test_bound_report_one_code_path_three_labels():
    reports = [bound_report(n=50, d=2, zeta=0.1, gamma=0.01, kind=k)
               for k in ("guessing", "wse_ne", "pv")]
    assert len({r.b_imperfect for r in reports}) == 1
    with pytest.raises(DomainError):
        bound_report(n=50, d=2, zeta=0.1, kind="other")
    with pytest.raises(TypeError):        # zeta is required; --S converts in the CLI
        bound_report(n=50, d=2)


def test_bound_matches_bruteforce_weight_enumeration():
    # Independent oracle: the bound is 2^-n sum over all w in {0,1}^n of
    # min(1, sqrt(d) q^|w|); enumerate every w directly for small n.
    for n in (1, 2, 5, 9, 12):
        for d in (1, 2, 3, 8, 100):
            for zeta in (0.0, 0.37, 0.8):
                q = math.sqrt((1.0 + zeta) / 2.0)
                expect = math.fsum(
                    min(1.0, math.sqrt(d) * q ** bin(w).count("1"))
                    for w in range(2 ** n)) / 2 ** n
                assert bound_perfect_raw(n, d, zeta) == pytest.approx(
                    expect, rel=1e-12)
                assert bound_perfect_sumform(n, d, zeta) == pytest.approx(
                    expect, rel=1e-12)


# -- bit-identity golden ----------------------------------------------------

def _bound_digest() -> str:
    """One sha256 over the float hexes of every B/B' function, the report's
    fields and min_rounds answers on a seeded grid: n on both sides of the
    linear / log-space split up to 10^6, d up to 2^120, zeta with both ends,
    gamma 0 and positive."""
    rng = np.random.default_rng(23)
    h = hashlib.sha256()

    def put(*values):
        h.update(" ".join(v.hex() if isinstance(v, float) else repr(v)
                          for v in values).encode() + b"\n")

    ns = [1, 2, 3, 7, 64, 999, 1000, 1001, 1002, 4096, 10 ** 5, 10 ** 6]
    ds = [1, 2, 3, 5, 2 ** 20, 2 ** 64, 2 ** 120]
    ns += [int(n) for n in rng.integers(1, 3000, size=40)]
    for i in range(600):
        n = ns[int(rng.integers(len(ns)))]
        if n >= 10 ** 5 and i % 4:
            n = int(rng.integers(2000, 20000))
        d = ds[int(rng.integers(len(ds)))] if i % 2 else 2 ** int(rng.integers(0, 121))
        zeta = float(rng.choice([0.0, 1.0, rng.random(), rng.random() / 10]))
        gamma = float(rng.choice([0.0, rng.random() / 2, rng.random() / 40]))
        put(n, d, zeta, gamma,
            bound_perfect_raw(n, d, zeta), bound_imperfect_log2(n, d, zeta, 0.0),
            bound_perfect_sumform(n, d, zeta),
            bound_imperfect(n, d, zeta, gamma),
            bound_imperfect_log2(n, d, zeta, gamma))
        rep = bound_report(n=n, d=d, zeta=zeta, gamma=gamma)
        put(rep.threshold_t, rep.b_perfect, rep.b_imperfect,
            rep.minentropy_rate, rep.secure)
    for i in range(300):
        d = 2 ** int(rng.integers(0, 13)) if i % 3 else int(rng.integers(1, 20))
        zeta = float(rng.random() * 0.9)
        gamma = 0.0 if i % 4 == 0 else float(rng.random() * 0.6 * gamma_star(zeta))
        eps = float(2.0 ** -rng.integers(4, 33))
        put(d, zeta, gamma, eps, min_rounds(d, zeta, gamma, eps))
    return h.hexdigest()


# The digest of the grid above, recorded before min_rounds prepared one curve
# per query, on x86-64 with an 80-bit long double (the linear path computes
# in np.longdouble).
_BOUND_DIGEST = "a0251efe8e330727b7740fa162f12651e443aadc96957e35e443ca387cc98ebd"


def test_bound_values_bit_identical_golden():
    assert _bound_digest() == _BOUND_DIGEST


def test_min_rounds_prepares_once_per_query(monkeypatch):
    # validation, the threshold and h(gamma) run a fixed number of times per
    # query, however many probes it makes; the probes only evaluate
    calls = collections.Counter()
    for name in ("_validate", "_threshold", "binary_entropy"):
        def counted(*args, _fn=getattr(bounds, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(bounds, name, counted)
    counts = []
    for eps in (0.5, 2.0 ** -20, 2.0 ** -300):
        calls.clear()
        min_rounds(2 ** 10, 0.2, 0.01, eps)
        counts.append(dict(calls))
    assert counts[0] == counts[1] == counts[2]
    assert counts[0]["_threshold"] == 1


def test_closed_form_cancellation_raises_domain_error():
    # past about d = 2^212 the linear closed form loses every digit at t < n
    # (it reads -0.72 here); the point and the cause are named, and min_rounds
    # stops rather than answer from neighbouring probes that read low
    for call in (lambda: bound_report(n=250, d=2 ** 215, zeta=0.1),
                 lambda: bound_imperfect(250, 2 ** 215, 0.1, 0.0),
                 lambda: bound_imperfect_log2(250, 2 ** 215, 0.1, 0.0),
                 lambda: min_rounds(2 ** 300, 0.3, 0.0, 1e-6)):
        with pytest.raises(DomainError, match=r"at n = \d+, d = .*cancellation"):
            call()
    # the sum form keeps the value there, and t >= n still gives exactly 1
    assert bound_perfect_sumform(250, 2 ** 215, 0.1) == 1.0
    assert bound_perfect_raw(200, 2 ** 215, 0.1) == 1.0


# -- the log-space tail-bound skip -------------------------------------------

_LOG2_BINOM = bounds._log2_binom


@functools.lru_cache(maxsize=64)
def _parent_log2_pieces(d: int, zeta: float, t: int):
    coeff = math.sqrt(d) * (bounds._q(zeta) ** np.arange(0, t + 1)) - 1.0
    ks = np.flatnonzero(coeff > 0)
    return 0.5 * math.log2(d), bounds._log2_base(zeta), ks, np.log2(coeff[ks])


def parent_closed_log2(d: int, zeta: float, t: int, n: int) -> float:
    """``_ClosedForm.log2`` as it stood before the tail-bound skip, the
    oracle of the skip: the full O(t) correction sum, always."""
    half_log2_d, log2_base, ks, log2_coeff = _parent_log2_pieces(d, zeta, t)
    log2_main = half_log2_d + n * log2_base
    ratio = 0.0
    if len(ks):
        log2_terms = _LOG2_BINOM(n, ks) - n + log2_coeff
        ratio = math.fsum(np.exp2(log2_terms - log2_main).tolist())
    if ratio >= 1.0:
        ratio = math.nextafter(1.0, 0.0)
    return log2_main + math.log1p(-ratio) * bounds._LOG2E


def log_space_points(rng: random.Random, count: int):
    """(d, zeta, t, ns): ``count`` log-space points (t < n, 1000 < n <= 10^6)
    in groups of one (d, zeta), d from 1 to 2^1000 and log-uniform in bits
    (so rarely a power of two). The oracle costs O(t) per call, so a group
    gets forty n up to t = 1000, four up to 10^4, and past that
    (milliseconds a call) one n in a quarter of the groups drawn."""
    while count > 0:
        d = int(2 ** (1000 ** rng.random())) - rng.randrange(2)
        zeta = rng.choice([0.0, 1e-9, rng.random(), 0.99, 0.999])
        t = bounds._threshold(d, zeta)
        lo = max(1000, t)
        if lo >= 10 ** 6 - 1 or (t > 10 ** 4 and rng.random() < 0.75):
            continue
        size = min(count, 40 if t <= 1000 else 4 if t <= 10 ** 4 else 1)
        ns = sorted({int(lo * (10 ** 6 / lo) ** rng.random()) + 1 for _ in range(size)})
        count -= len(ns)
        yield d, zeta, t, ns


def test_log_space_skip_bit_identical_to_full_sum(monkeypatch):
    # the skip returns log2(main) where the correction cannot move a bit;
    # everywhere it must read exactly what the full sum reads
    calls = [0]

    def counted(n, k):
        calls[0] += 1
        return _LOG2_BINOM(n, k)
    monkeypatch.setattr(bounds, "_log2_binom", counted)
    mismatches, points, skipped, summed, wide = [], 0, 0, 0, 0
    for d, zeta, t, ns in log_space_points(random.Random(2801), 20_000):
        curve = bounds._ClosedForm(d, zeta, t)
        for n in ns:
            points += 1
            before = calls[0]
            got = curve.log2(n)
            if got.hex() != parent_closed_log2(d, zeta, t, n).hex():
                mismatches.append((n, d, zeta))
            top = curve._log2_pieces[-1]
            if calls[0] > before:
                summed += 1
                wide += 2 * top > n
            else:
                skipped += top >= 0
    # the skip fires on most points; the sum runs on some, with 2 top > n
    # on some of those (the rest have no positive coefficient: d = 1)
    assert not mismatches and points == 20_000
    assert skipped > 0.8 * points
    assert summed >= 100 and wide >= 20


def test_log_space_skip_bound_holds_in_mpmath():
    # on points where the skip fires, the exact correction |log2(1 - ratio)|
    # lies below the bound the code used, and that below 1/16 ulp(log2 main)
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(2802)
    checked = 0
    with mpmath.workdps(50):
        while checked < 100:
            d = int(2 ** (rng.random() * 1000)) + rng.randrange(3)
            zeta = rng.choice([0.0, 1e-9, rng.random(), 0.99, 0.999])
            t = bounds._threshold(d, zeta)
            if not 0 < t <= 2000:
                continue
            n = int(max(1000, t) * 2 ** (rng.random() * 6)) + 1
            curve = bounds._ClosedForm(d, zeta, t)
            log2_main = curve.log2(n)
            top = curve._log2_pieces[-1]
            tail = curve._log2_tail(n, top, log2_main)
            if 2 * top > n or tail >= math.log2(math.ulp(log2_main)) - 4:
                continue
            q = mpmath.sqrt((1 + mpmath.mpf(zeta)) / 2)
            sqrt_d = mpmath.sqrt(d)
            binom, corr = mpmath.mpf(1), mpmath.mpf(0)
            for k in range(t + 1):
                corr += binom * max(0, sqrt_d * q ** k - 1)
                binom = binom * (n - k) / (k + 1)
            ratio = corr / (mpmath.mpf(2) ** n * sqrt_d * ((1 + q) / 2) ** n)
            correction = -mpmath.log1p(-ratio) / mpmath.log(2)
            assert correction <= mpmath.mpf(2) ** tail
            assert correction < mpmath.mpf(math.ulp(log2_main)) / 16
            checked += 1


def test_log_space_probes_skip_the_correction_sum(monkeypatch):
    # a query whose probes past n = 1000 all sit where the tail bound holds
    # builds no log2 C(n, k) table; Direction 2's point (2 top > n) does
    calls, probes = [], []
    monkeypatch.setattr(bounds, "_log2_binom",
                        lambda n, k: calls.append(n) or _LOG2_BINOM(n, k))
    log2 = bounds._ClosedForm.log2
    monkeypatch.setattr(bounds._ClosedForm, "log2",
                        lambda self, n: probes.append(n) or log2(self, n))
    assert min_rounds(2 ** 10, 0.3, 0.0, 2.0 ** -64) == 470
    assert min_rounds(2 ** 10, 0.3, 0.0, 2.0 ** -200) == 1395
    assert len(probes) == 13 and not calls
    bound_imperfect_log2(1500, 2 ** 764, 0, 0.0)
    assert calls == [1500]
