"""Hypothesis property tests (the ``test`` extra installs Hypothesis)."""

import contextlib
import io
import json
import math
import sys
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from di2pc import adversary, bounds  # noqa: E402
from di2pc.bounds import INSECURE, bound_report, min_rounds  # noqa: E402
from di2pc.chsh import TSIRELSON, estimate_chsh, zeta_from_violation  # noqa: E402
from di2pc.cli import _ATTACK_TOL, main  # noqa: E402
from di2pc.errors import DimensionCapError, Di2pcError  # noqa: E402
from di2pc.adversary import (  # noqa: E402
    _discriminate_batch,
    _dual_upper,
    _qubit_optimum,
    random_qubit_device,
    random_rotated_ideal_device,
)
from di2pc.matcore import RandomSuite  # noqa: E402
from di2pc.protocols import (  # noqa: E402
    DeviceModel,
    PvConfig,
    ideal_bb84_device,
    run_pv,
    run_wse,
)
from test_adversary import _general_path, _qubit_optimum_all_sets  # noqa: E402
from test_bounds import parent_closed_log2  # noqa: E402
from test_protocols import (  # noqa: E402
    oracle_pv_obj,
    oracle_wse_obj,
    random_device,
    unit_line_config,
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(3, 6),
                                        st.just(2), st.just(2), st.just(2)),
                  elements=st.floats(-1.0, 1.0)))
def test_qubit_optimum_on_random_psd_batches(parts):
    # parts[..., 0] + i parts[..., 1] is a factor A; G = A A^+ is PSD
    a = parts[..., 0] + 1j * parts[..., 1]
    g = a @ np.conj(np.swapaxes(a, -1, -2))
    f, y = _qubit_optimum(g)
    value = np.einsum("bkij,bkji->b", f, g).real
    assert np.all(value <= _dual_upper(g, y))
    _, certified_upper, _, _ = _general_path(g, tol=1e-12)
    assert np.all(np.abs(certified_upper - value) <= 1e-10)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(2, 6),
                                        st.just(2), st.just(2), st.just(2)),
                  elements=st.floats(-1.0, 1.0)),
       st.one_of(st.none(), st.floats(-14.0, -1.0)))
def test_qubit_optimum_equals_all_sets_oracle(parts, tie):
    # guesses 0 and 1 nearly dominate one another when ``tie`` is set: G_1 is
    # G_0 plus 10^tie times a Hermitian part of the draw
    a = parts[..., 0] + 1j * parts[..., 1]
    g = a @ np.conj(np.swapaxes(a, -1, -2))
    if tie is not None:
        g[:, 1] = g[:, 0] + 10.0 ** tie * (a[:, 1] + np.conj(np.swapaxes(a[:, 1], -1, -2)))
    scale = np.einsum("bkii->b", g).real
    assume(np.all(scale > 1e-6))
    g /= scale[:, None, None, None]
    f, y = _qubit_optimum(g)
    value = np.einsum("bkij,bkji->b", f, g).real
    f_old, _ = _qubit_optimum_all_sets(g)
    assert np.all(np.abs(value - np.einsum("bkij,bkji->b", f_old, g).real) <= 1e-12)
    assert np.all(_dual_upper(g, y) - value <= 1e-12)


def _kept_batch(parts, kept):
    """Random 2 x 2 PSD reward operators, as above; guess j of problem i is
    replaced by a dominated copy (half of guess 0) where j >= kept[i]."""
    a = parts[..., 0] + 1j * parts[..., 1]
    g = a @ np.conj(np.swapaxes(a, -1, -2))
    drop = np.arange(g.shape[1]) >= np.asarray(kept)[:, None]
    g[drop] = 0.5 * np.broadcast_to(g[:, :1], g.shape)[drop]
    return g


_qubit_batches = st.integers(3, 5).flatmap(lambda k: st.lists(
    st.integers(2, 3).flatmap(lambda b: st.tuples(
        hnp.arrays(np.float64, (b, k, 2, 2, 2), elements=st.floats(-1.0, 1.0),
                   fill=st.nothing()),
        st.lists(st.integers(1, k), min_size=b, max_size=b))),
    min_size=2, max_size=4).map(lambda parts: [_kept_batch(*p) for p in parts]))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_qubit_batches)
def test_search_mode_batch_equals_separate_calls(batches):
    # at the see-saw's tol, one call on the concatenation sends every problem
    # with at most four guesses to the closed form at once; the fixed-point
    # fallback's stopping rules see its whole batch, so only the closed forms
    # answer bit for bit.
    # Every part holds two problems or more: einsum sums the final value of a
    # one-problem batch in another order, which moves its last bit.
    with mock.patch.object(adversary, "_fixed_point",
                           wraps=adversary._fixed_point) as fallback:
        joint = _discriminate_batch(np.concatenate(batches), tol=1e-7)[0]
        apart = np.concatenate([_discriminate_batch(g, tol=1e-7)[0] for g in batches])
    assume(not fallback.called)
    assert np.array_equal(joint, apart)


def _psd(parts):
    """G = A A^+ for A = parts[..., 0] + i parts[..., 1]."""
    a = parts[..., 0] + 1j * parts[..., 1]
    return a @ np.conj(np.swapaxes(a, -1, -2))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(2, 5), st.integers(1, 4),
                                        st.just(2), st.just(2), st.just(2)),
                  elements=st.floats(-1.0, 1.0)),
       st.floats(0.0, 1.0))
def test_solver_contract_on_qubit_problems(parts, prior):
    # the path is set by the shape: 2 x 2 problems with at most four guesses
    # go to the closed form, a batch of them converges, and each problem's
    # value alone agrees with its value in the batch within the certified gap
    g = _psd(parts)
    with mock.patch.object(adversary, "_qubit_optimum",
                           wraps=adversary._qubit_optimum) as closed:
        lower, upper, f, conv = _discriminate_batch(g)
    assert closed.call_count == 1 and conv
    assert np.all(lower <= upper) and np.all(upper - lower <= 1e-9)
    assert np.max(np.abs(f.sum(axis=1) - np.eye(2))) <= 1e-12
    for i in range(len(g)):
        alone_lower, alone_upper, _, alone_conv = _discriminate_batch(g[i:i + 1])
        assert alone_conv
        assert alone_lower[0] <= upper[i] and lower[i] <= alone_upper[0]
    # two states: the Helstrom value (1 + ||p rho - (1 - p) sigma||_1) / 2
    traces = np.einsum("bii->b", g[:2, 0]).real
    assume(np.all(traces > 1e-9))
    rho, sigma = g[:2, 0] / traces[:, None, None]
    res = adversary.optimal_discrimination([(prior, rho), (1.0 - prior, sigma)])
    helstrom = 0.5 * (1.0 + np.abs(np.linalg.eigvalsh(
        prior * rho - (1.0 - prior) * sigma)).sum())
    assert res.converged
    assert abs(res.win_prob - helstrom) <= 1e-12
    assert res.win_prob <= res.upper_bound


@pytest.mark.parametrize("shape", [(3, 5, 2), (3, 4, 1), (3, 1, 1)])
def test_solver_sends_larger_and_scalar_problems_to_pruned(shape):
    # past four guesses the closed form's active sets grow as C(k, 4), and a
    # scalar memory needs none: both go to the general path, which on a
    # scalar keeps the best guess
    batch, k, dim = shape
    a = np.random.default_rng(sum(shape)).normal(size=(batch, k, dim, dim, 2))
    g = _psd(a)
    with mock.patch.object(adversary, "_qubit_optimum",
                           side_effect=AssertionError("closed form reached")), \
            mock.patch.object(adversary, "_pruned", wraps=adversary._pruned) as pruned:
        lower, upper, f, conv = _discriminate_batch(g)
    assert pruned.call_count == 1 and conv
    assert np.all(lower <= upper) and np.all(upper - lower <= 1e-9)
    if dim == 1:
        assert np.array_equal(lower, g[:, :, 0, 0].real.max(axis=1))
        assert np.array_equal(f[..., 0, 0].real.argmax(axis=1),
                              g[:, :, 0, 0].real.argmax(axis=1))


def _dense_bracket(ctx, strategy):
    """Per basis string, the certified (lower, upper) of the dense path for
    ``strategy`` written as a ``GeneralEncoding`` of its Kraus branches: the
    rewards are built and solved as for any instrument, past the encoding
    cap of ``exact_win_probability``."""
    enc = adversary.GeneralEncoding(
        tuple(tuple(branch) for branch in strategy.kraus_branches(2, ctx.n)))
    lower, upper, _, _ = _discriminate_batch(
        ctx._instrument_rewards(enc.kraus_array(2, ctx.n)[None]))
    thetas = len(ctx.thetas)
    return lower.reshape(thetas, -1).sum(axis=1), upper.reshape(thetas, -1).sum(axis=1)


# (n, device seed, per-round angles, kept rounds, gamma); at most two kept
# rounds keep the dense side's memory at 4
_product_attacks = st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, 2 ** 32 - 1),
    st.lists(st.floats(0.0, math.pi / 2), min_size=n, max_size=n),
    st.sets(st.integers(0, n - 1), min_size=1, max_size=2),
    st.sampled_from([0.0, 0.3, 0.5])))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_product_attacks)
def test_product_attacks_equal_dense_certified_path(point):
    # the round-by-round value is the optimum: it lies in the dense path's
    # certified bracket for every basis string, so it equals the dense value
    # to 1e-12 wherever that bracket is closed
    n, seed, angles, keep, gamma = point
    device = random_qubit_device(RandomSuite(seed))
    ctx = adversary._GameContext(device, n, gamma)
    strategies = [adversary.MeasureAll(angles=tuple(angles))]
    if ctx.radius == 0:
        strategies.append(adversary.StoreSubset(keep=tuple(sorted(keep)),
                                                angles=tuple(angles[len(keep):])))
    for strategy in strategies:
        with mock.patch.object(adversary, "_discriminate_batch",
                               side_effect=AssertionError("solver reached")):
            res = adversary._score_strategies(ctx, [strategy])[0]
        lower, upper = _dense_bracket(ctx, strategy)
        got = np.array([res.per_theta[key] for key in ctx.keys])
        assert list(res.per_theta) == list(ctx.keys)
        assert res.converged is True and 0.0 < res.certified_gap <= 1e-12
        assert np.all(lower - 1e-12 <= got) and np.all(got <= upper + 1e-12)
        assert lower.mean() - 1e-12 <= res.win_prob <= upper.mean() + 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([random_qubit_device,
                                                     random_rotated_ideal_device]),
       st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=4))
def test_optimum_round_sits_between_fixed_angles_and_a_kept_round(seed, family, angles):
    # one round: no fixed angle beats the memoryless optimum, and nothing
    # without memory beats the round kept (Helstrom), per basis as well
    ctx = adversary._GameContext(family(RandomSuite(seed)), 1, 0.0)
    measured = [adversary.MeasureAll((a,)) for a in angles]
    *fixed, optimum, kept = adversary._score_strategies(
        ctx, measured + [adversary.MeasureAll(("optimum",)),
                         adversary.StoreSubset(keep=(0,))])
    for res in fixed:
        assert res.win_prob <= optimum.win_prob + optimum.certified_gap + res.certified_gap
    for res in fixed + [optimum]:
        assert res.win_prob <= kept.win_prob + kept.certified_gap + res.certified_gap
        for key, value in res.per_theta.items():
            assert value <= kept.per_theta[key] + kept.certified_gap + res.certified_gap


_devices = st.builds(
    lambda seed, dims, noise: random_device(RandomSuite(seed), *dims, noise),
    st.integers(0, 2 ** 32 - 1), st.tuples(st.integers(1, 4), st.integers(1, 4)),
    st.sampled_from([0.0, 0.05, 0.5, 1.0]))
_families = st.builds(
    lambda family, seed: family(RandomSuite(seed)),
    st.sampled_from([random_qubit_device, random_rotated_ideal_device]),
    st.integers(0, 2 ** 32 - 1))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.one_of(_devices, _families), st.integers(1, 2000),
       st.integers(0, 2 ** 63 - 1), st.sampled_from([0.0, 0.02, 0.2]))
def test_transcripts_equal_oracle_encodings(device, n, seed, gamma):
    assert run_wse(device, n, seed=seed).to_obj() == oracle_wse_obj(device, n, seed)
    assert (run_pv(device, unit_line_config(n, gamma), seed=seed).to_obj()
            == oracle_pv_obj(device, n, gamma, seed))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.one_of(_devices, _families))
def test_device_json_roundtrip_is_exact(device):
    back = DeviceModel.from_obj(json.loads(json.dumps(device.to_obj())))
    assert (back.dim_a, back.dim_b, back.noise_q) == (device.dim_a, device.dim_b,
                                                     device.noise_q)
    for name in ("sigma_ab", "test_t0", "test_t1"):
        assert np.array_equal(getattr(back, name), getattr(device, name))
    for name in ("alice_meas_0", "alice_meas_1", "bob_meas_0", "bob_meas_1"):
        assert np.array_equal(getattr(back, name).p0, getattr(device, name).p0)


def _cli(*argv):
    """Exit code, stdout and stderr of one in-process ``di2pc`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _bound_argv(n, d, zeta, gamma):
    # the = form keeps negative and exponent-notation values from parsing as flags
    return ("bound", f"--n={n}", f"--d={d}", f"--zeta={zeta!r}", f"--gamma={gamma!r}")


# n spans the linear path, the log-space path and, at gamma near 0.5, log2 B'
# past the float64 exponent range
_valid_bound_args = st.tuples(st.integers(1, 20_000), st.integers(1, 2 ** 40),
                              st.floats(0.0, 1.0), st.floats(0.0, 0.5))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_valid_bound_args)
def test_cli_bound_payload_equals_library(point):
    n, d, zeta, gamma = point
    code, out, err = _cli(*_bound_argv(n, d, zeta, gamma))
    assert (code, err) == (0, "")
    assert json.loads(out) == bound_report(n=n, d=d, zeta=zeta, gamma=gamma).to_dict()


def _outside(lo, hi):
    return st.one_of(st.floats(max_value=lo, exclude_max=True),
                     st.floats(min_value=hi, exclude_min=True), st.just(math.nan))


# one argument of a valid point replaced by a value outside its range
_bad_slots = (st.integers(-10 ** 6, 0), st.integers(-10 ** 6, 0),
              _outside(0.0, 1.0), _outside(0.0, 0.5))
_bad_slot = st.integers(0, 3).flatmap(lambda i: st.tuples(st.just(i), _bad_slots[i]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_valid_bound_args, _bad_slot)
def test_cli_bound_out_of_range_exits_2(point, bad):
    args = list(point)
    args[bad[0]] = bad[1]
    code, out, err = _cli(*_bound_argv(*args))
    assert code == 2
    assert out == ""
    assert json.loads(err.strip())["error"] in ("usage", "DomainError")


def _min_n_argv(d, s, gamma, eps):
    return ("min-n", f"--d={d}", f"--S={s!r}", f"--gamma={gamma!r}", f"--eps={eps!r}")


# S on both sides of 2, where the certificate starts; gamma often in the
# secure region, which needs a small one
_valid_min_n_args = st.tuples(
    st.integers(1, 2 ** 40),
    st.one_of(st.floats(2.0, TSIRELSON), st.floats(-TSIRELSON, 2.0)),
    st.one_of(st.floats(0.0, 0.05), st.floats(0.0, 0.5)),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_valid_min_n_args)
def test_cli_min_n_payload_equals_library(point):
    d, s, gamma, eps = point
    code, out, err = _cli(*_min_n_argv(*point))
    try:
        n = min_rounds(d, zeta_from_violation(s), gamma, eps)
    except Di2pcError as exc:        # the cap or the local-monotonicity check
        assert (code, out) == (2, "")
        assert json.loads(err.strip())["error"] == type(exc).__name__
        return
    assert (code, err) == (0, "")
    assert json.loads(out) == ({"insecure": True} if n == INSECURE else {"n": n})


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.floats(0.0, 1000.0), st.integers(0, 2),
       st.one_of(st.sampled_from([0.0, 1e-9, 0.99, 0.999]),
                 st.floats(0.0, 1.0, exclude_max=True)),
       st.floats(0.0, 1.0))
def test_log_space_skip_reads_the_full_sum(bits, off, zeta, u):
    # the closed form's log-space path, skip or no skip, bit for bit against
    # the full correction sum (test_bounds.parent_closed_log2)
    d = max(1, int(2 ** bits) - off)
    t = bounds._threshold(d, zeta)
    lo = max(1000, t)
    assume(lo < 10 ** 6 - 1)
    n = int(lo * (10 ** 6 / lo) ** u) + 1
    got = bounds._ClosedForm(d, zeta, t).log2(n)
    assert got.hex() == parent_closed_log2(d, zeta, t, n).hex()


# one argument of a valid point replaced by a value outside its range: d
# below 1 or past the largest float, S past the quantum maximum or nan
_bad_min_n_slots = (
    st.one_of(st.integers(-10 ** 6, 0),
              st.integers(int(sys.float_info.max) + 1, 2 ** 1100)),
    st.one_of(st.floats(min_value=TSIRELSON + 1e-6), st.just(math.nan)),
    _outside(0.0, 0.5),
    st.one_of(st.floats(max_value=0.0), st.floats(min_value=1.0), st.just(math.nan)))
_bad_min_n_slot = st.integers(0, 3).flatmap(
    lambda i: st.tuples(st.just(i), _bad_min_n_slots[i]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_valid_min_n_args, _bad_min_n_slot)
def test_cli_min_n_out_of_range_exits_2(point, bad):
    args = list(point)
    args[bad[0]] = bad[1]
    code, out, err = _cli(*_min_n_argv(*args))
    assert code == 2
    assert out == ""
    assert json.loads(err.strip())["error"] in ("usage", "DomainError")


@pytest.fixture(scope="module")
def attack_device(tmp_path_factory):
    device = ideal_bb84_device(noise_q=0.02)
    path = tmp_path_factory.mktemp("attack") / "device.json"
    path.write_text(json.dumps(device.to_obj()))
    return device, str(path)


def _attack_argv(path, strategy, n, d, gamma):
    return ("attack", f"--device={path}", f"--strategy={strategy}", f"--n={n}",
            f"--d={d}", f"--gamma={gamma!r}")


# store-subset keeps floor(log2 d) rounds, so it needs d >= 2
_valid_attack_args = st.one_of(
    st.tuples(st.just("breidbart"), st.integers(1, 2), st.integers(1, 4),
              st.floats(0.0, 0.5)),
    st.tuples(st.just("store-subset"), st.integers(1, 2), st.integers(2, 4),
              st.floats(0.0, 0.5)))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(_valid_attack_args)
def test_cli_attack_payload_equals_library(attack_device, point):
    device, path = attack_device
    strategy, n, d, gamma = point
    code, out, err = _cli(*_attack_argv(path, *point))
    strat = adversary.breidbart(n) if strategy == "breidbart" else \
        adversary.StoreSubset(keep=tuple(range(min(n, int(math.log2(d))))))
    try:
        res = adversary.exact_win_probability(device, strat, n, d, gamma, tol=_ATTACK_TOL)
    except DimensionCapError:
        assert (code, out) == (4, "")
        assert json.loads(err.strip())["error"] == "dimension-cap"
        return
    assert (code, err) == (0 if res.converged else 3, "")
    assert json.loads(out) == {"win_prob": res.win_prob, "per_theta": res.per_theta,
                               "certified_gap": res.certified_gap,
                               "converged": res.converged}


# one of n, d and gamma replaced by a value outside its range
_bad_attack_slots = (st.integers(-10 ** 6, 0), st.integers(-10 ** 6, 0),
                     _outside(0.0, 0.5))
_bad_attack_slot = st.integers(0, 2).flatmap(
    lambda i: st.tuples(st.just(i + 1), _bad_attack_slots[i]))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_valid_attack_args, _bad_attack_slot)
def test_cli_attack_out_of_range_exits_2(attack_device, point, bad):
    args = list(point)
    args[bad[0]] = bad[1]
    code, out, err = _cli(*_attack_argv(attack_device[1], *args))
    assert code == 2
    assert out == ""
    assert json.loads(err.strip())["error"] in ("usage", "DomainError")


# how many of (trials, n, d, gamma) each lemma reads: norm-lemma only
# --trials, overlap-lemma no --gamma
_read_slots = {"key-lemma": 4, "norm-lemma": 1, "overlap-lemma": 3}


def _verify_argv(lemma, trials, n, d, gamma, seed):
    flags = (f"--trials={trials}", f"--n={n}", f"--d={d}", f"--gamma={gamma!r}")
    return ("verify", lemma, *flags[:_read_slots[lemma]], f"--seed={seed}")


_valid_verify_args = st.tuples(
    st.sampled_from(["key-lemma", "norm-lemma", "overlap-lemma"]),
    st.integers(1, 2), st.integers(1, 2), st.integers(1, 2), st.floats(0.0, 0.5),
    st.integers(0, 2 ** 32 - 1))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(_valid_verify_args)
def test_cli_verify_payload_equals_library(point):
    lemma, trials, n, d, gamma, seed = point
    code, out, err = _cli(*_verify_argv(*point))
    if lemma == "key-lemma":
        rep = adversary.verify_key_lemma(trials, n=n, d=d, gamma=gamma, seed=seed)
    elif lemma == "norm-lemma":
        rep = adversary.verify_norm_lemma(trials, seed=seed)
    else:
        rep = adversary.verify_overlap_lemma(trials, n=n, d=d, seed=seed)
    certified = rep.details.get("converged", True)
    assert (code, err) == (0 if rep.passed and certified else 3, "")
    payload = {"reports": [rep.to_dict()], "passed": rep.passed}
    assert json.loads(out) == json.loads(json.dumps(payload))


# one argument the lemma reads, or the seed, replaced by a value outside its
# range
_bad_verify_slots = (st.integers(-10 ** 6, 0), st.integers(-10 ** 6, 0),
                     st.integers(-10 ** 6, 0), _outside(0.0, 0.5),
                     st.integers(-2 ** 64, -1))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_valid_verify_args, st.data())
def test_cli_verify_out_of_range_exits_2(point, data):
    args = list(point)
    slot = data.draw(st.sampled_from([*range(_read_slots[args[0]]), 4]))
    args[slot + 1] = data.draw(_bad_verify_slots[slot])
    code, out, err = _cli(*_verify_argv(*args))
    assert code == 2
    assert out == ""
    assert json.loads(err.strip())["error"] in ("usage", "DomainError")


def _assert_usage_exit(code, out, err, kinds=("usage", "DomainError")):
    """Exit 2, nothing on stdout, and one JSON error line (no traceback)."""
    assert (code, out) == (2, "")
    assert json.loads(err.strip())["error"] in kinds


# one of --s-steps and --gamma-steps below 2 or not an integer: a float's
# spelling ("2.0", "1e3", "nan"), which int() never accepts
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 1),
       st.one_of(st.integers(-10 ** 6, 1).map(str), st.floats().map(repr)))
def test_cli_region_bad_steps_exit_2(s_steps, gamma_steps, slot, bad):
    steps = [str(s_steps), str(gamma_steps)]
    steps[slot] = bad
    _assert_usage_exit(*_cli("region", f"--s-steps={steps[0]}",
                             f"--gamma-steps={steps[1]}"))


def _curve_argv(d, gamma, eps, s_steps):
    return ("curve", f"--d={d}", f"--gamma={gamma!r}", f"--eps={eps!r}",
            f"--s-steps={s_steps}")


# every argument is checked before any bound is evaluated, so d ranges up to
# the largest float
_valid_curve_args = st.tuples(
    st.integers(1, int(sys.float_info.max)), st.floats(0.0, 0.5),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), st.integers(2, 4))
# one argument replaced by a value outside its range: d below 1 or past the
# largest float, gamma outside [0, 0.5], eps outside (0, 1), s-steps below 2
_bad_curve_slots = (
    st.one_of(st.integers(-10 ** 6, 0),
              st.integers(int(sys.float_info.max) + 1, 2 ** 1100)),
    _outside(0.0, 0.5),
    st.one_of(st.floats(max_value=0.0), st.floats(min_value=1.0), st.just(math.nan)),
    st.integers(-10 ** 6, 1))
_bad_curve_slot = st.integers(0, 3).flatmap(
    lambda i: st.tuples(st.just(i), _bad_curve_slots[i]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_valid_curve_args, _bad_curve_slot)
def test_cli_curve_out_of_range_exits_2(point, bad):
    args = list(point)
    args[bad[0]] = bad[1]
    _assert_usage_exit(*_cli(*_curve_argv(*args)))


def _chsh_argv(path, rounds, delta, seed):
    return ("chsh", f"--device={path}", f"--rounds={rounds}", f"--delta={delta!r}",
            f"--seed={seed}")


# delta from 1e-300 up: below about 4.5e-308, 8/delta overflows
_valid_chsh_args = st.tuples(st.integers(1, 2 ** 53),
                             st.floats(1e-300, 1.0, exclude_max=True),
                             st.integers(0, 2 ** 63 - 1))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_valid_chsh_args)
def test_cli_chsh_payload_equals_library(attack_device, point):
    device, path = attack_device
    rounds, delta, seed = point
    code, out, err = _cli(*_chsh_argv(path, *point))
    assert (code, err) == (0, "")
    est = estimate_chsh(device, rounds, delta, seed=seed)
    assert json.loads(out) == {
        "s_hat": est.s_hat, "half_width": est.half_width,
        "rounds_per_setting": rounds, "confidence_delta": delta,
        "zeta_conservative": est.zeta_conservative}


# (slot, value, exit code): a round count below 1, or past the cap (exit
# 4); delta outside (0, 1), or so small that 8/delta overflows; a negative
# seed
_bad_chsh_arg = st.one_of(
    st.tuples(st.just(0), st.integers(-10 ** 6, 0), st.just(2)),
    st.tuples(st.just(0), st.integers(2 ** 53 + 1, 10 ** 30), st.just(4)),
    st.tuples(st.just(1), st.one_of(_outside(0.0, 1.0), st.sampled_from([0.0, 1.0]),
                                    st.floats(0.0, 4e-308, exclude_min=True)),
              st.just(2)),
    st.tuples(st.just(2), st.integers(-2 ** 64, -1), st.just(2)))


def _assert_bad_input_exit(code, out, err, want):
    """Exit 2 (4 past a size cap), nothing on stdout, one JSON error line."""
    assert (code, out) == (want, "")
    error = json.loads(err.strip())["error"]
    assert error == "dimension-cap" if want == 4 else error in ("usage", "DomainError")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_valid_chsh_args, _bad_chsh_arg)
@example((100, 0.01, 0), (0, 10 ** 20, 4))      # was an OverflowError traceback
@example((100, 0.01, 0), (1, 1e-320, 2))        # printed "half_width": Infinity
def test_cli_chsh_bad_arguments_exit_2_or_4(attack_device, point, bad):
    args = list(point)
    slot, value, want = bad
    args[slot] = value
    _assert_bad_input_exit(*_cli(*_chsh_argv(attack_device[1], *args)), want)


def _wse_argv(path, n, runs, test_rounds, seed):
    return ("simulate", "wse", f"--device={path}", f"--n={n}", f"--runs={runs}",
            f"--test-rounds={test_rounds}", f"--seed={seed}")


# (n, runs, test rounds, seed); 0 test rounds skips the Bell test
_valid_wse_args = st.tuples(st.integers(1, 2000), st.just(1), st.integers(0, 10 ** 4),
                            st.integers(0, 2 ** 63 - 1))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(_valid_wse_args)
def test_cli_simulate_wse_payload_equals_library(attack_device, point):
    device, path = attack_device
    n, _, test_rounds, seed = point
    code, out, err = _cli(*_wse_argv(path, *point))
    assert (code, err) == (0, "")
    tr = run_wse(device, n, seed=seed, test_rounds=test_rounds or None)
    assert json.loads(out) == json.loads(json.dumps(tr.to_obj()))


# (slot, value, exit code): n below 1 or past the cap (exit 4), runs below 1,
# test rounds below 0 or past the CHSH cap (exit 4), a negative seed
_bad_wse_arg = st.one_of(
    st.tuples(st.just(0), st.integers(-10 ** 6, 0), st.just(2)),
    st.tuples(st.just(0), st.integers(10 ** 7 + 1, 10 ** 30), st.just(4)),
    st.tuples(st.just(1), st.integers(-10 ** 6, 0), st.just(2)),
    st.tuples(st.just(2), st.integers(-10 ** 6, -1), st.just(2)),
    st.tuples(st.just(2), st.integers(2 ** 53 + 1, 10 ** 30), st.just(4)),
    st.tuples(st.just(3), st.integers(-2 ** 64, -1), st.just(2)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_valid_wse_args, _bad_wse_arg)
def test_cli_simulate_wse_bad_arguments_exit_2_or_4(attack_device, point, bad):
    args = list(point)
    slot, value, want = bad
    args[slot] = value
    _assert_bad_input_exit(*_cli(*_wse_argv(attack_device[1], *args)), want)


def _pv_argv(path, n, gamma, v1, claim, v2, dt, test_rounds, seed):
    return ("simulate", "pv", f"--device={path}", f"--n={n}", f"--gamma={gamma!r}",
            f"--v1={v1!r}", f"--claim={claim!r}", f"--v2={v2!r}", f"--dt={dt!r}",
            f"--test-rounds={test_rounds}", f"--seed={seed}")


# v1 < claim < v2, built from v1 and two positive gaps
_valid_pv_args = st.tuples(
    st.integers(1, 2000), st.floats(0.0, 0.5), st.floats(-100.0, 100.0),
    st.floats(1e-3, 100.0), st.floats(1e-3, 100.0), st.floats(0.0, 10.0),
    st.integers(0, 10 ** 4), st.integers(0, 2 ** 63 - 1)).map(
        lambda a: (a[0], a[1], a[2], a[2] + a[3], a[2] + a[3] + a[4], *a[5:]))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(_valid_pv_args)
def test_cli_simulate_pv_payload_equals_library(attack_device, point):
    device, path = attack_device
    n, gamma, v1, claim, v2, dt, test_rounds, seed = point
    code, out, err = _cli(*_pv_argv(path, *point))
    assert (code, err) == (0, "")
    cfg = PvConfig(pos_v1=v1, pos_v2=v2, pos_claimed=claim, n=n, gamma=gamma, delta_t=dt)
    tr = run_pv(device, cfg, seed=seed, test_rounds=test_rounds or None)
    assert json.loads(out) == json.loads(json.dumps(tr.to_obj()))


_non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
# (slot, value, exit code): n below 1 or past the cap (exit 4), gamma outside
# [0, 0.5], a position that is not finite, v1 at or past the claim (valid
# claims lie below 200) or v2 at or below it (valid claims lie above -100),
# dt negative or not finite, test rounds below 0, a negative seed
_bad_pv_arg = st.one_of(
    st.tuples(st.just(0), st.integers(-10 ** 6, 0), st.just(2)),
    st.tuples(st.just(0), st.integers(10 ** 7 + 1, 10 ** 30), st.just(4)),
    st.tuples(st.just(1), _outside(0.0, 0.5), st.just(2)),
    st.tuples(st.integers(2, 4), _non_finite, st.just(2)),
    st.tuples(st.just(2), st.floats(200.0, 1e300), st.just(2)),
    st.tuples(st.just(4), st.floats(-1e300, -100.0), st.just(2)),
    st.tuples(st.just(5), st.one_of(st.floats(max_value=0.0, exclude_max=True),
                                    _non_finite), st.just(2)),
    st.tuples(st.just(6), st.integers(-10 ** 6, -1), st.just(2)),
    st.tuples(st.just(7), st.integers(-2 ** 64, -1), st.just(2)))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_valid_pv_args, _bad_pv_arg)
@example((10, 0.0, 0.0, 0.5, 1.0, 1.0, 0, 0), (5, math.nan, 2))   # was accepted: false
@example((10, 0.0, 0.0, 0.5, 1.0, 1.0, 0, 0), (4, math.inf, 2))   # printed NaN times
def test_cli_simulate_pv_bad_arguments_exit_2_or_4(attack_device, point, bad):
    args = list(point)
    slot, value, want = bad
    args[slot] = value
    _assert_bad_input_exit(*_cli(*_pv_argv(attack_device[1], *args)), want)


_DEVICE_MATRICES = ("sigma_ab", "alice_p0_b0", "alice_p0_b1", "bob_p0_b0", "bob_p0_b1",
                    "t0", "t1")
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 6, 10 ** 6) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


@st.composite
def _broken_device(draw):
    """A valid device object with one part replaced by arbitrary JSON: the
    whole object, a field, a matrix's rows, cols or data, or one entry."""
    obj = ideal_bb84_device(noise_q=0.02).to_obj()
    where = draw(st.sampled_from(["object", "field", "matrix", "entry"]))
    value = draw(_json_values)
    if where == "object":
        return value
    if where == "field":
        obj[draw(st.sampled_from(sorted(obj)))] = value
        return obj
    mat = obj[draw(st.sampled_from(_DEVICE_MATRICES))]
    if where == "matrix":
        mat[draw(st.sampled_from(["rows", "cols", "data"]))] = value
    else:
        mat["data"][draw(st.integers(0, len(mat["data"]) - 1))] = value
    return obj


@pytest.fixture(scope="module")
def device_path(tmp_path_factory):
    return tmp_path_factory.mktemp("jordan") / "device.json"


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_broken_device())
def test_cli_jordan_malformed_device_never_raises(device_path, obj):
    device_path.write_text(json.dumps(obj))
    code, out, err = _cli("jordan", f"--device={device_path}")
    if code == 0:        # the replacement left a valid device
        assert err == "" and "epsilon_plus" in json.loads(out)
        return
    error = json.loads(err.strip())["error"]
    assert out == ""
    # a dimension past the device cap exits 4, every other bad input 2
    assert (code, error) == (4, "dimension-cap") or \
        (code == 2 and error in ("ShapeError", "DomainError", "ArityError"))


@pytest.mark.parametrize("obj", [
    [1, 2], None, "device", {"dim_a": 2},
    {**ideal_bb84_device().to_obj(), "dim_a": "two"},
    {**ideal_bb84_device().to_obj(), "dim_a": None},
    {**ideal_bb84_device().to_obj(), "noise_q": "x"},
    {**ideal_bb84_device().to_obj(), "t0": {"rows": 2, "cols": 2, "data": 5}},
    {**ideal_bb84_device().to_obj(), "t0": {"rows": 2, "cols": 2, "data": [[1, "a"]] * 4}},
    {**ideal_bb84_device().to_obj(), "t0": {"rows": 2, "cols": 2, "data": [[1]] * 4}},
])
def test_cli_jordan_malformed_device_exits_2(device_path, obj):
    device_path.write_text(json.dumps(obj))
    _assert_usage_exit(*_cli("jordan", f"--device={device_path}"), kinds=("ShapeError",))
