"""CLI adapter tests: golden equality with the library, exit codes, formats."""

import hashlib
import json
import math

import pytest

from di2pc import bounds
from di2pc.chsh import TSIRELSON, estimate_chsh
from di2pc.cli import main
from di2pc.jordan import decompose_pair, epsilon_plus_blocks
from di2pc.protocols import _BLOCK, DeviceModel, ideal_bb84_device, run_wse


@pytest.fixture()
def device_file(tmp_path):
    path = tmp_path / "device.json"
    path.write_text(json.dumps(ideal_bb84_device(noise_q=0.02).to_obj()))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_matches_library(capsys):
    code, out, _ = run_cli(capsys, "bound", "--n", "100", "--d", "2",
                           "--S", f"{TSIRELSON}", "--gamma", "0")
    assert code == 0
    payload = json.loads(out)
    rep = bounds.bound_report(n=100, d=2, s=TSIRELSON, gamma=0.0)
    assert payload["b_imperfect"] == rep.b_imperfect
    assert payload["minentropy_rate"] == rep.minentropy_rate
    assert payload["b_imperfect"] == pytest.approx(1.8775e-7, rel=1e-3)
    assert payload["minentropy_rate"] == pytest.approx(0.2234, abs=5e-4)


def test_bound_rejects_out_of_range_zeta(capsys):
    code, _, err = run_cli(capsys, "bound", "--n", "10", "--d", "2",
                           "--zeta", "1.5")
    assert code == 2
    assert json.loads(err.strip())["error"] == "usage"


def test_bound_requires_exactly_one_of_s_zeta(capsys):
    code, _, _ = run_cli(capsys, "bound", "--n", "10", "--d", "2")
    assert code == 2
    code, _, _ = run_cli(capsys, "bound", "--n", "10", "--d", "2",
                         "--S", "2.5", "--zeta", "0.3")
    assert code == 2


def test_bound_where_the_closed_form_cancels_exits_2(capsys):
    # past about d = 2^212 the closed form reads 0 or below at t < n; the
    # command names the point in a DomainError instead of a traceback
    for argv in (("bound", "--n", "250", "--d", str(2 ** 215), "--zeta", "0.1"),
                 ("min-n", "--d", str(2 ** 300), "--zeta", "0.3", "--gamma", "0",
                  "--eps", "1e-6")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        error = json.loads(err.strip())
        assert error["error"] == "DomainError"
        assert "cancellation" in error["detail"]


def test_min_n_outputs(capsys):
    code, out, _ = run_cli(capsys, "min-n", "--d", "2", "--zeta", "0",
                           "--gamma", "0", "--eps", str(2.0 ** -20))
    assert code == 0
    assert json.loads(out) == {"n": 90}
    code, out, _ = run_cli(capsys, "min-n", "--d", "2", "--zeta", "1.0",
                           "--gamma", "0", "--eps", "0.5")
    assert code == 0
    assert json.loads(out) == {"insecure": True}


def test_region_csv(capsys, tmp_path):
    out_file = tmp_path / "region.csv"
    code, _, _ = run_cli(capsys, "--format", "csv", "--out", str(out_file),
                         "region", "--s-steps", "5", "--gamma-steps", "4")
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "S,gamma,zeta,secure,gamma_star"
    assert len(lines) == 1 + 5 * 4


def test_curve_csv(capsys, tmp_path):
    out_file = tmp_path / "curve.csv"
    code, _, _ = run_cli(capsys, "--format", "csv", "--out", str(out_file),
                         "curve", "--d", "2", "--gamma", "0", "--eps",
                         str(2.0 ** -10), "--s-steps", "6")
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "S,zeta,secure,n"
    row_s2 = lines[1].split(",")
    assert row_s2[2] == "False"          # S = 2 certifies nothing
    row_top = lines[-1].split(",")
    assert row_top[2] == "True" and int(row_top[3]) > 0


def test_chsh_subcommand(capsys, device_file):
    code, out, _ = run_cli(capsys, "--seed", "7", "chsh", "--device",
                           device_file, "--rounds", "20000", "--delta", "0.01")
    assert code == 0
    payload = json.loads(out)
    est = estimate_chsh(ideal_bb84_device(noise_q=0.02), 20000, 0.01, seed=7)
    assert payload["s_hat"] == est.s_hat
    assert payload["zeta_conservative"] == est.zeta_conservative


def test_jordan_subcommand(capsys, device_file):
    code, out, _ = run_cli(capsys, "jordan", "--device", device_file)
    assert code == 0
    payload = json.loads(out)
    device = ideal_bb84_device()
    dec = decompose_pair(device.alice_meas_0, device.alice_meas_1)
    assert len(payload["blocks"]) == len(dec.blocks)
    assert payload["blocks"][0]["beta"] == pytest.approx(math.pi / 4, abs=1e-9)
    assert payload["epsilon_plus"] == pytest.approx(
        epsilon_plus_blocks(dec, device.sigma_a), abs=1e-12)


def test_simulate_wse(capsys, device_file):
    code, out, _ = run_cli(capsys, "--seed", "3", "simulate", "wse",
                           "--device", device_file, "--n", "32")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["x"]) == 32
    assert payload["substring"] == "".join(
        payload["x_prime"][k] for k in payload["index_set"])


@pytest.mark.parametrize("n, test_rounds", [(1, None), (7, 500), (2 * _BLOCK + 5, None),
                                           (_BLOCK + 1, 2000)])
def test_simulate_wse_writes_the_json_dump_bytes(capsys, tmp_path, device_file,
                                                n, test_rounds):
    # the transcript is written piece by piece, blocks of the index set and
    # the bit strings included; it must be the bytes of the sorted-key dump
    device = DeviceModel.from_obj(json.loads(open(device_file).read()))
    extra = ["--test-rounds", str(test_rounds)] if test_rounds else []
    empty = False
    for seed in range(8):
        tr = run_wse(device, n, seed=seed, test_rounds=test_rounds)
        want = json.dumps(tr.to_obj(), sort_keys=True) + "\n"
        empty |= tr.index_set.size == 0
        code, out, _ = run_cli(capsys, "--seed", str(seed), "simulate", "wse",
                               "--device", device_file, "--n", str(n), *extra)
        assert code == 0 and out == want
        path = tmp_path / f"wse-{seed}.json"
        code, out, _ = run_cli(capsys, "--seed", str(seed), "--out", str(path),
                               "simulate", "wse", "--device", device_file,
                               "--n", str(n), *extra)
        assert code == 0 and out == "" and path.read_text() == want
    # at n = 1 some seed leaves the index set empty
    assert empty or n > 1


def test_simulate_wse_aggregate(capsys, device_file):
    code, out, _ = run_cli(capsys, "simulate", "wse", "--device", device_file,
                           "--n", "64", "--runs", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["runs"] == 10
    assert 0.0 <= payload["match_rate"] <= 1.0


@pytest.mark.parametrize("runs", ["0", "-5"])
def test_simulate_wse_rejects_runs_below_one(capsys, device_file, runs):
    code, out, err = run_cli(capsys, "simulate", "wse", "--device", device_file,
                             "--n", "64", "--runs", runs)
    assert code == 2
    assert out == ""
    assert json.loads(err.strip())["error"] == "usage"


def test_simulate_wse_rejects_test_rounds_with_runs(capsys, device_file):
    code, out, err = run_cli(capsys, "simulate", "wse", "--device", device_file,
                             "--n", "64", "--runs", "3", "--test-rounds", "1000")
    assert code == 2
    assert out == ""
    assert json.loads(err.strip())["error"] == "usage"


def test_simulate_pv(capsys, device_file):
    code, out, _ = run_cli(capsys, "simulate", "pv", "--device", device_file,
                           "--n", "1000", "--gamma", "0.05", "--v1", "0",
                           "--v2", "2", "--claim", "1", "--dt", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["accepted"] is True
    assert payload["rt_v1"] == pytest.approx(2.0)


def test_attack_breidbart(capsys, device_file, tmp_path):
    ideal = tmp_path / "ideal.json"
    ideal.write_text(json.dumps(ideal_bb84_device().to_obj()))
    code, out, _ = run_cli(capsys, "attack", "--device", str(ideal),
                           "--strategy", "breidbart", "--n", "1", "--d", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["win_prob"] == pytest.approx(math.cos(math.pi / 8) ** 2,
                                                abs=1e-9)


def test_attack_from_strategy_file(capsys, tmp_path, device_file):
    ideal = tmp_path / "ideal.json"
    ideal.write_text(json.dumps(ideal_bb84_device().to_obj()))
    strat = tmp_path / "strat.json"
    strat.write_text(json.dumps({"kind": "store_subset", "keep": [0],
                                 "angles": []}))
    code, out, _ = run_cli(capsys, "attack", "--device", str(ideal),
                           "--strategy", f"file:{strat}", "--n", "1",
                           "--d", "2")
    assert code == 0
    assert json.loads(out)["win_prob"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("strategy, n, d", [
    # a repeated round would claim memory 4 while storing one qubit
    ({"kind": "store_subset", "keep": [0, 0], "angles": []}, 2, 4),
    # Kraus elements mapping into memories of different sizes
    ({"kind": "general_encoding", "kraus": [
        [{"rows": 1, "cols": 2, "data": [[1, 0], [0, 0]]}],
        [{"rows": 2, "cols": 2, "data": [[0, 0], [0, 0], [0, 0], [1, 0]]}]]}, 1, 2),
    # no branch at all, or a branch without Kraus elements
    ({"kind": "general_encoding", "kraus": []}, 1, 2),
    ({"kind": "general_encoding", "kraus": [[]]}, 1, 2),
    # angles that are not finite numbers, missing or not a list
    ({"kind": "measure_all", "angles": [math.nan]}, 1, 1),
    ({"kind": "measure_all", "angles": [math.inf]}, 1, 1),
    ({"kind": "measure_all"}, 1, 1),
    ({"kind": "measure_all", "angles": "0.3"}, 1, 1),
    ({"kind": "measure_all", "angles": [True]}, 1, 1),
    ({"kind": "store_subset", "keep": [1], "angles": [math.nan]}, 2, 2),
    # a round index that is not an integer
    ({"kind": "store_subset", "keep": [0.7]}, 1, 2),
])
def test_attack_rejects_malformed_strategy_file(capsys, tmp_path, device_file,
                                                strategy, n, d):
    strat = tmp_path / "strat.json"
    strat.write_text(json.dumps(strategy))
    code, out, err = run_cli(capsys, "attack", "--device", device_file,
                             "--strategy", f"file:{strat}", "--n", str(n), "--d", str(d))
    assert code == 2
    assert out == ""
    assert json.loads(err.strip())["error"] == "StrategyError"


def test_verify_deterministic_output(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "norm-lemma", "--trials", "20",
                             "--seed", "1")
    code2, out2, _ = run_cli(capsys, "verify", "norm-lemma", "--trials", "20",
                             "--seed", "1")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_exit_code_on_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "overlap-lemma", "--trials", "10",
                           "--seed", "2")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_dimension_cap_exit_code(capsys, device_file):
    code, _, err = run_cli(capsys, "attack", "--device", device_file,
                           "--strategy", "breidbart", "--n", "9", "--d", "1")
    assert code == 4
    assert json.loads(err.strip())["error"] == "dimension-cap"


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--n", "5", "--d", "1", "--zeta", "0", "--frobnicate"])
    assert exc.value.code == 2


def test_config_file_defaults(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 100, "d": 2, "zeta": 0.0, "gamma": 0.0}))
    code, out, _ = run_cli(capsys, "--config", str(cfg), "bound",
                           "--n", "100", "--d", "2")
    assert code == 0
    assert json.loads(out)["b_perfect"] == bounds.bound_perfect(100, 2, 0.0)


def test_config_equals_form_is_honoured(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"gamma": 0.01}))
    bound = ("bound", "--n", "100", "--d", "2", "--zeta", "0")
    for argv in ((f"--config={cfg}", *bound), (*bound, f"--config={cfg}"),
                 ("--config", str(cfg), *bound)):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["gamma"] == 0.01
    # an explicit flag still overrides the file
    code, out, _ = run_cli(capsys, f"--config={cfg}", *bound, "--gamma", "0")
    assert code == 0
    assert json.loads(out)["gamma"] == 0.0


@pytest.mark.parametrize("key", ["sed", "threads", "tol-profile"])
def test_config_rejects_unknown_keys(capsys, tmp_path, key):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": 3, key: 7}))
    code, out, err = run_cli(capsys, "--config", str(cfg), "bound",
                             "--n", "10", "--d", "2", "--zeta", "0")
    assert code == 2
    assert out == ""
    payload = json.loads(err.strip())
    assert payload["error"] == "usage"
    assert key.replace("-", "_") in payload["detail"]


@pytest.mark.parametrize("value", [1.5, True, None, [1], {"seed": 1}, "1.5", 1e400])
def test_config_value_goes_through_flag_type(capsys, tmp_path, device_file, value):
    # an int flag takes a JSON integer, or a number or string that converts
    # to one exactly; anything else is a usage error, as on the command line
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": value}))
    code, out, err = run_cli(capsys, "--config", str(cfg), "chsh",
                             "--device", device_file, "--rounds", "100")
    assert code == 2
    assert out == ""
    payload = json.loads(err.strip())
    assert payload["error"] == "usage"
    assert "--seed" in payload["detail"]


@pytest.mark.parametrize("config", [{"zeta": "half"}, {"zeta": False},
                                    {"gamma": [0.1]}, {"kind": "other"},
                                    {"format": 1}, {"out": 3},
                                    {"zeta": 2 ** 1100}])
def test_config_typed_and_choice_flags_checked(capsys, tmp_path, config):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "--config", str(cfg), "bound",
                             "--n", "10", "--d", "2", "--zeta", "0.5")
    assert (code, out) == (2, "")
    assert json.loads(err.strip())["error"] == "usage"


def test_config_integer_json_cannot_read_exits_2(capsys, tmp_path):
    # json refuses integers of more than 4300 digits with a ValueError
    cfg = tmp_path / "run.json"
    cfg.write_text('{"seed": ' + "9" * 5000 + "}")
    code, out, err = run_cli(capsys, "--config", str(cfg), "bound",
                             "--n", "10", "--d", "2", "--zeta", "0")
    assert (code, out) == (2, "")
    assert json.loads(err.strip())["error"] == "usage"


def test_config_numbers_convert_exactly(capsys, tmp_path, device_file):
    # JSON 3, 3.0 and "3" are the same --seed, and 0 the same --gamma as 0.0
    cfg = tmp_path / "run.json"
    cli = ("chsh", "--device", device_file, "--rounds", "100")
    want = run_cli(capsys, "--seed", "3", *cli)
    for value in (3, 3.0, "3"):
        cfg.write_text(json.dumps({"seed": value, "gamma": 0}))
        assert run_cli(capsys, "--config", str(cfg), *cli) == want
    bound = ("bound", "--n", "100", "--d", "2", "--zeta", "0.5")
    assert (run_cli(capsys, "--config", str(cfg), *bound)
            == run_cli(capsys, *bound, "--gamma", "0.0"))


def test_memory_dimension_past_float_range_exits_2(capsys):
    code, out, err = run_cli(capsys, "bound", "--n", "10", "--d", str(2 ** 1100),
                             "--zeta", "0.5")
    assert (code, out) == (2, "")
    assert json.loads(err.strip())["error"] == "DomainError"


def test_nan_violation_exits_2(capsys):
    for argv in (("bound", "--n", "100", "--d", "2", "--S", "nan"),
                 ("min-n", "--d", "2", "--S", "nan", "--eps", "1e-6")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert json.loads(err.strip())["error"] == "DomainError"


@pytest.mark.parametrize("flag", [["--tol-profile", "strict"], ["--threads", "2"]])
@pytest.mark.parametrize("command", [["bound", "--n", "10", "--d", "2", "--zeta", "0"],
                                     ["verify", "norm-lemma", "--trials", "1"]])
@pytest.mark.parametrize("before", [True, False])
def test_removed_global_flags_rejected(capsys, flag, command, before):
    with pytest.raises(SystemExit) as exc:
        main(flag + command if before else command + flag)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.strip())["error"] == "usage"


def test_env_seed_override(capsys, device_file, monkeypatch):
    monkeypatch.setenv("DI2PC_SEED", "99")
    code, out, _ = run_cli(capsys, "chsh", "--device", device_file,
                           "--rounds", "1000", "--delta", "0.05")
    assert code == 0
    est = estimate_chsh(ideal_bb84_device(noise_q=0.02), 1000, 0.05, seed=99)
    assert json.loads(out)["s_hat"] == est.s_hat


def test_verify_failure_exit_code(capsys, monkeypatch):
    # force a failing report through the adapter to check the exit path
    from di2pc import adversary
    from di2pc.adversary import VerificationReport

    def fake(*a, **k):
        return VerificationReport(name="norm-lemma", trials=1, passed=False,
                                  max_ratio=2.0, worst_slack=-1.0,
                                  violations=[{"trial": 0}])
    monkeypatch.setattr(adversary, "verify_norm_lemma", fake)
    code, out, _ = run_cli(capsys, "verify", "norm-lemma", "--trials", "1")
    assert code == 3
    assert json.loads(out)["passed"] is False


def test_verify_all_byte_identical(capsys):
    args = ("verify", "all", "--trials", "4", "--seed", "1")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


# sha256 of stdout, recorded from the per-element bit-string encoder, the
# (n, 4) sampler and the loop outcome table that the array code replaced;
# "noisy" is the device_file fixture, "clean" the noise-free ideal device
_SIMULATE_GOLDENS = [
    ("noisy", ["--seed", "11", "simulate", "wse", "--n", "100000"],
     "efa28b7ddbf09bfdc350a3e1a08dc3da57080dc595cdda8d4a313cff3f3c0345"),
    ("clean", ["--seed", "11", "simulate", "wse", "--n", "100000"],
     "d0b06fa3fd1f1a0c96520745974e930648c2cedb88b20a475f9e19db4a0d71f2"),
    ("noisy", ["--seed", "12", "simulate", "wse", "--n", "100000",
               "--test-rounds", "20000"],
     "75f1e3d198e7923a8b7b710b604d1fbe5bd798c4a90dfd9279566cb46eac12eb"),
    ("clean", ["--seed", "12", "simulate", "wse", "--n", "100000",
               "--test-rounds", "20000"],
     "4b42033e937be98682a74b1cd2f785eba2a495830cfacba9989a9a89f925769d"),
    ("noisy", ["--seed", "13", "simulate", "pv", "--n", "100000",
               "--gamma", "0.05"],
     "00331c240b248a6901e7cabf5dde0dd4e6ac0f6a607af07d5d48e93ec7c57f99"),
    ("noisy", ["--seed", "14", "simulate", "pv", "--n", "100000",
               "--gamma", "0.05", "--test-rounds", "20000"],
     "382c77dbbf3b5e6bd2f5581baa3230958b6a75e3ff48ef81c9f3135d69c24493"),
    ("noisy", ["--seed", "15", "simulate", "wse", "--n", "1000", "--runs", "7"],
     "6df11342d3e6bbbe864ed0e6e39830de0a7c18405a3b6b5d5c64b895e1a0d7eb"),
]


@pytest.mark.parametrize("device, argv, digest", _SIMULATE_GOLDENS)
def test_simulate_byte_identical_to_golden(capsys, tmp_path, device_file,
                                           device, argv, digest):
    if device == "clean":
        device_file = str(tmp_path / "clean.json")
        with open(device_file, "w") as fh:
            fh.write(json.dumps(ideal_bb84_device().to_obj()))
    code, out, _ = run_cli(capsys, *argv[:4], "--device", device_file, *argv[4:])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `attack` stdout, recorded from the numpy-stacked product path
# that the scalar per-round one replaced. "clean" is the noise-free ideal
# device, "random" a Haar device from random_qubit_device(RandomSuite(18));
# a list strategy is a MeasureAll file with those distinct angles, and at
# gamma 0.34 it allows one error at n = 3 and two at n = 6
_ANGLES = [0.11, 0.52, 0.97, 1.31, 0.35, 0.78]
_ATTACK_GOLDENS = [
    ("clean", "breidbart", 1, 1, 0.0,
     "3476b8aadd29a4a1681de42e288861aa32bc9a0cc1e52d76396fef833c153935"),
    ("clean", "breidbart", 2, 1, 0.0,
     "ce87e9f6722bf87d4ecd8cbbd5d0857de544c38252280a868b023c1c2a014625"),
    ("clean", "breidbart", 3, 1, 0.0,
     "c2f3c648b2b805a0c910ec0bb1964bbdd5b919ddf9111dfb68832eab287c35a4"),
    ("clean", "breidbart", 4, 1, 0.0,
     "184e2827a09509cc4d5a785151e2cdf0bcb87803d52783c5f6e3fb7e102ed8d8"),
    ("clean", "breidbart", 5, 1, 0.0,
     "39fa5b159ffa5a5be504bcbd3c38cda951531165f2b8840c59734530b996fdd5"),
    ("clean", "breidbart", 6, 1, 0.0,
     "2349f513a88cac28111d27df5e0d6ae4ade0e6ed3c2eb1b26037f245b973ca1c"),
    ("random", _ANGLES[:3], 3, 1, 0.0,
     "bf94680da22ca0aa39a1c7d33428b2cc53f19b799efcb2eb2f406fcbd84fa86e"),
    ("random", _ANGLES[:3], 3, 1, 0.34,
     "d05ab0db4f0b994b9d366d9a751c0512c95c7126efaf2551a79dfe940dc40ac4"),
    ("random", _ANGLES, 6, 1, 0.0,
     "80397c5ba91329620dc07f3dd1808f3711d0c9ea448746a529365ae57e732060"),
    ("random", _ANGLES, 6, 1, 0.34,
     "e2ab2c5a7c0728a0b6f9c2e3db4ab317c624127fb9eebb8c7da8c0de42d60b3f"),
    ("random", "store-subset", 1, 2, 0.0,
     "615ad453c7fbc6f32a0c2661b06aeef5ab244ede869e2eb29950dd5739fc8437"),
    ("random", "store-subset", 3, 2, 0.0,
     "19d181c7a9fcfa16a6612b9617e400ceb2393852da7ef3e3aabffcec5b77e580"),
    ("random", "store-subset", 6, 2, 0.0,
     "553c99c67839849ed2f3e3d9e17144348f7c9b7ded079b4573f528110ddfb0b2"),
]


def _attack_stdout(capsys, tmp_path, device, strategy, n, d, gamma):
    from di2pc.adversary import random_qubit_device
    from di2pc.matcore import RandomSuite
    model = ideal_bb84_device() if device == "clean" \
        else random_qubit_device(RandomSuite(18))
    device_file = tmp_path / "device.json"
    device_file.write_text(json.dumps(model.to_obj()))
    if isinstance(strategy, list):
        strat = tmp_path / "strat.json"
        strat.write_text(json.dumps({"kind": "measure_all", "angles": strategy}))
        strategy = f"file:{strat}"
    code, out, _ = run_cli(capsys, "attack", "--device", str(device_file),
                           "--strategy", strategy, "--n", str(n), "--d", str(d),
                           "--gamma", str(gamma))
    assert code == 0
    return out


@pytest.mark.parametrize("device, strategy, n, d, gamma, digest", _ATTACK_GOLDENS)
def test_attack_byte_identical_to_golden(capsys, tmp_path, device, strategy, n, d,
                                         gamma, digest):
    out = _attack_stdout(capsys, tmp_path, device, strategy, n, d, gamma)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of stdout for the other command shapes, recorded before each
# subcommand imported its own modules and before the norm and overlap
# verifiers stacked their trials. "noisy" is the device_file fixture,
# "random" the Haar device random_qubit_device(RandomSuite(18)); the second
# `bound` takes the log-space path (n above 1000)
_SHAPE_GOLDENS = [
    (None, ["bound", "--n", "300", "--d", "1024", "--S", "2.7", "--gamma", "0.01"],
     "8dc758999a2d105d8b2b113e1301f876b9a5f2e94992b98e486a172ead8c575b"),
    (None, ["bound", "--n", "50000", "--d", "1048576", "--S", "2.75",
            "--gamma", "0.02"],
     "6738040bfe2000cacccf0a44a53648bb649477b80f1016c3782bdb4ccac7497c"),
    (None, ["bound", "--n", "800", "--d", "4", "--zeta", "0.3", "--kind", "pv",
            "--format", "csv"],
     "236f3d4bd12e202e2c6c820cadcc52655b593f78051bd4e3c3ea77c071f90f12"),
    (None, ["region", "--s-steps", "20", "--gamma-steps", "10"],
     "dce952fdb93cbd19ea359c3d0cdd9fb689ef42a17d396f5bc00f7c0edd8bc42c"),
    (None, ["min-n", "--d", "1024", "--S", "2.7", "--gamma", "0.01", "--eps", "1e-6"],
     "33173aee7440df79866a0af567bd7fd03f3db05fd63b568e982251baf9a0068b"),
    (None, ["curve", "--d", "1024", "--gamma", "0", "--eps", "1e-6", "--s-steps", "12"],
     "ff25f15f4e2cd98c306f64f56243381d4acbff4369a96cb15b23c51476d2b99e"),
    ("noisy", ["--seed", "5", "chsh", "--rounds", "100000", "--delta", "0.01"],
     "e68de622ce79d107a115f2eddbe237e612651e4fb7bd23b214cb9172f2a3b766"),
    ("random", ["--seed", "6", "chsh", "--rounds", "20000", "--delta", "0.05"],
     "e2a55dc1e5f602ab74ce063d5f6251d8c8379e8d6425a38ff612ba26f93b1bc5"),
    ("noisy", ["jordan"],
     "750040a87d1fd53873e584a2b5ff3f9486f2b5ec22b565e2758b630f13f14c4e"),
    ("random", ["jordan"],
     "d0ac5d9ec605874e3d045f6ef4c2c2ed9aa52745d7cc8f664c2f24481db462c0"),
    (None, ["--seed", "0", "verify", "norm-lemma", "--trials", "40"],
     "0a794f1e021a3418fcd84700c19f2d348888675138352f14d37f651381f96eb9"),
    (None, ["--seed", "1", "verify", "norm-lemma", "--trials", "40"],
     "73c0c39dc5e638e538d1b0a7d167b2e5be1d908209d1299ea3b0f5d2d29da795"),
    (None, ["--seed", "2", "verify", "norm-lemma", "--trials", "40"],
     "66debdff235c7df35923e9ef081724f33f3234524e86581dd73a60a5c12f58e4"),
    (None, ["--seed", "3", "verify", "norm-lemma", "--trials", "40"],
     "2c17873e0b6c890a14ac702890228de7f65313b0a31495132f12c717e1b6a9a4"),
    (None, ["--seed", "4", "verify", "norm-lemma", "--trials", "40"],
     "5399be26cb909826c3fa9ed6e0ac02e07f7488f43aaee5bff7d0cdda70e57eaf"),
    (None, ["--seed", "0", "verify", "overlap-lemma", "--trials", "40"],
     "b6f9134b6b54ae3b0548aef6d75c6b421906dd1ba5bfa991cef4b04f0a3ea459"),
    (None, ["--seed", "1", "verify", "overlap-lemma", "--trials", "40"],
     "7c3c34a68d838ce76081de3778a293319fe9f1eafb6029be94af07fad15c40a4"),
    (None, ["--seed", "2", "verify", "overlap-lemma", "--trials", "40"],
     "21289f1c10f98b4514cddabbdce24563f80ed435b77ef0f46f9b01fd8a9bbdfe"),
    (None, ["--seed", "3", "verify", "overlap-lemma", "--trials", "40"],
     "674f29254b5520dad16b9e6082a008034e33321c632be8dbae9a05acb1de9757"),
    (None, ["--seed", "4", "verify", "overlap-lemma", "--trials", "40"],
     "3edb0a8113ce00b54e6cee76a62aeea2dfc812bbad6672fd2fb0efad2a03f027"),
    (None, ["--seed", "3", "verify", "key-lemma", "--trials", "6", "--n", "2", "--d", "2",
            "--gamma", "0.5"],
     "14c7fd5b195078525207c31878a78ec98411b529ab4e6ecbbcfd239b425db158"),
    (None, ["--seed", "1", "verify", "all", "--trials", "4"],
     "aef56f09578dd7723d64b09a1fc9399b1f408b5231252c3febf9beaf08b04b15"),
    (None, ["--seed", "7", "verify", "key-lemma", "--trials", "20", "--n", "1", "--d", "1"],
     "3814e50b5a97e15d90e8b119c205d10b6307b931f4464273a20dac0dda6b76cb"),
    (None, ["--seed", "7", "verify", "key-lemma", "--trials", "20", "--n", "1", "--d", "2"],
     "a8108a7881743832b117daf85516e132dd2e7e3bd5c37ccccac0260581dc5151"),
    (None, ["--seed", "7", "verify", "key-lemma", "--trials", "20", "--n", "2", "--d", "1"],
     "36fc73fe5fc2a446dd0f0b484822ff8aceb8c5dd8041951e09dbde114cce71f8"),
    (None, ["--seed", "7", "verify", "key-lemma", "--trials", "20", "--n", "2", "--d", "2"],
     "2e894096bcf53c520252828739276725ecfd3186d0d0891adff3d82bc7cc7a9e"),
    (None, ["--seed", "7", "verify", "key-lemma", "--trials", "20", "--n", "2", "--d", "1",
            "--gamma", "0.5"],
     "9ada1c74458464949bf1dc2a134be75244687c2fe4cab9e417f29a2f59e49b18"),
]


@pytest.mark.parametrize("device, argv, digest", _SHAPE_GOLDENS)
def test_command_byte_identical_to_golden(capsys, tmp_path, device_file, device, argv,
                                          digest):
    if device is not None:
        if device == "random":
            from di2pc.adversary import random_qubit_device
            from di2pc.matcore import RandomSuite
            device_file = str(tmp_path / "random.json")
            with open(device_file, "w") as fh:
                fh.write(json.dumps(random_qubit_device(RandomSuite(18)).to_obj()))
        at = argv.index(next(a for a in argv if a in ("chsh", "jordan"))) + 1
        argv = argv[:at] + ["--device", device_file] + argv[at:]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Device files whose physics is wrong, one field each: sigma_AB of trace 2,
# an Alice element that is not a projector, a testing observable that does
# not square to the identity.
_BAD_DEVICE_FIELDS = {
    "sigma_ab": lambda obj: {**obj["sigma_ab"], "data": [
        [2 * re, 2 * im] for re, im in obj["sigma_ab"]["data"]]},
    "alice_p0_b0": lambda obj: {"rows": 2, "cols": 2,
                                "data": [[0.6, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
    "t0": lambda obj: {"rows": 2, "cols": 2,
                       "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]},
}


@pytest.mark.parametrize("field", sorted(_BAD_DEVICE_FIELDS))
def test_device_file_physics_is_checked(capsys, tmp_path, field):
    obj = ideal_bb84_device().to_obj()
    obj[field] = _BAD_DEVICE_FIELDS[field](obj)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "jordan", "--device", str(path))
    assert code == 2
    assert out == ""
    assert json.loads(err.strip())["error"] == "DomainError"


def test_region_json_matches_library(capsys):
    from di2pc.bounds import security_region
    from di2pc.chsh import TSIRELSON as TS
    code, out, _ = run_cli(capsys, "region", "--s-steps", "4",
                           "--gamma-steps", "3")
    assert code == 0
    rows = json.loads(out)["rows"]
    s_grid = [2.0 + (TS - 2.0) * i / 3 for i in range(4)]
    g_grid = [0.5 * j / 2 for j in range(3)]
    region = security_region(s_grid, g_grid)
    expect = list(region.rows())
    assert len(rows) == len(expect)
    assert rows[0]["gamma_star"] == expect[0]["gamma_star"]
    assert [r["secure"] for r in rows] == [e["secure"] for e in expect]


def test_gamma_range_checked_before_work(capsys):
    code, _, err = run_cli(capsys, "bound", "--n", "5", "--d", "2",
                           "--zeta", "0", "--gamma", "0.7")
    assert code == 2
    assert "gamma" in json.loads(err.strip())["detail"]


def test_region_rejects_degenerate_grid(capsys):
    code, _, _ = run_cli(capsys, "region", "--s-steps", "1",
                         "--gamma-steps", "3")
    assert code == 2


def test_argparse_errors_are_json(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--n", "not-a-number", "--d", "2", "--zeta", "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"] == "usage"


@pytest.mark.parametrize("lemma", ["key-lemma", "norm-lemma", "overlap-lemma"])
def test_verify_rejects_zero_trials(capsys, lemma):
    code, out, err = run_cli(capsys, "verify", lemma, "--trials", "0")
    assert code == 2
    assert out == ""
    payload = json.loads(err.strip())
    assert payload["error"] == "DomainError" and "trials" in payload["detail"]


def test_attack_unconverged_exit_code(capsys, device_file, monkeypatch):
    from di2pc import adversary
    from di2pc.adversary import GuessResult

    def fake(*a, **k):
        return GuessResult(win_prob=0.5, per_theta={"0": 0.5, "1": 0.5},
                           certified_gap=0.25, converged=False)
    monkeypatch.setattr(adversary, "exact_win_probability", fake)
    code, out, _ = run_cli(capsys, "attack", "--device", device_file,
                           "--strategy", "breidbart", "--n", "1", "--d", "1")
    assert code == 3
    assert json.loads(out) == {"win_prob": 0.5, "per_theta": {"0": 0.5, "1": 0.5},
                               "certified_gap": 0.25, "converged": False}


def test_verify_key_lemma_unconverged_exit_code(capsys, monkeypatch):
    from di2pc import adversary

    solve = adversary._discriminate_batch

    def unconverged(*a, **k):
        # every certificate left open by more than any tolerance
        lower, upper, f, _ = solve(*a, **k)
        return lower, upper + 1.0, f, False
    monkeypatch.setattr(adversary, "_discriminate_batch", unconverged)
    # with one error allowed, stored rounds are scored by the solver: product
    # attacks at gamma = 0 or with every round measured never reach it; at
    # n = d = 1 only the exact memoryless optimum does
    for flags in (("--n", "2", "--d", "2", "--gamma", "0.5"), ("--n", "1", "--d", "1")):
        code, out, _ = run_cli(capsys, "verify", "key-lemma", "--trials", "2", *flags)
        payload = json.loads(out)
        assert code == 3
        assert payload["passed"] is True
        assert payload["reports"][0]["details"]["converged"] is False


def test_simulate_rounds_capped_before_work(capsys, device_file):
    code, out, err = run_cli(capsys, "simulate", "wse", "--device", device_file,
                             "--n", str(10 ** 7 + 1))
    assert code == 4
    assert out == ""
    assert json.loads(err.strip())["error"] == "dimension-cap"


def test_device_dimensions_capped_before_matrices(capsys, tmp_path):
    obj = ideal_bb84_device().to_obj()
    obj["dim_b"] = 10 ** 6
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "jordan", "--device", str(path))
    assert code == 4
    assert out == ""
    assert json.loads(err.strip())["error"] == "dimension-cap"


@pytest.mark.parametrize("n", ["0", "-2"])
def test_attack_rejects_rounds_below_one(capsys, device_file, n):
    code, out, err = run_cli(capsys, "attack", "--device", device_file,
                             "--strategy", "breidbart", f"--n={n}", "--d", "1")
    assert code == 2
    assert out == ""
    assert json.loads(err.strip())["error"] == "DomainError"


@pytest.mark.parametrize("flag", ["--n=0", "--d=0"])
def test_verify_overlap_rejects_empty_ranges(capsys, flag):
    code, out, err = run_cli(capsys, "verify", "overlap-lemma", "--trials", "2", flag)
    assert code == 2
    assert out == ""
    assert json.loads(err.strip())["error"] == "DomainError"


@pytest.mark.parametrize("lemma, flag", [("norm-lemma", "--n=1"), ("norm-lemma", "--d=1"),
                                         ("norm-lemma", "--gamma=0"),
                                         ("overlap-lemma", "--gamma=0")])
def test_verify_rejects_flags_the_lemma_does_not_read(capsys, lemma, flag):
    code, out, err = run_cli(capsys, "verify", lemma, "--trials", "1", flag)
    assert (code, out) == (2, "")
    payload = json.loads(err.strip())
    assert payload["error"] == "usage" and flag.split("=")[0] in payload["detail"]


def test_verify_rejects_an_unread_flag_from_the_config(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"gamma": 0.25}))
    code, out, err = run_cli(capsys, "--config", str(cfg), "verify", "norm-lemma",
                             "--trials", "1")
    assert (code, out) == (2, "")
    assert json.loads(err.strip())["error"] == "usage"


def test_verify_all_accepts_every_flag(capsys):
    code, out, err = run_cli(capsys, "verify", "all", "--trials", "1", "--n", "2",
                             "--d", "1", "--gamma", "0.5", "--seed", "3")
    assert (code, err) == (0, "")
    reports = json.loads(out)["reports"]
    assert [r["name"] for r in reports] == ["key-lemma", "norm-lemma", "overlap-lemma"]
    assert (reports[0]["details"]["n"], reports[0]["details"]["gamma"]) == (2, 0.5)
    assert (reports[2]["details"]["n"], reports[2]["details"]["d"]) == (2, 1)


def test_verify_key_lemma_reads_no_gamma_as_zero(capsys):
    argv = ("verify", "key-lemma", "--trials", "2", "--n", "2", "--d", "1", "--seed", "4")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["reports"][0]["details"]["gamma"] == 0.0
    assert run_cli(capsys, *argv, "--gamma", "0") == (code, out, err)


def _mp_sumform(n, d, zeta):
    """B(n, d, zeta) from its binomial-sum form in 50-digit mpmath: every term
    is nonnegative, so nothing cancels."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        ratio = (1 + mpmath.mpf(zeta)) / 2
        q = mpmath.sqrt(ratio)
        t = int(mpmath.floor(mpmath.log(d, 2) / -mpmath.log(ratio, 2)))
        total, comb = mpmath.mpf(0), 1
        for k in range(n + 1):
            total += comb * (1 if k <= t else mpmath.sqrt(d) * q ** k)
            comb = comb * (n - k) // (k + 1)
        return total / mpmath.mpf(2) ** n


def test_large_memory_dimension_exits_0(capsys):
    # at d = 2^200 the closed form used to cancel below 0 where t >= n
    d = str(2 ** 200)
    code, out, err = run_cli(capsys, "bound", "--n", "10", "--d", d, "--zeta", "0.5")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert (payload["b_perfect"], payload["b_imperfect"], payload["minentropy_rate"]) == (
        1.0, 1.0, 0.0)
    code, out, err = run_cli(capsys, "min-n", "--d", d, "--zeta", ".5", "--eps", "1e-6")
    assert (code, err, json.loads(out)) == (0, "", {"n": 1199})
    assert _mp_sumform(1199, 2 ** 200, 0.5) <= 1e-6 < _mp_sumform(1198, 2 ** 200, 0.5)
    code, out, err = run_cli(capsys, "curve", "--d", d, "--gamma", "0", "--eps", "1e-6",
                             "--s-steps", "5")
    assert (code, err) == (0, "")
    assert [row["n"] for row in json.loads(out)["rows"]][-1] == 525


@pytest.mark.parametrize("command", ["chsh --device DEV --rounds 1000",
                                     "simulate wse --device DEV --n 10",
                                     "simulate pv --device DEV --n 10",
                                     "verify norm-lemma --trials 1"])
@pytest.mark.parametrize("where", ["flag", "env"])
def test_negative_seed_exits_2(capsys, device_file, monkeypatch, command, where):
    argv = command.replace("DEV", device_file).split()
    if where == "env":
        monkeypatch.setenv("DI2PC_SEED", "-1")
    else:
        argv.append("--seed=-1")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err.strip())["error"] == "usage"
