"""Hypothesis property tests (the ``test`` extra installs Hypothesis)."""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from di2pc.adversary import (  # noqa: E402
    _discriminate_batch,
    _dual_upper,
    _qubit_optimum,
    random_qubit_device,
    random_rotated_ideal_device,
)
from di2pc.matcore import RandomSuite  # noqa: E402
from di2pc.protocols import DeviceModel, run_pv, run_wse  # noqa: E402
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
    _, certified_upper, _, _ = _discriminate_batch(g, tol=1e-12)
    assert np.all(np.abs(certified_upper - value) <= 1e-10)


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
