"""Hypothesis property tests (the ``test`` extra installs Hypothesis)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from di2pc.adversary import _discriminate_batch, _dual_upper, _qubit_optimum  # noqa: E402


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
