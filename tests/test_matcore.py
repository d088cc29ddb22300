"""Tests for the dense operator-algebra kernel."""

import json
import math

import numpy as np
import pytest

from di2pc.errors import DimensionCapError, DomainError, ShapeError
from di2pc.matcore import (
    RandomSuite,
    _herm,
    _isometry,
    _kron,
    as_matrix,
    check_binary_observable,
    check_density_operator,
    check_povm,
    child_seed,
    dagger,
    eig_hermitian,
    induced_norm,
    is_hermitian,
    matrix_abs,
    matrix_from_obj,
    matrix_to_obj,
    operator_norm,
    partial_trace,
    psd_sqrt,
    tensor_product,
)

Z = np.diag([1.0, -1.0]).astype(complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def test_tensor_identity():
    out = tensor_product(np.eye(2), np.eye(2))
    assert np.array_equal(out, np.eye(4))


def test_tensor_diag_embedding():
    out = tensor_product(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert np.allclose(out, np.diag([0.0, 1.0, 0.0, 0.0]))


def test_tensor_zz_eigenvector():
    rho00 = np.zeros((4, 4), dtype=complex)
    rho00[0, 0] = 1.0
    zz = tensor_product(Z, Z)
    assert np.allclose(zz @ rho00 @ zz, rho00)


def test_tensor_dimension_cap():
    big = np.eye(70)
    with pytest.raises(DimensionCapError):
        tensor_product(big, big)  # 4900 > 4096


def test_partial_trace_product_state():
    rs = RandomSuite(1)
    rho_a = rs.density_operator(3)
    rho_b = rs.density_operator(4)
    joint = np.kron(rho_a, rho_b)
    assert np.max(np.abs(partial_trace(joint, [3, 4], [0]) - rho_a)) < 1e-12
    assert np.max(np.abs(partial_trace(joint, [3, 4], [1]) - rho_b)) < 1e-12


def test_partial_trace_epr_marginal():
    phi = np.zeros((4, 1))
    phi[0] = phi[3] = 1.0 / math.sqrt(2.0)
    epr = phi @ phi.T
    assert np.max(np.abs(partial_trace(epr, [2, 2], [0]) - np.eye(2) / 2)) < 1e-12


def test_partial_trace_preserves_trace_random():
    rs = RandomSuite(7)
    for i in range(100):
        rho = rs.density_operator(6)
        out = partial_trace(rho, [2, 3], [int(i % 2)])
        assert abs(np.trace(out).real - 1.0) <= 1e-12


def test_partial_trace_shape_error():
    with pytest.raises(ShapeError):
        partial_trace(np.eye(6), [2, 2], [0])


def test_operator_norm_examples():
    assert operator_norm(np.eye(5)) == pytest.approx(1.0, abs=1e-12)
    assert operator_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0, abs=1e-12)


def test_operator_norm_hoelder_property():
    # ||L|| <= sqrt(||L||_1^I * ||L||_inf^I) on random matrices
    rs = RandomSuite(11)
    for _ in range(1000):
        m = rs.ginibre(5, 5)
        bound = math.sqrt(induced_norm(m, 1) * induced_norm(m, math.inf))
        assert operator_norm(m) <= bound + 1e-9


def test_operator_norm_gram_property():
    # ||L||^2 = ||L^dag L|| = ||L L^dag||
    rs = RandomSuite(13)
    for _ in range(200):
        m = rs.ginibre(4, 4)
        n2 = operator_norm(m) ** 2
        assert n2 == pytest.approx(operator_norm(dagger(m) @ m), abs=1e-9)
        assert n2 == pytest.approx(operator_norm(m @ dagger(m)), abs=1e-9)


def test_operator_norm_psd_monotone():
    rs = RandomSuite(17)
    for _ in range(200):
        a = rs.psd(4, 2.0)
        pert = rs.psd(4, 0.5)
        assert operator_norm(a + pert) >= operator_norm(a) - 1e-12


def test_induced_norm_examples():
    assert induced_norm(np.eye(4), 1) == pytest.approx(1.0)
    assert induced_norm(np.eye(4), math.inf) == pytest.approx(1.0)
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert induced_norm(m, 1) == pytest.approx(6.0)
    assert induced_norm(m, math.inf) == pytest.approx(7.0)


def test_induced_norms_agree_for_hermitian():
    rs = RandomSuite(19)
    for _ in range(1000):
        g = rs.ginibre(4, 4)
        h = g + dagger(g)
        assert induced_norm(h, 1) == pytest.approx(induced_norm(h, math.inf),
                                                   abs=1e-12)


def test_psd_sqrt_and_abs_examples():
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
    assert np.allclose(matrix_abs(-2.0 * np.eye(3)), 2.0 * np.eye(3))
    anti = Z @ X + X @ Z
    assert np.max(np.abs(matrix_abs(anti))) < 1e-12


def test_psd_sqrt_squares_back():
    rs = RandomSuite(23)
    for _ in range(100):
        a = rs.psd(5)
        r = psd_sqrt(a)
        assert np.max(np.abs(r @ r - a)) < 1e-9


def test_psd_sqrt_rejects_negative():
    with pytest.raises(DomainError):
        psd_sqrt(np.diag([1.0, -0.5]))


def test_eig_hermitian_examples():
    w, v = eig_hermitian(Z)
    assert np.allclose(w, [-1.0, 1.0])
    w, v = eig_hermitian(X)
    assert np.allclose(w, [-1.0, 1.0])
    # |-> and |+> up to phase
    assert abs(abs(v[0, 0]) - 1 / math.sqrt(2)) < 1e-12


def test_eig_hermitian_roundtrip_random():
    rs = RandomSuite(29)
    for _ in range(1000):
        dim = int(rs.rng.integers(2, 17))
        g = rs.ginibre(dim, dim)
        h = (g + dagger(g)) / 2
        w, v = eig_hermitian(h)
        assert np.max(np.abs((v * w) @ dagger(v) - h)) < 1e-10
        assert np.max(np.abs(dagger(v) @ v - np.eye(dim))) < 1e-9
        assert np.all(np.diff(w) >= -1e-15)


def test_eig_hermitian_rejects_nonhermitian():
    with pytest.raises(DomainError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_random_suite_determinism():
    a = RandomSuite(42)
    b = RandomSuite(42)
    assert np.array_equal(a.unitary(5), b.unitary(5))
    assert np.array_equal(a.density_operator(4), b.density_operator(4))
    child_a = RandomSuite(42).child(3)
    child_b = RandomSuite(42).child(3)
    assert np.array_equal(child_a.ginibre(3, 3), child_b.ginibre(3, 3))
    assert not np.array_equal(RandomSuite(42).unitary(5), RandomSuite(43).unitary(5))


def test_child_seed_counter_independence():
    s1 = RandomSuite(child_seed(9, 0)).ginibre(2, 2)
    s2 = RandomSuite(child_seed(9, 1)).ginibre(2, 2)
    assert not np.array_equal(s1, s2)


def test_random_density_operators_are_valid():
    rs = RandomSuite(31)
    for _ in range(300):
        check_density_operator(rs.density_operator(4))


def test_random_unitaries_are_unitary():
    rs = RandomSuite(37)
    for _ in range(300):
        u = rs.unitary(4)
        assert np.max(np.abs(dagger(u) @ u - np.eye(4))) < 1e-10


def test_random_povm_is_valid():
    rs = RandomSuite(41)
    for _ in range(50):
        check_povm(rs.povm(3, 4))


def test_random_projector_rank():
    rs = RandomSuite(43)
    p = rs.projector(5, 2)
    w = np.linalg.eigvalsh(p)
    assert np.sum(w > 0.5) == 2
    assert np.max(np.abs(p @ p - p)) < 1e-10


def test_observable_check():
    check_binary_observable(Z)
    check_binary_observable((Z + X) / math.sqrt(2.0))
    with pytest.raises(DomainError):
        check_binary_observable(0.5 * Z)


def test_json_roundtrip():
    rs = RandomSuite(47)
    m = rs.ginibre(3, 5)
    s = json.dumps(matrix_to_obj(m))
    obj = json.loads(s)
    assert obj["rows"] == 3 and obj["cols"] == 5
    assert len(obj["data"]) == 15
    back = matrix_from_obj(json.loads(s))
    assert np.max(np.abs(back - m)) == 0.0


def test_json_rejects_malformed():
    with pytest.raises(ShapeError):
        matrix_from_obj(json.loads(json.dumps({"rows": 2, "cols": 2, "data": [[1, 0]]})))


def test_random_density_operators_large_fuzz():
    rs = RandomSuite(53)
    for _ in range(10_000):
        rho = rs.density_operator(3)
        w = np.linalg.eigvalsh((rho + dagger(rho)) / 2)
        assert w[0] >= -1e-10
        assert abs(np.trace(rho).real - 1.0) <= 1e-10


def test_random_unitaries_large_fuzz():
    rs = RandomSuite(59)
    eye = np.eye(3)
    for _ in range(10_000):
        u = rs.unitary(3)
        assert np.max(np.abs(dagger(u) @ u - eye)) < 1e-10


def test_matrix_abs_nonhermitian_svd_oracle():
    rs = RandomSuite(61)
    for _ in range(50):
        m = rs.ginibre(4, 4)
        w = matrix_abs(m)
        sv = np.linalg.svd(m, compute_uv=False)
        assert np.allclose(np.linalg.eigvalsh(w)[::-1], sv, atol=1e-10)
        assert np.max(np.abs(w @ w - dagger(m) @ m)) < 1e-9


def test_induced_norm_rejects_other_p():
    with pytest.raises(DomainError):
        induced_norm(np.eye(2), 2)


def test_partial_trace_keep_nothing_gives_trace():
    rho = RandomSuite(67).density_operator(6)
    out = partial_trace(rho, [2, 3], [])
    assert out.shape == (1, 1)
    assert out[0, 0].real == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, math.nan),
                                 complex(math.inf, 0.0), complex(0.0, -math.inf),
                                 complex(math.nan, math.inf)])
def test_as_matrix_rejects_non_finite_real_or_imaginary_part(bad):
    m = np.eye(2, dtype=complex)
    m[0, 1] = bad
    with pytest.raises(DomainError):
        as_matrix(m)
    assert np.array_equal(as_matrix(np.eye(2) + 1e308j), np.eye(2) + 1e308j)


# ---------------------------------------------------------------------------
# stacks: one call on (..., d, d) gives, matrix by matrix, the 2-D call's bytes
# ---------------------------------------------------------------------------

_PER_MATRIX = {
    "dagger": dagger,
    "herm": _herm,
    "eig_hermitian.w": lambda m: eig_hermitian(m)[0],
    "eig_hermitian.v": lambda m: eig_hermitian(m)[1],
    "psd_sqrt": psd_sqrt,
    "operator_norm": operator_norm,
    "induced_norm.1": lambda m: induced_norm(m, 1),
    "induced_norm.inf": lambda m: induced_norm(m, math.inf),
    "isometry": _isometry,
}
# The primitives that take any matrix, not only a Hermitian or a PSD one.
_GENERAL = ("dagger", "herm", "operator_norm", "induced_norm.1", "induced_norm.inf",
            "isometry")


def _psd_stack(seed: int, shape: tuple, dim: int) -> np.ndarray:
    rs = RandomSuite(seed)
    return np.array([rs.psd(dim) for _ in range(math.prod(shape))]).reshape(
        shape + (dim, dim))


@pytest.mark.parametrize("name", list(_PER_MATRIX))
@pytest.mark.parametrize("dim", [1, 3, 8])
@pytest.mark.parametrize("shape", [(5,), (2, 3)])
def test_stack_call_equals_per_matrix_calls(name, dim, shape):
    fn = _PER_MATRIX[name]
    stacks = [_psd_stack(71 + dim, shape, dim)]
    if name in _GENERAL:
        stacks.append(RandomSuite(73 + dim).ginibre(math.prod(shape) * dim, dim)
                      .reshape(shape + (dim, dim)))
    for stack in stacks:
        whole = np.asarray(fn(stack))
        assert whole.shape[:len(shape)] == shape
        for idx in np.ndindex(*shape):
            single = fn(stack[idx])
            assert np.asarray(single).dtype == whole.dtype
            assert whole[idx].tobytes() == np.asarray(single).tobytes(), (name, idx)


def test_stack_norms_are_arrays_and_matrix_norms_floats():
    stack = _psd_stack(79, (4,), 3)
    for fn in (operator_norm, lambda m: induced_norm(m, 1)):
        assert type(fn(stack[0])) is float
        assert isinstance(fn(stack), np.ndarray) and fn(stack).shape == (4,)


def test_kron_of_stacks_equals_np_kron_per_pair():
    rs = RandomSuite(83)
    a = rs.ginibre(4 * 2, 3).reshape(4, 2, 3)
    b = rs.ginibre(4 * 3, 2).reshape(4, 3, 2)
    out = _kron(a, b)
    assert out.shape == (4, 6, 6)
    for i in range(4):
        assert out[i].tobytes() == np.kron(a[i], b[i]).tobytes()
    # broadcast leading axes, and a real factor kept real in the product
    eye = np.eye(2)
    assert _kron(a[:, None], eye).shape == (4, 1, 4, 6)
    assert _kron(a[1], eye).tobytes() == np.kron(a[1], eye).tobytes()
    assert tensor_product(a[2], b[3]).tobytes() == np.kron(a[2], b[3]).tobytes()


def test_is_hermitian_on_a_stack_needs_every_matrix():
    stack = _psd_stack(89, (3,), 4)
    assert is_hermitian(stack)
    stack[1, 0, 1] += 1e-6
    assert not is_hermitian(stack)
    assert is_hermitian(stack[0]) and not is_hermitian(stack[1])


def _spoil(stack: np.ndarray, how: str) -> np.ndarray:
    bad = stack.copy()
    if how == "non-finite":
        bad[-1, 0, 0] = complex(math.nan, 0.0)
    elif how == "non-Hermitian":
        bad[-1, 0, 1] += 1e-3
    else:           # non-PSD
        bad[-1] -= 2.0 * operator_norm(bad[-1]) * np.eye(bad.shape[-1])
    return bad


_CHECKED = {
    "non-finite": ("eig_hermitian.w", "psd_sqrt", "operator_norm", "induced_norm.1"),
    "non-Hermitian": ("eig_hermitian.w", "psd_sqrt"),
    "non-PSD": ("psd_sqrt",),
}


@pytest.mark.parametrize("how,name", [(how, name) for how, names in _CHECKED.items()
                                      for name in names])
def test_stack_call_rejects_one_bad_matrix_as_the_2d_call(how, name):
    fn = _PER_MATRIX[name]
    bad = _spoil(_psd_stack(97, (4,), 3), how)
    with pytest.raises(Exception) as single:
        fn(bad[-1])
    assert single.type is DomainError
    with pytest.raises(single.type):
        fn(bad)
    fn(bad[:-1])                # the other matrices alone pass
