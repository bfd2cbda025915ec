"""Traces, norms, conditional expectation, perpendicular frames."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pavlab import (
    MasaFrame,
    TracedMatrix,
    conditional_expectation,
    l2_norm,
    normalized_trace,
    op_norm,
    perpendicular_frame,
)
from pavlab import finite_vn
from pavlab.finite_vn import _dft_matrix, _singular_values
from pavlab.paving import _off_diagonal


def random_matrix(dim, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def l1_norm(x):
    """tau(|x|) = (1/dim) * sum of singular values."""
    a = x.entries if isinstance(x, TracedMatrix) else np.asarray(x)
    return np.linalg.svd(a, compute_uv=False).sum() / a.shape[0]


def test_traced_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        TracedMatrix(np.array([[np.nan, 0], [0, 1]], dtype=complex))
    with pytest.raises(ValueError):
        TracedMatrix(np.ones((2, 3)))


def test_trace_of_identity_is_one():
    for dim in (1, 2, 5, 17):
        assert normalized_trace(TracedMatrix(np.eye(dim))) == pytest.approx(1.0)


def test_trace_zero_diagonal():
    assert normalized_trace(np.array([[0, 1], [1, 0]], dtype=complex)) == 0


def test_trace_is_tracial():
    x, y = random_matrix(8, 1), random_matrix(8, 2)
    assert abs(normalized_trace(x @ y) - normalized_trace(y @ x)) < 1e-12


def test_trace_linear_and_positive():
    rng = np.random.default_rng(3)
    for dim in (2, 16, 64):
        x, y = random_matrix(dim, 10 + dim), random_matrix(dim, 20 + dim)
        c = complex(rng.standard_normal(), rng.standard_normal())
        lhs = normalized_trace(c * x + y)
        assert abs(lhs - (c * normalized_trace(x) + normalized_trace(y))) < 1e-12
        assert normalized_trace(x.conj().T @ x).real >= 0


def test_op_norm_identity_and_nilpotent():
    assert op_norm(TracedMatrix(np.eye(3))) == pytest.approx(1.0)
    assert op_norm(np.array([[0, 1], [0, 0]], dtype=complex)) == pytest.approx(1.0)


def test_op_norm_power_trace_oracle():
    # tau((x^2)^k)^(1/2k) -> ||x|| for Hermitian x; repeated squaring to k = 64
    rng = np.random.default_rng(5)
    a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    x = (a + a.conj().T) / 2
    p = x @ x
    k = 1
    while k < 64:
        p = p @ p
        p /= np.abs(p).max()  # rescale against overflow, tracked separately
        k *= 2
    # recompute without rescaling drift via eigenvalues for the oracle value
    ev = np.abs(np.linalg.eigvalsh(x))
    oracle = float((np.sum((ev / ev.max()) ** (2 * 64)) / 16) ** (1 / (2 * 64)) * ev.max())
    assert abs(oracle - op_norm(x)) <= 0.05 * op_norm(x)


def test_op_norm_power_iteration_path_matches_svd():
    # dim above the SVD limit exercises the power-iteration branch
    import pavlab.finite_vn as fv

    a = random_matrix(64, 11)
    old = fv.SVD_DIM_LIMIT
    try:
        fv.SVD_DIM_LIMIT = 32
        approx = op_norm(a)
    finally:
        fv.SVD_DIM_LIMIT = old
    assert abs(approx - np.linalg.norm(a, 2)) < 1e-6 * np.linalg.norm(a, 2)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("limit", [1024, 32])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(np.inf, 1)])
def test_op_norm_refuses_a_nonfinite_entry_on_both_paths(monkeypatch, limit, bad):
    # above the SVD limit the power iteration returned NaN for such an entry
    import pavlab.finite_vn as fv

    monkeypatch.setattr(fv, "SVD_DIM_LIMIT", limit)
    a = random_matrix(64, 11)
    a[5, 40] = bad
    with pytest.raises(np.linalg.LinAlgError):
        op_norm(a)


def reference_power_norm(a: np.ndarray) -> float:
    """The power iteration of op_norm as it read with a conjugate copy of a:
    w = a* (a v)."""
    dim = a.shape[0]
    rng = np.random.default_rng(finite_vn._POWER_SEED)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    ah = a.conj().T
    est = 0.0
    for _ in range(finite_vn._POWER_ITERATIONS):
        w = ah @ (a @ v)
        s = np.linalg.norm(w)
        if s == 0.0:
            return 0.0
        v = w / s
        new = float(np.sqrt(s))
        if abs(new - est) <= finite_vn._POWER_TOL * max(new, 1e-30):
            return new
        est = new
    return est


def test_op_norm_power_path_keeps_the_bits_of_the_conjugate_copy():
    # conj(conj(a v) a) is a* (a v) exactly: conjugation is exact, and both
    # products run the same gemv
    a = random_matrix(1040, 12)
    assert repr(op_norm(a)) == repr(reference_power_norm(a))


@pytest.mark.parametrize("shape", [(6, 6), (11, 11), (3, 5, 5), (4, 9)])
def test_singular_values_give_the_bits_of_numpy_svd(shape):
    rng = np.random.default_rng(sum(shape))
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got, want = _singular_values(a), np.linalg.svd(a, compute_uv=False)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_a_nonfinite_entry_raises_in_the_norm(bad):
    # np.linalg.svd returns NaNs for an inf entry; the kernel refuses them
    a = random_matrix(8, 3)
    a[2, 5] = bad
    with pytest.raises(np.linalg.LinAlgError):
        _singular_values(a)
    with pytest.raises(np.linalg.LinAlgError):
        op_norm(a)


def test_l2_l1_identity():
    assert l2_norm(TracedMatrix(np.eye(7))) == pytest.approx(1.0)
    assert l1_norm(TracedMatrix(np.eye(7))) == pytest.approx(1.0)


def test_rank_one_projection_norms():
    m = 8
    e11 = np.zeros((m, m), dtype=complex)
    e11[0, 0] = 1.0
    assert l2_norm(e11) == pytest.approx(m ** -0.5)
    assert l1_norm(e11) == pytest.approx(1 / m)


def test_norm_ordering_random():
    for seed in range(20):
        x = random_matrix(16, seed)
        assert l1_norm(x) <= l2_norm(x) + 1e-12 and l2_norm(x) <= op_norm(x) + 1e-12


def test_op_norm_submultiplicative():
    for seed in range(10):
        x, y = random_matrix(12, seed), random_matrix(12, 100 + seed)
        assert op_norm(x @ y) <= op_norm(x) * op_norm(y) + 1e-9


def test_conditional_expectation_identity_frame():
    frame = MasaFrame.identity(2)
    x = np.array([[1, 2], [3, 4]], dtype=complex)
    ex = conditional_expectation(x, frame).entries
    assert np.allclose(ex, np.diag([1.0, 4.0]))


def test_conditional_expectation_fixes_diagonal():
    frame = MasaFrame.identity(4)
    d = np.diag(np.arange(4.0))
    assert np.allclose(conditional_expectation(d, frame).entries, d)


def test_conditional_expectation_orthogonal_split():
    frame = MasaFrame.identity(8)
    x = random_matrix(8, 6)
    ex = conditional_expectation(x, frame).entries
    total = l2_norm(x) ** 2
    assert abs(l2_norm(x - ex) ** 2 + l2_norm(ex) ** 2 - total) < 1e-12


def test_conditional_expectation_dim_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch: matrix 3, frame 4"):
        conditional_expectation(np.eye(3), MasaFrame.identity(4))


def test_conditional_expectation_properties_random_frames():
    # trace preserving, idempotent, bimodular, contraction in all three norms
    rng = np.random.default_rng(9)
    z = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    q, r = np.linalg.qr(z)
    frame = MasaFrame(q)
    for seed in range(25):
        x = random_matrix(16, 1000 + seed)
        ex = conditional_expectation(x, frame)
        assert abs(normalized_trace(ex) - normalized_trace(x)) < 1e-10
        assert np.allclose(conditional_expectation(ex, frame).entries, ex.entries, atol=1e-10)
        assert op_norm(ex) <= op_norm(x) + 1e-9
        assert l2_norm(ex) <= l2_norm(x) + 1e-9
        assert l1_norm(ex) <= l1_norm(x) + 1e-9
        a = frame.diagonal_element(rng.standard_normal(16)).entries
        b = frame.diagonal_element(rng.standard_normal(16)).entries
        lhs = conditional_expectation(a @ x @ b, frame).entries
        assert np.allclose(lhs, a @ ex.entries @ b, atol=1e-9)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_conditional_expectation_keeps_the_frame_diagonal_property(data):
    # E_A(x) holds the bytes of U diag(diag(U* x U)) U*; in the identity
    # frame x - E_A(x) holds those of x with its diagonal zeroed, the
    # centering that every internal step applies in frame coordinates
    dim = data.draw(st.integers(1, 64), label="dim")
    # the Fourier frame at dim 1 is the 1 x 1 identity
    fourier = data.draw(st.booleans(), label="fourier")
    frame = MasaFrame(_dft_matrix(dim)) if fourier else MasaFrame.identity(dim)
    x = random_matrix(dim, data.draw(st.integers(0, 2**32 - 1), label="seed"))
    if data.draw(st.booleans(), label="traced"):
        x = TracedMatrix(x)
    got = conditional_expectation(x, frame).entries
    want = frame.from_frame(np.diag(np.diagonal(frame.to_frame(x))))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    if frame.is_identity:
        centered = frame.to_frame(x) - got
        assert centered.tobytes() == _off_diagonal(x).tobytes()


def test_perpendicular_frame_dim2():
    f = perpendicular_frame(2)
    assert np.allclose(f.basis, np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    a = np.diag([1.0, -1.0]).astype(complex)
    b = f.basis @ np.diag([1.0, -1.0]) @ f.basis.conj().T
    assert abs(normalized_trace(a @ b)) < 1e-12


def test_perpendicular_frame_traceless_grid():
    # exhaust a basis of traceless diagonals against traceless Fourier-diagonals
    dim = 4
    f = perpendicular_frame(dim)
    diags = [np.eye(dim)[k] - 1.0 / dim for k in range(dim - 1)]
    for da in diags:
        a = np.diag(da.astype(complex))
        for db in diags:
            b = f.basis @ np.diag(db.astype(complex)) @ f.basis.conj().T
            assert abs(normalized_trace(a @ b)) <= 1e-12


@pytest.mark.parametrize("basis", [
    1.5 * np.eye(4),
    np.eye(4) + 1e-8 * np.eye(4, k=1),
    np.diag([1.0, 1.0 + 1e-8, 1.0, 1.0]),
    np.diag([1.0, np.nan, 1.0, 1.0]),
], ids=["scaled", "off_diagonal_1e-8", "diagonal_1e-8", "nan"])
def test_masa_frame_refuses_non_unitary_basis(basis):
    with pytest.raises(ValueError, match="not unitary"):
        MasaFrame(basis)


def test_masa_frame_accepts_permutation_basis():
    perm = np.eye(5)[[2, 0, 4, 1, 3]]
    frame = MasaFrame(perm)
    assert not frame.is_identity
    x = random_matrix(5, 4)
    assert np.array_equal(frame.to_frame(x), perm.T @ x @ perm)
    assert MasaFrame(np.eye(5)).is_identity


def test_identity_frame_holds_no_dense_basis():
    import tracemalloc

    MasaFrame.identity(8)  # first-call set-up is not what is guarded
    tracemalloc.start()
    try:
        frame = MasaFrame.identity(2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak
    assert frame.dim == 2048 and frame.is_identity
    x = random_matrix(4, 1)
    small = MasaFrame.identity(4)
    assert small.to_frame(x) is x
    assert np.array_equal(small.from_frame(x), x)
    assert np.array_equal(small.basis, np.eye(4))  # built on demand
    assert MasaFrame(np.eye(4)).is_identity
    with pytest.raises(AttributeError):
        small.dim = 5


def test_perpendicular_frame_is_unitary_and_guarded():
    for m in (2, 3, 8, 17):
        MasaFrame(perpendicular_frame(m).basis)  # re-validates unitarity
    with pytest.raises(ValueError):
        perpendicular_frame(1)


def test_fourier_diagonal_expects_to_scalar():
    # E_diag(b) = tau(b) 1 for Fourier-diagonal b: the finite model of
    # perpendicularity, exact up to float error
    dim = 8
    f = perpendicular_frame(dim)
    rng = np.random.default_rng(12)
    vals = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    b = f.diagonal_element(vals)
    eb = conditional_expectation(b, MasaFrame.identity(dim)).entries
    assert np.abs(eb - normalized_trace(b) * np.eye(dim)).max() <= 1e-12
