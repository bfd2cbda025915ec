"""The reduction pipeline: normalization, bands, flattening, dilation."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pavlab import (
    MasaFrame,
    Partition,
    TracedMatrix,
    compress,
    op_norm,
    paving_defect,
    perpendicular_frame,
)
from pavlab import free_model, paving, reduction
from pavlab.free_model import make_block_paver
from pavlab.reduction import (
    ReductionTrace,
    band_slices,
    dilate_to_projection,
    flatten,
    normalize_selfadjoint,
    reduce_and_pave,
    split_real_imag,
)

ROOT = Path(__file__).resolve().parents[1]
FLIP = np.array([[0, 1], [1, 0]], dtype=complex)


def haar_model_selfadjoint(dim, seed):
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    u = q / (np.diagonal(r) / np.abs(np.diagonal(r)))
    x = u - np.diag(np.diagonal(u))
    x = (x + x.conj().T) / 2
    return x / np.linalg.norm(x, 2)


# -- split_real_imag ------------------------------------------------------------

def test_split_selfadjoint():
    x = FLIP
    y1, y2 = split_real_imag(x)
    assert np.allclose(y1.entries, x)
    assert np.abs(y2.entries).max() < 1e-15


def test_split_imaginary_identity():
    y1, y2 = split_real_imag(1j * np.eye(3))
    assert np.abs(y1.entries).max() < 1e-15
    assert np.allclose(y2.entries, np.eye(3))


def test_split_reassembles():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    y1, y2 = split_real_imag(x)
    assert np.abs(y1.entries + 1j * y2.entries - x).max() < 1e-14
    assert np.abs(y1.entries - y1.entries.conj().T).max() < 1e-14
    assert op_norm(y1) <= op_norm(x) + 1e-12


# -- normalize_selfadjoint ---------------------------------------------------------

def test_normalize_flip():
    y0, spectrum = normalize_selfadjoint(FLIP)
    ev = np.sort(np.linalg.eigvalsh(y0))
    assert np.allclose(ev, [1 / 3, 1 / 2], atol=1e-12)
    assert np.array_equal(spectrum, np.linalg.eigvalsh(y0))


def test_normalize_zero():
    y0, _ = normalize_selfadjoint(np.zeros((3, 3)))
    assert np.allclose(y0, 5 / 12 * np.eye(3))


def test_normalize_rejects_bad_input():
    with pytest.raises(ValueError):
        normalize_selfadjoint(np.array([[0, 1j], [1j, 0]]))  # not self-adjoint
    with pytest.raises(ValueError):
        normalize_selfadjoint(np.diag([1.0, -1.0]))  # nonzero diagonal
    with pytest.raises(ValueError):
        normalize_selfadjoint(2 * FLIP)  # norm > 1 escapes the window


def test_normalize_random_window():
    for seed in range(10):
        x = haar_model_selfadjoint(16, seed)
        ev = np.linalg.eigvalsh(normalize_selfadjoint(x)[0])
        assert ev.min() >= 1 / 3 - 1e-10
        assert ev.max() <= 0.5 + 1e-10


# -- band_slices -----------------------------------------------------------------

def test_bands_constant_expectation():
    a = 5 / 12 * np.eye(4)
    bands = band_slices(a, 0.5)
    assert len(bands) == 1
    assert bands[0].slots.size == 4
    assert 1 / 3 <= bands[0].anchor <= 5 / 12


def test_bands_two_values():
    a = np.diag([0.34, 0.34, 0.49, 0.49])
    bands = band_slices(a, 0.5)
    assert len(bands) == 2
    assert {tuple(b.slots) for b in bands} == {(0, 1), (2, 3)}


def test_bands_count_bound():
    rng = np.random.default_rng(5)
    for eps in (0.1, 0.3):
        a = np.diag(rng.uniform(1 / 3, 0.5, size=32))
        bands = band_slices(a, eps)
        assert len(bands) <= 1 / eps + 1
        assert sum(b.slots.size for b in bands) == 32


def test_bands_rejects_out_of_window():
    with pytest.raises(ValueError):
        band_slices(np.diag([0.2, 0.4]), 0.5)


# -- flatten --------------------------------------------------------------------

def test_flatten_single_band_scalar():
    y0, _ = normalize_selfadjoint(FLIP)
    bands = band_slices(5 / 12 * np.eye(2), 0.5)
    res = flatten(y0, bands, 0.5)
    d = np.real(np.diagonal(res.y))
    assert np.abs(d - bands[0].anchor).max() < 1e-12
    assert res.drift <= 0.5 / 4 + 1e-12


def test_flatten_two_band_constant_per_band():
    # dim-8 instance engineered to put half the slots in each band
    rng = np.random.default_rng(9)
    dim, eps = 8, 0.5
    off = rng.standard_normal((dim, dim)) * 0.003
    off = (off + off.T) / 2
    np.fill_diagonal(off, 0.0)
    diag = np.array([0.35] * 4 + [0.46] * 4)
    y0 = np.diag(diag) + off
    ev = np.linalg.eigvalsh(y0)
    assert ev.min() >= 1 / 3 and ev.max() <= 0.5
    bands = band_slices(np.diag(diag), eps)
    assert len(bands) == 2
    res = flatten(y0, bands, eps)
    d = np.real(np.diagonal(res.y))
    for band in bands:
        assert np.abs(d[band.slots] - band.anchor).max() <= 1e-9
    assert res.drift <= eps / 4 + 1e-12


def test_flatten_rejects_uncovered_slots():
    y0 = 5 / 12 * np.eye(4)
    bands = band_slices(5 / 12 * np.eye(4), 0.5)
    partial = [type(bands[0])(bands[0].index, bands[0].anchor, np.array([0, 1]))]
    with pytest.raises(ValueError):
        flatten(y0, partial, 0.5)


# -- dilate_to_projection ----------------------------------------------------------

def full_size(res, dim):
    """The dilated projection g: its corner scattered onto e_slots then p_slots."""
    g = np.zeros((dim, dim), dtype=complex)
    slots = np.concatenate([res.e_slots, res.p_slots])
    g[np.ix_(slots, slots)] = res.corner
    return g


def test_dilation_one_dim_corner_half():
    # y = e/2 on a one-dimensional corner dilates to the 2x2 rotation
    y = np.diag([0.5, 0.0, 0.0]).astype(complex)
    res = dilate_to_projection(y, np.array([0]), 0.5)
    assert res.p_slots.size == 1
    g = full_size(res, 3)
    assert np.abs(g @ g - g).max() < 1e-12
    sub = g[np.ix_([0, res.p_slots[0]], [0, res.p_slots[0]])]
    assert np.allclose(sub, np.array([[0.5, 0.5], [0.5, 0.5]]), atol=1e-12)
    assert res.shift == pytest.approx(0.0, abs=1e-12)


def test_dilation_scalar_corner_exact_anchor():
    t, s, dim = 0.5, 4, 16
    y = np.zeros((dim, dim), dtype=complex)
    e = np.arange(s)
    y[np.ix_(e, e)] = t * np.eye(s)
    res = dilate_to_projection(y, e, t)
    assert res.shift == pytest.approx(0.0, abs=1e-12)
    assert res.anchor == pytest.approx(t)
    g = full_size(res, dim)
    assert np.abs(g @ g - g).max() < 1e-12
    support = np.concatenate([e, res.p_slots])
    diag = np.real(np.diagonal(g))
    assert np.abs(diag[support] - t).max() < 1e-12
    off_support = np.setdiff1d(np.arange(dim), support)
    assert np.abs(diag[off_support]).max() < 1e-15


def test_dilation_random_corner_dim64():
    rng = np.random.default_rng(3)
    dim, s = 64, 16
    corner = rng.standard_normal((s, s)) * 0.02
    corner = (corner + corner.T) / 2
    np.fill_diagonal(corner, 0.0)
    t = 0.4
    y = np.zeros((dim, dim), dtype=complex)
    e = np.arange(s)
    y[np.ix_(e, e)] = t * np.eye(s) + corner
    res = dilate_to_projection(y, e, t)
    g = full_size(res, dim)
    assert np.abs(g @ g - g).max() < 1e-8
    assert res.g2_dev < 1e-8
    assert res.diag_dev < 1e-8
    assert 0 <= res.shift < t / (s + res.p_slots.size) + 1e-12
    # expectation is exactly the shifted anchor on the support
    support = np.concatenate([e, res.p_slots])
    assert np.abs(np.real(np.diagonal(g))[support] - res.anchor).max() < 1e-8


def test_dilation_insufficient_room():
    y = np.zeros((4, 4), dtype=complex)
    e = np.arange(3)
    y[np.ix_(e, e)] = 0.4 * np.eye(3)
    with pytest.raises(ValueError):
        dilate_to_projection(y, e, 0.4)  # needs ~5 fresh slots, has 1


# -- reduce_and_pave ---------------------------------------------------------------

def test_reduce_diagonal_short_circuit():
    part, trace, report = reduce_and_pave(np.diag([1.0, 2.0, 3.0]), 0.5, make_block_paver())
    assert report.ratio == 0.0
    assert part.effective_blocks == 1
    assert trace.stages[0].label == "short_circuit"


def test_reduce_dim2_singletons():
    part, trace, report = reduce_and_pave(FLIP, 0.5, make_block_paver())
    assert report.ratio == 0.0
    assert part.effective_blocks == 2


def test_reduce_haar_model_end_to_end():
    x = haar_model_selfadjoint(32, 7)
    eps = 0.6
    part, trace, report = reduce_and_pave(x, eps, make_block_paver(), seed=1)
    assert report.ratio <= eps
    assert trace.all_ok
    n_proj = max(s.detail.get("n_proj_max", 0) for s in trace.stages if s.detail)
    assert part.n_blocks <= n_proj ** 2 * (1 / eps + 1) ** 2


def test_reduce_complex_input_combines_components():
    rng = np.random.default_rng(11)
    z = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    z = z - np.diag(np.diagonal(z))
    z /= np.linalg.norm(z, 2)
    eps = 0.6
    part, trace, report = reduce_and_pave(z, eps, make_block_paver(), seed=3)
    labels = [s.label for s in trace.stages]
    assert "component_ratio_real" in labels and "component_ratio_imag" in labels
    assert report.ratio <= 2 * eps + 1e-9


def test_reduce_components_below_degenerate_norm_report_one_block():
    # ||x|| = 1.27e-12 passes DEGENERATE_NORM, each component's 0.9e-12 does not
    flip = np.eye(3)[[1, 0, 2]]
    x = 0.9e-12 * (1 + 1j) * flip
    part, trace, report = reduce_and_pave(x, 0.5, make_block_paver())
    assert part.effective_blocks == 1
    assert report.ratio == 1.0
    assert [s.label for s in trace.stages] == ["real_imag_reassembly", "combined_ratio"]
    last = trace.stages[-1]
    assert (last.measured, last.bound, last.ok) == (1.0, 0.5, False)
    assert not trace.all_ok


def test_reduce_takes_three_full_size_norms(monkeypatch):
    # the base and two in flatten: each component report of the singletons
    # the paver returns here has a zero defect and takes no base norm
    sizes = []

    def counted(a):
        sizes.append(a.shape[0])
        return op_norm(a)

    for mod in (free_model, paving, reduction):
        monkeypatch.setattr(mod, "op_norm", counted)
    part, trace, report = reduce_and_pave(haar_model_selfadjoint(128, 0), 0.6,
                                          make_block_paver())
    assert part.effective_blocks == 128
    assert sizes.count(128) == 3


def benchmark_reduce_input(dim, seed):
    """The reduce benchmark's input: a Hermitian Haar model at unit norm."""
    a = free_model.sample(free_model.EnsembleSpec("zero_diag_haar", dim, seed)).entries
    a = (a + a.conj().T) / 2
    return a / op_norm(a)


@pytest.mark.parametrize("dim", [128, 256])
def test_reduce_live_set_stays_within_six_dense_matrices(dim):
    # each dense dim x dim matrix is held only while a later step reads it:
    # the traced peak reads 5.75 and 5.42 matrices at dims 128 and 256 (5.41
    # at dim 512), and 13.9 and 13.8 with a full-size dilation per corner
    # and spare copies.  The bound of 6 is tight enough that each single
    # regression fails it: an eager g, y0 or the unscaled component held
    # through the corner loop, or a kept zero imaginary part, each adds
    # about one matrix
    import tracemalloc

    x = benchmark_reduce_input(dim, 0)
    reduce_and_pave(x, 0.6, make_block_paver(), seed=0)  # first-call set-up is not what is guarded
    tracemalloc.start()
    try:
        reduce_and_pave(x, 0.6, make_block_paver(), seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.0 * 16 * dim * dim, peak / (16 * dim * dim)


@pytest.mark.parametrize("dim", [128, 256])
def test_reduce_takes_no_corner_norm_on_the_benchmark_input(dim, monkeypatch):
    # the base and two in flatten at the full dim; each corner's largest
    # column exceeds its target, so the paver takes no norm of the corner
    sizes, corner_sizes = [], set()
    paver = make_block_paver()

    def counted(a):
        sizes.append(a.shape[0])
        return op_norm(a)

    def recording_paver(corner, target, seed):
        corner_sizes.add(corner.shape[0])
        return paver(corner, target, seed)

    x = benchmark_reduce_input(dim, 0)
    for mod in (free_model, paving, reduction):
        monkeypatch.setattr(mod, "op_norm", counted)
    part, trace, report = reduce_and_pave(x, 0.6, recording_paver, seed=0)
    assert sizes.count(dim) == 3
    assert corner_sizes and not corner_sizes & set(sizes)


def _short_paver(corner, target, seed):
    """A paver that drops the corner's last index."""
    return Partition.one_block(MasaFrame.identity(corner.shape[0] - 1))


@pytest.mark.parametrize("paver, message", [
    (_short_paver, r"a Partition of dim (\d+), got dim (?!\1)\d+"),
    (lambda corner, target, seed: np.zeros(corner.shape[0], dtype=np.int64),
     r"a Partition of dim \d+, got ndarray"),
])
def test_reduce_refuses_a_paver_result_of_the_wrong_size(paver, message):
    with pytest.raises(ValueError, match=message):
        reduce_and_pave(haar_model_selfadjoint(24, 5), 0.6, paver, seed=2)


def test_reduce_rejects_bad_eps():
    with pytest.raises(ValueError):
        reduce_and_pave(FLIP, 1.5, make_block_paver())


# -- module invariants ----------------------------------------------------------------

def test_translation_scale_invariance_exact():
    rng = np.random.default_rng(13)
    frame = MasaFrame.identity(12)
    for seed in range(10):
        x = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        part = Partition(rng.integers(0, 3, size=12), 3, frame)
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        d0 = paving_defect(x, part, 0.5).defect
        d_shift = paving_defect(x + alpha * np.eye(12), part, 0.5).defect
        d_scale = paving_defect(alpha * x, part, 0.5).defect
        assert abs(d_shift - d0) < 1e-12 * max(1, d0)
        assert abs(d_scale - abs(alpha) * d0) < 1e-9 * max(1, d0)


def test_perturbation_stability():
    # pave y, transfer to x with ||x - y|| <= delta/2 (1+eps)^-1 ||x - E x||:
    # the measured ratio on x stays below eps + delta
    rng = np.random.default_rng(17)
    frame = MasaFrame.identity(16)
    for seed in range(10):
        x = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        x = x - np.diag(np.diagonal(x))
        x /= np.linalg.norm(x, 2)
        delta = 0.2
        eta = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        base = op_norm(x)
        y = x + eta / np.linalg.norm(eta, 2) * (delta * base / 4)
        part = Partition(rng.integers(0, 4, size=16), 4, frame)
        ratio_y = paving_defect(y, part, 0.5).ratio
        if ratio_y > 1.0:
            continue  # hypothesis of (2) needs eps <= 1 for our eta budget
        ratio_x = paving_defect(x, part, 0.5).ratio
        assert ratio_x <= ratio_y + delta + 1e-9


def test_real_imag_recombination_bound():
    # refine of the two component pavings paves x at most at the sum of
    # the component ratios
    from pavlab import refine

    rng = np.random.default_rng(19)
    frame = MasaFrame.identity(16)
    for seed in range(10):
        x = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        x = x - np.diag(np.diagonal(x))
        y1, y2 = split_real_imag(x)
        p = Partition(rng.integers(0, 3, size=16), 3, frame)
        q = Partition(rng.integers(0, 3, size=16), 3, frame)
        r1 = paving_defect(y1, p, 0.5)
        r2 = paving_defect(y2, q, 0.5)
        combined = refine(p, q)
        defect_x = paving_defect(x, combined, 0.5).defect
        assert defect_x <= r1.defect + r2.defect + 1e-9


def test_trace_json_bytes():
    # artifacts are compared byte for byte, so the key order is part of the format
    trace = ReductionTrace(eps=0.5)
    trace.band_count = 2
    trace.anchors = (0.25, 0.375)
    trace.add("flatten_drift", 0.0625, 0.125, lo=0.5, n=3)
    assert json.dumps(trace.to_json_dict()) == (
        '{"eps": 0.5, "band_count": 2, "anchors": [0.25, 0.375], "stages": '
        '[{"label": "flatten_drift", "measured": 0.0625, "bound": 0.125, "ok": true, '
        '"detail": {"lo": 0.5, "n": 3}}]}')


def test_reduce_benchmark_digest_matches():
    out = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--check-digest",
                          "--workload", "reduce"], cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    assert out.returncode == 0, out.stdout + out.stderr


# -- pinned reduce results ---------------------------------------------------------

# (input kind, dim, input seed, eps, paver seed): cases the benchmark digest
# does not cover.  "complex" takes both components and refine, "fourier" feeds
# a Haar-model input in the coordinates of the perpendicular frame, "diagonal" and "flip" take the short circuit to
# one block and to singletons, "haar" are Hermitian Haar-model inputs
REDUCE_CASES = [
    ("complex", 16, 11, 0.6, 3),
    ("fourier", 16, 7, 0.6, 1),
    ("diagonal", 3, 0, 0.5, 0),
    ("flip", 2, 0, 0.5, 0),
    ("haar", 24, 5, 0.6, 2),
    ("haar", 48, 6, 0.5, 4),
]
# SHA-256 of the assignment, of the report JSON without elapsed_ms and of the
# trace JSON, recorded before the reduce path skipped its decided SVDs (numpy
# 2.4 with OpenBLAS 0.3.31, one BLAS thread as the benchmark runs).  The
# "fourier" trace hash was renewed when the pipeline came to take x into its
# frame once, at entry: its stages moved at rounding level, its assignment
# and report did not
REDUCE_PINS = [
    ["f23d672bb9b341f9afa8498423b75deb80e726145969391d4b9392464c2298ee",
     "577a30e9a251c5602b5070b0043bfee408d68a997b95235757a87c8508155607",
     "bd18f3f7d32acfbd8b1baab9e1590fcbfb4359d2a0eae9914b805eec2217d9ea"],
    ["f23d672bb9b341f9afa8498423b75deb80e726145969391d4b9392464c2298ee",
     "e40b273dcd8ed87b05c92692780786597322dba41a2a08e609598894e02eccc9",
     "9ebde8becf3bae65546dd679e1c875eac3ec159d9dcad98b40b4bf9625738093"],
    ["9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0",
     "0f0d8e52df4bbf9e3d9a274ed89304328b6cace0a383fcaa759f0eac32bc350f",
     "d0a1af52bdcef1cbec9d6ea27c4f97b9656f893eb284d21079b8a33675642644"],
    ["9d34149fbd1fe777eb238799054c8cbfbce372255f219f8740838def9bfd02db",
     "56c9de16a9d010b10cbe799714ed242b0d7f09f4879735e6f2bc4d925336b05a",
     "d0a1af52bdcef1cbec9d6ea27c4f97b9656f893eb284d21079b8a33675642644"],
    ["088889b8071756d3559dc2172e525644f0be09d4b3fb26a697070bddcb805338",
     "18afeec35caf7de2e82b1b16f099bc6c6eb643e75987573304dccc781fd1cb85",
     "1ec495d109023b1f7a854062c299ea72a363735b093b1ddf7a35aab537ba57b1"],
    ["852c80a269cfde9f6b8cc6c4f19f4e92c636218d0620fedda0d379e77abc224b",
     "3f2aabbcf6a91a1881935749b662be6d80e1d5d98baf913eaea6bcaba6c2afad",
     "95795144a1473e0740bd49173b55ffb665b5eb95c076f6f2da84be60b2e6afbe"],
]


def _reduce_input(kind, dim, seed):
    if kind in ("haar", "fourier"):
        return haar_model_selfadjoint(dim, seed)
    if kind == "diagonal":
        return np.diag(np.arange(1.0, dim + 1))
    if kind == "flip":
        return FLIP
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    z = z - np.diag(np.diagonal(z))
    return z / np.linalg.norm(z, 2)


def _reduce_pins():
    out = []
    for kind, dim, input_seed, eps, seed in REDUCE_CASES:
        x = _reduce_input(kind, dim, input_seed)
        if kind == "fourier":
            x = perpendicular_frame(dim).to_frame(x)
        part, trace, report = reduce_and_pave(x, eps, make_block_paver(), seed=seed)
        rep = report.to_json_dict()
        del rep["elapsed_ms"]
        out.append([hashlib.sha256(part.assignment.astype("<i8").tobytes()).hexdigest(),
                    hashlib.sha256(json.dumps(rep).encode()).hexdigest(),
                    hashlib.sha256(json.dumps(trace.to_json_dict()).encode()).hexdigest()])
    return out


def test_reduce_outputs_pinned():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests"),
                                           os.environ.get("PYTHONPATH", "")]))
    code = "import json, test_reduction as t\nprint(json.dumps(t._reduce_pins()))"
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
                         text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == REDUCE_PINS
