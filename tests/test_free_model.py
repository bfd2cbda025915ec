"""Ensembles, asymptotic freeness, and the norm experiments."""

import functools
import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import _umath_linalg

from pavlab import MasaFrame, Partition, compress, free_model, normalized_trace, op_norm, paving
from pavlab.free_model import (
    EnsembleSpec,
    conjugation_paving_experiment,
    equal_block_partition,
    kesten_norm_oracle,
    kesten_values,
    make_block_paver,
    power_conjugation_growth,
    projection_paving_experiment,
    sample,
)
from pavlab.seeds import rng_for

ROOT = Path(__file__).resolve().parents[1]


# -- EnsembleSpec / sample ---------------------------------------------------

def haar_unitary(dim, seed):
    """A Haar unitary from the stream of tag 0."""
    return free_model._haar(dim, rng_for(seed, 0, dim))


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown ensemble kind 'nope'"):
        EnsembleSpec("nope", 8, 0)
    with pytest.raises(ValueError, match="unknown ensemble kind 'haar_unitary'"):
        EnsembleSpec("haar_unitary", 8, 0)
    with pytest.raises(ValueError, match="dim must be >= 2"):
        EnsembleSpec("zero_diag_haar", 1, 0)
    with pytest.raises(ValueError):
        EnsembleSpec("random_projection", 8, 0)
    with pytest.raises(ValueError):
        EnsembleSpec("random_projection", 8, 0, trace=0.01)


def test_haar_sample_is_unitary():
    u = haar_unitary(64, 5)
    assert np.abs(u.conj().T @ u - np.eye(64)).max() < 1e-10


def test_bit_reproducibility():
    for kind, kw in [("zero_diag_haar", {}), ("random_projection", {"trace": 0.25})]:
        a = sample(EnsembleSpec(kind, 16, 9, **kw)).entries
        b = sample(EnsembleSpec(kind, 16, 9, **kw)).entries
        assert a.tobytes() == b.tobytes()
        c = sample(EnsembleSpec(kind, 16, 10, **kw)).entries
        assert a.tobytes() != c.tobytes()


def test_zero_diag_haar_properties():
    x = sample(EnsembleSpec("zero_diag_haar", 32, 1)).entries
    assert np.abs(np.diagonal(x)).max() == 0
    assert op_norm(x) == pytest.approx(1.0, abs=1e-9)


def reference_haar(dim, rng):
    """The expression form that the one-buffer ``_haar`` replaces."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q / (d / np.abs(d))


def reference_zero_diag_haar(dim, rng):
    """The subtraction form that the in-place zeroing of ``_zero_diag_haar`` replaces."""
    u = reference_haar(dim, rng)
    x = u - np.diag(np.diagonal(u))
    return x / op_norm(x)


def assert_haar_sampling_equals_the_expression_forms(dim, seed):
    got = free_model._haar(dim, rng_for(seed, 0xC07, dim))
    want = reference_haar(dim, rng_for(seed, 0xC07, dim))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    if dim >= 2:
        got = free_model._zero_diag_haar(dim, rng_for(seed, 0xC07, dim))
        want = reference_zero_diag_haar(dim, rng_for(seed, 0xC07, dim))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_haar_sampling_equals_the_expression_forms_property(data):
    # every workload's inputs are drawn here, so the bits must not move
    dim = data.draw(st.integers(1, 256), label="dim")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    assert_haar_sampling_equals_the_expression_forms(dim, seed)


def test_haar_sampling_equals_the_expression_forms_at_the_oracle_dim():
    # the oracle workload draws at dim 1152, above the property's range
    assert_haar_sampling_equals_the_expression_forms(1152, 3)


def test_haar_draw_holds_two_dense_matrices():
    # tracemalloc sees numpy's arrays only: the QR gufuncs' column-major work
    # copies and LAPACK's workspace are malloc'd in C, so the process's RSS
    # stays the benchmark's to measure
    import tracemalloc

    dim = 256
    dense = dim * dim * np.dtype(np.complex128).itemsize
    kesten_norm_oracle(2, 8, 0)  # first-call set-up is not what is guarded
    for draw, bound in ((lambda: free_model._haar(dim, rng_for(0, 0, dim)), 2.2),
                        (lambda: kesten_norm_oracle(2, dim, 0), 3.2)):
        tracemalloc.start()
        try:
            draw()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * dense, peak / dense


def roots_of_unity_diag(dim, n, seed):
    """The diagonal unitary of the conjugation experiment: each n-th root of
    unity on dim/n slots, the labels shuffled by the stream of tag 3."""
    labels = np.repeat(np.arange(n), dim // n)
    rng_for(seed, 3, dim).shuffle(labels)
    return np.diag(np.exp(2j * np.pi * np.arange(n) / n)[labels])


def test_random_projection_trace_and_idempotence():
    e = sample(EnsembleSpec("random_projection", 4, 2, trace=0.5)).entries
    assert normalized_trace(e).real == pytest.approx(0.5, abs=1e-12)
    assert np.abs(e @ e - e).max() < 1e-10
    assert np.abs(e - e.conj().T).max() < 1e-12


def test_roots_of_unity_diag_moments():
    d = np.diagonal(roots_of_unity_diag(24, 6, 3))
    for k in range(1, 6):
        assert abs(np.sum(d ** k)) / 24 < 1e-12
    assert np.abs(d ** 6 - 1.0).max() < 1e-12


def test_haar_trace_concentration():
    hits = 0
    for s in range(20):
        u = haar_unitary(256, 100 + s)
        if abs(normalized_trace(u)) <= 3 / np.sqrt(256):
            hits += 1
    assert hits >= 19


# -- asymptotic freeness of the samples ------------------------------------------

def freeness_residual(mats, k):
    """Max |tau(w)| over the words w of length 2..k in the centered,
    L2-normalized letters with no two equal neighbours."""
    dim = mats[0].shape[0]
    lets = []
    for m in mats:
        c = m - (np.trace(m) / dim) * np.eye(dim)
        lets.append(c / (np.linalg.norm(c) / np.sqrt(dim)))
    return max(abs(np.trace(functools.reduce(np.matmul, [lets[i] for i in w]))) / dim
               for length in range(2, k + 1)
               for w in itertools.product(range(len(lets)), repeat=length)
               if all(a != b for a, b in zip(w, w[1:])))


def test_freeness_haar_pair_decays():
    u1 = haar_unitary(256, 0)
    u2 = haar_unitary(256, 1)
    assert freeness_residual([u1, u2], k=3) <= 0.08


def test_freeness_control_commuting_does_not_vanish():
    # two commuting diagonal phase matrices are classically independent but
    # not free: word traces only decay at the d^(-1/2) scale, well above
    # the free residual of a genuinely free pair at the same dimension
    rng = np.random.default_rng(7)
    a = np.diag(np.exp(2j * np.pi * rng.random(256)))
    b = np.diag(np.exp(2j * np.pi * rng.random(256)))
    residual = freeness_residual([a, b], k=4)
    u1 = haar_unitary(256, 0)
    u2 = haar_unitary(256, 1)
    assert residual > 0.02
    assert residual > 3 * freeness_residual([u1, u2], k=4)


# -- kesten oracle ---------------------------------------------------------------

def test_kesten_single_unitary():
    assert kesten_norm_oracle(1, 64, 0) == pytest.approx(1.0, abs=1e-9)


def test_kesten_two_haars_tracks_free_value():
    # the measured norm follows 2 sqrt(m-1), not sqrt(m)
    val = kesten_norm_oracle(2, 512, 4)
    assert 1.85 <= val <= 2.15


def test_kesten_rejects_m0():
    with pytest.raises(ValueError):
        kesten_norm_oracle(0, 16, 0)


@pytest.mark.parametrize("m, paper, free", [(1, 1.0, 1.0), (2, np.sqrt(2), 2.0),
                                            (5, np.sqrt(5), 4.0)])
def test_kesten_values(m, paper, free):
    # one unitary has norm 1 in both models
    assert kesten_values(m) == (pytest.approx(paper), pytest.approx(free))


# -- conjugation experiment -------------------------------------------------------

def test_conjugation_identity_and_report():
    rep = conjugation_paving_experiment(4, 64, 7)
    assert rep.paper_bound == pytest.approx((np.sqrt(3) + 1) / 4)
    assert rep.slack == pytest.approx(rep.measured_norm - rep.paper_bound)
    assert rep.measured_norm <= 1.0 + 1e-9


def test_conjugation_n1_slack_nonpositive():
    # one block is the whole unit-norm model: the report holds the bits of
    # the model's own SVD norm, above dim 1024 too.  There the model is
    # scaled by op_norm's power-iteration lower estimate, so its exact norm,
    # and the slack, lie above 1 by about 1e-3
    for dim, seed in ((2, 0), (32, 0), (256, 2), (1040, 1)):
        rep = conjugation_paving_experiment(1, dim, seed)
        u = free_model._zero_diag_haar(dim, rng_for(seed, 0xC07, 0))
        norm = float(np.linalg.svd(u, compute_uv=False)[0])
        assert (rep.measured_norm, rep.paper_bound, rep.slack) == (norm, 1.0, norm - 1.0), dim
        assert rep.slack <= 1e-9 or dim > 1024


def test_conjugation_divisibility_guard():
    with pytest.raises(ValueError, match="n=3 must divide dim=32"):
        conjugation_paving_experiment(3, 32, 0)


def test_conjugation_matches_direct_computation():
    # independent dense evaluation of both sides of the averaging identity
    n, dim, seed = 2, 32, 11
    rep = conjugation_paving_experiment(n, dim, seed)
    u = free_model._zero_diag_haar(dim, rng_for(seed, 0xC07, 0))
    v = roots_of_unity_diag(dim, n, seed)
    avg = sum(np.linalg.matrix_power(v, j) @ u @ np.linalg.matrix_power(v, j).conj().T
              for j in range(n)) / n
    assert op_norm(avg) == pytest.approx(rep.measured_norm, abs=1e-10)


# -- projection experiment ---------------------------------------------------------

def test_projection_experiment_guards():
    with pytest.raises(ValueError):
        projection_paving_experiment(0.6, 4, 32, 0)
    with pytest.raises(ValueError):
        projection_paving_experiment(0.25, 2, 32, 0)
    with pytest.raises(ValueError, match="n=5 must divide dim=32"):
        projection_paving_experiment(0.5, 5, 32, 0)


def test_projection_experiment_reports():
    block, half = projection_paving_experiment(0.5, 8, 128, 3)
    assert block.paper_bound == pytest.approx(2 / np.sqrt(8))
    assert half.paper_bound == pytest.approx(0.5 + 0.5)
    assert half.n == 2
    assert block.measured_norm <= 1.0


def test_projection_half_split_bound_formula_at_t01():
    _, half = projection_paving_experiment(0.1, 16, 64, 0)
    assert half.paper_bound == pytest.approx(np.sqrt(0.1 * 0.9) + 0.5)
    assert half.paper_bound == pytest.approx(0.8, abs=0.0005)


def test_projection_control_same_frame_breaks_bound():
    # a projection diagonal in the block frame is fixed by the compression:
    # the measured deviation is max(t, 1-t), far above 2/sqrt(n) -- the
    # freeness hypothesis matters
    dim, n, t = 64, 64, 0.5
    e = np.diag(([1.0] * 32 + [0.0] * 32)).astype(complex)
    part = equal_block_partition(dim, n, seed=1)
    comp = compress(e, part).entries
    assert np.abs(comp - e).max() < 1e-12
    dev = op_norm(e - t * np.eye(dim))
    assert dev == pytest.approx(max(t, 1 - t))
    assert dev > 2 / np.sqrt(n)


# -- growth -----------------------------------------------------------------------

def test_growth_first_value_is_one():
    rep = power_conjugation_growth(64, 4, 0)
    assert rep.values[0] == pytest.approx(1.0, abs=1e-9)
    assert len(rep.values) == 4


def test_growth_requires_two_points():
    with pytest.raises(ValueError):
        power_conjugation_growth(16, 1, 0)


def test_growth_exponent_reasonable():
    rep = power_conjugation_growth(128, 16, 5)
    assert 0.2 <= rep.fitted_exponent <= 0.9


# -- block paver -------------------------------------------------------------------

def test_block_paver_meets_target_or_singletons():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
    corner = (a + a.conj().T) / 2
    off = corner - np.diag(np.diagonal(corner))
    target = 0.5 * op_norm(off)
    part = make_block_paver()(corner, target, seed=2)
    mask = part.assignment[:, None] == part.assignment[None, :]
    assert op_norm(off * mask) <= target + 1e-12


def test_block_paver_diagonal_input():
    paver = make_block_paver()
    part = paver(np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex), 0.0, seed=0)
    assert part.effective_blocks == 1


def _recording_svds(monkeypatch):
    """Record the shape of every matrix the SVD kernel
    (``finite_vn._singular_values``) passes to LAPACK, each matrix of a
    stack on its own."""
    shapes = []
    svd = _umath_linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.extend([a.shape[-2:]] * int(np.prod(a.shape[:-2])))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(_umath_linalg, "svd", recording_svd)
    return shapes


def test_block_paver_takes_a_corner_norm_only_when_its_largest_column_fits(monkeypatch):
    # ||off|| is at least every column norm of off, so one block can meet
    # the target only when the largest column does
    rng = np.random.default_rng(3)
    a = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    corner = (a + a.conj().T) / 2
    off = corner - np.diag(np.diagonal(corner))
    base = op_norm(off)
    column = np.sqrt((np.abs(off) ** 2).sum(axis=0).max())
    shapes = _recording_svds(monkeypatch)
    paver = make_block_paver()
    part = paver(corner, 0.5 * base, seed=2)
    assert 0.5 * base < column
    assert (32, 32) not in shapes
    assert part.effective_blocks >= 2
    shapes.clear()
    assert paver(corner, base, seed=2).effective_blocks == 1
    assert shapes == [(32, 32)]
    shapes.clear()
    # the column fits but the whole corner does not: one norm, then the levels
    part = paver(corner, column, seed=2)
    assert column < base and part.effective_blocks >= 2
    assert shapes.count((32, 32)) == 1


def _reference_block_paver(corner, target, seed):
    """The doubling loop of the block paver without its column-norm screen."""
    dim = corner.shape[0]
    frame = MasaFrame.identity(dim)
    obj = paving._Objective(corner)
    if obj.base <= target:
        return Partition.one_block(frame)
    n = 2
    while True:
        part = equal_block_partition(dim, n, seed) if n < dim else Partition.singletons(frame)
        if obj.defect(part.assignment) <= target:
            return part
        n = min(2 * n, dim)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_screened_block_paver_equals_doubling_loop(data):
    dim = data.draw(st.integers(2, 40), label="dim")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="input seed"))
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    # sparse corners spread the level defects further apart
    a *= rng.random((dim, dim)) < data.draw(st.sampled_from([1.0, 0.3, 0.1]), label="density")
    corner = (a + a.conj().T) / 2 if data.draw(st.booleans(), label="hermitian") else a
    obj = paving._Objective(corner)
    levels = [n for n in (2 ** k for k in range(1, 6)) if n < dim]
    # each level's exact defect, and the corner's own norm, as a target lets
    # that level (or one block) pass at equality
    exact = [obj.defect(equal_block_partition(dim, n, seed).assignment) for n in levels]
    target = data.draw(st.sampled_from(exact + [obj.base]) if data.draw(st.booleans())
                       else st.floats(0.0, 1.2).map(lambda f: f * obj.base), label="target")
    got = make_block_paver()(corner, target, seed)
    want = _reference_block_paver(corner, target, seed)
    assert np.array_equal(got.assignment, want.assignment)
    assert got.n_blocks == want.n_blocks


def test_block_paver_screen_rules_out_every_level_without_block_norms(monkeypatch):
    block_norm_calls = []
    block_norms = paving._block_norms

    def recording_block_norms(*args, **kwargs):
        block_norm_calls.append(args)
        return block_norms(*args, **kwargs)

    rng = np.random.default_rng(3)
    a = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    corner = (a + a.conj().T) / 2
    target = 0.01 * op_norm(corner - np.diag(np.diagonal(corner)))
    shapes = _recording_svds(monkeypatch)
    monkeypatch.setattr(paving, "_block_norms", recording_block_norms)
    part = make_block_paver()(corner, target, seed=2)
    assert block_norm_calls == []
    assert shapes == []
    assert part.n_blocks == 32 and np.array_equal(part.assignment, np.arange(32))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_every_block_paver_result_meets_its_target(data):
    dim = data.draw(st.integers(1, 48), label="dim")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="input seed"))
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a *= rng.random((dim, dim)) < data.draw(st.sampled_from([1.0, 0.3, 0.05]), label="density")
    off = paving._off_diagonal(a)
    scale = data.draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0, 1.1]), label="target / base")
    target = scale * op_norm(off)
    part = make_block_paver()(a, target, data.draw(st.integers(0, 2**16), label="seed"))
    assert part.dim == dim
    assert paving._block_diagonal_norm(off, part.assignment) <= target


def test_block_paver_one_block_meets_its_target_above_the_svd_limit():
    # op_norm of a dim-1040 corner is a power-iteration lower estimate, which
    # read 1.0 for this unit-scaled one: one block, of exact norm 1.0027
    corner = sample(EnsembleSpec("zero_diag_haar", 1040, 0)).entries
    part = make_block_paver()(corner, 1.0, 0)
    assert part.effective_blocks == 2
    assert paving._block_diagonal_norm(corner, part.assignment) <= 1.0


@pytest.mark.parametrize("target", [-0.1, float("nan")])
def test_block_paver_refuses_negative_or_nan_target(target):
    # no level meets such a target, singletons included: the doubling never ended
    rng = np.random.default_rng(0)
    a = rng.standard_normal((8, 8))
    with pytest.raises(ValueError):
        make_block_paver()((a + a.T) / 2, target, 1)


# -- pinned oracle outputs ---------------------------------------------------------

# every workload input is a zero_diag_haar sample and the oracle workload runs these
# experiments, so their bits must not move
ORACLE_CASES = [(dim, seed) for dim in (64, 128, 256) for seed in (0, 1)]

ORACLE_PINS = [
    ["cecc9d64058bd157fa3affb862c3443324b3d6cbd6ecdd3e8a322dd4f9aaad2a",
     "1.9997766585893",
     "0f45c0931f0c622ec4d034ef931605a9edd3a5a6a42c4fe0cae4f87d153d847a",
     "e2e7b02ffc7ec2465165a9d7fea4e822f92996cf42e36054fa0f50d6b5c288fd",
     "ccde1dc3e70da4426277fec9779498bf7651644d5285d50781dc81e44c562f8e"],
    ["90c162c698c79e0d0b6df1e56d3afcfd268760548fcaa9f5abfcaa32c06ed09f",
     "1.999493052740828",
     "664d1acea3c03d06ea60e0d86453de22b17ee09c38ad6bb2475b58fc6a4a716c",
     "e80c3e201e990002b8ccf28c2facb96663f045177eac1fecb03beb6638ad9cff",
     "64bc259642c441e39fcd3bb73f25aa22be83fec51f5ca78233803ab10c781959"],
    ["4a274b33b9b1607df22e9bd8561f148a347614ef24c950b9c0454a419e8db5d4",
     "1.9999855972657825",
     "a195678f70f3e81b265813347ec239628da9d486f521c2078cedc1f67c9b7f13",
     "effe4742004be159bf9c30471751ec1dfaa9724d1079cb3244ef4a8638010e83",
     "5cfffb5c30f1a9799a27d9e79e7f7190b6cab831ece509c1767b25f22021dfe9"],
    ["8e1905be1e22664d8e240a7cd1df85aef054fe19046ec88ed647471193671c44",
     "1.9999990698859953",
     "15a0cb945339ec705142e99938f15fa9e7e6434b6e84000a5bc7077d76ee9e19",
     "ba0398dd5b449487c1e5d7173bdac567d06763c82bda8b2da2a68930dd336854",
     "4196b4deb8d75a54eba1a6810a5a1f2e6e706bfa8cd35b9571eaf24dcd6cf301"],
    ["1863c1d5e85753409f6146dda561166044c81682d3bbaf4340d128ae83ff9bde",
     "1.9999966382801002",
     "e1cc84493d226e7a14ebc3b16c5536f114e853005413896e0ec75c0ba861e0c4",
     "fb8841983e48300849b209f633155586cd93f0b0d4735a3290cde8341c8611f7",
     "661486a15e140d2b57dd51f80cea9a5fe55bee3dc9c670b0bbebf49c6e6b211b"],
    ["e98ce806f440efdb1a19e3072ef83296fed00f4dbd0d0f044784b63334a9621b",
     "1.9999999705612947",
     "f7b69b2e88fa3e250b66850f2b0c6757ea7e0800b6abe4d649b316cbe2c6a90a",
     "8d35e31d478115aff32afd46cdf0105020278aa38929a64dd8bb046d3ad6369b",
     "dd664a8c2e13613a5e232ce355e029c1c756681e07d9c11d817a752fefa21d3e"],
]


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _oracle_hashes(case):
    """sha256 of the sample, the Kesten value and each experiment's report JSON."""
    dim, seed = case
    x = sample(EnsembleSpec("zero_diag_haar", dim, seed)).entries
    return [hashlib.sha256(x.tobytes()).hexdigest(),
            repr(kesten_norm_oracle(2, dim, seed)),
            _sha([conjugation_paving_experiment(n, dim, seed).to_json_dict() for n in (1, 4, 8)]),
            _sha([[r.to_json_dict() for r in projection_paving_experiment(t, 16, dim, seed)]
                  for t in (0.5, 0.1)]),
            _sha(power_conjugation_growth(dim, 4, seed).to_json_dict())]


def test_oracle_outputs_pinned():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests"),
                                           os.environ.get("PYTHONPATH", "")]))
    code = ("import json, test_free_model as t\n"
            "print(json.dumps([t._oracle_hashes(c) for c in t.ORACLE_CASES]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
                         text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == ORACLE_PINS
