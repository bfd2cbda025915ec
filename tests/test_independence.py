"""Independence residuals, sign-unitary search, doubling, patching."""

import itertools
import json

import numpy as np
import pytest

from pavlab import MasaFrame, Partition, compress, l2_norm, normalized_trace, perpendicular_frame
from pavlab.independence import (
    IndependenceReport,
    WordSpec,
    build_independent_partition,
    check_cor37,
    find_mixing_sign_unitary,
    incremental_patch_haar,
    k_independence_residual,
)


def haar(dim, seed):
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q / (d / np.abs(d))


def haar_model(dim, seed):
    u = haar(dim, seed)
    x = u - np.diag(np.diagonal(u))
    return x / np.linalg.norm(x, 2)


def exact_two_indep_witness(dim, n):
    """Circulant with one shift frequency per residue class mod n.

    Against the congruence-class blocks mod n these satisfy the level-2
    word identities exactly (frequencies avoid additive inverses mod dim).
    """
    s = np.roll(np.eye(dim), -1, axis=0)
    freqs = [r if r != 0 else n for r in range(n)]
    for p in freqs:
        for q in freqs:
            assert (p + q) % dim != 0
    x = sum(np.linalg.matrix_power(s, p) for p in freqs) / np.sqrt(n)
    part = Partition(np.arange(dim) % n, n, MasaFrame.identity(dim))
    return x.astype(complex), part


def test_wordspec_validation_and_label():
    w = WordSpec((1, 3), (0, 1))
    assert w.level == 2
    assert w.label() == "a1.x0.a3.x1"
    with pytest.raises(ValueError):
        WordSpec((1, 2), (0,))
    with pytest.raises(ValueError):
        WordSpec((1,) * 5, (0,) * 5)


# -- k_independence_residual ---------------------------------------------------

def test_level1_exact_for_perpendicular_frames():
    for dim in (2, 4, 8, 16):
        f = perpendicular_frame(dim)
        rng = np.random.default_rng(dim)
        vals = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        x = f.diagonal_element(vals - vals.mean()).entries
        part = Partition.singletons(MasaFrame.identity(dim))
        rep = k_independence_residual(part, [x], k=1)
        assert rep.residual_per_level[1] <= 1e-12


def test_one_block_partition_trivial():
    part = Partition.one_block(MasaFrame.identity(8))
    rep = k_independence_residual(part, [haar_model(8, 0)], k=2)
    assert rep.achieved_alpha == 0.0
    assert rep.word_count == 0


def test_requires_test_elements():
    part = Partition.singletons(MasaFrame.identity(4))
    with pytest.raises(ValueError):
        k_independence_residual(part, [], k=1)


def test_sampling_coverage_reported():
    part = Partition(np.arange(16) % 4, 4, MasaFrame.identity(16))
    xs = [haar_model(16, s) for s in range(3)]
    rep = k_independence_residual(part, xs, k=3, sampling_budget=50, seed=1)
    assert rep.coverage_per_level[3] < 1.0
    assert rep.word_count > 0
    assert rep.worst_word  # loggable reproduction handle


def test_residual_deterministic():
    part = Partition(np.arange(12) % 3, 3, MasaFrame.identity(12))
    xs = [haar_model(12, 5)]
    r1 = k_independence_residual(part, xs, k=3, sampling_budget=40, seed=9)
    r2 = k_independence_residual(part, xs, k=3, sampling_budget=40, seed=9)
    assert r1.residual_per_level == r2.residual_per_level


def test_builder_certificate_consistency():
    # level-2 residual of the built partition is certified by its own alpha
    dim = 64
    frame = MasaFrame.identity(dim)
    x = haar_model(dim, 11)
    part, rep = build_independent_partition([x], [], 3, 0.01, frame, budget=4000, seed=2)
    indep = k_independence_residual(part, [x], k=2, sampling_budget=100_000)
    assert indep.residual_per_level[2] <= rep.achieved_alpha + 1e-9


# -- find_mixing_sign_unitary --------------------------------------------------

def test_mixing_no_targets():
    frame = MasaFrame.identity(4)
    res = find_mixing_sign_unitary([], [], frame, Partition.one_block(frame),
                                   delta=0.1, budget=10, seed=0)
    assert res.objective == 0.0
    assert abs(res.signs.sum()) == 0  # balanced


def test_mixing_dim2_exhausts_to_objective_one():
    frame = MasaFrame.identity(2)
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    res = find_mixing_sign_unitary([flip], [], frame, Partition.one_block(frame),
                                   delta=0.0, budget=50, seed=3)
    # both balanced sign vectors give |tau(u xi* u* xi)| = 1: reported, not an error
    assert res.objective == pytest.approx(1.0, abs=1e-12)
    u = res.unitary.entries
    assert np.allclose(u @ u, np.eye(2), atol=1e-12)


def test_mixing_rejects_odd_blocks():
    frame = MasaFrame.identity(3)
    with pytest.raises(ValueError):
        find_mixing_sign_unitary([], [], frame, Partition.one_block(frame),
                                 delta=0.1, budget=10, seed=0)
    with pytest.raises(ValueError):
        find_mixing_sign_unitary([], [], MasaFrame.identity(4),
                                 Partition.one_block(MasaFrame.identity(4)),
                                 delta=0.1, budget=0, seed=0)


def test_mixing_commutes_with_blocks_and_involutive():
    frame = MasaFrame.identity(16)
    blocks = Partition(np.arange(16) % 4, 4, frame)
    x = haar_model(16, 21)
    res = find_mixing_sign_unitary([x], [], frame, blocks, delta=0.0, budget=500, seed=1)
    u = res.unitary.entries
    assert np.allclose(u @ u, np.eye(16), atol=1e-12)
    for p in blocks.projections():
        assert np.allclose(u @ p.entries, p.entries @ u, atol=1e-12)
    # balanced within each block: constant on no block
    for b in range(4):
        idx = blocks.block_indices(b)
        assert res.signs[idx].sum() == 0


def test_mixing_objective_small_on_haar_model():
    frame = MasaFrame.identity(128)
    x = haar_model(128, 31)
    res = find_mixing_sign_unitary([x], [], frame, Partition.one_block(frame),
                                   delta=0.0, budget=4000, seed=7)
    assert res.objective <= 0.05


# -- build_independent_partition -----------------------------------------------

def test_builder_trivial_levels():
    frame = MasaFrame.identity(8)
    part, rep = build_independent_partition([], [], 0, 0.1, frame, budget=10, seed=0)
    assert part.effective_blocks == 1
    assert rep.achieved_alpha == 0.0
    part3, rep3 = build_independent_partition([], [], 3, 0.1, frame, budget=100, seed=0)
    assert part3.n_blocks == 8
    assert np.allclose(part3.block_traces(), 1 / 8)
    assert rep3.achieved_alpha <= 1e-12


def test_builder_divisibility_guard():
    with pytest.raises(ValueError):
        build_independent_partition([], [], 3, 0.1, MasaFrame.identity(12), budget=10, seed=0)


def test_builder_equal_traces_and_certificate():
    dim = 128
    frame = MasaFrame.identity(dim)
    x = haar_model(dim, 41)
    part, rep = build_independent_partition([x], [], 3, 0.01, frame, budget=6000, seed=5)
    assert part.n_blocks == 8
    assert np.allclose(part.block_traces(), 1 / 8)
    cert = check_cor37(part, [x])
    assert cert.all_hold
    # (c'): compression L2 shrinks to mesh + alpha correction
    xc = x / l2_norm(x)
    comp = compress(xc, part)
    assert l2_norm(comp) ** 2 <= 2 ** -3 * l2_norm(xc) ** 2 + 3 * cert.measured_alpha + 1e-9


# -- check_cor37 -----------------------------------------------------------

def test_cor37_zero_element_passes():
    part = Partition(np.arange(8) % 2, 2, MasaFrame.identity(8))
    rep = check_cor37(part, [np.zeros((8, 8), dtype=complex)])
    assert rep.all_hold
    assert rep.measured_alpha == 0.0


def test_cor37_requires_equal_traces():
    part = Partition(np.array([0, 0, 0, 1]), 2, MasaFrame.identity(4))
    with pytest.raises(ValueError):
        check_cor37(part, [np.eye(4)])


def test_cor37_exact_witness_dim16():
    # alpha vanishes and the block L2 identity is exact for the circulant
    # witness against congruence blocks
    x, part = exact_two_indep_witness(16, 4)
    rep = check_cor37(part, [x])
    assert rep.measured_alpha <= 1e-12
    assert rep.all_hold
    t = 1 / 4
    xn = x / l2_norm(x)
    for i in range(4):
        mi = part.assignment == i
        for j in range(4):
            mj = part.assignment == j
            blk = xn[np.ix_(mi, mj)]
            nsq = np.linalg.norm(blk) ** 2 / 16
            assert abs(nsq - t * t * l2_norm(xn) ** 2) <= 1e-12


def test_cor37_haar_model_holds_with_measured_alpha():
    rng = np.random.default_rng(61)
    for seed in range(5):
        dim = 64
        part = Partition(np.arange(dim) % 4, 4, MasaFrame.identity(dim))
        x = haar_model(dim, 700 + seed)
        rep = check_cor37(part, [x])
        assert rep.all_hold
        assert rep.measured_alpha > 0


def test_cor37_report_holds_plain_python_values():
    # the c2/d2 bounds come from np.sqrt; numpy scalars must not leak into
    # the report, or plain json.dumps rejects it
    dim = 64
    part = Partition(np.arange(dim) % 4, 4, MasaFrame.identity(dim))
    rep = check_cor37(part, [haar_model(dim, 700)])
    assert rep.all_hold
    assert type(rep.measured_alpha) is float
    assert len(rep.conditions) == 5
    for c in rep.conditions.values():
        assert type(c.ok) is bool
        assert type(c.bound) is float
        assert type(c.measured) is float
    payload = json.loads(json.dumps(rep.to_json_dict()))
    assert all(c["ok"] is True for c in payload["conditions"].values())


def test_report_json_key_order():
    # artifacts are compared byte for byte, so the key order is part of the format
    dim = 32
    x = haar_model(dim, 5)
    part, built = build_independent_partition([x], [], 2, 0.01, MasaFrame.identity(dim),
                                              budget=400, seed=1)
    cert = check_cor37(part, [x]).to_json_dict()
    assert list(cert) == ["n_levels", "measured_alpha", "conditions"]
    assert list(cert["conditions"]) == sorted(cert["conditions"])
    assert list(cert["conditions"]) == ["a2_l2_blocks", "b2_trace_products",
                                        "c2_compression_l2sq", "c2_corner_l2", "d2_corner_l1"]
    assert all(list(c) == ["bound", "measured", "ok"] for c in cert["conditions"].values())
    for rep in (built, k_independence_residual(part, [x], k=2)):
        d = rep.to_json_dict()
        assert list(d) == ["max_k", "residual_per_level", "word_count", "achieved_alpha",
                           "coverage_per_level", "worst_word"]
        assert list(d["residual_per_level"]) == ["1", "2"]
        assert list(d["coverage_per_level"]) == ["1", "2"]


# -- incremental_patch_haar -----------------------------------------------------

def test_patch_empty_targets_scrambled_cycle():
    v, rep = incremental_patch_haar([], 4, 0.1, order_L=8 * 32, budget=100, seed=13)
    d = np.diagonal(v.entries)
    dim = d.size
    assert np.allclose(np.abs(d), 1.0)
    for k in range(1, dim):
        assert abs(np.sum(d ** k)) / dim <= 1e-12
    assert rep.power_residual <= 1e-12


def test_patch_order_guard():
    x = haar_model(8, 1)
    with pytest.raises(ValueError):
        incremental_patch_haar([x], 2, 0.1, order_L=12, budget=100, seed=0)


def test_patch_dim2_greedy_matches_exhaustive():
    # with a single chunk pair at L = 4 the greedy conditional optimum
    # coincides with the global optimum over all phase pairs
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    x = a - np.diag(np.diagonal(a))
    x /= np.linalg.norm(x, 2)
    v, rep = incremental_patch_haar([x], 1, 0.0, order_L=4, budget=10_000, seed=5)
    achieved = max(rep.power_residual, rep.word_residual)

    roots = np.exp(2j * np.pi * np.arange(4) / 4)
    best = np.inf
    xc = x - np.diag(np.diagonal(x))
    xc /= np.sqrt(np.vdot(xc, xc).real / 2)
    for v0, v1 in itertools.product(roots, repeat=2):
        d = np.array([v0, v1])
        eta = abs(d.sum()) / 2
        worst_word = 0.0
        for k in (1, 2, 3):
            for ps in itertools.product([1, -1], repeat=k):
                m = np.diag(d ** ps[0]) @ xc
                for p in ps[1:]:
                    m = m @ (np.diag(d ** p) @ xc)
                worst_word = max(worst_word, abs(np.trace(m)) / 2)
        best = min(best, max(eta, worst_word))
    assert achieved == pytest.approx(best, abs=1e-10)


def test_patch_haar_model_residuals_small():
    dim = 64
    x = haar_model(dim, 17)
    v, rep = incremental_patch_haar([x], 4, 0.05, order_L=8 * dim, budget=300, seed=11)
    d = np.diagonal(v.entries)
    assert np.allclose(np.abs(d), 1.0, atol=1e-12)
    # entries are L-th roots of unity
    ang = np.mod(np.angle(d) * 8 * dim / (2 * np.pi), 8 * dim)
    assert np.abs(ang - np.round(ang)).max() < 1e-8
    assert rep.power_residual <= 0.1
    assert rep.word_residual <= 0.15
    assert 0 < rep.coverage <= 1.0


def test_patch_deterministic():
    x = haar_model(32, 23)
    v1, r1 = incremental_patch_haar([x], 3, 0.05, order_L=8 * 32, budget=120, seed=29)
    v2, r2 = incremental_patch_haar([x], 3, 0.05, order_L=8 * 32, budget=120, seed=29)
    assert np.array_equal(v1.entries, v2.entries)
    assert r1 == r2
