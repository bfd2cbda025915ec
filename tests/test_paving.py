"""Compression, defects, Dixmier averaging, and the partition searches."""

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

from pavlab import (
    MasaFrame,
    Partition,
    TracedMatrix,
    arc_partition,
    compress,
    conditional_expectation,
    dixmier_average,
    l2_norm,
    normalized_trace,
    op_norm,
    pave_search,
    paving_defect,
    paving_number_exact,
    perpendicular_frame,
    refine,
    roots_of_unity_tuple,
    sign_split,
)
from pavlab import free_model, paving
from pavlab.paving import (
    _block_diagonal_norm,
    _block_mask,
    _block_norms,
    _equal_blocks,
    _first_paving,
    _Objective,
)
from pavlab.seeds import rng_for

ROOT = Path(__file__).resolve().parents[1]


def random_matrix(dim, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def zero_diag(a):
    return a - np.diag(np.diagonal(a))


def l1_norm(x):
    """tau(|x|) = (1/dim) * sum of singular values."""
    a = x.entries if isinstance(x, TracedMatrix) else np.asarray(x)
    return np.linalg.svd(a, compute_uv=False).sum() / a.shape[0]


FLIP = np.array([[0, 1], [1, 0]], dtype=complex)


# -- Partition invariants ----------------------------------------------------

def test_projections_resolve_identity():
    frame = MasaFrame.identity(6)
    part = Partition(np.array([0, 1, 1, 2, 0, 2]), 3, frame)
    ps = [p.entries for p in part.projections()]
    assert np.abs(sum(ps) - np.eye(6)).max() < 1e-12
    for i, pi in enumerate(ps):
        for j, pj in enumerate(ps):
            want = pi if i == j else np.zeros_like(pi)
            assert np.abs(pi @ pj - want).max() < 1e-12


def test_empty_blocks_are_allowed():
    part = Partition(np.zeros(4, dtype=int), 3, MasaFrame.identity(4))
    assert part.n_blocks == 3
    assert part.effective_blocks == 1


def test_partition_validation():
    frame = MasaFrame.identity(3)
    with pytest.raises(ValueError):
        Partition(np.array([0, 1, 2]), 2, frame)
    with pytest.raises(ValueError):
        Partition(np.array([0, 1]), 2, frame)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("labels", [[0.7, 1.9, 0.2], [0, 1, 0.5], [0, 1, float("nan")]])
def test_partition_refuses_non_integer_labels(labels):
    # a cast to int64 read [0.7, 1.9, 0.2] as [0, 1, 0]
    with pytest.raises(ValueError, match="labels must be integers"):
        Partition(np.array(labels), 2, MasaFrame.identity(3))


def test_partition_takes_integral_labels_of_any_dtype():
    frame = MasaFrame.identity(3)
    for labels in ([0, 1, 0], np.array([0.0, 1.0, 0.0]), np.array([False, True, False])):
        assert Partition(labels, 2, frame).assignment.tolist() == [0, 1, 0]


# -- compress ----------------------------------------------------------------

def test_compress_singletons_is_conditional_expectation():
    frame = MasaFrame.identity(5)
    x = random_matrix(5, 0)
    c = compress(x, Partition.singletons(frame))
    assert np.allclose(c.entries, conditional_expectation(x, frame).entries, atol=1e-12)


def test_compress_one_block_is_identity_map():
    frame = MasaFrame.identity(4)
    x = random_matrix(4, 1)
    assert np.allclose(compress(x, Partition.one_block(frame)).entries, x, atol=1e-14)


def test_compress_kills_flip():
    part = Partition.singletons(MasaFrame.identity(2))
    assert np.abs(compress(FLIP, part).entries).max() == 0


def test_compress_contracts_and_fixes_expectation():
    rng = np.random.default_rng(7)
    for seed in range(15):
        dim = int(rng.integers(4, 64))
        frame = MasaFrame.identity(dim)
        x = random_matrix(dim, 50 + seed)
        part = Partition(rng.integers(0, 3, size=dim), 3, frame)
        c = compress(x, part)
        assert op_norm(c) <= op_norm(x) + 1e-9
        assert l2_norm(c) <= l2_norm(x) + 1e-9
        assert l1_norm(c) <= l1_norm(x) + 1e-9
        assert abs(normalized_trace(c) - normalized_trace(x)) < 1e-12
        assert np.allclose(
            conditional_expectation(c, frame).entries,
            conditional_expectation(x, frame).entries,
            atol=1e-12,
        )


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_compress_contracts_and_fixes_masa_property(data):
    dim = data.draw(st.integers(2, 12))
    n = data.draw(st.integers(1, dim))
    frame = perpendicular_frame(dim) if data.draw(st.booleans()) else MasaFrame.identity(dim)
    part = Partition(np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=dim,
                                                 max_size=dim))), n, frame)
    seed = data.draw(st.integers(0, 2 ** 16))
    x = random_matrix(dim, seed)
    c = compress(x, part)
    assert op_norm(c) <= op_norm(x) * (1 + 1e-12) + 1e-12
    # E_A o compress = E_A, and compress fixes the MASA pointwise
    assert np.abs(conditional_expectation(c, frame).entries
                  - conditional_expectation(x, frame).entries).max() <= 1e-12
    a = frame.diagonal_element(np.random.default_rng(seed).standard_normal(dim) + 1j)
    assert np.abs(compress(a, part).entries - a.entries).max() <= 1e-12


# -- paving_defect -----------------------------------------------------------

def test_defect_zero_for_diagonal():
    frame = MasaFrame.identity(4)
    part = Partition(np.array([0, 0, 1, 1]), 2, frame)
    rep = paving_defect(np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex), part, 0.5)
    assert rep.defect == 0 and rep.ratio == 0


def test_defect_flip_singletons():
    rep = paving_defect(FLIP, Partition.singletons(MasaFrame.identity(2)), 0.5)
    assert rep.defect == 0 and rep.ratio == 0


def test_defect_allones_two_blocks_dense_oracle():
    # zero-diagonal all-ones, blocks {0,1},{2,3}: compare against a dense
    # computation assembled from explicit projection sandwiches
    x = np.ones((4, 4), dtype=complex) - np.eye(4)
    frame = MasaFrame.identity(4)
    part = Partition(np.array([0, 0, 1, 1]), 2, frame)
    rep = paving_defect(x, part, 0.5)
    acc = np.zeros_like(x)
    for p in part.projections():
        acc += p.entries @ x @ p.entries
    oracle = np.linalg.norm(acc - conditional_expectation(x, frame).entries, 2)
    assert rep.defect == pytest.approx(oracle, abs=1e-12)
    assert rep.defect == pytest.approx(1.0, abs=1e-12)
    assert rep.ratio == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_report_invariants_random():
    for seed in range(10):
        x = random_matrix(12, seed)
        frame = MasaFrame.identity(12)
        rng = np.random.default_rng(seed)
        part = Partition(rng.integers(0, 4, size=12), 4, frame)
        rep = paving_defect(x, part, eps=0.5)
        base = op_norm(zero_diag(x))
        assert abs(rep.ratio * base - rep.defect) < 1e-9
        assert 0.0 <= rep.spectral_tail <= 1.0


def reference_defect_json(x, part, eps):
    """The report JSON, without elapsed_ms, of a paving_defect that always
    takes the base norm ||x - E_A(x)|| before the masked SVD."""
    y = part.frame.to_frame(np.asarray(x, dtype=complex))
    off = y - np.diag(np.diagonal(y))
    base = op_norm(off)
    masked = off * _block_mask(part.assignment)
    sv = np.linalg.svd(masked, compute_uv=False) if masked.any() else np.zeros(part.dim)
    defect = float(sv[0])
    ratio = 0.0 if base < paving.DEGENERATE_NORM else defect / base
    threshold = eps * base
    return {"n_blocks": part.n_blocks, "effective_blocks": part.effective_blocks,
            "defect": defect, "ratio": float(ratio),
            "spectral_tail": float(np.count_nonzero(sv > threshold + 1e-15) / sv.size),
            "strategy": "direct", "seed": 0}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_defect_report_skips_only_a_base_that_cannot_matter(data):
    dim = data.draw(st.integers(1, 10))
    fourier = dim >= 2 and data.draw(st.booleans())
    frame = perpendicular_frame(dim) if fourier else MasaFrame.identity(dim)
    kind = data.draw(st.sampled_from(["random", "diagonal", "tiny"]))
    x = random_matrix(dim, data.draw(st.integers(0, 2 ** 16)))
    if kind == "diagonal":
        # zero off-diagonal part in the frame (exactly so in the identity frame)
        x = frame.from_frame(np.diag(np.diagonal(x)))
    elif kind == "tiny":
        x = x * (0.5 * paving.DEGENERATE_NORM / op_norm(x))
    layout = data.draw(st.sampled_from(["singletons", "one_block", "random"]))
    if layout == "singletons":
        part = Partition.singletons(frame)
    elif layout == "one_block":
        part = Partition.one_block(frame)
    else:
        n = data.draw(st.integers(1, dim))
        part = Partition(np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=dim,
                                                     max_size=dim))), n, frame)
    eps = data.draw(st.sampled_from([1e-9, 0.3, 0.9]))
    got = paving_defect(x, part, eps=eps).to_json_dict()
    del got["elapsed_ms"]
    assert json.dumps(got) == json.dumps(reference_defect_json(x, part, eps))


@pytest.mark.parametrize("eps", [0.0, 1.0, -0.5, 1.5, float("nan")])
def test_defect_refuses_eps_outside_the_unit_interval(eps):
    # the one mode of the report: a tail above eps * base for eps in (0, 1)
    with pytest.raises(ValueError, match="eps must lie in"):
        paving_defect(random_matrix(4, 0), Partition.one_block(MasaFrame.identity(4)), eps)


def test_zero_defect_report_takes_no_norm(monkeypatch):
    x = random_matrix(9, 4)
    calls = []
    monkeypatch.setattr(paving, "op_norm", lambda a: calls.append(a.shape[0]) or op_norm(a))
    rep = paving_defect(x, Partition.singletons(MasaFrame.identity(9)), eps=0.5)
    assert (rep.defect, rep.ratio, rep.spectral_tail, calls) == (0.0, 0.0, 0.0, [])
    paving_defect(x, Partition.one_block(MasaFrame.identity(9)), eps=0.5)
    assert calls == [9]


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("entry", [(1, 6), (4, 4)])
def test_a_nonfinite_entry_raises_instead_of_a_nan_report(bad, entry):
    # a raw matrix is not checked for finiteness; its SVDs refuse it, so no
    # report carries a NaN that JSON cannot hold
    x = random_matrix(8, 9)
    x[entry] = bad
    frame = MasaFrame.identity(8)
    for part in (Partition.one_block(frame), Partition(np.arange(8) % 2, 2, frame)):
        with pytest.raises(np.linalg.LinAlgError):
            paving_defect(x, part, 0.5)


# -- spectral tail -----------------------------------------------------------

def test_tail_examples():
    # one block keeps the whole off-diagonal part, whose singular values are
    # those of its 2x2 flips; the tail counts those above eps * ||x - E_A(x)||
    one_block = Partition.one_block(MasaFrame.identity(4))
    for scales, tail in (((0.0, 0.0), 0.0), ((1.0, 1.0), 1.0), ((0.1, 0.9), 0.5)):
        x = np.kron(np.diag(scales), FLIP)
        assert paving_defect(x, one_block, eps=0.5).spectral_tail == tail


# -- dixmier_average ---------------------------------------------------------

def test_dixmier_single_identity():
    frame = MasaFrame.identity(3)
    x = random_matrix(3, 2)
    out = dixmier_average(x, [np.eye(3)], frame)
    assert np.allclose(out.entries, x, atol=1e-14)


def test_dixmier_sign_average_kills_offdiagonal():
    frame = MasaFrame.identity(2)
    u = np.diag([1.0, -1.0]).astype(complex)
    out = dixmier_average(FLIP, [np.eye(2), u], frame)
    assert np.abs(out.entries).max() < 1e-14


def test_dixmier_rejects_bad_input():
    frame = MasaFrame.identity(2)
    with pytest.raises(ValueError):
        dixmier_average(FLIP, [np.diag([2.0, 1.0])], frame)  # not unitary
    with pytest.raises(ValueError):
        dixmier_average(FLIP, [FLIP], frame)  # unitary but off the MASA


def test_dixmier_contraction_bimodular_commuting():
    frame = MasaFrame.identity(8)
    rng = np.random.default_rng(4)
    x = random_matrix(8, 9)
    tu = [frame.diagonal_element(np.exp(2j * np.pi * rng.random(8))).entries for _ in range(3)]
    tv = [frame.diagonal_element(np.exp(2j * np.pi * rng.random(8))).entries for _ in range(2)]
    out_uv = dixmier_average(dixmier_average(x, tv, frame), tu, frame)
    out_vu = dixmier_average(dixmier_average(x, tu, frame), tv, frame)
    assert np.allclose(out_uv.entries, out_vu.entries, atol=1e-12)
    assert op_norm(out_uv) <= op_norm(x) + 1e-9
    a = frame.diagonal_element(rng.standard_normal(8)).entries
    b = frame.diagonal_element(rng.standard_normal(8)).entries
    lhs = dixmier_average(a @ x @ b, tu, frame).entries
    rhs = a @ dixmier_average(x, tu, frame).entries @ b
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_w_tuple_identity():
    # averaging over W = (w^(j-1)) with w the roots-of-unity unitary of the
    # partition reproduces the compression exactly
    for n, dim, seed in [(2, 8, 0), (3, 8, 1), (5, 16, 2), (8, 16, 3)]:
        rng = np.random.default_rng(seed)
        frame = MasaFrame.identity(dim)
        part = Partition(rng.integers(0, n, size=dim), n, frame)
        x = random_matrix(dim, 100 + seed)
        tw = dixmier_average(x, roots_of_unity_tuple(part), frame)
        assert np.abs(tw.entries - compress(x, part).entries).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_w_tuple_average_equals_compression_property(data):
    dim = data.draw(st.integers(2, 10))
    n = data.draw(st.integers(1, dim))
    frame = perpendicular_frame(dim) if data.draw(st.booleans()) else MasaFrame.identity(dim)
    labels = data.draw(st.lists(st.integers(0, n - 1), min_size=dim, max_size=dim))
    part = Partition(np.array(labels), n, frame)
    x = random_matrix(dim, data.draw(st.integers(0, 2 ** 16)))
    tw = dixmier_average(x, roots_of_unity_tuple(part), frame)
    assert np.abs(tw.entries - compress(x, part).entries).max() < 1e-10


# -- sign_split and arc_partition --------------------------------------------

def test_sign_split_identity_unitary():
    part = sign_split(np.eye(3), MasaFrame.identity(3))
    assert part.n_blocks == 2 and part.effective_blocks == 1


def test_sign_split_exact_cancellation():
    frame = MasaFrame.identity(2)
    part = sign_split(np.diag([1.0, -1.0]).astype(complex), frame)
    c = np.abs(normalized_trace(FLIP.conj().T @ np.diag([1, -1]) @ FLIP @ np.diag([1, -1])))
    assert c == pytest.approx(1.0)
    assert np.abs(compress(FLIP, part).entries).max() < 1e-14


def test_sign_split_rejects_non_involution():
    with pytest.raises(ValueError):
        sign_split(np.diag([1j, 1.0]), MasaFrame.identity(2))


def test_sign_split_l2_bound_random():
    # ||p1 xi p1 + p2 xi p2||_2 <= sqrt((1+c)/2) ||xi||_2 with
    # c = |tau(xi* u xi u*)| / ||xi||_2^2; deterministic inequality
    frame = MasaFrame.identity(32)
    rng = np.random.default_rng(11)
    for trial in range(30):
        xi = zero_diag(random_matrix(32, 300 + trial))
        s = np.ones(32)
        s[rng.permutation(32)[:16]] = -1.0
        u = np.diag(s).astype(complex)
        c = abs(normalized_trace(xi.conj().T @ u @ xi @ u.conj().T)) / l2_norm(xi) ** 2
        part = sign_split(u, frame)
        lhs = l2_norm(compress(xi, part))
        assert lhs <= np.sqrt((1 + c) / 2) * l2_norm(xi) + 1e-12


def test_arc_partition_trivial_cases():
    frame = MasaFrame.identity(5)
    part = arc_partition(np.eye(5), 4, frame)
    assert part.effective_blocks == 1
    assert np.flatnonzero(part.assignment == 0).size == 5  # angle 0 goes to the first arc
    part1 = arc_partition(np.diag(np.exp(2j * np.pi * np.linspace(0, 0.9, 5))), 1, frame)
    assert part1.n_blocks == 1 and part1.effective_blocks == 1


def test_arc_partition_rejects_non_unitary():
    with pytest.raises(ValueError):
        arc_partition(np.diag([0.5, 1.0]), 2, MasaFrame.identity(2))


def test_arc_partition_covers_and_bounds():
    frame = MasaFrame.identity(64)
    rng = np.random.default_rng(13)
    u = np.diag(np.exp(2j * np.pi * rng.random(64)))
    part = arc_partition(u, 8, frame)
    assert np.bincount(part.assignment, minlength=8).sum() == 64
    angles = np.mod(np.angle(np.diagonal(u)), 2 * np.pi)
    for idx, k in enumerate(part.assignment):
        assert 2 * np.pi * k / 8 <= angles[idx] < 2 * np.pi * (k + 1) / 8 + 1e-12


def test_arc_partition_l2_bound_filtered():
    # small-scale version of the Lemma 3.1 2deg gate: instances filtered to
    # c <= 2^-7 must compress to at most 3/4 in L2 with n = 128 arcs
    dim, n = 256, 128
    frame = MasaFrame.identity(dim)
    rng = np.random.default_rng(17)
    done = 0
    trial = 0
    while done < 5 and trial < 50:
        trial += 1
        u = np.diag(np.exp(2j * np.pi * rng.random(dim)))
        xi = zero_diag(random_matrix(dim, 800 + trial))
        c = (normalized_trace(xi.conj().T @ u @ xi @ u.conj().T) / l2_norm(xi) ** 2).real
        if c > 2 ** -7:
            continue
        done += 1
        part = arc_partition(u, n, frame)
        assert l2_norm(compress(xi, part)) <= 0.75 * l2_norm(xi)
    assert done == 5


# -- refine --------------------------------------------------------------

def test_refine_with_one_block_returns_same_blocks():
    frame = MasaFrame.identity(6)
    p = Partition(np.array([0, 1, 0, 2, 1, 2]), 3, frame)
    r = refine(p, Partition.one_block(frame))
    assert np.array_equal(r.assignment, p.assignment)
    r2 = refine(p, p)
    assert np.array_equal(r2.assignment, p.assignment)


def test_refine_composition_identity():
    rng = np.random.default_rng(23)
    frame = MasaFrame.identity(16)
    for seed in range(10):
        x = random_matrix(16, 600 + seed)
        p = Partition(rng.integers(0, 3, size=16), 3, frame)
        q = Partition(rng.integers(0, 4, size=16), 4, frame)
        lhs = compress(x, refine(p, q)).entries
        rhs = compress(compress(x, p), q).entries
        assert np.abs(lhs - rhs).max() < 1e-12


def test_refine_never_increases_defect():
    rng = np.random.default_rng(29)
    frame = MasaFrame.identity(12)
    for seed in range(25):
        x = random_matrix(12, 700 + seed)
        p = Partition(rng.integers(0, 3, size=12), 3, frame)
        q = Partition(rng.integers(0, 3, size=12), 3, frame)
        assert paving_defect(x, refine(p, q), 0.5).defect <= paving_defect(x, p, 0.5).defect + 1e-9


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_refine_never_increases_defect_property(data):
    dim = data.draw(st.integers(2, 10))
    frame = perpendicular_frame(dim) if data.draw(st.booleans()) else MasaFrame.identity(dim)
    x = random_matrix(dim, data.draw(st.integers(0, 2 ** 16)))
    parts = []
    for _ in range(2):
        n = data.draw(st.integers(1, dim))
        labels = data.draw(st.lists(st.integers(0, n - 1), min_size=dim, max_size=dim))
        parts.append(Partition(np.array(labels), n, frame))
    fine = paving_defect(x, refine(*parts), 0.5).defect
    for coarse in parts:
        d = paving_defect(x, coarse, 0.5).defect
        assert fine <= d + 1e-12 * max(d, 1.0)


def test_refine_rejects_frame_mismatch():
    p = Partition.one_block(MasaFrame.identity(4))
    from pavlab import perpendicular_frame

    q = Partition.one_block(perpendicular_frame(4))
    with pytest.raises(ValueError):
        refine(p, q)


# -- paving_number_exact ------------------------------------------------------

def all_set_partitions(items):
    """Independent enumeration for the brute-force cross-check."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in all_set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1:]
        yield [[first]] + smaller


def test_paving_number_flip():
    assert paving_number_exact(FLIP, 0.1) == 2


def test_paving_number_diagonal():
    assert paving_number_exact(np.diag([1.0, 2.0, 3.0]), 0.05) == 1


def test_paving_number_matches_independent_enumeration():
    x = np.ones((4, 4), dtype=complex) - np.eye(4)
    got = paving_number_exact(x, 0.5)
    # independent oracle over all 15 set partitions of {0,1,2,3}
    base = np.linalg.norm(x, 2)
    best = None
    count = 0
    for blocks in all_set_partitions(list(range(4))):
        count += 1
        acc = np.zeros_like(x)
        for b in blocks:
            sel = np.zeros((4, 4))
            for i in b:
                sel[i, i] = 1.0
            acc += sel @ x @ sel
        if np.linalg.norm(acc, 2) <= 0.5 * base:
            best = len(blocks) if best is None else min(best, len(blocks))
    assert count == 15
    assert got == best == 2


def test_paving_number_monotone_in_eps():
    rng = np.random.default_rng(31)
    for seed in range(6):
        x = random_matrix(5, 900 + seed)
        values = [paving_number_exact(x, e) for e in (0.2, 0.3, 0.5, 0.7, 0.9)]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_paving_number_dim_guard():
    with pytest.raises(ValueError):
        paving_number_exact(np.eye(13), 0.5)


def test_a_frame_of_another_dimension_is_refused():
    x = free_model.sample(free_model.EnsembleSpec("zero_diag_haar", 8, 0))
    frame = MasaFrame.identity(10)
    with pytest.raises(ValueError, match="dimension mismatch: matrix 8, frame 10"):
        dixmier_average(x, [np.eye(10)], frame)
    with pytest.raises(ValueError, match="dimension mismatch: matrix 8, frame 10"):
        sign_split(np.eye(8), frame)
    with pytest.raises(ValueError, match="dimension mismatch: matrix 8, frame 10"):
        compress(x, Partition.one_block(frame))


# -- incremental objective ---------------------------------------------------

MOVES = ("swap", "relabel", "same_block_swap", "noop_relabel", "empty_block", "high_label",
         "shrink_max")


def _move(data, cur, n, off):
    trial = cur.copy()
    dim = trial.size
    kind = data.draw(st.sampled_from(MOVES))
    i = data.draw(st.integers(0, dim - 1))
    if kind == "shrink_max":
        # relabel an index out of the block that holds the defect: its
        # bound reaches the max and must be resolved
        labels = np.unique(cur).tolist()
        blocks = [np.flatnonzero(cur == k) for k in labels]
        norms = [_block_norms(off, [idx])[0] if idx.size > 1 else 0.0 for idx in blocks]
        pos = int(np.argmax(norms))
        top, mates = labels[pos], blocks[pos]
        i = int(mates[data.draw(st.integers(0, mates.size - 1))])
        trial[i] = data.draw(st.sampled_from([k for k in range(n + 1) if k != top]))
    elif kind == "swap":
        j = data.draw(st.integers(0, dim - 1))
        trial[i], trial[j] = trial[j], trial[i]
    elif kind == "relabel":
        trial[i] = data.draw(st.integers(0, n - 1))
    elif kind == "same_block_swap":
        mates = np.flatnonzero(trial == trial[i])
        j = int(mates[data.draw(st.integers(0, mates.size - 1))])
        trial[i], trial[j] = trial[j], trial[i]
    elif kind == "empty_block":
        trial[trial == trial[i]] = data.draw(st.integers(0, 2 * dim))
    elif kind == "high_label":
        # sign_split proposes labels up to twice its block count
        trial[i] = data.draw(st.integers(n, 2 * dim + 1))
    return trial


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_objective_one_block_defect_is_the_base_property(data):
    # pave_search sweeps from two blocks: one block's defect has the bits of
    # the base, so no target eps * base with eps < 1 admits it
    dim = data.draw(st.integers(1, 40), label="dim")
    y = random_matrix(dim, data.draw(st.integers(0, 2 ** 16), label="seed"))
    if data.draw(st.booleans(), label="hermitian"):
        y = (y + y.conj().T) / 2
    obj = _Objective(y)
    d = obj.defect(np.zeros(dim, dtype=np.int64))
    assert repr(d) == repr(obj.base)
    eps = data.draw(st.floats(0.0, 1.0, exclude_max=True), label="eps")
    assert obj.base < paving.DEGENERATE_NORM or not d <= eps * obj.base


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_objective_propose_equals_full_defect(data):
    # chains of moves stack bounds on shrinking blocks and resolve them
    dim = data.draw(st.integers(2, 16))
    x = random_matrix(dim, data.draw(st.integers(0, 2 ** 16)))
    frame = perpendicular_frame(dim) if data.draw(st.booleans()) else MasaFrame.identity(dim)
    n = data.draw(st.integers(1, dim))
    cur = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=dim, max_size=dim)),
                   dtype=np.int64)
    obj, fresh = _Objective(frame.to_frame(x)), _Objective(frame.to_frame(x))
    assert obj.reset(cur) == obj.defect(cur)
    for _ in range(data.draw(st.integers(1, 40))):
        trial = _move(data, cur, n, obj.off)
        d = obj.propose(trial)
        assert d == fresh.defect(trial)
        if data.draw(st.booleans()):
            obj.commit()
            cur = trial
            assert fresh.reset(cur) == d


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_block_diagonal_norm_equals_masked_norm(data):
    dim = data.draw(st.integers(1, 9))
    a = random_matrix(dim, data.draw(st.integers(0, 2 ** 16)))
    kind = data.draw(st.sampled_from(["singletons", "one_block", "gapped"]))
    if kind == "singletons":
        labels = np.arange(dim)
    elif kind == "one_block":
        labels = np.zeros(dim, dtype=np.int64)
    else:
        # labels drawn from a wide range leave gaps between used labels
        labels = np.array(data.draw(st.lists(st.integers(0, 3 * dim), min_size=dim,
                                             max_size=dim)))
    shift = data.draw(st.sampled_from([0.0, 0.5, -1.25, 1 / 3]))
    want = op_norm(a * _block_mask(labels) - shift * np.eye(dim))
    assert abs(_block_diagonal_norm(a, labels, shift) - want) <= 1e-12 * want


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(1, 300), data=st.data())
def test_equal_blocks_are_the_array_split_chunks(dim, data):
    n = data.draw(st.integers(1, dim + 3), label="n")
    order = np.random.default_rng(data.draw(st.integers(0, 2 ** 16), label="seed")).permutation(dim)
    want = np.empty(dim, dtype=np.int64)
    for i, chunk in enumerate(np.array_split(order, n)):
        want[chunk] = i
    got = _equal_blocks(order, n)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("n", [0, -2])
def test_equal_blocks_refuse_fewer_than_one_block(n):
    with pytest.raises(ValueError, match=f"n={n}"):
        _equal_blocks(np.arange(5), n)


def test_same_frame_compares_identity_frames_without_their_bases(monkeypatch):
    def no_identity_basis(self):
        assert not self.is_identity, "an identity frame built its basis"
        return self._basis

    monkeypatch.setattr(MasaFrame, "basis", property(no_identity_basis))
    ident = MasaFrame.identity(6)
    p = Partition(np.array([0, 0, 1, 1, 2, 2]), 3, ident)
    q = Partition(np.array([0, 1, 0, 1, 0, 1]), 2, MasaFrame(np.eye(6)))
    assert refine(p, q).n_blocks == 6
    assert np.array_equal(compress(np.ones((6, 6)), p).entries, np.kron(np.eye(3), np.ones((2, 2))))
    fourier = Partition(np.zeros(6, dtype=np.int64), 1, perpendicular_frame(6))
    with pytest.raises(ValueError, match="share dimension and frame"):
        refine(p, fourier)
    with pytest.raises(ValueError, match="share dimension and frame"):
        refine(fourier, p)
    assert refine(fourier, fourier).n_blocks == 1


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_block_norms_equal_each_blocks_own_norm(data):
    # stacked SVDs, a lone size a stack of one, must give every block the
    # bits of its own SVD
    dim = data.draw(st.integers(1, 12))
    a = random_matrix(dim, data.draw(st.integers(0, 2 ** 16)))
    if data.draw(st.booleans()):
        a = a.real.copy()
    perm = np.random.default_rng(data.draw(st.integers(0, 2 ** 16))).permutation(dim)
    kind = data.draw(st.sampled_from(["equal", "mixed", "singletons", "gapped"]))
    if kind == "equal":
        n = data.draw(st.sampled_from([d for d in range(1, dim + 1) if dim % d == 0]))
        labels = _equal_blocks(perm, n)
    elif kind == "mixed":
        # array_split sizes differ by one: two groups of equal-size blocks
        labels = _equal_blocks(perm, data.draw(st.integers(1, dim)))
    elif kind == "singletons":
        labels = perm
    else:
        labels = np.array(data.draw(st.lists(st.integers(0, 3 * dim), min_size=dim,
                                             max_size=dim)))
    blocks = [np.flatnonzero(labels == label) for label in np.unique(labels)]
    blocks = [blocks[i] for i in data.draw(st.permutations(range(len(blocks))))]
    shift = data.draw(st.sampled_from([0.0, 0.5, -1.25, 1 / 3]))
    entries = a.astype(np.complex128)
    want = [float(np.linalg.svd(entries[np.ix_(idx, idx)] - shift * np.eye(idx.size),
                                compute_uv=False)[0]) for idx in blocks]
    assert _block_norms(a, blocks, shift) == want


def test_block_norms_take_one_stacked_svd_per_block_size(monkeypatch):
    a = random_matrix(19, 8)
    sizes = [2, 2, 3, 4, 4, 4]
    cuts = np.cumsum([0] + sizes)
    blocks = [np.arange(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])]
    want = [float(np.linalg.svd(a[np.ix_(idx, idx)], compute_uv=False)[0]) for idx in blocks]
    shapes = []
    svd = _umath_linalg.svd
    monkeypatch.setattr(_umath_linalg, "svd",
                        lambda m, **kw: shapes.append(m.shape) or svd(m, **kw))
    assert _block_norms(a, blocks) == want
    # the two 2x2 blocks share one stacked SVD and the three 4x4 blocks
    # another; the lone 3x3 block is a stack of one
    assert sorted(shapes) == [(1, 3, 3), (2, 2, 2), (3, 4, 4)]


def test_objective_unchanged_trial_makes_no_norm_call(monkeypatch):
    obj = _Objective(random_matrix(8, 5))
    cur = np.array([0, 1, 1, 0, 2, 2, 0, 1])
    d = obj.reset(cur)
    relabel = cur.copy()
    relabel[0] = 1
    shrink_max = cur.copy()
    shrink_max[1] = 0
    want = [obj.defect(relabel), obj.defect(shrink_max)]
    count = count_svds(monkeypatch)
    same_block_swap = cur.copy()
    same_block_swap[[0, 3]] = same_block_swap[[3, 0]]
    assert obj.propose(same_block_swap) == d
    assert count == [0]
    # label 0 only lost index 0: its block {3, 6} keeps the committed norm
    # as a bound, below the exact norm of label 1's new block {0, 1, 2, 7},
    # the one SVD
    assert obj.propose(relabel) == want[0]
    assert count == [1]
    # label 1 holds the defect; when it loses index 1, its bound exceeds the
    # norm of label 0's new block {0, 1, 3, 6}, so its block {2, 7} is
    # resolved: two SVDs
    count[0] = 0
    assert obj.propose(shrink_max) == want[1]
    assert count == [2]


def test_objective_keeps_a_bound_above_1024(monkeypatch):
    # a block of more than 1024 indices takes the bits of its own SVD in
    # _block_norms, reset (the path of defect) and propose, and keeps its
    # norm as a bound when it only loses an index, as at every other size.
    # Indices 0 and 1 couple strongly, so a block holding both decides the
    # defect over the large block
    dim = 1030
    x = random_matrix(dim, 11)
    x[:2, :2] *= 1e3
    obj = _Objective(x)

    def own_svd(idx):
        return float(np.linalg.svd(obj.off[np.ix_(idx, idx)], compute_uv=False)[0])

    big, rest, three = (own_svd(np.arange(lo, hi)) for lo, hi in ((2, dim), (1, dim), (0, 3)))
    assert _block_norms(obj.off, [np.arange(2, dim)]) == [big]
    cur = np.zeros(dim, dtype=np.int64)
    cur[:2] = [1, 2]
    assert obj.reset(cur) == big
    count = count_svds(monkeypatch)
    pair = cur.copy()
    pair[1] = 1
    assert obj.propose(pair) > big and count == [1]
    obj.commit()
    # label 0 loses index 2 to label 1: its bound stays below the exact norm
    # of label 1's new block {0, 1, 2}, the one SVD
    shrink = pair.copy()
    shrink[2] = 1
    assert obj.propose(shrink) == three
    assert count == [2] and 0 in obj._pending[3]
    # label 0 gains index 1 back from the pair: its block of 1029 indices
    # takes the one SVD, and label 1 is left with index 0 alone
    grown = pair.copy()
    grown[1] = 0
    assert obj.propose(grown) == rest
    assert count == [3]


# -- pave_search ---------------------------------------------------------

def test_search_diagonal_any_strategy():
    x = np.diag(np.arange(6.0))
    for strategy in ("exhaustive", "sign_split", "arc", "anneal", "roots_of_unity"):
        part, rep = pave_search(x, 0.5, strategy, budget=100, seed=1)
        assert rep.ratio == 0 and part.effective_blocks == 1


def test_search_flip_anneal():
    part, rep = pave_search(FLIP, 0.3, "anneal", budget=200, seed=5)
    assert rep.ratio == 0
    assert part.effective_blocks == 2


def test_search_unknown_strategy_and_bad_budget():
    with pytest.raises(ValueError):
        pave_search(FLIP, 0.5, "magic", budget=10, seed=0)
    with pytest.raises(ValueError):
        pave_search(FLIP, 0.5, "anneal", budget=0, seed=0)
    with pytest.raises(ValueError):
        pave_search(np.eye(20) * 0 + random_matrix(20, 0), 0.5, "exhaustive", budget=10, seed=0)


def test_search_deterministic_given_seed():
    x = zero_diag(random_matrix(24, 42))
    p1, r1 = pave_search(x, 0.4, "anneal", budget=400, seed=9)
    p2, r2 = pave_search(x, 0.4, "anneal", budget=400, seed=9)
    assert np.array_equal(p1.assignment, p2.assignment)
    d1, d2 = r1.to_json_dict(), r2.to_json_dict()
    d1.pop("elapsed_ms"), d2.pop("elapsed_ms")
    assert d1 == d2


def test_search_anneal_matches_exact_small():
    rng = np.random.default_rng(47)
    for seed in range(8):
        x = random_matrix(5, 1200 + seed)
        for eps in (0.4, 0.6):
            n_star = paving_number_exact(x, eps)
            part, rep = pave_search(x, eps, "anneal", budget=3000, seed=seed)
            assert rep.ratio <= eps
            assert part.effective_blocks == n_star


def test_search_beats_random_baseline():
    # Haar-model zero-diagonal at dim 64: the annealed report must be at
    # least as good as a random 4-block partition drawn from the same seed
    rng = np.random.default_rng(77)
    z = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    q, r = np.linalg.qr(z)
    u = q * (np.abs(np.diagonal(r)) / np.diagonal(r))
    x = zero_diag(u)
    x /= np.linalg.norm(x, 2)
    part, rep = pave_search(x, 0.6, "anneal", budget=10_000, seed=3)
    baseline = Partition(np.random.default_rng(3).integers(0, 4, size=64), 4, part.frame)
    assert rep.ratio <= paving_defect(x, baseline, 0.5).ratio + 1e-12


def test_composition_refinement_small():
    # double paving: refine(P, Q) achieves ratio <= r1 * r2 on x
    rng = np.random.default_rng(53)
    for seed in range(5):
        x = random_matrix(12, 1500 + seed)
        p, rep1 = pave_search(x, 0.6, "anneal", budget=800, seed=seed)
        y = compress(x, p)
        q, rep2 = pave_search(y.entries, 0.6, "anneal", budget=800, seed=seed + 1)
        combined = paving_defect(x, refine(p, q), 0.5)
        assert combined.ratio <= rep1.ratio * rep2.ratio + 1e-9


# -- exhaustive walk -----------------------------------------------------------

def reference_rgs_with_blocks(dim, k):
    """Restricted-growth strings on dim symbols with exactly k blocks, in
    lexicographic order: the sweep that _first_paving ran before its walk."""
    a = [0] * dim

    def rec(i, used):
        if dim - i < k - used:
            return
        if i == dim:
            if used == k:
                yield tuple(a)
            return
        for v in range(min(used + 1, k)):
            a[i] = v
            yield from rec(i + 1, max(used, v + 1))

    yield from rec(1, 1)


def reference_first_paving(obj, eps):
    """Score every restricted-growth string, n = 1..dim, and return the
    first (assignment, n) with ratio <= eps; the walk must return it too."""
    for n in range(1, obj.dim + 1):
        for rgs in reference_rgs_with_blocks(obj.dim, n):
            cand = np.array(rgs, dtype=np.int64)
            ratio = 0.0 if obj.base < paving.DEGENERATE_NORM else obj.defect(cand) / obj.base
            if ratio <= eps:
                return cand, n


def _same_found(got, want):
    return got[1] == want[1] and np.array_equal(got[0], want[0])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_first_paving_equals_the_rgs_sweep_property(data):
    dim = data.draw(st.integers(1, 9))
    fourier = dim >= 2 and data.draw(st.booleans())
    frame = perpendicular_frame(dim) if fourier else MasaFrame.identity(dim)
    if data.draw(st.integers(0, 9)) == 0:
        x = np.zeros((dim, dim), dtype=complex)
    else:
        x = random_matrix(dim, data.draw(st.integers(0, 2 ** 16)))
    eps = data.draw(st.floats(0.01, 0.99))
    obj = _Objective(frame.to_frame(x))
    assert _same_found(_first_paving(obj, eps), reference_first_paving(obj, eps))


def test_first_paving_prunes_most_block_norms(monkeypatch):
    x = free_model.sample(free_model.EnsembleSpec("zero_diag_haar", 10, 0))
    obj = _Objective(x)
    count = [0]

    def counted(a, idx_list, shift=0.0):
        count[0] += len(idx_list)
        return _block_norms(a, idx_list, shift)

    monkeypatch.setattr(paving, "_block_norms", counted)
    want = reference_first_paving(obj, 0.6)
    swept, count[0] = count[0], 0
    got = _first_paving(obj, 0.6)
    assert _same_found(got, want)
    assert 4 * count[0] <= swept


def test_sign_split_search_skips_only_swaps_it_would_refuse(monkeypatch):
    # with the refusal level off, every swap pays for its block norms and is
    # refused afterwards; the search must end in the same partition and
    # ratio, as the budget counts both alike
    cases = [(dim, seed, budget) for dim in (18, 32, 40) for seed in (0, 1) for budget in (200, 1000)]
    inputs = {(dim, seed): free_model.sample(free_model.EnsembleSpec("zero_diag_haar", dim, seed))
              for dim, seed, _ in cases}
    propose = paving._Objective.propose
    refused = []

    def counted(self, trial, refuse_at=None):
        out = propose(self, trial, refuse_at)
        refused.append(out is None)
        return out

    monkeypatch.setattr(paving._Objective, "propose", counted)
    got = [pave_search(inputs[dim, seed], 0.6, "sign_split", budget, seed)
           for dim, seed, budget in cases]
    assert any(refused) and not all(refused)

    def unrefused(self, trial, refuse_at=None):
        d = propose(self, trial)
        return None if refuse_at is not None and d >= refuse_at else d

    monkeypatch.setattr(paving._Objective, "propose", unrefused)
    for (dim, seed, budget), (part, rep) in zip(cases, got):
        want_part, want_rep = pave_search(inputs[dim, seed], 0.6, "sign_split", budget, seed)
        assert np.array_equal(part.assignment, want_part.assignment)
        assert repr(rep.ratio) == repr(want_rep.ratio)


def reference_search_sign_split(obj, eps, budget, seed):
    """The sign_split loop with no refusal level: every swap proposes both
    halves in full, and the caller compares the defect."""
    dim = obj.dim
    target = eps * obj.base
    assignment = np.zeros(dim, dtype=np.int64)
    n = 1
    best_d = obj.defect(assignment)
    spent = 0
    level = 0
    while n < dim and best_d > target and spent < budget:
        level += 1
        rng = rng_for(seed, 0x516, level)
        members = [np.flatnonzero(assignment == b) for b in range(n)]
        signs = paving._balanced_halves(members, dim, rng)
        trial = assignment * 2 + signs
        d = obj.reset(trial)
        spent += 1
        stuck = 0
        while spent < budget and d > target and stuck < 2 * dim:
            pick = paving._pick_swap(members, signs, rng)
            if pick is None:
                stuck += 1
                continue
            i, j = pick
            spent += 1
            cand = trial.copy()
            cand[i], cand[j] = trial[j], trial[i]
            cd = obj.propose(cand)
            if cd < d - 1e-15:
                obj.commit()
                signs[i], signs[j] = 1, 0
                d, trial = cd, cand
                stuck = 0
            else:
                stuck += 1
        assignment = trial
        n *= 2
        best_d = d
    return assignment


def test_sign_split_refusal_level_keeps_every_decision(monkeypatch):
    # dim 18 halves blocks of 9 into 4 and 5; the budgets stop the search
    # inside the first level, inside a later one, and at the target
    cases = [(dim, budget) for dim in (8, 12, 18, 24, 32, 48, 64) for budget in (10, 200, 1000)]
    inputs = {dim: free_model.sample(free_model.EnsembleSpec("zero_diag_haar", dim, dim + 1))
              for dim, _ in cases}
    got = [pave_search(inputs[dim], 0.6, "sign_split", budget, seed=2) for dim, budget in cases]
    monkeypatch.setattr(paving, "_search_sign_split", reference_search_sign_split)
    for (dim, budget), (part, rep) in zip(cases, got):
        want_part, want_rep = pave_search(inputs[dim], 0.6, "sign_split", budget, seed=2)
        assert np.array_equal(part.assignment, want_part.assignment), (dim, budget)
        assert repr(rep.ratio) == repr(want_rep.ratio), (dim, budget)


def count_svds(monkeypatch) -> list:
    """A one-item list counting the matrices the SVD kernel
    (``finite_vn._singular_values``) passes to LAPACK, a stack counted per
    matrix."""
    count = [0]
    svd = _umath_linalg.svd

    def counted(a, *args, **kwargs):
        count[0] += int(np.prod(a.shape[:-2]))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(_umath_linalg, "svd", counted)
    return count


def test_sign_split_refusal_level_takes_fewer_block_svds(monkeypatch):
    # the benchmark's sign_split/d64 op
    x = free_model.sample(free_model.EnsembleSpec("zero_diag_haar", 64, 0))
    count = count_svds(monkeypatch)
    part, rep = pave_search(x, 0.6, "sign_split", 1000, 0)
    lean, count[0] = count[0], 0
    monkeypatch.setattr(paving, "_search_sign_split", reference_search_sign_split)
    want_part, want_rep = pave_search(x, 0.6, "sign_split", 1000, 0)
    assert np.array_equal(part.assignment, want_part.assignment)
    # 869 against 2,005 with one BLAS thread
    assert 2 * lean <= count[0]


def reference_anneal_once(obj, n, eps, budget, rng):
    """The anneal loop with every trial, changed or not, scored by a full
    ``defect``: no committed norms, no bounds."""
    dim = obj.dim
    cur = paving._random_assignment(dim, n, rng)
    cur_d = obj.defect(cur)
    best, best_d = cur.copy(), cur_d
    temp = max(cur_d, 1e-6)
    target = eps * obj.base
    spent = 0
    while spent < budget and best_d > target:
        spent += 1
        trial = cur.copy()
        if n >= 2 and rng.random() < 0.5:
            i, j = rng.integers(0, dim, size=2)
            trial[i], trial[j] = cur[j], cur[i]
        else:
            v = rng.integers(0, n)
            trial[rng.integers(0, dim)] = v
        d = obj.defect(trial)
        delta = d - cur_d
        if delta <= 0 or rng.random() < np.exp(-delta / max(temp, 1e-12)):
            cur, cur_d = trial, d
            if d < best_d:
                best, best_d = trial.copy(), d
        temp *= 0.995
    return best_d, best


@pytest.mark.parametrize("dim", [32, 61, 64])
def test_two_scalar_index_draws_read_the_stream_of_one_pair(dim):
    # _anneal_once draws a swap's indices as two scalar integers, the
    # reference loop as one pair: PCG64 keeps its buffered 32-bit half-word
    # in the bit generator, so both read one stream, between the float and
    # label draws of the other moves too
    def draws(pair: bool) -> list:
        rng, out = rng_for(3, 0x5EA, 5, 1), []
        for _ in range(5000):
            if rng.random() < 0.5:
                out += (rng.integers(0, dim, size=2).tolist() if pair
                        else [int(rng.integers(0, dim)), int(rng.integers(0, dim))])
            else:
                out += [int(rng.integers(0, 5)), int(rng.integers(0, dim))]
            out.append(rng.random())
        return out

    assert draws(True) == draws(False)


def test_anneal_keeps_every_decision(monkeypatch):
    cases = [(dim, seed, eps) for dim in (16, 32) for seed in range(4) for eps in (0.3, 0.6)]
    inputs = {(dim, seed): free_model.sample(free_model.EnsembleSpec("zero_diag_haar", dim, seed))
              for dim, seed, _ in cases}
    got = [pave_search(inputs[dim, seed], eps, "anneal", 400, seed) for dim, seed, eps in cases]
    monkeypatch.setattr(paving, "_anneal_once", reference_anneal_once)
    for (dim, seed, eps), (part, rep) in zip(cases, got):
        want_part, want_rep = pave_search(inputs[dim, seed], eps, "anneal", 400, seed)
        assert part.n_blocks == want_part.n_blocks, (dim, seed, eps)
        assert np.array_equal(part.assignment, want_part.assignment), (dim, seed, eps)
        untimed = [{k: v for k, v in r.to_json_dict().items() if k != "elapsed_ms"}
                   for r in (rep, want_rep)]
        assert json.dumps(untimed[0]) == json.dumps(untimed[1]), (dim, seed, eps)


def test_anneal_takes_fewer_block_svds(monkeypatch):
    # the benchmark's anneal/d64 op
    x = free_model.sample(free_model.EnsembleSpec("zero_diag_haar", 64, 0))
    count = count_svds(monkeypatch)
    part, _ = pave_search(x, 0.6, "anneal", 1000, 0)
    lean, count[0] = count[0], 0
    # an infinite slack makes every bound exceed every exact norm and the
    # refusal level: each bound is resolved, so each changed block takes
    # its SVD (4,494 against 5,374 with one BLAS thread)
    monkeypatch.setattr(paving, "BOUND_SLACK", np.inf)
    want_part, _ = pave_search(x, 0.6, "anneal", 1000, 0)
    assert np.array_equal(part.assignment, want_part.assignment)
    assert 10 * lean <= 9 * count[0]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_objective_refusal_level_refuses_exactly_the_trials_at_or_above_it(data):
    # committed states reached by chains of moves carry stacked bounds; a
    # level at or next to any block norm of the trial or the committed state
    # must refuse exactly the trials whose defect reaches it
    dim = data.draw(st.integers(2, 12))
    x = random_matrix(dim, data.draw(st.integers(0, 2 ** 16)))
    frame = perpendicular_frame(dim) if data.draw(st.booleans()) else MasaFrame.identity(dim)
    n = data.draw(st.integers(1, dim))
    cur = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=dim, max_size=dim)),
                   dtype=np.int64)
    obj, fresh = _Objective(frame.to_frame(x)), _Objective(frame.to_frame(x))
    obj.reset(cur)
    for _ in range(data.draw(st.integers(1, 30))):
        trial = _move(data, cur, n, obj.off)
        want = fresh.defect(trial)
        norms = [v for a in (trial, cur)
                 for v in fresh._label_norms(a).values()]
        level = data.draw(st.sampled_from(sorted({w for v in norms for w in (
            v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf))})))
        if data.draw(st.booleans()):
            d = obj.propose(trial, refuse_at=level)
            if want >= level:
                # refused, with nothing to commit
                assert d is None and obj._pending is None
                continue
            assert d == want
        else:
            assert obj.propose(trial) == want
        if data.draw(st.booleans()):
            obj.commit()
            cur = trial
            assert fresh.reset(cur) == want


def test_objective_refusal_resolves_a_bound_the_move_leaves(monkeypatch):
    # label 1 only shrank and keeps a bound; a swap between labels 0 and 2
    # takes both below label 1's exact norm, so label 1 alone decides the
    # refusal: its bound is resolved, written back to the committed state,
    # and refuses before the changed blocks take an SVD
    x = random_matrix(8, 47)
    obj, fresh = _Objective(x), _Objective(x)
    cur = np.array([0, 0, 0, 1, 1, 1, 2, 2])
    obj.reset(cur)
    shrink = cur.copy()
    shrink[5] = 2
    obj.propose(shrink)
    obj.commit()
    assert 1 in obj._bound
    swap = shrink.copy()
    swap[[0, 5]] = swap[[5, 0]]
    want = fresh.defect(swap)
    assert want == fresh._norm(swap, 1)
    count = count_svds(monkeypatch)
    assert obj.propose(swap, refuse_at=want) is None
    assert count == [1] and obj._exact[1] == want and 1 not in obj._bound
    # with the level above it, both changed blocks take their SVDs
    count[0] = 0
    assert obj.propose(swap, refuse_at=np.nextafter(want, np.inf)) == want
    assert count == [2]


def reference_search_draws(obj, target, budget, seed, n, tag, draw):
    """``_search_draws`` without its column-norm screen: every draw is scored."""
    best_d, best_a = np.inf, None
    for w in range(min(paving.DRAWS, budget)):
        a = draw(rng_for(seed, tag, n, w), obj.dim, n)
        d = obj.defect(a)
        if d < best_d:
            best_d, best_a = d, a
    return best_d, best_a


@pytest.mark.parametrize("strategy", ["roots_of_unity", "arc"])
def test_draw_screen_keeps_every_partition(monkeypatch, strategy):
    cases = [(dim, seed, eps) for dim in (16, 48) for seed in range(3) for eps in (0.3, 0.6)]
    inputs = {(dim, seed): free_model.sample(free_model.EnsembleSpec("zero_diag_haar", dim, seed))
              for dim, seed, _ in cases}
    got = [pave_search(inputs[dim, seed], eps, strategy, 1000, seed) for dim, seed, eps in cases]
    monkeypatch.setattr(paving, "_search_draws", reference_search_draws)
    for (dim, seed, eps), (part, rep) in zip(cases, got):
        want_part, want_rep = pave_search(inputs[dim, seed], eps, strategy, 1000, seed)
        assert np.array_equal(part.assignment, want_part.assignment), (dim, seed, eps)
        assert repr(rep.ratio) == repr(want_rep.ratio), (dim, seed, eps)


def test_search_benchmark_digest_matches():
    out = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--check-digest",
                          "--workload", "search"], cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    assert out.returncode == 0, out.stdout + out.stderr


# -- pinned search results -------------------------------------------------------

# (strategy, dim) of the benchmark's search ops at eps 0.6 and budget 1000,
# on zero_diag_haar inputs with input and search seed 0
# at dim 18 sign_split halves blocks of 9 into 4 and 5
SEARCH_CASES = [("anneal", 32), ("anneal", 64), ("sign_split", 32), ("sign_split", 64),
                ("exhaustive", 10), ("sign_split", 18)]
# SHA-256 of the assignment and repr of the ratio, recorded before the
# exhaustive walk and the lean move path (numpy 2.4 with OpenBLAS 0.3.31,
# one BLAS thread as the benchmark runs)
SEARCH_PINS = [
    ["e093d5badbeb2fb6b0433c2779b830d4dac8ab557e6050e607654096602b649e", "0.5593206300719166"],
    ["2936a70b2d7518fcffbc66fd243e84251cc3af094802088a3c85ef8e46224f2b", "0.5985309930054683"],
    ["b6ed9d21c2192e0219404207c41223c8229b8ecd426db27e6bf33c1502d980ba", "0.5936360594208221"],
    ["a918049a8a7c44a0525c1a7d848b10c0fce2bb42a99680c563b37ba356cfbbfb", "0.6540486217772664"],
    ["6b846dd49bce2d441030a5834369d0e4893b8beec9b1cc96b87d6f6f09818931", "0.590061216632163"],
    ["e54e9431cd2b9c4b66cb1c977ac0ef1a3e10036c452c1555121aa43adb57d1b7", "0.5355140847117672"],
]


def _search_pins():
    out = []
    for strategy, dim in SEARCH_CASES:
        x = free_model.sample(free_model.EnsembleSpec("zero_diag_haar", dim, 0))
        part, rep = pave_search(x, 0.6, strategy, budget=1000, seed=0)
        out.append([hashlib.sha256(part.assignment.astype("<i8").tobytes()).hexdigest(),
                    repr(rep.ratio)])
    return out


# SVDs the kernel takes, a stack counted per matrix, of each strategy over the
# zero_diag_haar inputs at dims 32 and 64 and input seeds 0-3, each also the
# search seed, at eps 0.6 and budget 1000 with one BLAS thread.  The column-norm
# screen of _search_draws skips 75 of 296 roots_of_unity draws and 107 of 344
# arc draws without an SVD (1168 and 1492 SVDs without it)
SVD_COUNT_PINS = {"sign_split": 3775, "anneal": 30794, "roots_of_unity": 1007, "arc": 1230}


def _svd_counts():
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        count = count_svds(mp)
        for strategy in SVD_COUNT_PINS:
            count[0] = 0
            for dim in (32, 64):
                for seed in range(4):
                    x = free_model.sample(free_model.EnsembleSpec("zero_diag_haar", dim, seed))
                    pave_search(x, 0.6, strategy, 1000, seed)
            out[strategy] = count[0]
    return out


def _run_pinned(call: str):
    """The JSON that test_paving.<call>() prints in a fresh interpreter with
    one BLAS thread, as the benchmark runs."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests"),
                                           os.environ.get("PYTHONPATH", "")]))
    code = f"import json, test_paving as t\nprint(json.dumps(t.{call}()))"
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
                         text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_search_block_svd_counts_pinned():
    assert _run_pinned("_svd_counts") == SVD_COUNT_PINS


def test_search_outputs_pinned():
    assert _run_pinned("_search_pins") == SEARCH_PINS
