"""Random-matrix ensembles as desk-scale models of free probability.

Independent Haar-random matrices are asymptotically free, so they serve
as numerical oracles for the norm bounds that exact freeness would give:
compression of a zero-expectation element by the eigenblocks of an
independent roots-of-unity diagonal, compression of a random projection
by shuffled equal blocks, and the Kesten norm of a sum of independent
Haar unitaries.  Freeness only holds in the large-dimension limit, so the
experiments report each measured norm and its slack over the quoted bound,
and check it against no tolerance.  ``calibrate`` measures them over
reference seeds and produces a manifest with, per experiment, the measured
quantiles and an additive tolerance rounded up from the worst slack; no
code reads those tolerances yet.

Haar unitaries come from ``_haar``: the QR of a complex Ginibre matrix,
with LAPACK's zgeqrf and zungqr run in place on the Ginibre buffer, so a
draw holds two dim x dim arrays, the factored buffer and Q.

Each model comes from its own stream ``rng_for(seed, tag, dim)``:
``sample`` draws the zero-diagonal Haar model (tag 1) and the random
projection of the projection experiment (tag 2), and the conjugation
experiment shuffles its roots-of-unity block labels itself (tag 3).

Equal shuffled blocks, off-diagonal parts and block-diagonal norms come
from ``paving`` (``_equal_blocks``, ``_off_diagonal``,
``_block_diagonal_norm``), the same code the paving searches use; reports
serialize through ``matrix_io.JsonReport``.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .finite_vn import MasaFrame, TracedMatrix, op_norm
from .matrix_io import JsonReport
from .paving import (
    DEGENERATE_NORM,
    Partition,
    _block_diagonal_norm,
    _block_mask,
    _equal_blocks,
    _off_diagonal,
)
from .seeds import rng_for

# The stream tags of the three model draws.  Every workload input and every
# benchmark digest depends on them, so they never change.
_ZERO_DIAG_HAAR_TAG = 1
_PROJECTION_TAG = 2
_ROOTS_TAG = 3


@dataclass(frozen=True)
class EnsembleSpec:
    """Reproducible ensemble description: identical spec, identical sample.

    ``"zero_diag_haar"`` is the model of the CLI and of the benchmark
    inputs; ``"random_projection"``, of trace ``trace``, is the projection
    experiment's.
    """

    kind: str
    dim: int
    seed: int
    trace: float | None = None   # random_projection only

    def __post_init__(self):
        if self.kind not in ("zero_diag_haar", "random_projection"):
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.dim < 2:
            raise ValueError("dim must be >= 2")
        if self.kind == "random_projection":
            if self.trace is None or not 0 < self.trace < 1:
                raise ValueError("random_projection needs trace in (0, 1)")
            if round(self.trace * self.dim) < 1:
                raise ValueError("projection rank rounds to zero")


@dataclass(frozen=True)
class NormExperimentReport(JsonReport):
    measured_norm: float
    paper_bound: float
    slack: float
    n: int
    dim: int
    seed: int


def _haar(dim: int, rng) -> np.ndarray:
    """QR of a complex Ginibre matrix, column phases fixed by diag(R)
    (Mezzadri, Notices AMS 54 (2007)).

    The Ginibre matrix is drawn into one complex buffer z, and the two
    LAPACK steps of ``np.linalg.qr`` run on it in place: ``qr_r_raw``
    (zgeqrf) overwrites z with R and the Householder reflectors, and
    ``qr_reduced`` (zungqr) forms Q from them.  A draw holds two dim x dim
    arrays, z and Q; ``np.linalg.qr`` would add a copy of z and a dense
    triu(R).  z is dropped before the phases are divided out of Q, so the
    division's ufunc buffer does not sit on top of both.  The bits are
    those of (g1 + i g2) / sqrt(2), of ``np.linalg.qr`` and of q / phases.
    The gufuncs' work copies and LAPACK's workspace are malloc'd in C,
    outside tracemalloc.
    """
    z = np.empty((dim, dim), dtype=np.complex128)
    z.real = rng.standard_normal((dim, dim))
    z.imag = rng.standard_normal((dim, dim))
    z /= np.sqrt(2)
    tau = _umath_linalg.qr_r_raw(z, signature="D->D")
    q = _umath_linalg.qr_reduced(z, tau, signature="DD->D")
    d = np.diagonal(z).copy()
    del z
    q /= d / np.abs(d)
    return q


def _zero_diag_haar(dim: int, rng) -> np.ndarray:
    """A Haar unitary with its diagonal zeroed in place, at unit norm: the
    bits of u - diag(u) divided by its norm.  The division is not in place,
    so the array whose norm was taken keeps its entries."""
    u = _haar(dim, rng)
    np.fill_diagonal(u, 0)
    return u / op_norm(u)


def sample(spec: EnsembleSpec) -> TracedMatrix:
    dim, seed = spec.dim, spec.seed
    if spec.kind == "zero_diag_haar":
        return TracedMatrix(_zero_diag_haar(dim, rng_for(seed, _ZERO_DIAG_HAAR_TAG, dim)))
    cols = _haar(dim, rng_for(seed, _PROJECTION_TAG, dim))[:, :round(spec.trace * dim)]
    return TracedMatrix(cols @ cols.conj().T)


# ---------------------------------------------------------------------------
# Norm oracles and experiments
# ---------------------------------------------------------------------------

def kesten_norm_oracle(m: int, dim: int, seed: int) -> float:
    """||sum of m independent Haar unitaries|| at the given dimension.

    The free value measured here tracks 2 sqrt(m-1); the source bound
    this feeds quotes sqrt(m), a recorded discrepancy surfaced by the
    calibration manifest rather than resolved.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    acc = np.zeros((dim, dim), dtype=np.complex128)
    for j in range(m):
        acc += _haar(dim, rng_for(seed, 0xE57, j))
    return op_norm(acc)


def kesten_values(m: int) -> tuple[float, float]:
    """The two reference values for the norm of m Haar unitaries: the
    paper's sqrt(m) and the free 2 sqrt(m-1) (1 when m = 1)."""
    return float(np.sqrt(m)), float(2 * np.sqrt(m - 1)) if m > 1 else 1.0


def conjugation_paving_experiment(n: int, dim: int, seed: int) -> NormExperimentReport:
    """Compression of a zero-diagonal Haar model by roots-of-unity eigenblocks.

    Verifies the averaging identity n^(-1) sum_j v^j u v^(-j) =
    sum_k e_k u e_k to 1e-12 (pure algebra) and reports the measured
    compression norm against (sqrt(n-1) + 1)/n.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if n < 1 or dim % n != 0:
        raise ValueError(f"n={n} must divide dim={dim}")
    u = _zero_diag_haar(dim, rng_for(seed, 0xC07, 0))
    # v = diag(d) has each n-th root on dim/n seeded-shuffled slots
    labels = np.repeat(np.arange(n), dim // n)
    rng_for(seed, _ROOTS_TAG, dim).shuffle(labels)
    d = np.exp(2j * np.pi * np.arange(n) / n)[labels]
    avg = np.zeros_like(u)
    for j in range(n):
        phase = d ** j
        avg += u * np.outer(phase, phase.conj())
    avg /= n
    dev = np.abs(avg - u * _block_mask(labels)).max()
    if dev > 1e-12:
        raise AssertionError(f"averaging identity violated: deviation {dev:.3e}")
    measured = _block_diagonal_norm(u, labels)
    bound = (np.sqrt(n - 1) + 1) / n
    return NormExperimentReport(float(measured), float(bound), float(measured - bound), n, dim, seed)


def projection_paving_experiment(t: float, n: int, dim: int,
                                 seed: int) -> tuple[NormExperimentReport, NormExperimentReport]:
    """Compression of a trace-t random projection by shuffled equal blocks.

    Returns the n-block report (bound 2/sqrt(n)) and the half-split report
    (bound sqrt(t(1-t)) + 1/2).
    """
    if not 0 < t <= 0.5:
        raise ValueError("t must lie in (0, 1/2]")
    if n < 1.0 / t:
        raise ValueError("need n >= 1/t")
    if dim % n != 0:
        raise ValueError(f"n={n} must divide dim={dim}")
    e = sample(EnsembleSpec("random_projection", dim, seed, trace=t)).entries
    rng = rng_for(seed, 0x480)
    measured = _block_diagonal_norm(e, _equal_blocks(rng.permutation(dim), n), shift=t)
    bound = 2.0 / np.sqrt(n)
    block_report = NormExperimentReport(float(measured), float(bound), float(measured - bound),
                                        n, dim, seed)
    # block 0 holds dim // 2 indices (array_split would give it the odd one)
    halves = np.ones(dim, dtype=np.int64)
    halves[rng.permutation(dim)[: dim // 2]] = 0
    measured_half = _block_diagonal_norm(e, halves)
    bound_half = np.sqrt(t * (1 - t)) + 0.5
    half_report = NormExperimentReport(float(measured_half), float(bound_half),
                                       float(measured_half - bound_half), 2, dim, seed)
    return block_report, half_report


@dataclass(frozen=True)
class GrowthReport(JsonReport):
    values: tuple
    fitted_exponent: float
    dim: int
    n_max: int
    seed: int


def power_conjugation_growth(dim: int, N: int, seed: int) -> GrowthReport:
    """g(n) = ||sum_{i<=n} u^i x u^(-i)|| for Haar u and unit-norm model x.

    Emits the exponent of the least-squares fit g(n) ~ n^beta; the source
    question expects growth near sqrt(n), reported rather than asserted.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if N < 2:
        raise ValueError("need N >= 2")
    u = _haar(dim, rng_for(seed, 0x960, 0))
    z = _haar(dim, rng_for(seed, 0x960, 1))
    z = _off_diagonal(z)
    x = (z + z.conj().T) / 2
    x /= op_norm(x)
    acc = np.zeros_like(x)
    cur = x
    values = []
    u_inv = u.conj().T
    for _ in range(N):
        cur = u @ cur @ u_inv
        acc += cur
        values.append(op_norm(acc))
    logs_n = np.log(np.arange(1, N + 1))
    logs_g = np.log(np.maximum(values, 1e-300))
    beta = float(np.polyfit(logs_n, logs_g, 1)[0])
    return GrowthReport(tuple(float(v) for v in values), beta, dim, N, seed)


def _free_order(dim: int, seed: int) -> np.ndarray:
    """The seeded shuffle that the free paver cuts into equal blocks."""
    return rng_for(seed, 0x480).permutation(dim)


def equal_block_partition(dim: int, n: int, seed: int) -> Partition:
    """Seeded-shuffled equal blocks in the diagonal frame (the free paver)."""
    return Partition(_equal_blocks(_free_order(dim, seed), n), n, MasaFrame.identity(dim))


def make_block_paver():
    """Projection paver callback (corner, target, seed) -> Partition of the
    corner in the identity frame, target being the absolute bound on
    ||sum_i p_i (c - E(c)) p_i|| for the corner c.

    Levels cut one seeded permutation into n = 2, 4, ... equal blocks, and
    the doubling returns the singletons (defect 0) unevaluated at n = dim.
    A norm is at least each column norm of its matrix, so a level whose
    largest masked column norm exceeds the target is refused before its
    block norms are taken, and ||c - E(c)||, which decides one block (it
    meets the target or lies below DEGENERATE_NORM), is taken only when the
    largest column fits; the relative slack of 1e-9 on both screens is far
    above the rounding of either side, so they refuse nothing the norms
    would accept.  A negative or NaN target is refused with ValueError: no
    level meets it, singletons included."""

    def paver(corner: np.ndarray, target: float, seed: int) -> Partition:
        if not target >= 0:
            raise ValueError(f"target must be >= 0, got {target!r}")
        dim = corner.shape[0]
        frame = MasaFrame.identity(dim)
        off = _off_diagonal(corner)
        abs_sq = off.real ** 2 + off.imag ** 2
        cut = target * (1 + 1e-9)
        if np.sqrt(abs_sq.sum(axis=0).max()) <= max(cut, DEGENERATE_NORM * (1 + 1e-9)):
            base = op_norm(off)
            if base < DEGENERATE_NORM or base <= target:
                return Partition.one_block(frame)
        order = _free_order(dim, seed)
        n = 2
        while n < dim:
            labels = _equal_blocks(order, n)
            if (np.sqrt((abs_sq * _block_mask(labels)).sum(axis=0).max()) <= cut
                    and _block_diagonal_norm(off, labels) <= target):
                return Partition(labels, n, frame)
            n *= 2
        return Partition.singletons(frame)

    return paver


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

_CALIBRATION_CONJ_NS = (2, 4, 8)   # block counts of the conjugation experiment
_CALIBRATION_PROJ_N = 64           # block count of the projection experiment
_CALIBRATION_KESTEN_MS = (2, 4)    # unitary counts of the Kesten oracle


def calibrate(seeds, dim_conj: int = 1024, dim_proj: int = 2048, dim_kesten: int = 2048) -> dict:
    """Measure the free-model experiments over reference seeds.

    Produces a manifest with, per experiment, the measured quantiles, the
    quoted bound, and a tolerance rounded up from the worst observed slack;
    no code reads the tolerances yet.  Each dim must be positive and
    divisible by every block count its experiment takes; a ValueError names
    the offending one by its ``pavlab calibrate`` flag before any experiment
    runs.
    """
    for flag, dim, step in (("--dim-conj", dim_conj, math.lcm(*_CALIBRATION_CONJ_NS)),
                            ("--dim-proj", dim_proj, _CALIBRATION_PROJ_N),
                            ("--dim-kesten", dim_kesten, 1)):
        if dim < 1 or dim % step:
            need = "positive" if step == 1 else f"a positive multiple of {step}"
            raise ValueError(f"{flag} must be {need}, got {dim}")
    seeds = list(seeds)
    manifest: dict = {
        "seeds": seeds,
        "dims": {"conjugation": dim_conj, "projection": dim_proj, "kesten": dim_kesten},
    }

    def q95(vals):
        return float(np.quantile(np.asarray(vals), 0.95))

    def tolerance(vals, bound):
        """The slack of the 95% quantile over the bound, rounded up to a
        hundredth and never below 0, plus 0.01."""
        return max(0.0, float(np.ceil((q95(vals) - bound) * 100) / 100)) + 0.01

    haar_hits = 0
    for s in seeds:
        u = _haar(dim_conj, rng_for(s, 0xCA1))
        mom = max(abs(np.trace(np.linalg.matrix_power(u, k))) / dim_conj for k in range(1, 5))
        haar_hits += bool(mom <= 3.0 / np.sqrt(dim_conj))
    manifest["haar_moment_pass_rate"] = haar_hits / len(seeds)

    conj = {}
    for n in _CALIBRATION_CONJ_NS:
        reports = [conjugation_paving_experiment(n, dim_conj, s) for s in seeds]
        vals = [r.measured_norm for r in reports]
        bound = reports[0].paper_bound
        conj[str(n)] = {
            "paper_bound": bound,
            "free_value": float(2 * np.sqrt(n - 1) / n) if n > 1 else 1.0,
            "measured_max": float(max(vals)),
            "measured_p95": q95(vals),
            "measured_median": float(np.median(vals)),
            "tolerance": tolerance(vals, bound),
        }
    manifest["conjugation"] = conj

    proj_reports = [projection_paving_experiment(0.5, _CALIBRATION_PROJ_N, dim_proj, s) for s in seeds]
    block_vals = [r[0].measured_norm for r in proj_reports]
    half_vals = [r[1].measured_norm for r in proj_reports]
    bound = proj_reports[0][0].paper_bound
    manifest["projection"] = {
        "paper_bound": bound,
        "measured_max": float(max(block_vals)),
        "measured_p95": q95(block_vals),
        "tolerance": tolerance(block_vals, bound),
        "half_split_bound": proj_reports[0][1].paper_bound,
        "half_split_max": float(max(half_vals)),
    }

    kesten = {}
    for m in _CALIBRATION_KESTEN_MS:
        vals = [kesten_norm_oracle(m, dim_kesten, s) for s in seeds]
        paper, free = kesten_values(m)
        kesten[str(m)] = {
            "paper_value": paper,
            "free_value": free,
            "measured_min": float(min(vals)),
            "measured_max": float(max(vals)),
            "measured_median": float(np.median(vals)),
        }
    manifest["kesten"] = kesten
    return manifest
