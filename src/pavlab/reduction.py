"""Reduction of paving arbitrary elements to paving constant-diagonal projections.

The pipeline: split into self-adjoint components, center and rescale,
map affinely into the spectral window [1/3, 1/2], slice the expectation
into bands and flatten it to the band anchors, split each band into four
equal-trace corners, dilate each corner to an honest projection with
constant diagonal (using a Fourier sub-corner so the off-corner part has
exactly constant diagonal), pave each projection through a callback, and
recombine.  Every certified inequality along the way is re-checked
numerically and recorded in a ReductionTrace.

Exact trace matching for the dilation is impossible on a discrete trace
grid; the corner element is shifted by a scalar gamma < t/(s+m) so the
dilated g is an exact projection with exactly constant diagonal at the
shifted anchor, and gamma is recorded.

A corner's base ||g - E_A(g)|| is max(t', 1 - t'), t' = t - gamma: on the
corner E_A(g) = t' 1, and g is a projection of trace t'(s+m), strictly
between 0 and s+m, so g - t' 1 has exactly the eigenvalues -t' and 1 - t'.
The paver needs no base: it receives the corner's absolute budget.

Frame convention: in M_dim every MASA is U Diag U*, so paving x over it is
paving U* x U over the diagonal MASA.  ``reduce_and_pave`` reads x in frame
coordinates, where E_A keeps the diagonal, as does every step after it;
its partition carries the identity frame.  No function here takes a frame.

The pipeline holds a dense dim x dim matrix only while a later step reads
it.  The paver receives the (s+m) x (s+m) corner of the dilated
projection, which is never scattered to full size; the normalized element
is dropped once it is flattened, a component once it is scaled, and an
exactly zero component (the imaginary part of a self-adjoint input) is
never kept.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .finite_vn import (
    MasaFrame,
    TracedMatrix,
    _as_entries,
    _dft_matrix,
    op_norm,
)
from .matrix_io import JsonReport
from .paving import (
    DEGENERATE_NORM,
    Partition,
    PavingReport,
    _block_diagonal_norm,
    _defect_report,
    _off_diagonal,
    paving_defect,
    refine,
)


@dataclass(frozen=True)
class Stage(JsonReport):
    label: str
    measured: float
    bound: float
    ok: bool
    detail: dict = field(default_factory=dict)


@dataclass
class ReductionTrace(JsonReport):
    # field order is the key order of to_json_dict
    eps: float
    band_count: int = 0
    anchors: tuple = ()
    stages: list = field(default_factory=list)

    def add(self, label: str, measured: float, bound: float, **detail) -> None:
        self.stages.append(Stage(label, float(measured), float(bound),
                                 bool(measured <= bound), detail))

    @property
    def all_ok(self) -> bool:
        return all(s.ok for s in self.stages)


def split_real_imag(x) -> tuple[TracedMatrix, TracedMatrix]:
    """x = y1 + i y2 with both components self-adjoint, norms <= ||x||."""
    a = _as_entries(x)
    y1 = (a + a.conj().T) / 2
    y2 = (a - a.conj().T) / 2j
    return TracedMatrix(y1), TracedMatrix(y2)


def normalize_selfadjoint(x) -> tuple[np.ndarray, np.ndarray]:
    """(y0, eigenvalues of y0) with y0 = (x + 5)/12, for x self-adjoint,
    with zero diagonal and unit norm.

    The affine map puts the spectrum inside [1/3, 1/2] (checked within
    1e-10); paving is invariant under the map, so nothing is lost.
    """
    a = _as_entries(x)
    if np.abs(a - a.conj().T).max() > 1e-10:
        raise ValueError("input must be self-adjoint")
    if np.abs(np.diagonal(a)).max() > 1e-10:
        raise ValueError("input must have zero expectation on the MASA")
    y0 = (a + 5.0 * np.eye(a.shape[0])) / 12.0
    ev = np.linalg.eigvalsh(y0)
    if ev.min() < 1 / 3 - 1e-10 or ev.max() > 0.5 + 1e-10:
        raise ValueError("spectrum escaped [1/3, 1/2]; caller must rescale to unit norm")
    return y0, ev


@dataclass(frozen=True)
class Band:
    index: int          # 1-based band number
    anchor: float       # t_k = 1/3 + (k-1) eps/6, the band's left endpoint
    slots: np.ndarray   # indices whose expectation lies in the band


def band_slices(a, eps: float) -> list[Band]:
    """Spectral bands [1/3 + (k-1) eps/6, 1/3 + k eps/6) of E_A(a), the
    diagonal of a.

    Nonzero bands only; their count is at most 1/eps + 1 because the
    window [1/3, 1/2] has width 1/6.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    d = np.real(np.diagonal(_as_entries(a)))
    if d.min() < 1 / 3 - 1e-9 or d.max() > 0.5 + 1e-9:
        raise ValueError("expectation values must lie in [1/3, 1/2]")
    width = eps / 6
    ks = np.floor((np.clip(d, 1 / 3, None) - 1 / 3) / width).astype(np.int64) + 1
    bands = []
    for k in sorted(set(ks.tolist())):
        slots = np.flatnonzero(ks == k)
        bands.append(Band(index=int(k), anchor=1 / 3 + (k - 1) * width, slots=slots))
    if len(bands) > 1 / eps + 1:
        raise AssertionError(f"band count {len(bands)} exceeds 1/eps + 1")
    return bands


@dataclass(frozen=True)
class FlattenResult:
    y: np.ndarray
    drift: float            # ||y0 - y||
    transfer: float         # ||(y0 - y) - E_A(y0 - y)||, the paving-relevant part


def flatten(y0, bands: list[Band], eps: float) -> FlattenResult:
    """y = b^(-1/2) y0 b^(-1/2) with b = sum_k a_k / t_k.

    Makes the expectation exactly constant (the band anchor) on every
    band, moving y0 by at most eps/4 in operator norm.
    """
    m = _as_entries(y0)
    d = np.real(np.diagonal(m))
    b = np.zeros(m.shape[0])
    covered = np.zeros(m.shape[0], dtype=bool)
    for band in bands:
        b[band.slots] = d[band.slots] / band.anchor
        covered[band.slots] = True
    if not covered.all():
        raise ValueError("bands do not cover every slot")
    if b.min() < 1 - 1e-12 or b.max() > 1 + eps / 2 + 1e-12:
        raise ValueError("band scaling escaped [1, 1 + eps/2]; slots assigned to wrong bands")
    scale = 1.0 / np.sqrt(b)
    y = m * np.outer(scale, scale)
    delta = m - y
    drift = op_norm(delta)
    if drift > eps / 4 + 1e-12:
        raise AssertionError(f"flatten drift {drift:.3e} exceeds eps/4")
    # y0 - y is formed once: the drift reads it, then its diagonal is
    # zeroed in place, with the bits of delta - E_A(delta)
    np.fill_diagonal(delta, 0)
    transfer = op_norm(delta)
    del delta
    for band in bands:
        dev = np.abs(np.real(np.diagonal(y))[band.slots] - band.anchor).max()
        if dev > 1e-9:
            raise AssertionError(f"flattened expectation deviates {dev:.3e} on band {band.index}")
    return FlattenResult(y, float(drift), float(transfer))


# ---------------------------------------------------------------------------
# Dilation to a constant-diagonal projection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DilationResult:
    """The dilated projection g, held as its (s+m) x (s+m) ``corner`` on
    the slots e_slots then p_slots (g is zero off them), and its checks."""

    corner: np.ndarray       # (s+m) x (s+m) block: [e-part, p-part] coordinates
    e_slots: np.ndarray
    p_slots: np.ndarray
    anchor: float            # t' = t - shift: the exact constant diagonal of g
    shift: float             # gamma, the scalar absorbed to match the trace grid
    g2_dev: float
    diag_dev: float


def dilate_to_projection(y, e_slots, t_k: float) -> DilationResult:
    """Dilate the corner y restricted to e_slots into a projection g.

    g agrees with the (shifted) corner on e, maps the complement of the
    corner through a partial isometry into a Fourier sub-corner on
    p_slots, the first m slots outside e_slots, and has exactly constant
    diagonal t' = t_k - gamma on its support, gamma < t_k/(s+m) being the
    trace-grid rounding shift.
    """
    a = _as_entries(y)
    dim = a.shape[0]
    e_slots = np.asarray(e_slots, dtype=np.int64)
    s = e_slots.size
    if s == 0:
        raise ValueError("empty corner")
    r = a[np.ix_(e_slots, e_slots)]
    if np.abs(r - r.conj().T).max() > 1e-9:
        raise ValueError("corner element must be self-adjoint")
    lam_r, w = np.linalg.eigh(r)
    if lam_r.min() < 1e-9 or lam_r.max() > 1 - 1e-9:
        raise ValueError("corner spectrum must lie strictly inside (0, 1)")
    tr_comp = float(np.sum(1.0 - lam_r))
    m = int(np.ceil(tr_comp / t_k - 1e-12))
    free = np.setdiff1d(np.arange(dim), e_slots)
    if free.size < m:
        raise ValueError(f"insufficient room: need {m} fresh slots, have {free.size}")
    p_slots = free[:m]

    gamma = (t_k * m - tr_comp) / (s + m)
    if not -1e-12 <= gamma < t_k / (s + m) + 1e-12:
        raise AssertionError(f"rounding shift gamma {gamma:.3e} out of range")
    t_prime = t_k - gamma
    lam_shift = lam_r - gamma            # spectrum of the shifted corner
    if lam_shift.min() < 1e-12:
        raise ValueError("rounding shift pushed the corner spectrum to zero")
    comp = 1.0 - lam_shift               # eigenvalues of e - y'
    f = _dft_matrix(m)
    iso = f[:, :s] @ w.conj().T          # maps the corner onto the Fourier sub-corner
    r_shift = (w * lam_shift) @ w.conj().T
    k_block = (w * np.sqrt(lam_shift * comp)) @ w.conj().T @ iso.conj().T
    c_block = (f[:, :s] * comp) @ f[:, :s].conj().T

    size = s + m
    corner = np.zeros((size, size), dtype=np.complex128)
    corner[:s, :s] = r_shift
    corner[:s, s:] = k_block
    corner[s:, :s] = k_block.conj().T
    corner[s:, s:] = c_block
    g2_dev = float(np.abs(corner @ corner - corner).max())
    diag_dev = float(np.abs(np.real(np.diagonal(corner)) - t_prime).max()
                     + np.abs(np.imag(np.diagonal(corner))).max())
    return DilationResult(corner, e_slots, p_slots, float(t_prime), float(gamma),
                          g2_dev, diag_dev)


# ---------------------------------------------------------------------------
# The full pipeline
# ---------------------------------------------------------------------------

def _nonzero_components(centered: np.ndarray) -> tuple[float, list]:
    """The reassembly error of :func:`split_real_imag` on centered, and its
    (label, entries) components that are not exactly zero; the imaginary
    part of a self-adjoint input is."""
    y1, y2 = split_real_imag(centered)
    # y1 + i y2 - centered, formed in one buffer: addition commutes, so the
    # bits are those of the left-to-right sum
    r = 1j * y2.entries
    r += y1.entries
    r -= centered
    return np.abs(r).max(), [(label, c.entries) for label, c in (("real", y1), ("imag", y2))
                             if c.entries.any()]


def _quarter_split(slots: np.ndarray) -> list[np.ndarray]:
    """Four contiguous quarters in frame order, remainders to the first."""
    return [q for q in np.array_split(slots, 4) if q.size]


def _flatten_component(z: np.ndarray, eps: float,
                       trace: ReductionTrace) -> tuple[list[Band], FlattenResult]:
    """Normalize z into the window, slice its expectation into bands and
    flatten it; y0 is not held past the flattening."""
    y0, ev = normalize_selfadjoint(z)
    trace.add("normalize_window", max(1 / 3 - ev.min(), ev.max() - 0.5), 1e-10,
              lo=float(ev.min()), hi=float(ev.max()))

    bands = band_slices(y0, eps)
    trace.band_count = max(trace.band_count, len(bands))
    trace.anchors = tuple(sorted(set(trace.anchors) | {b.anchor for b in bands}))
    trace.add("band_count", len(bands), 1 / eps + 1)

    flat = flatten(y0, bands, eps)
    trace.add("flatten_drift", flat.drift, eps / 4)
    return bands, flat


def _pave_component(z: np.ndarray, eps: float, projection_paver,
                    seed: int, trace: ReductionTrace) -> np.ndarray:
    """Assign every slot a piece label realizing the reduction paving of z.

    z must be self-adjoint, centered, unit operator norm.
    """
    bands, flat = _flatten_component(z, eps, trace)
    y = flat.y

    # the affine normalization is undone by a factor 12, so corner defects
    # plus the flatten transfer must fit into eps/12
    target_abs = max(1e-9, 0.9 * (eps / 12 - flat.transfer))
    assignment = np.full(y.shape[0], -1, dtype=np.int64)
    next_label = 0
    worst_g2 = worst_diag = 0.0
    worst_gamma = (0.0, 1.0)  # (gamma, its per-corner bound t/(s+m))
    worst_corner = 0.0
    n_proj_max = 0
    corner_id = 0
    for band in bands:
        for quarter in _quarter_split(band.slots):
            corner_id += 1
            dil = dilate_to_projection(y, quarter, band.anchor)
            size = dil.corner.shape[0]
            worst_g2 = max(worst_g2, dil.g2_dev)
            worst_diag = max(worst_diag, dil.diag_dev)
            if dil.shift >= worst_gamma[0]:
                worst_gamma = (dil.shift, band.anchor / size)
            part = projection_paver(dil.corner, max(0.0, target_abs - dil.shift),
                                    seed + corner_id)
            del dil  # its corner is paved; the next corner builds its own
            if not (isinstance(part, Partition) and part.dim == size):
                got = f"dim {part.dim}" if isinstance(part, Partition) else type(part).__name__
                raise ValueError(f"paver must return a Partition of dim {size}, got {got}")
            n_proj_max = max(n_proj_max, part.effective_blocks)
            s = quarter.size
            # restrict the corner paving to the e-part of the corner: one new
            # label per block that meets it, in ascending block order
            blocks, inverse = np.unique(part.assignment[:s], return_inverse=True)
            assignment[quarter] = next_label + inverse
            next_label += blocks.size
            # measured corner defect on y against the band anchor
            corner_y = y[np.ix_(quarter, quarter)]
            worst_corner = max(worst_corner, _block_diagonal_norm(
                corner_y, part.assignment[:s], shift=band.anchor))
    trace.add("dilation_idempotent", worst_g2, 1e-8)
    trace.add("dilation_constant_diagonal", worst_diag, 1e-8)
    trace.add("dilation_rounding_shift", worst_gamma[0], worst_gamma[1])
    trace.add("corner_defect", worst_corner, target_abs + worst_gamma[0] + 1e-9,
              n_proj_max=n_proj_max)
    if (assignment < 0).any():
        raise AssertionError("pipeline left slots unassigned")
    return assignment


def reduce_and_pave(x, eps: float, projection_paver,
                    seed: int = 0) -> tuple[Partition, ReductionTrace, PavingReport]:
    """Full reduction pipeline on x in frame coordinates; returns the
    partition (in the identity frame), trace, and report.

    The projection_paver callback receives (corner, target, seed), target the
    absolute bound on ||sum_i p_i (c - E_A(c)) p_i|| for the corner c, and
    must return a Partition of the corner's dim (else ValueError).

    x is read once, as its off-diagonal part off = x - E_A(x), and every
    later step reads off.  The norm of off is taken once.  It decides the
    short circuit, and it is the base of the returned report, which
    ``paving_defect`` would take again.  A component that is exactly zero
    (the imaginary part of a self-adjoint input) is skipped, as its zero
    norm would skip it.  When the real component has the bits of off (an
    exactly self-adjoint input), its norm is the base.  So the pipeline
    takes no SVD whose result it already has; the masked SVD of a singleton
    paving is skipped by ``paving._defect_report``, and each component
    report from ``paving_defect`` takes its base only for a nonzero defect.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    a = _as_entries(x)
    dim = a.shape[0]
    frame = MasaFrame.identity(dim)
    trace = ReductionTrace(eps=eps)
    t0 = time.perf_counter()

    off = _off_diagonal(a)
    base = op_norm(off)
    if base < DEGENERATE_NORM or dim <= 2:
        part = Partition.one_block(frame) if base < DEGENERATE_NORM else Partition.singletons(frame)
        report = _defect_report(off, base, part, eps, "reduction", seed, t0)
        trace.add("short_circuit", report.ratio, eps)
        return part, trace, report

    reassembly, comps = _nonzero_components(off)
    trace.add("real_imag_reassembly", reassembly, 1e-14)

    parts = []
    while comps:
        label, comp = comps.pop(0)
        nrm = base if np.array_equal(comp.view(np.int64), off.view(np.int64)) else op_norm(comp)
        if nrm < DEGENERATE_NORM:
            continue
        z = comp / nrm
        del comp  # the pipeline reads the scaled component only
        part = Partition.from_labels(_pave_component(z, eps, projection_paver, seed, trace),
                                     frame)
        rep = paving_defect(z, part, eps=eps, strategy=f"reduction/{label}", seed=seed)
        trace.add(f"component_ratio_{label}", rep.ratio, eps)
        parts.append(part)

    # both components can fall below DEGENERATE_NORM while off does not; the
    # one block then stands, and its ratio of 1 fails the combined stage
    combined = parts[0] if parts else Partition.one_block(frame)
    for other in parts[1:]:
        combined = refine(combined, other)
    report = _defect_report(off, base, combined, eps, "reduction", seed, t0)
    trace.add("combined_ratio", report.ratio, 2 * eps if len(parts) == 2 else eps)
    return combined, trace, report
