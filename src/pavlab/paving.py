"""Partitions of the index set and everything paving.

A partition of {0..dim-1} in a MASA frame realizes projections p_1..p_n
summing to 1; compressing x by it and comparing against the conditional
expectation gives the paving defect.  The exact paving number comes from
a branch and bound over set partitions, which prunes by contractivity of
compression: a block's norm bounds the norm of each of its principal
sub-blocks.  Alongside it this module provides heuristic searches:
simulated annealing, recursive sign splitting, spectral arcs of a random
unitary, and equal shuffled blocks (the free-paving model).  The block
helpers here (equal blocks, block-diagonal norms, the block objective) are
the only copies; free_model and reduction call them.  Every block norm is
the top value of a values-only SVD of the block gathered in ascending index
order, exact at every size: ``_block_norms`` gives blocks of one size one
batched SVD, which gives each block the bits of its own SVD, and the search
objective takes the blocks of a move one at a time.  The same contractivity
lets that objective keep a block that only lost indices at its old norm as
an upper bound, taking its SVD only when the bound could decide the defect.
``op_norm`` serves whole matrices only: the base norm ||x - E_A(x)||.
The halving move of sign_split (``_balanced_halves``, ``_pick_swap``) is also
the move of the mixing sign search in independence.

Frame convention: paving x over a MASA U Diag U* is paving U* x U over the
diagonal one, so the searches read x in frame coordinates and return
identity-frame partitions.  Only what builds or reads MASA elements takes a
frame (``Partition``, ``dixmier_average``, ``sign_split``, ``arc_partition``),
and converts once; no private helper takes a frame.
"""

import time
from dataclasses import dataclass

import numpy as np

from .finite_vn import UNITARY_TOL, MasaFrame, TracedMatrix, _as_entries, op_norm
from .matrix_io import JsonReport
from .seeds import rng_for

EXHAUSTIVE_DIM_LIMIT = 12
DEGENERATE_NORM = 1e-12
# Relative slack on a block norm used to bound its principal sub-blocks,
# far above the rounding of an SVD of any size it takes
BOUND_SLACK = 1e-12

STRATEGIES = ("exhaustive", "sign_split", "arc", "anneal", "roots_of_unity")
# anneal splits its budget over this many restarts; roots_of_unity and arc
# keep the best of this many draws
ANNEAL_RESTARTS = 4
DRAWS = 8


@dataclass(frozen=True)
class Partition:
    """Assignment of basis indices to blocks, in a fixed MASA frame.

    Blocks may be empty (search moves can empty one); reports carry the
    effective count.  The derived projections are 0/1 diagonals in the
    frame, conjugated by the frame basis.
    """

    assignment: np.ndarray
    n_blocks: int
    frame: MasaFrame

    def __post_init__(self):
        a = np.array(self.assignment, dtype=np.int64, copy=True)
        if a.ndim != 1 or a.shape[0] != self.frame.dim:
            raise ValueError("assignment length must equal frame dim")
        if self.n_blocks < 1:
            raise ValueError("need at least one block")
        if a.size and (a.min() < 0 or a.max() >= self.n_blocks):
            raise ValueError("assignment values out of range")
        a.setflags(write=False)
        object.__setattr__(self, "assignment", a)

    @property
    def dim(self) -> int:
        return self.frame.dim

    @property
    def effective_blocks(self) -> int:
        return int(np.unique(self.assignment).size)

    def block_traces(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.n_blocks) / self.dim

    def projections(self) -> list[TracedMatrix]:
        return [self.frame.diagonal_element((self.assignment == i).astype(np.complex128))
                for i in range(self.n_blocks)]

    def roots_of_unity_diagonal(self) -> np.ndarray:
        """Frame diagonal of w = sum_i lambda^i p_i, lambda = exp(2 pi i / n_blocks)."""
        return np.exp(2j * np.pi / self.n_blocks) ** self.assignment.astype(np.complex128)

    @classmethod
    def from_labels(cls, labels, frame: MasaFrame) -> "Partition":
        """One block per distinct label, numbered in ascending label order."""
        _, inverse = np.unique(labels, return_inverse=True)
        return cls(inverse.astype(np.int64), int(inverse.max()) + 1, frame)

    @classmethod
    def one_block(cls, frame: MasaFrame) -> "Partition":
        return cls(np.zeros(frame.dim, dtype=np.int64), 1, frame)

    @classmethod
    def singletons(cls, frame: MasaFrame) -> "Partition":
        return cls(np.arange(frame.dim), frame.dim, frame)


@dataclass(frozen=True)
class PavingReport(JsonReport):
    """Measured outcome of compressing one element by one partition."""

    n_blocks: int
    effective_blocks: int
    defect: float
    ratio: float
    spectral_tail: float
    strategy: str
    seed: int
    elapsed_ms: float


def _same_frame(f: MasaFrame, g: MasaFrame) -> bool:
    """Whether two frames have one dim and basis; an identity frame is told by its flag."""
    return (f.dim == g.dim and f.is_identity == g.is_identity
            and (f.is_identity or np.array_equal(f.basis, g.basis)))


def _block_mask(assignment: np.ndarray) -> np.ndarray:
    return assignment[:, None] == assignment[None, :]


def _equal_blocks(order: np.ndarray, n: int) -> np.ndarray:
    """Labels of ``np.array_split(order, n)``: index order[j] lies in the
    block of the chunk holding position j."""
    if n < 1:
        raise ValueError(f"number of blocks must be >= 1, got n={n}")
    each, extra = divmod(order.size, n)
    labels = np.empty(order.size, dtype=np.int64)
    labels[order] = np.repeat(np.arange(n), each + (np.arange(n) < extra))
    return labels


def _block_norms(a: np.ndarray, idx_list, shift: float = 0.0) -> list[float]:
    """||a[idx, idx] - shift * 1|| for each ascending index array in idx_list.

    Blocks of one size, at every size, are gathered into a stack (a lone
    block into a stack of one) and take one values-only SVD, which gives
    each matrix the bits its own SVD gives.  One index order for every
    caller: a permuted order has the same singular values in exact
    arithmetic but not always in the last bits.
    """
    a = np.asarray(a, dtype=np.complex128)
    by_size = {}
    for pos, idx in enumerate(idx_list):
        by_size.setdefault(idx.size, []).append(pos)
    out = [0.0] * len(idx_list)
    for k, group in by_size.items():
        rows = np.stack([idx_list[pos] for pos in group])
        stack = a[rows[:, :, None], rows[:, None, :]]
        if shift:
            stack = stack - shift * np.eye(k)
        for pos, s in zip(group, np.linalg.svd(stack, compute_uv=False)[:, 0].tolist()):
            out[pos] = s
    return out


def _block_order(labels: np.ndarray, n: int) -> tuple[np.ndarray, list[slice]]:
    """(perm, spans): a stable argsort of labels in 0..n-1 and one slice per
    label, so perm[spans[i]] lists label i's members in ascending order, as
    a boolean mask of label i selects them."""
    perm = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[perm], np.arange(n + 1)).tolist()
    return perm, [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _members(labels: np.ndarray, n: int) -> list[np.ndarray]:
    """The ascending member indices of each label in 0..n-1, empty ones included."""
    perm, spans = _block_order(labels, n)
    return [perm[sl] for sl in spans]


def _block_diagonal_norm(a: np.ndarray, labels: np.ndarray, shift: float = 0.0) -> float:
    """||sum_k q_k a q_k - shift * 1|| for the blocks q_k of a label array:
    the masked matrix is block diagonal, so this is the max block norm."""
    blocks = [idx for idx in _members(labels, int(labels.max(initial=-1)) + 1) if idx.size]
    return max(_block_norms(a, blocks, shift), default=0.0)


def compress(x, part: Partition) -> TracedMatrix:
    """Sum of p_i x p_i: in frame coordinates, zero out cross-block entries."""
    y = part.frame.to_frame(x)
    return TracedMatrix(part.frame.from_frame(y * _block_mask(part.assignment)))


def _off_diagonal(y) -> np.ndarray:
    """y - E_A(y) for y in frame coordinates: y with its diagonal zeroed."""
    y = _as_entries(y)
    return y - np.diag(np.diagonal(y))


def paving_defect(x, part: Partition, eps: float | None = None) -> PavingReport:
    """Defect ||compress(x) - E_A(x)|| and its ratio to ||x - E_A(x)||.

    When the baseline norm vanishes the ratio is defined as 0.  If eps is
    given, the spectral tail of the defect matrix is measured above
    eps * ||x - E_A(x)||; otherwise above the achieved defect (tail 0).
    The defect and the tail come from one SVD of the defect matrix, so the
    defect is exact at every dimension.  The baseline norm is taken only
    for a nonzero defect matrix: a zero one (singletons, or an input that
    is already diagonal) reports 0 whatever the baseline is.
    """
    t0 = time.perf_counter()
    off = _off_diagonal(part.frame.to_frame(x))
    return _defect_report(off, None, part, eps, "direct", 0, t0)


def _defect_report(off: np.ndarray, base: float | None, part: Partition, eps: float | None,
                   strategy: str, seed: int, t0: float) -> PavingReport:
    """The report of ``paving_defect`` from the off-diagonal part in frame
    coordinates and its norm, timed from t0.

    An exactly zero masked matrix (singletons, or an input that is already
    diagonal) takes no SVD: its singular values are +0.0, as LAPACK
    returns them.  Its defect, ratio and tail are then 0.0 for every base,
    so ``base=None`` takes ``op_norm(off)`` only for a nonzero masked
    matrix, or for a negative eps, whose threshold lies below those zeros;
    otherwise a base of 0.0 gives the same report.
    """
    masked = off * _block_mask(part.assignment)
    nonzero = masked.any()
    if base is None:
        base = op_norm(off) if nonzero or (eps is not None and eps < 0) else 0.0
    sv = (np.linalg.svd(masked, compute_uv=False) if nonzero
          else np.zeros(masked.shape[0]))
    defect = float(sv[0])
    ratio = 0.0 if base < DEGENERATE_NORM else defect / base
    threshold = defect if eps is None else eps * base
    tail = float(np.count_nonzero(sv > threshold + 1e-15) / sv.size)
    return PavingReport(
        n_blocks=part.n_blocks,
        effective_blocks=part.effective_blocks,
        defect=float(defect),
        ratio=float(ratio),
        spectral_tail=tail,
        strategy=strategy,
        seed=seed,
        elapsed_ms=(time.perf_counter() - t0) * 1e3,
    )


# ---------------------------------------------------------------------------
# Dixmier averaging
# ---------------------------------------------------------------------------

def _check_masa_unitary(d: np.ndarray) -> np.ndarray:
    """Return the diagonal of d, a unitary in frame coordinates, refusing
    non-unitary or off-frame input (deviation above UNITARY_TOL)."""
    diag = np.diagonal(d).copy()
    if np.abs(d - np.diag(diag)).max() > UNITARY_TOL:
        raise ValueError("averaging unitary is not diagonal in the frame")
    if np.abs(np.abs(diag) - 1.0).max() > UNITARY_TOL:
        raise ValueError("averaging element is not unitary")
    return diag


def dixmier_average(x, unitaries, frame: MasaFrame) -> TracedMatrix:
    """T_V(x) = n^(-1) sum_i v_i x v_i* over a tuple of MASA unitaries."""
    if not unitaries:
        raise ValueError("need at least one unitary")
    y = frame.to_frame(x)
    acc = np.zeros_like(y)
    for v in unitaries:
        dv = _check_masa_unitary(frame.to_frame(v))
        acc += y * np.outer(dv, dv.conj())
    return TracedMatrix(frame.from_frame(acc / len(unitaries)))


def roots_of_unity_tuple(part: Partition) -> list[TracedMatrix]:
    """The tuple W = (w^(j-1))_{j=1..n} with w = sum_i lambda^(i-1) p_i.

    Averaging over W reproduces the compression by the partition exactly.
    """
    w = part.roots_of_unity_diagonal()
    return [part.frame.diagonal_element(w ** j) for j in range(part.n_blocks)]


# ---------------------------------------------------------------------------
# Structured partitions from MASA unitaries
# ---------------------------------------------------------------------------

def sign_split(u, frame: MasaFrame) -> Partition:
    """Two-block partition from the +/-1 eigenprojections of a period-2 unitary."""
    d = _check_masa_unitary(frame.to_frame(u))
    if np.abs(d * d - 1.0).max() > 1e-10:
        raise ValueError("sign_split needs a period-2 unitary (u^2 = 1)")
    assignment = (d.real < 0).astype(np.int64)
    return Partition(assignment, 2, frame)


def arc_partition(u, n: int, frame: MasaFrame) -> Partition:
    """Partition by spectral arcs [e^(2 pi i (k-1)/n), e^(2 pi i k/n)) of u.

    Angles live in [0, 2 pi); an eigenvalue with angle exactly 0 lands in
    the first arc.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    d = _check_masa_unitary(frame.to_frame(u))
    return Partition(_arc_labels(np.mod(np.angle(d), 2 * np.pi), n), n, frame)


def _arc_labels(angles: np.ndarray, n: int) -> np.ndarray:
    """The arc k of each angle in [0, 2 pi): angle in [2 pi k/n, 2 pi (k+1)/n)."""
    return np.minimum((angles * n / (2 * np.pi)).astype(np.int64), n - 1)


def refine(p: Partition, q: Partition) -> Partition:
    """Common refinement; labels are compacted in (p-block, q-block) order."""
    if not _same_frame(p.frame, q.frame):
        raise ValueError("partitions must share dimension and frame")
    return Partition.from_labels(p.assignment * q.n_blocks + q.assignment, p.frame)


# ---------------------------------------------------------------------------
# Exact paving number by branch and bound
# ---------------------------------------------------------------------------

class _Objective:
    """Defect of y - E_A(y), y in frame coordinates, as the max of per-block norms.

    The masked matrix is block diagonal up to permutation, so its norm is
    the max over per-block norms; that keeps large-dimension sweeps cheap.

    ``defect`` evaluates an assignment from scratch.  Local searches also
    keep a committed assignment with one norm per label: ``reset`` evaluates
    an assignment in full and commits it; ``propose`` recomputes only the
    blocks whose labels occur at indices where the trial differs from the
    committed assignment (none when nothing changed) and returns the
    trial's defect; ``commit`` adopts the last proposal.  The state is the
    committed assignment plus one float per label, whatever the budget.

    ``propose(trial, refuse_at=L)`` returns None iff defect(trial) >= L, and
    the defect otherwise.  It first checks the committed blocks the trial
    leaves as they are, then the changed ones, the one with the larger
    committed norm first, and stops at the first block that reaches L: a
    trial the caller would refuse costs no further SVD, and leaves nothing
    to commit.

    A label that only lost indices takes no SVD in ``propose``: its new
    block is a principal sub-block of its committed one, and compression is
    contractive, so the committed norm times (1 + BOUND_SLACK) bounds the
    new norm.  The slack is the one of ``_first_paving``'s cut, far above
    the rounding of an SVD, so the bound holds for the computed norms too,
    at every block size.  The label keeps its bound, not multiplied again,
    while it goes on shrinking, and drops it when it gains an index.  A
    bound is resolved to the exact norm only where it could decide the
    answer: when it exceeds the largest exact norm (largest bound first, so
    the returned max is always an exact norm), or when it reaches the
    refusal level.  A bound at or below the largest exact norm cannot change
    the max, so ``propose`` returns the bits ``defect`` returns.  A resolved
    label whose block is the committed one keeps its exact norm in the
    committed state.  A label that empties is dropped, as ``reset`` would
    not list it.

    ``reset`` and ``defect`` send the blocks through ``_block_norms``,
    which takes one batched SVD per stack of equal-size blocks and gives
    each block the bits of its own SVD; ``propose`` takes the SVD of each
    block alone.  Both gather the block in ascending index order, so every
    path gives a block the same bits: a last-bit difference could flip an
    accept decision.
    """

    def __init__(self, y):
        self.off = _off_diagonal(y)
        self.base = op_norm(self.off)
        self.dim = self.off.shape[0]
        self._committed = None
        self._exact = {}  # label -> its committed block norm
        self._bound = {}  # label -> an upper bound on its committed block norm
        self._pending = None

    def _label_norms(self, assignment: np.ndarray) -> dict:
        """The block norm of each label that occurs in the assignment."""
        members = _members(assignment, int(assignment.max()) + 1)
        # a lone index sees only the zero diagonal
        out = {label: 0.0 for label, idx in enumerate(members) if idx.size == 1}
        big = [label for label, idx in enumerate(members) if idx.size > 1]
        out.update(zip(big, _block_norms(self.off, [members[label] for label in big])))
        return out

    def _norm(self, assignment: np.ndarray, label: int) -> float:
        """The block norm of one label, with the bits ``_block_norms`` gives it."""
        idx = (assignment == label).nonzero()[0]
        if idx.size < 2:
            return 0.0
        return float(np.linalg.svd(self.off.take(idx, 0).take(idx, 1), compute_uv=False)[0])

    def defect(self, assignment: np.ndarray) -> float:
        return max(self._label_norms(assignment).values(), default=0.0)

    def ratio(self, assignment: np.ndarray) -> float:
        if self.base < DEGENERATE_NORM:
            return 0.0
        return self.defect(assignment) / self.base

    def reset(self, assignment: np.ndarray) -> float:
        self._committed = np.array(assignment, dtype=np.int64)
        self._exact = self._label_norms(self._committed)
        self._bound = {}
        self._pending = None
        return max(self._exact.values(), default=0.0)

    def propose(self, trial: np.ndarray, refuse_at: float | None = None) -> float | None:
        self._pending = None
        changed = (trial != self._committed).nonzero()[0]
        moved = trial[changed]
        gained = set(moved.tolist())
        labels = gained.union(self._committed[changed].tolist())
        level = np.inf if refuse_at is None else refuse_at
        if refuse_at is not None:
            # the blocks the trial leaves as they are: a resolved bound is the
            # committed block's exact norm
            if any(v >= level for k, v in self._exact.items() if k not in labels):
                return None
            for b, k in sorted(((b, k) for k, b in self._bound.items()
                                if b >= level and k not in labels), reverse=True):
                del self._bound[k]
                v = self._exact[k] = self._norm(self._committed, k)
                if v >= level:
                    return None
            labels = sorted(labels, key=lambda k: -self._exact.get(k, self._bound.get(k, 0.0)))
        exact, bound = self._exact.copy(), self._bound.copy()
        for k in labels:
            if k not in gained and not np.count_nonzero(trial == k):  # emptied: reset drops it
                exact.pop(k, None)
                bound.pop(k, None)
                continue
            if k in gained:
                bound.pop(k, None)
                exact[k] = self._norm(trial, k)
            elif k in exact:  # only shrank: its committed norm bounds its new one
                bound[k] = exact.pop(k) * (1 + BOUND_SLACK)
            if bound.get(k, -1.0) >= level:
                del bound[k]
                exact[k] = self._norm(trial, k)
            if exact.get(k, -1.0) >= level:
                return None
        top = max(exact.values(), default=0.0)
        for b, k in sorted(((b, k) for k, b in bound.items() if b > top), reverse=True):
            if b <= top:
                break
            del bound[k]
            exact[k] = v = self._norm(trial, k)
            if k not in labels:  # its block is the committed one
                del self._bound[k]
                self._exact[k] = v
            top = max(top, v)
        self._pending = (changed, moved, exact, bound)
        return top

    def commit(self) -> None:
        changed, moved, self._exact, self._bound = self._pending
        self._committed[changed] = moved
        self._pending = None


def _first_paving(obj: _Objective, eps: float) -> tuple[np.ndarray, int]:
    """(assignment, n) of the first partition with ratio <= eps, in the order
    of a sweep over n = 1..dim and, within each n, over the restricted-growth
    strings (RGS) with n blocks in lexicographic order.  The sweep ends at
    the singletons, the one RGS with dim blocks, whose defect is 0.

    A depth-first walk places indices 0, 1, 2, ... in that order and skips
    the subtree below a partial block whose norm exceeds eps * base.
    Compression is contractive, so a block's norm bounds the norm of every
    principal sub-block, and no leaf below such a block can pass.  The cut
    carries a relative slack of BOUND_SLACK, so rounding never cuts a leaf that
    passes, and each leaf takes the full ``obj.ratio`` test: the walk
    returns what scoring every RGS returns.  The walks for successive n and
    sibling subtrees meet the same partial blocks again, so each block is
    tested once per call.  (Set-partition enumeration by RGS: Knuth, TAOCP
    Vol. 4A, 7.2.1.5.)
    """
    dim = obj.dim
    cut = eps * obj.base * (1 + BOUND_SLACK) if obj.base >= DEGENERATE_NORM else np.inf
    a = np.zeros(dim, dtype=np.int64)
    blocks = []  # ascending members of each label placed so far
    fits = {}  # partial block -> its norm is within the cut

    def walk(i: int, n: int) -> bool:
        if dim - i < n - len(blocks):
            return False
        if i == dim:
            return obj.ratio(a) <= eps
        for v in range(min(len(blocks) + 1, n)):
            if v == len(blocks):
                blocks.append([])
            block = blocks[v]
            block.append(i)
            key = tuple(block)
            if key not in fits:
                fits[key] = len(key) < 2 or _block_norms(obj.off, [np.array(key)])[0] <= cut
            a[i] = v
            if fits[key] and walk(i + 1, n):
                return True
            block.pop()
            if not block:
                blocks.pop()
        return False

    for n in range(1, dim):
        blocks[:] = [[0]]
        if walk(1, n):
            return a.copy(), n
    return np.arange(dim), dim


def paving_number_exact(x, eps: float) -> int:
    """Smallest block count achieving ratio <= eps for x in frame
    coordinates, by an exact branch and bound over all set partitions.

    Capped at dim EXHAUSTIVE_DIM_LIMIT: the walk prunes well at moderate
    eps, but the number of set partitions (the Bell number) still bounds
    its worst case.
    """
    y = _as_entries(x)
    if y.shape[0] > EXHAUSTIVE_DIM_LIMIT:
        raise ValueError(f"exhaustive mode capped at dim {EXHAUSTIVE_DIM_LIMIT}")
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    obj = _Objective(y)
    if obj.base < DEGENERATE_NORM:
        return 1
    return _first_paving(obj, eps)[1]


# ---------------------------------------------------------------------------
# Heuristic search
# ---------------------------------------------------------------------------

def _random_assignment(dim: int, n: int, rng) -> np.ndarray:
    """Balanced-as-possible random assignment with every block nonempty."""
    base = np.repeat(np.arange(n), dim // n)
    extra = rng.choice(n, size=dim - base.size, replace=False) if dim - base.size else np.empty(0, int)
    a = np.concatenate([base, extra]).astype(np.int64)
    rng.shuffle(a)
    return a


def _anneal_once(obj: _Objective, n: int, eps: float, budget: int, rng) -> tuple[float, np.ndarray]:
    dim = obj.dim
    cur = _random_assignment(dim, n, rng)
    cur_d = obj.reset(cur)
    best, best_d = cur.copy(), cur_d
    temp = max(cur_d, 1e-6)
    target = eps * obj.base
    labels = cur.tolist()  # cur as plain ints, for the per-move reads
    spent = 0
    while spent < budget and best_d > target:
        spent += 1
        if n >= 2 and rng.random() < 0.5:
            i, j = rng.integers(0, dim, size=2).tolist()
            moved = labels[i] != labels[j]
            if moved:
                trial = cur.copy()
                trial[i], trial[j] = labels[j], labels[i]
        else:
            v = int(rng.integers(0, n))  # label before index keeps the recorded stream
            i = int(rng.integers(0, dim))
            moved = labels[i] != v
            if moved:
                trial = cur.copy()
                trial[i] = v
        # A same-label swap or a relabel to the current label would have
        # delta exactly 0: accepted with no rng draw and no change to cur or
        # best, so it skips the objective but still spends budget and cools.
        if moved:
            d = obj.propose(trial)
            delta = d - cur_d
            if delta <= 0 or rng.random() < np.exp(-delta / max(temp, 1e-12)):
                obj.commit()
                cur, cur_d = trial, d
                labels = trial.tolist()
                if d < best_d:
                    best, best_d = trial.copy(), d
        temp *= 0.995
    return best_d, best


def _search_anneal(obj, eps, budget, seed, n):
    results = []
    for w in range(ANNEAL_RESTARTS):
        rng = rng_for(seed, 0x5EA, n, w)
        results.append((*_anneal_once(obj, n, eps, max(1, budget // ANNEAL_RESTARTS), rng), w))
        if results[-1][0] <= eps * obj.base:
            break
    results.sort(key=lambda t: (t[0], t[2]))
    return results[0][0], results[0][1]


# strategy: (stream tag, labels of one draw from (rng, dim, n)).  roots_of_unity
# shuffles equal blocks, the free-paving model; arc draws i.i.d. angles
_DRAWS = {
    "roots_of_unity": (0x700, lambda rng, dim, n: _equal_blocks(rng.permutation(dim), n)),
    "arc": (0xA5C, lambda rng, dim, n: _arc_labels(rng.uniform(0.0, 2 * np.pi, size=dim), n)),
}


def _search_draws(obj, budget, seed, n, tag, draw):
    """The best of DRAWS independent labelings, each from its own stream."""
    best_d, best_a = np.inf, None
    for w in range(min(DRAWS, budget)):
        a = draw(rng_for(seed, tag, n, w), obj.dim, n)
        d = obj.defect(a)
        if d < best_d:
            best_d, best_a = d, a
    return best_d, best_a


def _balanced_halves(members, dim: int, rng) -> np.ndarray:
    """0/1 side of each index: each block of ``members`` puts size // 2 of
    its indices on side 0 and the rest on side 1, in one shuffled order."""
    sides = np.empty(dim, dtype=np.int64)
    for idx in members:
        half = idx.size // 2
        s = np.array([0] * half + [1] * (idx.size - half), dtype=np.int64)
        rng.shuffle(s)
        sides[idx] = s
    return sides


def _pick_swap(members, sides, rng):
    """A random block of ``members``, then a random index on its side 0 and
    one on its side 1; None, with only the block drawn, when a side is empty."""
    idx = members[int(rng.integers(0, len(members)))]
    side = sides[idx]
    zeros = idx[side == 0]
    ones = idx[side == 1]
    if zeros.size == 0 or ones.size == 0:
        return None
    return int(zeros[rng.integers(0, zeros.size)]), int(ones[rng.integers(0, ones.size)])


def _search_sign_split(obj, eps, budget, seed):
    """Labels of recursive halving by balanced sign vectors tuned by local
    search: those of the last level it reached."""
    dim = obj.dim
    target = eps * obj.base
    assignment = np.zeros(dim, dtype=np.int64)
    n = 1
    best_d = obj.base  # the one-block defect, with its bits
    spent = 0
    level = 0
    while n < dim and best_d > target and spent < budget:
        level += 1
        rng = rng_for(seed, 0x516, level)
        members = _members(assignment, n)
        signs = _balanced_halves(members, dim, rng)
        trial = assignment * 2 + signs
        d = obj.reset(trial)
        spent += 1
        # pairwise +/- swaps within blocks, first-improvement
        stuck = 0
        while spent < budget and d > target and stuck < 2 * dim:
            pick = _pick_swap(members, signs, rng)
            if pick is None:
                stuck += 1
                continue
            i, j = pick
            spent += 1
            cand = trial.copy()
            cand[i], cand[j] = trial[j], trial[i]
            # refused as soon as one block, moved or not, reaches the level;
            # a refused swap is still charged to the budget
            cd = obj.propose(cand, refuse_at=d - 1e-15)
            if cd is None:
                stuck += 1
                continue
            obj.commit()
            signs[i], signs[j] = 1, 0
            d, trial = cd, cand
            stuck = 0
        assignment = trial
        n *= 2
        best_d = d
    return assignment


def pave_search(x, eps: float, strategy: str, budget: int,
                seed: int) -> tuple[Partition, PavingReport]:
    """Search for a small partition paving x, in frame coordinates, at
    ratio <= eps; the partition carries the identity frame.

    Deterministic given (strategy, budget, seed).  Except for sign_split
    (which doubles blocks and returns its last level even when the target
    is missed), strategies sweep the block count upward from two (one
    block's defect is the base, above the target eps * base) and return at
    the first count achieving the target; at the latest that is the
    singletons, whose defect is 0.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if budget <= 0:
        raise ValueError("budget must be positive")
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    t0 = time.perf_counter()
    obj = _Objective(x)
    dim = obj.dim
    frame = MasaFrame.identity(dim)

    def finish(part: Partition) -> tuple[Partition, PavingReport]:
        # obj.off and obj.base come from the code paving_defect runs on x
        return part, _defect_report(obj.off, obj.base, part, eps, strategy, seed, t0)

    if obj.base < DEGENERATE_NORM:
        return finish(Partition.one_block(frame))

    if strategy == "exhaustive":
        if dim > EXHAUSTIVE_DIM_LIMIT:
            raise ValueError(f"exhaustive mode capped at dim {EXHAUSTIVE_DIM_LIMIT}")
        return finish(Partition(*_first_paving(obj, eps), frame))

    if strategy == "sign_split":
        return finish(Partition.from_labels(_search_sign_split(obj, eps, budget, seed), frame))

    for n in range(2, dim):
        if strategy == "anneal":
            d, cand = _search_anneal(obj, eps, budget, seed, n)
        else:
            d, cand = _search_draws(obj, budget, seed, n, *_DRAWS[strategy])
        if d <= eps * obj.base:
            return finish(Partition(np.asarray(cand, dtype=np.int64), n, frame))
    return finish(Partition.singletons(frame))
