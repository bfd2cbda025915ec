"""Trace-moment independence diagnostics and constructive partition builders.

Two families of letters drive everything here: centered elements of the
block algebra of a partition (projections minus their traces, and powers
of the block roots-of-unity unitary), and centered test elements.  A
family is k-independent when every alternating word of length up to k has
zero trace; the builders below search for partitions making the measured
residuals small, and the certificate checker turns the measured residual
into the deterministic inequality suite it implies.

Frame convention: in M_dim every MASA is U Diag U*, so testing
independence over it is testing it over the diagonal MASA after one change
of basis.  Test elements and trace targets are written once, at entry, in
the frame of the partition (the builder's given frame); the Haar patch
reads them in frame coordinates.  Every later step reads frame coordinates,
where E_A keeps the diagonal; no private helper takes a frame.

Words whose block letters are frame diagonals -- those of
``k_independence_residual`` and the final check of
``incremental_patch_haar`` -- take one path: ``_level_words`` lists or
samples each level's words as index rows, and ``_near_max_traces`` screens
them with the one kernel ``_word_traces`` and sends only the words near
the maximum through the per-word chain ``_word_product`` again, so
reported values are exactly the chain's; at level 1 it sums the chain's
diagonal products d_i X_ii without building D X.  The kernel has two
orders and takes the one that needs fewer flops, counting a fixed cost
for each leaf of the grouped order.  The per-tail order multiplies out
each distinct tail X2 D3 X3 ... Dj Xj of the sampled words.  The grouped
order writes each letter as a combination of the projections onto the
groups of indices with equal letter columns (a partition's blocks), so a
level costs one dim^3 product per x tail at level 3, whatever the letters,
and 1 + G of them at level 4 with G groups.  Letters with few equal
columns keep the per-tail order.

While ``incremental_patch_haar`` chooses a chunk, it scores its level-2
words as one stack: index arrays give each word its pair matrix and two
powers, and batched matmuls add every word's chunk terms for all
candidates at once.  The builder halves blocks by mixing unitaries
diag(signs), whose signs ``_search_signs`` tunes with the move of paving's
sign_split (``_balanced_halves``, ``_pick_swap``).
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .finite_vn import MasaFrame, TracedMatrix, _as_entries, _singular_values, l2_norm
from .matrix_io import JsonReport
from .paving import Partition, _balanced_halves, _block_order, _members, _off_diagonal, _pick_swap
from .seeds import rng_for

MAX_WORD_LEVEL = 4
# each level's sign search splits its budget over this many restarts
SIGN_RESTARTS = 20


def word_label(a_indices, x_indices) -> str:
    """The compact form ("a1.x0.a3.x1") of the alternating word
    a_1 x_1 a_2 x_2 ... of block letters and test elements, which
    reproduces a failing word in logs."""
    return ".".join(f"a{a}.x{x}" for a, x in zip(a_indices, x_indices))


@dataclass(frozen=True)
class IndependenceReport(JsonReport):
    max_k: int
    residual_per_level: dict    # level -> residual, levels ascending
    word_count: int  # for the builder: sign swaps tried, perfbench's ``evaluations``
    achieved_alpha: float
    coverage_per_level: dict = field(default_factory=dict)
    worst_word: str = ""


def _center_and_normalize(xs) -> list[np.ndarray]:
    """E_A-center each test element in frame coordinates (zero its diagonal)
    and scale it to unit L2 norm; elements of L2 norm 1e-14 or less drop out."""
    out = []
    for x in xs:
        a = _off_diagonal(x)
        nrm = l2_norm(a)
        if nrm > 1e-14:
            out.append(a / nrm)
    return out


def _block_letters(part: Partition) -> list[np.ndarray]:
    """Centered spanning letters of the block algebra, as frame diagonals.

    Powers of the roots-of-unity unitary w (centered when block traces are
    unequal) followed by the centered projections q_i - tau(q_i).
    """
    w = part.roots_of_unity_diagonal()
    traces = part.block_traces()
    diags = [d - d.mean() for d in (w ** p for p in range(1, part.n_blocks))]
    diags += [(part.assignment == i).astype(np.complex128) - t for i, t in enumerate(traces)]
    return [d for d in diags if np.abs(d).max() > 1e-14]


# The kernel and the chain agree to within 1.4e-15 of a level's largest
# value in the per-tail order (measured on Haar-model inputs at dim 16-128,
# levels 1-4, 4 and 16 blocks) and within 2.0e-15 in the grouped order
# (dim 32-128, levels 2-4, 4 and 16 shuffled blocks, identity and Fourier
# frames, one and two test elements; 378 cases), well below 1e-13; so a
# word the chain puts at the maximum lies within this slack of the
# screened maximum.  The slack is absolute below 1: when a level's terms
# cancel exactly (say tau(w x w^2 x) for a symmetric zero-diagonal sign
# matrix x and w of order 8), every value there is rounding noise, and
# the two evaluations round it differently.
_NEAR_MAX = 1e-9

# The fixed cost of one leaf of the grouped order (one x1 and one tuple of
# groups: about a dozen numpy calls on small arrays), in the complex
# multiply-adds that the order rule of ``_word_traces`` counts.  Fitted on
# timings of both orders at dim 16-128, levels 2-4, 2, 4 and 16 blocks,
# one and two test elements (one BLAS thread): it cuts the time lost to
# the slower order over those 144 cases from 133 ms to 21 ms.
_LEAF_COST = 30_000


def _word_product(a_diags, xs) -> np.ndarray:
    """D1 X1 D2 X2 ...: alternate diagonal scalings with matmuls."""
    m = a_diags[0][:, None] * xs[0]
    for d, x in zip(a_diags[1:], xs[1:]):
        m = m @ (d[:, None] * x)
    return m


def _letter_groups(letters: np.ndarray):
    """(perm, spans, coef): the indices grouped by their letter columns.

    Indices whose columns letters[:, i] are byte-equal form one group, so
    letter a is sum_g coef[a, g] P_g, with P_g the projection onto group g.
    perm[spans[g]] lists the members of group g (``_block_order``).  For
    the letters of a partition the groups are its nonempty blocks.
    """
    cols = np.ascontiguousarray(letters.T)
    keys = cols.view(np.dtype((np.void, cols.strides[0]))).reshape(-1)
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    return *_block_order(group, first.size), letters[:, first]


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of a 1-d integer array.  np.unique gives
    the same, but its hashing path imports numpy.ma (about 1 MB) on first use."""
    v = np.sort(values)
    return v[np.r_[True, v[1:] != v[:-1]]]


def _group_products(z, xs, spans):
    """(gs, z P_g1 X1 P_g2 X2 ...) for each tuple gs of groups, the last
    varying fastest, with X1, X2, ... the matrices xs and P_g the group
    projections, given by their slices ``spans``; one product is held
    per depth."""
    if not xs:
        yield (), z
        return
    for g, sl in enumerate(spans):
        for gs, zz in _group_products(z[:, sl] @ xs[0][sl, :], xs[1:], spans):
            yield (g,) + gs, zz


def _grouped_traces(xs, a_idx: np.ndarray, x_idx: np.ndarray, x_tails: np.ndarray,
                    perm, spans, coef) -> np.ndarray:
    """dim tau(D_a1 X_x1 ... D_aj X_xj) for each row, from the letter groups.

    With D_a = sum_g coef[a, g] P_g and Z = X2 P_g3 X3 ... P_gj Xj, the
    trace is a sum over (g3, ..., gj) of coef[a3, g3] ... coef[aj, gj]
    times d1^T (X1 o Z^T) d2, and d1^T M d2 = (coef B coef^T)[a1, a2] with
    B the block sums of M.  The Z of one x tail (x2, ..., xj), numbered by
    ``x_tails``, come from one dim^3 product per level of the tail: the
    slices of the groups add up to dim.  A few dim^2 arrays are held at a
    time.
    """
    j = a_idx.shape[1]
    xp = [x[np.ix_(perm, perm)] for x in xs]
    xpt = [x.T[np.ix_(perm, perm)] for x in xs]  # xpt[x] = xp[x].T, contiguous
    ind = np.zeros((len(spans), perm.size))  # ind[g] is the indicator of group g
    for g, sl in enumerate(spans):
        ind[g, sl] = 1.0
    out = np.zeros(a_idx.shape[0], dtype=np.complex128)
    for t in _distinct(x_tails).tolist():
        in_tail = np.flatnonzero(x_tails == t)
        x_tail = x_idx[in_tail[0], 1:].tolist()
        # (X1^T, rows, their letter indices) for each x1 of this tail
        subs = [(xpt[x1], rows, a_idx[rows]) for x1 in _distinct(x_idx[in_tail, 0]).tolist()
                for rows in [in_tail[x_idx[in_tail, 0] == x1]]]
        for gs, z in _group_products(xp[x_tail[0]], [xp[x] for x in x_tail[1:]], spans):
            for x1t, rows, a in subs:
                # B^T = ind (Z o X1^T) ind^T; ind is real, so its product
                # with the complex matrix runs on the matrix's float64 view
                bt = (ind @ (z * x1t).view(np.float64)).view(np.complex128) @ ind.T
                w = np.prod([coef[a[:, i], g] for i, g in enumerate(gs, 2)], axis=0)
                out[rows] += w * (coef @ bt @ coef.T)[a[:, 1], a[:, 0]]
    return out


def _word_traces(letters: np.ndarray, xs, a_idx: np.ndarray, x_idx: np.ndarray) -> np.ndarray:
    """tau(D_a1 X_x1 ... D_aj X_xj) for each row of the (words, j) index arrays.

    The one word-trace kernel for diagonal letters (rows of ``letters``).
    With T = X2 D3 X3 ... Dj Xj, tau(D1 X1 D2 T) = d1^T (X1 o T^T) d2 / dim,
    so all words sharing (x1, T) are entries of one matrix
    D (X1 o T^T) D^T.  Two orders evaluate these, and the kernel takes the
    one with fewer flops by the counts below; both hold a few dim^2 arrays
    at a time.  The per-tail order forms one chain of j - 2 dim^3 products
    per distinct tail (x2, a3, ..., xj) and two letter products per
    distinct (x1, tail).  The grouped order (``_grouped_traces``) splits
    the indices into the G groups of equal letter columns -- a partition's
    blocks -- and pays dim^3 (1 + G + ... + G^(j-3)) per distinct x tail
    (x2, ..., xj), whatever its letters, and G^(j-2) sets of G x G block
    sums per distinct (x1, x tail).  The block sums cost about G dim^2
    each, plus the fixed ``_LEAF_COST``, so letters with few equal columns,
    such as the powers of the patch's v, keep the per-tail order, and so do
    many x tails over many groups.  Values agree with ``_word_product`` up
    to rounding, not bit for bit.
    """
    dim = letters.shape[1]
    j = a_idx.shape[1]
    if j == 1:
        g = letters @ np.array([np.diagonal(x) for x in xs]).T  # g[a, x] = tau(D_a X_x) dim
        return g[a_idx[:, 0], x_idx[:, 0]] / dim
    n_l, n_x = letters.shape[0], len(xs)
    # each row's key: its tail (x2, a3, x3, ..., aj, xj), then x1, as one
    # mixed-radix number, so key // n_x numbers the tail
    cols = [x_idx[:, 1]] + [c for i in range(2, j) for c in (a_idx[:, i], x_idx[:, i])]
    sizes = [n_x] + [n_l, n_x] * (j - 2) + [n_x]
    keys, group = np.unique(np.ravel_multi_index(cols + [x_idx[:, 0]], sizes), return_inverse=True)
    perm, spans, coef = _letter_groups(letters)
    n_g = coef.shape[1]
    x_tails = np.ravel_multi_index(x_idx[:, 1:].T, [n_x] * (j - 1))
    x_keys = _distinct(x_tails * n_x + x_idx[:, 0])
    # complex multiply-adds of each order; a grouped leaf's block sums
    # are counted as n_g dim^2, and its dozen numpy calls as _LEAF_COST
    per_tail = (len(_distinct(keys // n_x)) * (j - 2) * dim ** 3
                + len(keys) * n_l * dim * (dim + n_l))
    grouped = (len(_distinct(x_keys // n_x)) * dim ** 3 * sum(n_g ** d for d in range(j - 2))
               + len(x_keys) * n_g ** (j - 2)
               * ((1 + n_g) * dim * dim + n_l * n_g * (n_g + n_l) + _LEAF_COST))
    if grouped < per_tail:
        return _grouped_traces(xs, a_idx, x_idx, x_tails, perm, spans, coef) / dim
    order = np.argsort(group, kind="stable")
    bounds = np.searchsorted(group[order], np.arange(len(keys) + 1))
    out = np.empty(a_idx.shape[0], dtype=np.complex128)
    t_key, t = None, None
    for g, key in enumerate(np.column_stack(np.unravel_index(keys, sizes)).tolist()):
        if key[:-1] != t_key:
            t_key = key[:-1]
            t = xs[t_key[0]]
            for a, x in zip(t_key[1::2], t_key[2::2]):
                t = t @ (letters[a][:, None] * xs[x])
        m = (letters @ (xs[key[-1]] * t.T)) @ letters.T
        sel = order[bounds[g]:bounds[g + 1]]
        out[sel] = m[a_idx[sel, 0], a_idx[sel, 1]] / dim
    return out


def _near_max_traces(letters: np.ndarray, xs, a_idx: np.ndarray, x_idx: np.ndarray,
                     denoms: np.ndarray):
    """(rows, chain traces) of the words near the largest screened value.

    ``_word_traces`` screens every row of the (words, j) index arrays,
    scored |trace| / denoms; rows whose denominator is below 1e-30 are left
    out.  The rows within ``_NEAR_MAX`` of the largest score, ascending, go
    through the chain ``_word_product`` again, and their traces np.trace of
    the chain (not divided by dim) come back in row order.  At level 1 the
    chain D X is not built: the same products d_i X_ii are summed in the
    same order, at O(dim) cost.
    """
    valid = denoms >= 1e-30
    if not valid.any():
        return np.empty(0, dtype=np.int64), []
    r = np.abs(_word_traces(letters, xs, a_idx, x_idx)) / np.where(valid, denoms, 1.0)
    r = np.where(valid, r, -np.inf)
    top = float(r.max())
    rows = np.flatnonzero(r >= top - _NEAR_MAX * max(top, 1.0))
    if a_idx.shape[1] == 1:
        # the trace of the chain D X reads only its diagonal
        return rows, [(letters[a_idx[w, 0]] * np.diagonal(xs[x_idx[w, 0]])).sum() for w in rows]
    return rows, [np.trace(_word_product(letters[a_idx[w]], [xs[x] for x in x_idx[w]]))
                  for w in rows]


def _level_words(n_letters: int, j: int, budget: int, rng) -> tuple[np.ndarray, float]:
    """(rows, coverage): the level-j words over n_letters letters as rows of
    letter indices, and the share of all n_letters**j words they hold.

    All words, in itertools.product order (the last letter varies fastest),
    when they fit the budget; otherwise one uniform draw of budget rows.
    """
    count = n_letters ** j
    if count <= budget:
        return np.stack(np.unravel_index(np.arange(count), (n_letters,) * j), axis=1), 1.0
    return rng.integers(0, n_letters, size=(budget, j)), budget / count


def k_independence_residual(part: Partition, X, k: int = 2, sampling_budget: int = 100_000,
                            seed: int = 0) -> IndependenceReport:
    """Max |tau(a_1 x_1 ... a_j x_j)| per level j <= k, scaled by the letter norms.

    Block letters come from the partition (``_block_letters``).  Test
    elements are written in the partition's frame once, then centered and
    L2-normalized.  Levels whose word count exceeds the budget are sampled
    uniformly, with coverage reported.
    ``_word_traces`` screens every word; those near the level's maximum are
    evaluated again by the chain in word order, which fixes the reported
    residuals and the first worst word.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > MAX_WORD_LEVEL:
        raise ValueError(f"word level capped at {MAX_WORD_LEVEL}")
    if sampling_budget < 1:
        raise ValueError("sampling_budget must be positive")
    if not X:
        raise ValueError("need at least one test element")
    diags = _block_letters(part)
    xs = _center_and_normalize([part.frame.to_frame(x) for x in X])
    dim = part.dim
    norms = [float(np.linalg.norm(d) / np.sqrt(dim)) for d in diags]

    residuals, coverage = {}, {}
    worst = (0.0, "")
    total_words = 0
    if not diags or not xs:
        # nothing to test against: trivially independent at every level
        for j in range(1, k + 1):
            residuals[j] = 0.0
            coverage[j] = 1.0
        return IndependenceReport(k, residuals, 0, 0.0, coverage, "")

    n_a, n_x = len(diags), len(xs)
    letters, norm_arr = np.array(diags), np.array(norms)
    rng = rng_for(seed, 0x1DE)
    for j in range(1, k + 1):
        combos, coverage[j] = _level_words(n_a * n_x, j, sampling_budget, rng)
        a_all, x_all = np.divmod(combos, n_x)
        denoms = norm_arr[a_all].prod(axis=1)
        level_best = 0.0
        for w, t in zip(*_near_max_traces(letters, xs, a_all, x_all, denoms)):
            r = abs(complex(t / dim)) / float(denoms[w])
            if r > level_best:
                level_best = r
            if r > worst[0]:
                worst = (r, word_label(a_all[w].tolist(), x_all[w].tolist()))
        residuals[j] = level_best
        total_words += len(combos)
    return IndependenceReport(
        max_k=k,
        residual_per_level=residuals,
        word_count=total_words,
        achieved_alpha=max(residuals.values()),
        coverage_per_level=coverage,
        worst_word=worst[1],
    )


# ---------------------------------------------------------------------------
# Mixing sign search
# ---------------------------------------------------------------------------

class _SignObjective:
    """max of |tau(u xi1* u* xi2)| pair terms and |tau(u eta)|/||eta||_1 terms.

    Quadratic/linear forms in the sign vector of u = diag(signs), with
    O(dim) swap updates.  Built from test elements X and trace targets etas
    in frame coordinates: it depends on neither the blocks nor the seed, so
    the builder searches one objective at every level.
    """

    def __init__(self, X, etas, dim: int):
        self.dim = dim
        # The builder passes elements it has centered and normalized already.
        # A second pass divides by an L2 norm that is 1 only up to rounding
        # (entries move by up to 6.2e-17), and the builder's recorded signs
        # and alpha rest on those bits, so it stays.
        xs = _center_and_normalize(X)
        self.pair_mats = []
        for x1 in xs:
            x1h = x1.conj().T
            for x2 in xs:
                self.pair_mats.append(x1h * x2.T)  # M[j,k] = (x1*)[j,k] x2[k,j]
        self.eta_diags = []
        for eta in etas:
            nrm1 = float(_singular_values(eta).sum() / self.dim)  # ||eta||_1
            if nrm1 > 1e-14:
                self.eta_diags.append(np.diagonal(eta) / nrm1)

    def start(self, s):
        self.s = s.astype(np.float64)
        self.quads = []
        self.lefts, self.rights = [], []
        for m in self.pair_mats:
            g = m @ self.s
            h = m.T @ self.s
            self.rights.append(g)
            self.lefts.append(h)
            self.quads.append(complex(self.s @ g))
        self.lins = [complex(self.s @ d) for d in self.eta_diags]
        return self.value()

    def value(self) -> float:
        vals = [abs(q) / self.dim for q in self.quads]
        vals += [abs(l) / self.dim for l in self.lins]
        return max(vals) if vals else 0.0

    def try_swap(self, i: int, j: int) -> float:
        si, sj = self.s[i], self.s[j]
        quads = []
        for m, g, h, q in zip(self.pair_mats, self.rights, self.lefts, self.quads):
            dq = -2 * si * (g[i] + h[i]) - 2 * sj * (g[j] + h[j])
            dq += 4 * (m[i, i] + m[j, j] + si * sj * (m[i, j] + m[j, i]))
            quads.append(q + dq)
        lins = [l - 2 * si * d[i] - 2 * sj * d[j] for l, d in zip(self.lins, self.eta_diags)]
        vals = [abs(q) / self.dim for q in quads] + [abs(l) / self.dim for l in lins]
        self._pending = (i, j, quads, lins)
        return max(vals) if vals else 0.0

    def commit(self):
        i, j, quads, lins = self._pending
        si, sj = self.s[i], self.s[j]
        for m, g, h in zip(self.pair_mats, self.rights, self.lefts):
            g -= 2 * si * m[:, i] + 2 * sj * m[:, j]
            h -= 2 * si * m[i, :] + 2 * sj * m[j, :]
        self.quads = quads
        self.lins = lins
        self.s[i] = -si
        self.s[j] = -sj


def _search_signs(obj: _SignObjective, blocks: Partition, delta: float, budget: int,
                  seed: int) -> tuple[np.ndarray, float, int]:
    """(signs, objective, swaps tried): the best sign vector, balanced within
    each (even) block, that randomized pair swaps within blocks find over
    SIGN_RESTARTS restarts sharing the budget; stops once delta is reached."""
    block_idx = [idx for idx in _members(blocks.assignment, blocks.n_blocks) if idx.size]
    best_val, best = np.inf, np.empty(0)
    spent = 0
    per_restart = max(1, budget // SIGN_RESTARTS)
    for w in range(SIGN_RESTARTS):
        rng = rng_for(seed, 0x516, w)
        sides = _balanced_halves(block_idx, blocks.dim, rng)  # side 0 has sign +1
        cur = obj.start(1 - 2 * sides)
        local = per_restart
        while local > 0 and cur > delta:
            i, j = _pick_swap(block_idx, sides, rng)  # even blocks: both sides occupied
            cand = obj.try_swap(i, j)
            spent += 1
            local -= 1
            if cand < cur - 1e-15:
                obj.commit()
                sides[i], sides[j] = 1, 0
                cur = cand
        if cur < best_val:
            best_val, best = cur, obj.s.copy()
        if best_val <= delta:
            break
    return best, float(best_val), spent


# ---------------------------------------------------------------------------
# Recursive doubling and its certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionCheck:
    """One Cor 3.7 condition: ``ok`` iff ``measured <= bound`` up to slack.

    Fields hold plain Python ``float``/``float``/``bool`` (never numpy
    scalars), so a report built from them passes plain ``json.dumps``.
    """

    bound: float
    measured: float
    ok: bool


@dataclass(frozen=True)
class Cor37Report(JsonReport):
    """The measured alpha and the consequence suite it implies.

    ``conditions`` maps condition names, in sorted order, to their
    ``ConditionCheck``.
    """

    n_levels: int
    measured_alpha: float
    conditions: dict

    @property
    def all_hold(self) -> bool:
        return all(c.ok for c in self.conditions.values())


def _alpha_inputs(xs: list[np.ndarray], etas: list[np.ndarray]):
    """(letters, etas) for ``_measured_alpha`` from test elements xs and
    trace targets etas in frame coordinates: the letters are each x and x*,
    and a b* for every ordered pair of letters follows the etas."""
    letters = [y for x in xs for y in (x, x.conj().T)]
    return letters, list(etas) + [a @ b.conj().T for a in letters for b in letters]


def _measured_alpha(part: Partition, xs: list[np.ndarray], etas: list[np.ndarray]):
    """Exact sup over the block algebra of the defining residuals.

    The powers w^p of the roots-of-unity unitary are an orthonormal L2
    basis of the traceless block algebra when block traces are equal, so
    the level-2 sup is the largest singular value of the form matrix
    [tau(w^p xi1 w^q xi2)]; level-1 residuals are measured against both
    letter families with operator-norm scaling.  One block leaves the
    traceless block algebra {0}, so both sups are 0.
    """
    n = part.n_blocks
    if n == 1:
        return 0.0, 0.0
    dim = part.dim
    w = part.roots_of_unity_diagonal()
    vand = np.array([w ** p for p in range(1, n)])  # (n-1, dim)
    alpha_a = 0.0
    for x1 in xs:
        for x2 in xs:
            m = x1 * x2.T
            b = vand @ m @ vand.T / dim
            alpha_a = max(alpha_a, float(_singular_values(b)[0]))
    alpha_b = 0.0
    t = 1.0 / n
    perm, spans = _block_order(part.assignment, part.n_blocks)
    for eta in etas:
        d = np.diagonal(eta)
        vals = np.abs(vand @ d) / dim  # |tau(eta w^p)|, ||w^p|| = 1
        alpha_b = max(alpha_b, float(vals.max()))
        dp = d[perm]
        for si in spans:
            num = abs(dp[si].sum() / dim - t * d.sum() / dim)
            alpha_b = max(alpha_b, num / (1.0 - t))  # ||q_i - t|| = 1 - t
    return alpha_a, alpha_b


def check_cor37(part: Partition, X, Y=()) -> Cor37Report:
    """Measure alpha and verify the whole consequence suite it implies.

    Conditions (with t = 2^-n the common block trace, xi unit L2):
      a2: | ||q_i xi q_j||_2^2 - t^2 | <= 3 t alpha
      b2: | tau(eta q_i) - tau(eta) t | <= alpha
      c2: ||q_i xi q_i||_2 <= (t^(1/2) + 2 alpha^(1/2)) sqrt(t)
          and ||sum_i q_i xi q_i||_2^2 <= t + 3 alpha
      d2: ||q_i xi q_i||_1 <= (t^(1/2) + 2 alpha^(1/2)) t
    """
    traces = part.block_traces()
    if np.abs(traces - traces[0]).max() > 1e-12:
        raise ValueError("certificate requires equal block traces")
    frame = part.frame
    dim = part.dim
    n = part.n_blocks
    t = 1.0 / n
    xs = _center_and_normalize([frame.to_frame(x) for x in X])
    letters, etas = _alpha_inputs(xs, [frame.to_frame(y) for y in Y])
    alpha_a, alpha_b = _measured_alpha(part, letters, etas)
    alpha = max(alpha_a, alpha_b)
    slack = 1e-9

    # block (i, j) of x is the slice (spans[i], spans[j]) of x permuted once,
    # holding the entries of the boolean-mask gather in the same order
    perm, spans = _block_order(part.assignment, part.n_blocks)
    worst_a2 = worst_c2a = worst_c2b = worst_d2 = 0.0
    for x in xs:
        xp = x[np.ix_(perm, perm)]
        comp_sq = 0.0
        for i, si in enumerate(spans):
            for j, sj in enumerate(spans):
                nsq = float(np.linalg.norm(xp[si, sj]) ** 2 / dim)
                worst_a2 = max(worst_a2, abs(nsq - t * t))
                if i == j:
                    comp_sq += nsq
                    worst_c2a = max(worst_c2a, np.sqrt(nsq))
        worst_c2b = max(worst_c2b, comp_sq)
        # equal traces make the diagonal blocks one size, so they take one
        # stacked SVD, which gives each block the bits of its own SVD
        for sv in _singular_values(np.stack([xp[si, si] for si in spans])):
            worst_d2 = max(worst_d2, float(sv.sum() / dim))
    worst_b2 = 0.0
    for eta in etas:
        d = np.diagonal(eta)
        tau_eta = d.sum() / dim
        dp = d[perm]
        for si in spans:
            worst_b2 = max(worst_b2, abs(dp[si].sum() / dim - tau_eta * t))

    def check(bound, measured) -> ConditionCheck:
        bound, measured = float(bound), float(measured)
        return ConditionCheck(bound, measured, measured <= bound + slack)

    corner = np.sqrt(t) + 2 * np.sqrt(alpha)
    level = int(round(np.log2(n))) if n > 1 else 0
    conditions = {  # keys in sorted order
        "a2_l2_blocks": check(3 * t * alpha, worst_a2),
        "b2_trace_products": check(alpha, worst_b2),
        "c2_compression_l2sq": check(t + 3 * alpha, worst_c2b),
        "c2_corner_l2": check(corner * np.sqrt(t), worst_c2a),
        "d2_corner_l1": check(corner * t, worst_d2),
    }
    return Cor37Report(n_levels=level, measured_alpha=float(alpha), conditions=conditions)


def build_independent_partition(X, Y, n: int, alpha_target: float, frame: MasaFrame,
                                budget: int, seed: int) -> tuple[Partition, IndependenceReport]:
    """n rounds of halving by mixing sign unitaries: 2^n equal-trace blocks.

    Each round searches for a balanced sign vector within the current
    blocks and splits every block by it, so the level-(k+1) partition
    refines the level-k one.  The report certifies the defining residuals
    with the achieved alpha (reported even when alpha_target is missed).
    """
    dim = frame.dim
    if n < 0:
        raise ValueError("n must be nonnegative")
    if budget <= 0:
        raise ValueError("budget must be positive")
    if dim % (2 ** n) != 0:
        raise ValueError(f"dim {dim} not divisible by 2^{n}")
    if not 0 < alpha_target < 1:
        raise ValueError("alpha must lie in (0, 1)")
    part = Partition.one_block(frame)
    xs = _center_and_normalize([frame.to_frame(x) for x in X])
    y_etas = [frame.to_frame(y) for y in Y]
    etas = y_etas + [x @ x.conj().T for x in xs]
    # every level searches the same objective; its blocks are even because
    # 2^n divides dim
    obj = _SignObjective(xs, etas, dim)
    evaluations = 0
    for level in range(n):
        signs, _, spent = _search_signs(
            obj, part,
            delta=alpha_target, budget=max(1, budget // max(1, n)),
            seed=int(rng_for(seed, 0xB1D, level).integers(0, 2 ** 63 - 1)),
        )
        evaluations += spent
        assignment = part.assignment * 2 + (signs < 0).astype(np.int64)
        part = Partition(assignment, 2 ** (level + 1), frame)
    # _alpha_inputs adds each x x* among the letter products
    alpha_a, alpha_b = _measured_alpha(part, *_alpha_inputs(xs, y_etas))
    report = IndependenceReport(
        max_k=2,
        residual_per_level={1: float(alpha_b), 2: float(alpha_a)},
        word_count=evaluations,
        achieved_alpha=float(max(alpha_a, alpha_b)),
        coverage_per_level={1: 1.0, 2: 1.0},
        worst_word="",
    )
    return part, report


# ---------------------------------------------------------------------------
# Incremental patching of a Haar-like diagonal unitary
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PatchReport(JsonReport):
    power_residual: float      # eta: max |tau(v^k)|, 1 <= |k| <= n
    word_residual: float       # delta': max |tau(word)| over sampled words
    words_evaluated: int
    coverage: float
    chunk_size: int


def _scrambled_cycle(dim: int, rng) -> np.ndarray:
    return np.exp(2j * np.pi * rng.permutation(dim) / dim)


def incremental_patch_haar(X, n: int, delta: float, order_L: int, budget: int,
                           seed: int) -> tuple[TracedMatrix, PatchReport]:
    """Build a diagonal unitary with small power traces and word traces.

    Entries are order_L-th roots of unity assigned chunk by chunk; each
    chunk choice minimizes the running objective (the power traces and
    the sampled level-2 word traces) over 64 drawn candidate phase chunks,
    or over all of them when order_L ** chunk <= 64.  Each level-2 word
    keeps a running trace sum; a chunk adds its terms for every word and
    candidate at once, as stacked (candidates x chunk) @ (chunk x 1)
    matmuls indexed by each word's pair matrix and powers, and the first
    candidate below the best value by more than 1e-15 wins.  The final
    report checks the powers and the sampled level-1, 2 and 3 words; a
    level-1 word's trace is read off the diagonal.  Diagonal test elements
    give a scrambled full cycle of dim-th roots of unity, whose nonzero
    power traces vanish identically.  ``delta`` is unread; the perfbench
    indep workload still passes it positionally.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    if not X:
        raise ValueError("need at least one test element")
    dims = {(_as_entries(x)).shape[0] for x in X}
    if len(dims) != 1:
        raise ValueError("test elements must share a dimension")
    dim = dims.pop()
    if order_L < dim or order_L % dim != 0:
        raise ValueError("order_L must be a multiple of dim")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = rng_for(seed, 0x9A7)
    xs = _center_and_normalize(X)
    if not xs:
        v = _scrambled_cycle(dim, rng)
        eta = max(abs(np.sum(v ** k)) / dim for k in range(1, dim)) if dim > 1 else 0.0
        report = PatchReport(float(eta), 0.0, 0, 1.0, dim)
        return TracedMatrix(np.diag(v)), report

    chunk = max(1, dim // 32)
    roots = np.exp(2j * np.pi * np.arange(order_L) / order_L)
    n_x = len(xs)
    powers = [p for p in range(-n, n + 1) if p != 0]
    n_p = len(powers)
    # levels 1, 2, 3; letter c is the pair (powers[c // n_x], xs[c % n_x])
    words = [_level_words(n_p * n_x, k, max(1, budget // 3), rng)[0] for k in (1, 2, 3)]

    # pair matrices of the level-2 words: pair[x1 * n_x + x2][j, k] = x1[j, k] x2[k, j]
    pair = [a * b.T for a in xs for b in xs]
    # level-2 word w has the powers p1[w], p2[w] (indices into powers) and
    # the pair matrix pair[xx[w]]; it reads that matrix's products with
    # power p2 (row r1_idx[w] of r1) and with power p1 (row c_idx[w] of r2
    # and cms), each keyed xx * n_p + p
    (p1, p2), (x1, x2) = (a.T for a in np.divmod(words[1], n_x))
    xx = x1 * n_x + x2
    r1_keys, r1_idx = np.unique(xx * n_p + p2, return_inverse=True)
    c_keys, c_idx = np.unique(xx * n_p + p1, return_inverse=True)

    def powers_of(z):
        # z ** p stacked over the powers p, with the conjugate for p < 0
        return np.array([z ** p if p > 0 else np.conj(z) ** (-p) for p in powers])

    v = np.zeros(dim, dtype=np.complex128)
    power_sums = np.zeros(n, dtype=np.complex128)  # tau(v^k) dim, k = 1..n
    sums = np.zeros(len(xx), dtype=np.complex128)  # running level-2 word sums

    n_cands = 64
    for s0 in range(0, dim, chunk):
        sl = slice(s0, min(s0 + chunk, dim))
        csize = sl.stop - s0
        if order_L ** csize <= n_cands:
            cands = np.array(list(itertools.product(roots, repeat=csize)))
        else:
            # one draw holds the values, and leaves the stream in the state,
            # of n_cands successive draws of csize
            cands = roots[rng.integers(0, order_L, size=(n_cands, csize))]
        vp, cp = powers_of(v), powers_of(cands)
        # each product depends on one pair matrix and one power: take it
        # once; r1 pairs with delta1, r2 with delta2
        r1 = np.array([pair[k // n_p][sl, :] @ vp[k % n_p] for k in r1_keys.tolist()])
        r2 = np.array([vp[k % n_p] @ pair[k // n_p][:, sl] for k in c_keys.tolist()])
        cms = np.array([cp[k % n_p] @ pair[k // n_p][sl, sl] for k in c_keys.tolist()])
        # one row per level-2 word, one column per candidate; a stacked
        # matmul of (candidates x csize) @ (csize x 1) keeps the bits of C @ r
        c1, c2 = cp[p1], cp[p2]
        snew = (sums[:, None] + np.matmul(c1, r1[r1_idx][..., None])[..., 0]
                + np.matmul(c2, r2[c_idx][..., None])[..., 0] + (cms[c_idx] * c2).sum(axis=2))
        # each candidate's objective: its largest power term (cp[n:] holds
        # the powers 1..n) and its largest word term
        vals = np.maximum(np.abs(power_sums[:, None] + cp[n:].sum(axis=2)).max(axis=0),
                          np.abs(snew).max(axis=0)) / dim
        best_val, best = np.inf, None
        for c, val in enumerate(vals.tolist()):
            if val < best_val - 1e-15:
                best_val, best = val, c
        v[sl] = cands[best]
        power_sums += cp[n:, best].sum(axis=1)
        sums = snew[:, best]

    # final verification: powers, and all sampled words including level 3;
    # the kernel screens, the chain evaluates the words near the maximum
    eta = max(abs(np.sum(v ** k)) / dim for k in range(1, n + 1))
    letters = powers_of(v)
    delta_prime = 0.0
    for rows in words:
        # the level holding the largest chain value has that word near its own maximum
        for t in _near_max_traces(letters, xs, *np.divmod(rows, n_x), np.ones(len(rows)))[1]:
            delta_prime = max(delta_prime, abs(t) / dim)
    evaluated = sum(len(rows) for rows in words)
    total_possible = sum((n_p * n_x) ** k for k in (1, 2, 3))
    report = PatchReport(
        power_residual=float(eta),
        word_residual=float(delta_prime),
        words_evaluated=evaluated,
        coverage=evaluated / total_possible,
        chunk_size=chunk,
    )
    return TracedMatrix(np.diag(v)), report
