"""The four workloads: inputs made from a seed, the ops of one pass, and a
verdict plus quality fields for each op's result.

Every op calls a public pavlab function through its module attribute
(``paving.pave_search``, not a name bound at import), so the wrappers of
pb_trace see the call.  Inputs are ``zero_diag_haar`` samples unless an
op makes its own; eps is 0.6 throughout.

Why these four:

* search -- small-block ``op_norm`` calls from the paving objective
  dominate (anneal, sign_split); roots_of_unity, arc and exhaustive make
  few evaluations, so a per-search set-up cost shows there.  The CLI op
  adds file I/O and artifact writing around one search.
* reduce -- ``op_norm`` on corners of 33..1024 through the block paver's
  doubling; no paving objective at all.
* oracle -- dim 1152 is above ``SVD_DIM_LIMIT``: the power-iteration norm
  and Haar QR at scale, and the only place the norm is approximate.
* indep -- word-trace matmul chains and the sign-swap objective; no
  ``op_norm`` at all.

Each workload also names its probe: fixed work of the kind its ops do,
calling no pavlab code, which pb_bench times between ops to follow the
shared machine's speed.  oracle's ops stream 20 MB matrices through
memory, which a slow spell on the machine hits less than it hits small
cache-resident work, so oracle has a probe of its own.
"""

import functools
import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from pavlab import cli, finite_vn, free_model, independence, matrix_io, paving, reduction

EPS = 0.6
SEARCH_STRATEGIES = ("anneal", "sign_split", "roots_of_unity", "arc")


@dataclass
class Outcome:
    """Verdict on one op's result.

    ``quality`` holds the deterministic fields that must repeat bit for
    bit: across passes of a run, and against the stored digest.
    ``invalid`` lists wrong outputs, ``unserializable`` the reports that
    fail plain ``json.dumps``, ``error`` the exception the op raised.
    """

    quality: dict = field(default_factory=dict)
    invalid: list = field(default_factory=list)
    unserializable: list = field(default_factory=list)
    error: str | None = None

    @property
    def failed(self) -> bool:
        return bool(self.error or self.invalid or self.unserializable)


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], object]
    examine: Callable[[object], Outcome]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable  # (seed, tiny, workdir) -> list[Op]
    probe: Callable[[], None]
    checks_norms: bool = False  # re-run once to compare op_norm above SVD_DIM_LIMIT with SVD


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

def _complex_gaussian(rng, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


@functools.cache
def _probe_inputs() -> dict:
    rng = np.random.default_rng(20130306)
    return {"small": [_complex_gaussian(rng, k) for k in (4, 8, 16, 32) for _ in range(6)],
            "mid": [_complex_gaussian(rng, k) for k in (48, 96)],
            "real": rng.standard_normal((160, 160)) / 160}


@functools.cache
def _large_probe_inputs() -> dict:
    rng = np.random.default_rng(20130307)
    return {"big": _complex_gaussian(rng, 1152), "qr": _complex_gaussian(rng, 256),
            "v": rng.standard_normal(1152) + 0j}


def small_dense_probe() -> None:
    """SVDs of small and mid-sized complex matrices, a chain of BLAS
    products, numpy calls on tiny arrays and a plain Python loop: about
    30 ms on a 2-core x86 VM."""
    m = _probe_inputs()
    for _ in range(4):
        for a in m["small"]:
            np.linalg.svd(a, compute_uv=False)
    for a in m["mid"]:
        np.linalg.svd(a, compute_uv=False)
    a = m["real"]
    for _ in range(24):
        a = np.tanh(a @ m["real"])
    v = np.arange(16.0)
    for _ in range(3000):
        v = np.abs(v[::-1] - 1.0)
    s = 0
    for i in range(80_000):
        s += i * i % 7


def large_dense_probe() -> None:
    """Power-iteration steps on a dim-1152 complex matrix and a complex QR
    at dim 256: about 40 ms on a 2-core x86 VM."""
    m = _large_probe_inputs()
    v = m["v"]
    for _ in range(3):
        v = m["big"].conj().T @ (m["big"] @ v)
        v /= np.linalg.norm(v)
    np.linalg.qr(m["qr"])


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _json_problems(label: str, make_dict) -> list:
    try:
        json.dumps(make_dict())
    except (TypeError, ValueError) as exc:
        return [f"{label}: {exc}"]
    return []


def haar_input(dim: int, seed: int) -> finite_vn.TracedMatrix:
    return free_model.sample(free_model.EnsembleSpec("zero_diag_haar", dim, seed))


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def _examine_partition(x, part, report) -> Outcome:
    invalid = []
    if part.dim != x.shape[0]:
        invalid.append(f"partition dim {part.dim} for a dim {x.shape[0]} input")
    elif (part.n_blocks, part.effective_blocks) != (report.n_blocks, report.effective_blocks):
        invalid.append("block counts differ from the report")
    else:
        again = paving.paving_defect(x, part, eps=EPS).ratio
        if again != report.ratio:
            invalid.append(f"reported ratio {report.ratio!r}, paving_defect gives {again!r}")
    quality = {
        "effective_blocks": int(report.effective_blocks),
        "ratio": float(report.ratio),
        "assignment_sha256": _sha256(part.assignment.astype("<i8")),
        "target_met": bool(report.ratio <= EPS),
    }
    return Outcome(quality, invalid, _json_problems("PavingReport", report.to_json_dict))


def _search_op(name, x, strategy, budget, seed) -> Op:
    return Op(name,
              lambda: paving.pave_search(x, EPS, strategy, budget, seed),
              lambda res: _examine_partition(x, *res))


def _cli_op(name, x, matrix_path, out_path, budget, seed) -> Op:
    argv = ["pave", "--input", str(matrix_path), "--out", str(out_path),
            "--eps", repr(EPS), "--strategy", "roots_of_unity",
            "--budget", str(budget), "--seed", str(seed)]

    def examine(code) -> Outcome:
        if code != 0:
            return Outcome(invalid=[f"pavlab pave exited with {code}"])
        payload = json.loads(out_path.read_text())
        rep = paving.PavingReport(**payload["report"])
        part = paving.Partition(np.array(payload["assignment"]), rep.n_blocks,
                                finite_vn.MasaFrame.identity(x.shape[0]))
        return _examine_partition(x, part, rep)

    return Op(name, lambda: cli.main(argv), examine)


def build_search(seed: int, tiny: bool, workdir) -> list:
    dims, exhaustive_dim, budget = ((8, 12), 6, 50) if tiny else ((32, 64), 10, 1000)
    xs = {d: haar_input(d, seed) for d in (*dims, exhaustive_dim)}
    ops = [_search_op(f"{s}/d{d}", xs[d].entries, s, budget, seed)
           for d in dims for s in SEARCH_STRATEGIES]
    ops.append(_search_op(f"exhaustive/d{exhaustive_dim}", xs[exhaustive_dim].entries,
                          "exhaustive", budget, seed))
    d = dims[-1]
    matrix_path = workdir / f"search-s{seed}-d{d}.pvlb"
    matrix_io.save_binary(xs[d], matrix_path)
    ops.append(_cli_op(f"cli_pave/d{d}", xs[d].entries, matrix_path,
                       workdir / f"pave-s{seed}-d{d}.json", budget, seed))
    return ops


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------

def _reduce_op(dim: int, seed: int) -> Op:
    a = haar_input(dim, seed).entries
    a = (a + a.conj().T) / 2
    x = a / finite_vn.op_norm(a)

    def examine(res) -> Outcome:
        part, trace, report = res
        out = _examine_partition(x, part, report)
        out.unserializable += _json_problems("ReductionTrace", trace.to_json_dict)
        out.quality["blocks_frac"] = part.effective_blocks / dim
        out.quality["trace_all_ok"] = bool(trace.all_ok)
        out.quality["target_met"] = out.quality["target_met"] and bool(trace.all_ok)
        return out

    return Op(f"reduce/d{dim}",
              lambda: reduction.reduce_and_pave(x, EPS, free_model.make_block_paver(), seed=seed),
              examine)


def build_reduce(seed: int, tiny: bool, workdir) -> list:
    return [_reduce_op(d, seed) for d in ((16, 32) if tiny else (128, 256))]


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def _norm_outcome(values: dict, reports=()) -> Outcome:
    invalid = [f"{k} = {v!r} is not a finite norm" for k, v in values.items()
               if not (np.isfinite(v) and v >= 0)]
    problems = [p for r in reports
                for p in _json_problems("NormExperimentReport", r.to_json_dict)]
    return Outcome({k: float(v) for k, v in values.items()}, invalid, problems)


def build_oracle(seed: int, tiny: bool, workdir) -> list:
    dim = 64 if tiny else 1152  # above SVD_DIM_LIMIT and divisible by 64

    def projection(res):
        block, half = res
        return _norm_outcome({"block_norm": block.measured_norm,
                              "half_norm": half.measured_norm}, res)

    return [
        Op(f"kesten/d{dim}", lambda: free_model.kesten_norm_oracle(2, dim, seed),
           lambda v: _norm_outcome({"norm": v})),
        Op(f"projection/d{dim}",
           lambda: free_model.projection_paving_experiment(0.5, 64, dim, seed), projection),
        Op(f"conjugation/d{dim}",
           lambda: free_model.conjugation_paving_experiment(4, dim, seed),
           lambda r: _norm_outcome({"norm": r.measured_norm}, [r])),
    ]


# ---------------------------------------------------------------------------
# indep
# ---------------------------------------------------------------------------

def _indep_ops(dim: int, seed: int, tiny: bool) -> list:
    x = haar_input(dim, seed).entries
    frame = finite_vn.MasaFrame.identity(dim)
    build_budget, word_budget = (1000, 30) if tiny else (10_000, 2000)
    state = {}

    def build():
        state["part"], report = independence.build_independent_partition(
            [x], [], 4, 0.01, frame, build_budget, seed)
        return state["part"], report

    def examine_build(res) -> Outcome:
        part, report = res
        invalid = []
        if part.n_blocks != 16 or np.ptp(part.block_traces()) > 1e-12:
            invalid.append("not 16 blocks of equal trace")
        quality = {"achieved_alpha": float(report.achieved_alpha),
                   "evaluations": int(report.word_count),
                   "assignment_sha256": _sha256(part.assignment.astype("<i8"))}
        return Outcome(quality, invalid, _json_problems("IndependenceReport", report.to_json_dict))

    def examine_cert(cert) -> Outcome:
        quality = {"measured_alpha": float(cert.measured_alpha),
                   "target_met": bool(cert.all_hold)}
        return Outcome(quality, [], _json_problems("Cor37Report", cert.to_json_dict))

    def examine_words(report) -> Outcome:
        quality = {"achieved_alpha": float(report.achieved_alpha),
                   "words": int(report.word_count), "worst_word": report.worst_word}
        return Outcome(quality, [], _json_problems("IndependenceReport", report.to_json_dict))

    def examine_patch(res) -> Outcome:
        v, report = res
        d = np.diagonal(v.entries)
        invalid = []
        if np.abs(v.entries - np.diag(d)).max() > 0 or np.abs(np.abs(d) - 1).max() > 1e-12:
            invalid.append("patch is not a diagonal unitary")
        quality = {"power_residual": float(report.power_residual),
                   "word_residual": float(report.word_residual),
                   "words": int(report.words_evaluated),
                   "unitary_sha256": _sha256(d)}
        return Outcome(quality, invalid, _json_problems("PatchReport", report.to_json_dict))

    return [
        Op(f"build/d{dim}", build, examine_build),
        Op(f"cor37/d{dim}", lambda: independence.check_cor37(state["part"], [x]), examine_cert),
        Op(f"kind2/d{dim}",
           lambda: independence.k_independence_residual(state["part"], [x], k=2), examine_words),
        Op(f"kind3/d{dim}",
           lambda: independence.k_independence_residual(
               state["part"], [x], k=3, sampling_budget=word_budget, seed=seed),
           examine_words),
        Op(f"patch/d{dim}",
           lambda: independence.incremental_patch_haar([x], 2, 0.1, 4 * dim, word_budget, seed),
           examine_patch),
    ]


def build_indep(seed: int, tiny: bool, workdir) -> list:
    return [op for d in ((16, 32) if tiny else (64, 128)) for op in _indep_ops(d, seed, tiny)]


WORKLOADS = {w.name: w for w in (
    Workload("search", build_search, small_dense_probe),
    Workload("reduce", build_reduce, small_dense_probe),
    Workload("oracle", build_oracle, large_dense_probe, checks_norms=True),
    Workload("indep", build_indep, small_dense_probe),
)}
