"""Measurement, checking and reporting for one workload run (see run.py).

A run is a closed loop in one thread: each op starts when the previous
one has returned, and a pass is one input set's op list in order.
Set-up -- making the inputs and a warm-up pass at tiny size -- is done
SETUP_REPEATS times; setup_s is its median plus the median import time
of a fresh interpreter, which run.py measures.  Passes then go round the
INPUT_SETS input sets until the next pass would overrun ``--seconds``.
Each op's result is examined after its pass, outside the timed region;
a later pass on the same inputs must reproduce its quality fields.

With tracing on, the first half of the time runs plain passes and the
second half traced ones, both on the first input set, so the tracing
overhead is the difference of their mean pass times.

The machine is shared: its speed drifts by up to a factor of two over
tens of seconds, for numpy and plain Python code alike.  So in plain
passes the workload's probe -- fixed work of the kind its ops do, with
no pavlab code -- runs after every PROBE_EVERY_S seconds of op time, and
is timed; batch_rel is the pass time in units of the probe's mean time
(unit ``probe``).  A pavlab change moves it, while the machine's drift
mostly cancels.  Wall-clock figures are printed beside it.
"""

import contextlib
import functools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

import pavlab
import pb_trace
import pb_workloads
from pavlab import finite_vn

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
DIGEST_PATH = Path(__file__).resolve().parent / "digest.json"
DIGEST_SEEDS = (0, 1)
INPUT_SETS = 8
SETUP_REPEATS = 5
PROBE_EVERY_S = 0.4
TAIL_MIN_BEYOND = 10  # op_tail_ms: samples beyond its percentile

clock = time.perf_counter


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads_in_use():
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_in_use": _blas_threads_in_use(),
        "pavlab_threads": os.environ.get("PAVLAB_THREADS"),
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

class SpeedProbe:
    """Times ``work`` after every PROBE_EVERY_S seconds of op time (and
    after the first op), so its times sample the machine's speed evenly
    over the time the ops ran."""

    def __init__(self, work):
        self.work = work
        self.due_s = 0.0  # op time left before the next probe
        self.times = []

    def after_op(self, op_s: float) -> None:
        self.due_s -= op_s
        while self.due_s <= 0:
            t0 = clock()
            self.work()
            self.times.append(clock() - t0)
            self.due_s += PROBE_EVERY_S


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Pass:
    """One pass over one input set's op list: wall time, per-op times, outcomes.

    With a ``tracer`` (anything with ``wrap(fn, name)`` and ``op_id``) the
    ops run with pavlab patched by ``tracer.wrap``, and ``tracer.op_id``
    is set to each op's id before it runs.  Results are examined after
    the patch is lifted, so checking them is neither timed nor traced.
    With a ``speed`` probe, the probe runs between ops as it asks;
    ``wall_s`` is the ops' time alone, ``elapsed_s`` includes the probes.
    """

    def __init__(self, ops, input_set=0, tracer=None, first_op_id=0, speed=None):
        self.input_set = input_set
        results, self.op_s = [], []
        with pb_trace.patched(pavlab, tracer.wrap) if tracer else contextlib.nullcontext():
            t0 = clock()
            for i, op in enumerate(ops):
                if tracer:
                    tracer.op_id = first_op_id + i
                start = clock()
                try:
                    results.append((op.call(), None))
                except Exception as exc:  # a raising op is a failed op; the run goes on
                    results.append((None, f"{type(exc).__name__}: {exc}"))
                self.op_s.append(clock() - start)
                if speed:
                    speed.after_op(self.op_s[-1])
            self.elapsed_s = clock() - t0
        self.wall_s = math.fsum(self.op_s)
        self.outcomes = [pb_workloads.Outcome(error=err) if err else _examine(op, res)
                         for op, (res, err) in zip(ops, results)]

    def compare(self, reference: "Pass") -> None:
        """Mark every op whose quality fields differ from the reference pass."""
        for out, ref in zip(self.outcomes, reference.outcomes):
            if not out.error and not ref.error and out.quality != ref.quality:
                out.invalid.append("quality fields differ from the first pass on these inputs")


def _examine(op, result) -> "pb_workloads.Outcome":
    try:
        return op.examine(result)
    except Exception as exc:  # a result the checks cannot even read is wrong output
        return pb_workloads.Outcome(invalid=[f"unreadable result: {type(exc).__name__}: {exc}"])


def measure(op_sets, seconds, references, tracer=None, speed=None) -> list:
    """Passes over the input sets in turn, until the next pass, at the
    median pass time, would overrun ``seconds``.

    ``references`` maps an input set to its first pass; every later pass
    on that set must reproduce its quality fields.
    """
    passes = []
    start = clock()
    while not passes or clock() - start + _median(p.elapsed_s for p in passes) <= seconds:
        k = len(passes) % len(op_sets)
        p = Pass(op_sets[k], k, tracer, len(passes) * len(op_sets[k]), speed)
        p.compare(references.setdefault(k, p))
        passes.append(p)
    return passes


class NormCapture:
    """Keeps every op_norm call above SVD_DIM_LIMIT as (op id, input, value)."""

    def __init__(self):
        self.op_id = -1
        self.calls = []

    def wrap(self, fn, name):
        if name != "finite_vn.op_norm":
            return fn

        @functools.wraps(fn)
        def op_norm(x):
            value = fn(x)
            a = np.asarray(getattr(x, "entries", x))
            if a.shape[0] > finite_vn.SVD_DIM_LIMIT:
                self.calls.append((self.op_id, a, value))
            return value
        return op_norm


def norm_check_pass(ops):
    """One more pass with op_norm calls above SVD_DIM_LIMIT captured.

    Returns the pass and, per op, the largest relative error of those
    calls against numpy's SVD of the same input (None when the op made
    none).  Runs after the timed passes, so the SVDs are not timed.
    """
    capture = NormCapture()
    p = Pass(ops, tracer=capture)
    errors = [None] * len(ops)
    for i, a, value in capture.calls:
        exact = float(np.linalg.svd(a, compute_uv=False)[0])
        err = abs(value - exact) / exact
        errors[i] = err if errors[i] is None else max(errors[i], err)
    return p, errors


def attach_norm_errors(p: Pass, errors) -> None:
    """Record each op's norm_rel_err among its quality fields."""
    for out, err in zip(p.outcomes, errors):
        if err is not None:
            out.quality["norm_rel_err"] = err


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail(samples):
    """(value, percentile, samples beyond) at the highest percentile with at
    least ten samples beyond it, 100 (1 - 10/n); the median when n < 20."""
    n = len(samples)
    q = 100.0 * (1 - TAIL_MIN_BEYOND / n) if n >= 2 * TAIL_MIN_BEYOND else 50.0
    return float(np.percentile(samples, q)), q, n * (100 - q) / 100


def quality_figures(outcomes) -> dict:
    """End-to-end quality metrics of the ops that have the field."""
    def values(key):
        return [o.quality[key] for o in outcomes if key in o.quality]

    out = {}
    if blocks := values("effective_blocks"):
        out["blocks_mean"] = (float(np.mean(blocks)), "blocks")
    if met := values("target_met"):
        out["target_met_frac"] = (float(np.mean(met)), "ratio")
    if errs := values("norm_rel_err"):
        out["norm_rel_err"] = (max(errs), "ratio")
    if alphas := values("achieved_alpha") + values("word_residual"):
        out["alpha_max"] = (max(alphas), "ratio")
    return out


def quality_layer_metrics(names, outcomes, span_ms) -> dict:
    """Per-layer figures read from op results rather than from spans."""
    def of(prefix, key):
        return [o.quality[key] for n, o in zip(names, outcomes)
                if n.startswith(prefix) and key in o.quality]

    def mean(values):
        return float(np.mean(values)) if values else 0.0

    m = {f"paving.blocks.{s}": mean(of(f"{s}/", "effective_blocks"))
         for s in pb_trace.STRATEGIES}
    m["reduction.blocks_frac"] = mean(of("reduce/", "blocks_frac"))
    m["independence.build_independent_partition.evaluations"] = sum(of("build/", "evaluations"))
    words = sum(of("kind", "words"))
    m["independence.k_independence_residual.words"] = words
    m["independence.k_independence_residual.us_per_word"] = (
        span_ms["independence.k_independence_residual.ms"] * 1e3 / words if words else 0.0)
    m["independence.incremental_patch_haar.words"] = sum(of("patch/", "words"))
    return m


def _median(values) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def input_seed(seed: int, k: int) -> int:
    """Seed of input set k of a run with the given workload seed."""
    return seed * INPUT_SETS + k


def run(workload: str, seed: int, seconds: float, trace: bool, import_s: float,
        tiny: bool = False) -> dict:
    """Set up, measure and check one workload; returns the report of the run.

    Plain runs cycle through INPUT_SETS input sets, so that one run's
    figures do not hang on one draw of inputs; traced runs repeat the
    first set, so that per-layer counts repeat exactly.
    """
    wl = pb_workloads.WORKLOADS[workload]
    n_sets = 1 if trace else INPUT_SETS
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR))
    try:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            t0 = clock()
            op_sets = [wl.build(input_seed(seed, k), tiny, workdir) for k in range(n_sets)]
            Pass(wl.build(input_seed(seed, 0), True, workdir), speed=SpeedProbe(wl.probe))
            setup_s.append(clock() - t0)
        references = {}
        speed = SpeedProbe(wl.probe)
        plain = measure(op_sets, seconds / 2 if trace else seconds, references, speed=speed)
        tracer = pb_trace.Tracer()
        traced = measure(op_sets, seconds / 2, references, tracer) if trace else []
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        checked = None
        if wl.checks_norms:
            checked, errors = norm_check_pass(op_sets[0])
            checked.compare(references[0])
            attach_norm_errors(references[0], errors)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    names = [op.name for op in op_sets[0]]
    executed = plain + traced + ([checked] if checked else [])
    outcomes = [o for p in executed for o in p.outcomes]
    refs = [o for k in sorted(references) for o in references[k].outcomes]
    op_ms = [t * 1e3 for p in plain for t in p.op_s]
    tail_ms, tail_q, tail_beyond = tail(op_ms)
    # each input set weighs the same, however many passes it got
    batch_s = statistics.fmean(statistics.fmean(p.wall_s for p in plain if p.input_set == k)
                               for k in sorted({p.input_set for p in plain}))
    probe_s = statistics.fmean(speed.times)
    failed = sum(o.failed for o in outcomes)
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(),
        "attempted": len(outcomes),
        "failed": failed,
        "correct": not any(o.invalid for o in outcomes),
        "problems": sorted({f"{n}@{p.input_set}: {msg}" for p in executed
                            for n, o in zip(names, p.outcomes)
                            for msg in ([o.error] if o.error else []) + o.invalid + o.unserializable}),
        "passes": len(plain),
        "batch_median_s": _median(p.wall_s for p in plain),
        "input_sets": n_sets,
        "op_ms": {n: _median(p.op_s[i] * 1e3 for p in plain) for i, n in enumerate(names)},
        "digest": {f"{n}@{k}": o.quality for k in sorted(references)
                   for n, o in zip(names, references[k].outcomes)},
        "tail": {"percentile": tail_q, "samples": len(op_ms), "beyond": tail_beyond},
        "probe_ms": {"mean": probe_s * 1e3, "median": _median(speed.times) * 1e3,
                     "count": len(speed.times)},
        "setup_parts": {"import_s": import_s, "repeated_s": setup_s},
        "end_to_end": {
            "setup_s": (import_s + _median(setup_s), "s"),
            # a mean, not the median: a run's passes go over different input
            # sets, and their median jumps from set to set between runs
            "batch_s": (batch_s, "s"),
            "batch_rel": (batch_s / probe_s, "probe"),
            "op_p50_ms": (float(np.percentile(op_ms, 50)), "ms"),
            "op_tail_ms": (tail_ms, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "fail_frac": (failed / len(outcomes), "ratio"),
            **quality_figures(refs),
        },
    }
    if trace:
        per_pass = pb_trace.layer_metrics(tracer.spans, len(names), len(traced))
        layer = {k: _median(m.get(k, 0.0) for m in per_pass)
                 for k in sorted({k for m in per_pass for k in m})}
        layer.update(quality_layer_metrics(names, references[0].outcomes, layer))
        plain_s, traced_s = (statistics.fmean(p.wall_s for p in ps) for ps in (plain, traced))
        layer["trace.batch_s.plain"] = plain_s
        layer["trace.batch_s.traced"] = traced_s
        layer["trace.overhead_s"] = traced_s - plain_s
        layer["trace.spans_per_pass"] = len(tracer.spans) / len(traced)
        report["per_layer"] = layer
        tracer.write(OUT_DIR / f"spans-{workload}.json")
    return report
