"""Outside-in tracing of pavlab through wrappers on module attributes.

Nothing under ``src/`` knows about tracing.  ``patched`` replaces every
public function of each layer module by a wrapper, and also every
attribute of a layer module (or of the package) that is bound to one of
those functions.  That second step matters because the modules import
each other's functions by name: ``paving.op_norm`` and ``cli.pave_search``
are separate bindings of ``finite_vn.op_norm`` and ``paving.pave_search``,
and calls through them would escape a wrapper placed only on the defining
module.  Leaving the ``with`` block rebinds every attribute to its
original function.

A span is ``[name, start, end, parent, op_id, tag]``: times come from
``time.perf_counter``, ``parent`` is the index of the enclosing span (-1
for a call made by the benchmark itself), ``op_id`` is the benchmark
operation that caused it, and ``tag`` is a small label (the block size
``k`` of an ``op_norm`` call, the strategy of a ``pave_search`` call).
"""

import functools
import importlib
import inspect
import json
import time
from contextlib import contextmanager

import numpy as np

# seeds is left out: it has no cost worth its own metric, and rng_for is
# called inside the annealing loop, where a wrapper would only add noise.
LAYER_MODULES = ("finite_vn", "paving", "reduction", "free_model",
                 "independence", "matrix_io", "cli")

# Block-size classes of op_norm: small blocks (search), SVD-sized corners
# (reduce), and the power-iteration path above finite_vn.SVD_DIM_LIMIT.
K_CLASSES = (("k_le32", 1, 32), ("k_33_1024", 33, 1024), ("k_gt1024", 1025, None))

# Real flops charged per op_norm call: 32/3 k^3, the bidiagonalisation
# count (8/3 k^3) of a values-only SVD of a square matrix, times 4 for
# complex arithmetic.  A model applied to every call, not a measurement;
# it overstates the power-iteration path above dim 1024.
SVD_FLOPS_PER_K3 = 32.0 / 3.0

STRATEGIES = ("anneal", "sign_split", "roots_of_unity", "arc", "exhaustive")

# Layers whose inclusive time is reported as "<name>.ms", and whose call
# count is reported as "<name>.calls".
SPAN_TOTALS = (
    "paving.paving_defect",
    "reduction.reduce_and_pave", "reduction.flatten", "reduction.dilate_to_projection",
    "reduction.paver",
    "free_model.sample", "free_model.kesten_norm_oracle",
    "free_model.projection_paving_experiment", "free_model.conjugation_paving_experiment",
    "independence.build_independent_partition", "independence.check_cor37",
    "independence.k_independence_residual", "independence.incremental_patch_haar",
    "matrix_io.load_matrix",
)
SPAN_CALLS = ("reduction.dilate_to_projection", "reduction.paver")


def _layer_modules(package):
    return [importlib.import_module(f"{package.__name__}.{m}") for m in LAYER_MODULES]


def public_functions(package) -> dict:
    """{function: 'module.name'} for the public functions each layer defines."""
    out = {}
    for mod in _layer_modules(package):
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                out[obj] = f"{short}.{name}"
    return out


@contextmanager
def patched(package, make_wrapper):
    """Bind every attribute that refers to a layer function to make_wrapper(fn, name).

    Yields the list of (module, attribute, original) that were rebound.
    """
    names = public_functions(package)
    wrappers = {fn: make_wrapper(fn, name) for fn, name in names.items()}
    saved = [(mod, attr, obj)
             for mod in [package, *_layer_modules(package)]
             for attr, obj in list(vars(mod).items())
             if inspect.isfunction(obj) and obj in wrappers]
    try:
        for mod, attr, obj in saved:
            setattr(mod, attr, wrappers[obj])
        yield saved
    finally:
        for mod, attr, obj in saved:
            setattr(mod, attr, obj)


def _block_size(args, kwargs):
    x = args[0] if args else kwargs["x"]
    return int(np.shape(getattr(x, "entries", x))[0])


def _strategy(args, kwargs):
    return args[2] if len(args) > 2 else kwargs["strategy"]


TAGS = {"finite_vn.op_norm": _block_size, "paving.pave_search": _strategy}

# Functions that return a callback the program calls later: the callback
# is wrapped too, under the span name given here.
CALLBACK_SPANS = {"free_model.make_block_paver": "reduction.paver"}


class Tracer:
    """Keeps spans in memory; ``wrap`` is the make_wrapper for ``patched``."""

    def __init__(self):
        self.spans = []
        self.op_id = -1
        self._stack = []

    def wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tag, callback = TAGS.get(name), CALLBACK_SPANS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if tag is not None:
                    span[5] = tag(args, kwargs)
            return self.wrap(result, callback) if callback else result

        return wrapper

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], s[1], s[2], s[3], s[4], s[5]] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start_s", "end_s", "parent", "op_id", "tag"],
                       "names": names, "spans": rows}, fh)


def self_times(spans) -> list:
    """Duration of each span minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s[1]
        for j in sorted(kids, key=lambda j: spans[j][1]):
            lo, hi = max(spans[j][1], reach), min(spans[j][2], s[2])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s[2] - s[1]) - covered)
    return out


def _k_class(k):
    for label, lo, hi in K_CLASSES:
        if k >= lo and (hi is None or k <= hi):
            return label
    raise ValueError(f"block size {k} fits no class")


def _add(m, key, value):
    m[key] = m.get(key, 0.0) + value


def layer_metrics(spans, ops_per_pass: int, n_passes: int) -> list:
    """Per-layer figures of each traced pass, from the spans it recorded.

    Op ids count up from 0 across passes; returns one dict per pass.
    """
    selfs = self_times(spans)
    zero = {f"finite_vn.op_norm.{kind}.{label}": 0.0
            for label, _, _ in K_CLASSES for kind in ("calls", "self_ms")}
    zero.update({f"paving.pave_search.{kind}.{s}": 0.0
                 for s in STRATEGIES for kind in ("ms", "norm_calls")})
    per_pass = [dict(zero) for _ in range(n_passes)]

    root = list(range(len(spans)))  # the span the benchmark itself called
    for i, s in enumerate(spans):
        name, parent = s[0], s[3]
        if parent >= 0:
            root[i] = root[parent]
        top = spans[root[i]]
        m = per_pass[s[4] // ops_per_pass]
        ms = (s[2] - s[1]) * 1e3
        if name == "finite_vn.op_norm":
            k = s[5]
            label = _k_class(k)
            _add(m, f"finite_vn.op_norm.calls.{label}", 1)
            _add(m, f"finite_vn.op_norm.self_ms.{label}", selfs[i] * 1e3)
            _add(m, "finite_vn.op_norm.gflop_computed", SVD_FLOPS_PER_K3 * k ** 3 / 1e9)
            if top[0] == "paving.pave_search":
                _add(m, f"paving.pave_search.norm_calls.{top[5]}", 1)
        elif name == "paving.pave_search" and parent < 0:
            _add(m, f"paving.pave_search.ms.{s[5]}", ms)
        elif name == "paving.pave_search" and top[0] == "cli.main":
            _add(m, "cli.overhead_ms", -ms)
        elif name == "cli.main":
            _add(m, "cli.main.ms", ms)
            _add(m, "cli.overhead_ms", ms)
        if name in SPAN_TOTALS:
            _add(m, f"{name}.ms", ms)
        if name in SPAN_CALLS:
            _add(m, f"{name}.calls", 1)
    return per_pass

