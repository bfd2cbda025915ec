"""Printing a run's report, and the stored quality digest.

The digest (perfbench/digest.json) holds, for a few seeds per workload,
the quality fields of every op of one pass: block counts, ratios, alphas,
measured norms and sha256 hashes of assignments.  Those fields are
deterministic, so a change that alters any of them must say why.
"""

import json
import shutil
import tempfile
from pathlib import Path

import pb_bench
import pb_workloads


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def _select(rep: dict, declared: list, computed: dict) -> dict:
    """The declared metrics, in BENCHMARK.json order, with their declared units.

    A per-layer metric the run did not reach (a layer the workload never
    calls) reads 0.
    """
    out = {}
    for m in declared:
        value = computed.get(m["name"], (0.0, m["unit"]) if rep["trace"] else None)
        if value is None:
            raise KeyError(f"end-to-end metric {m['name']} was not measured")
        v, unit = value
        if unit != m["unit"]:
            raise ValueError(f"{m['name']}: measured in {unit}, declared in {m['unit']}")
        out[m["name"]] = {"value": float(v), "unit": unit}
    return out


def emit(rep: dict) -> dict:
    """Print the run as a table; return the result object for the last line."""
    spec = pb_bench.spec()
    env = rep["environment"]
    print(f"# perfbench workload={rep['workload']} seed={rep['seed']} seconds={rep['seconds']:g} "
          f"trace={int(rep['trace'])} passes={rep['passes']} input_sets={rep['input_sets']}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# {'op':<20} {'median_ms':>11}  quality")
    for name, ms in rep["op_ms"].items():
        q = " ".join(f"{k}={'/'.join(map(_fmt, v))}" for k, v in _per_set(rep, name).items()
                     if not k.endswith("sha256"))
        print(f"# {name:<20} {ms:>11.3f}  {q}")
    t = rep["tail"]
    print(f"# {'end-to-end metric':<20} {'value':>11}  unit")
    for name, (v, unit) in rep["end_to_end"].items():
        note = ""
        pr = rep["probe_ms"]
        if name == "op_tail_ms":
            note = f"  (p{t['percentile']:.1f} of {t['samples']} op samples, {t['beyond']:g} beyond)"
        elif name == "batch_rel":
            note = (f"  (batch_s over the mean of {pr['count']} probes, {pr['mean']:.3f} ms; "
                    f"median probe {pr['median']:.3f} ms)")
        elif name == "setup_s":
            parts = rep["setup_parts"]
            note = (f"  (import {parts['import_s']:.3f} s + median of set-ups "
                    f"{' '.join(f'{t:.3f}' for t in parts['repeated_s'])})")
        elif name == "batch_s":
            note = (f"  (mean over input sets of {rep['passes']} passes; "
                    f"median pass {rep['batch_median_s']:.4g} s)")
        elif name == "fail_frac":
            note = f"  ({rep['failed']} of {rep['attempted']} ops)"
        print(f"# {name:<20} {_fmt(v):>11}  {unit}{note}")
    _print_arc_vs_roots(rep)
    print(f"# digest: {digest_verdict(rep['workload'], rep['seed'], rep['digest'], partial=True)}")
    for problem in rep["problems"]:
        print(f"# failed op {problem}")
    if rep["trace"]:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print(f"# {'per-layer metric':<52} {'value':>12}  unit")
        for name, v in rep["per_layer"].items():
            print(f"# {name:<52} {_fmt(v):>12}  {units.get(name, '?')}")
        computed = {k: (v, units.get(k)) for k, v in rep["per_layer"].items()}
        metrics = _select(rep, spec["per_layer"], computed)
    else:
        metrics = _select(rep, spec["end_to_end"], rep["end_to_end"])
    return {"correct": rep["correct"], "attempted": rep["attempted"],
            "failed": rep["failed"], "metrics": metrics}


def _per_set(rep: dict, name: str) -> dict:
    """One op's quality fields over the input sets: field -> [values]."""
    out = {}
    for k in range(rep["input_sets"]):
        for key, v in rep["digest"].get(f"{name}@{k}", {}).items():
            out.setdefault(key, []).append(v)
    return out


def _print_arc_vs_roots(rep: dict) -> None:
    """arc against roots_of_unity: same inputs, same budget, per dim."""
    for name in rep["op_ms"]:
        if name.startswith("arc/"):
            dim = name.split("/", 1)[1]
            arc, roots = _per_set(rep, name), _per_set(rep, f"roots_of_unity/{dim}")
            print(f"# arc vs roots_of_unity {dim}: blocks {arc['effective_blocks']} vs "
                  f"{roots['effective_blocks']}, median ms {rep['op_ms'][name]:.3f} vs "
                  f"{rep['op_ms'][f'roots_of_unity/{dim}']:.3f}")


# ---------------------------------------------------------------------------
# digest
# ---------------------------------------------------------------------------

def load_digest() -> dict:
    if not pb_bench.DIGEST_PATH.exists():
        return {}
    return json.loads(pb_bench.DIGEST_PATH.read_text())


def differences(stored: dict, current: dict) -> list:
    """One line per op whose quality fields differ."""
    out = []
    for op in sorted(set(stored) | set(current)):
        a, b = stored.get(op), current.get(op)
        if a is None or b is None:
            out.append(f"{op}: {'new op' if a is None else 'op missing'}")
            continue
        fields = [f"{k} {a.get(k)!r} -> {b.get(k)!r}" for k in sorted(set(a) | set(b))
                  if a.get(k) != b.get(k)]
        if fields:
            out.append(f"{op}: " + ", ".join(fields))
    return out


def digest_verdict(workload: str, seed: int, current: dict, partial: bool = False) -> str:
    """Compare quality fields with the stored entry for the seed; with
    ``partial``, only the ops present in ``current`` (those a run reached)."""
    stored = load_digest().get("workloads", {}).get(workload, {}).get(str(seed))
    if stored is None:
        return f"no stored entry for seed {seed}"
    if partial:
        stored = {k: v for k, v in stored.items() if k in current}
    diff = differences(stored, current)
    return "matches the stored entry" if not diff else "differs: " + "; ".join(diff)


def digest_of(workload: str, seed: int) -> dict:
    """Quality fields of one pass over each input set, as a plain run
    records them: norm errors are checked on the first set only."""
    wl = pb_workloads.WORKLOADS[workload]
    pb_bench.OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"digest-{workload}-", dir=pb_bench.OUT_DIR))
    digest = {}
    try:
        for k in range(pb_bench.INPUT_SETS):
            ops = wl.build(pb_bench.input_seed(seed, k), False, workdir)
            if wl.checks_norms and k == 0:
                p, errors = pb_bench.norm_check_pass(ops)
                pb_bench.attach_norm_errors(p, errors)
            else:
                p = pb_bench.Pass(ops)
            digest.update({f"{op.name}@{k}": out.quality for op, out in zip(ops, p.outcomes)})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return digest


def digest_mode(workloads: list, write: bool) -> int:
    """Check the stored digest of each workload (exit status 1 if any op
    differs), or store it anew."""
    stored = load_digest()
    entries = stored.get("workloads", {})
    bad = 0
    for w in workloads:
        current = {str(seed): digest_of(w, seed) for seed in pb_bench.DIGEST_SEEDS}
        if write:
            entries[w] = current
        for seed, digest in current.items():
            verdict = (f"stored {len(digest)} ops" if write
                       else digest_verdict(w, int(seed), digest))
            bad += not write and verdict != "matches the stored entry"
            print(f"{w} seed {seed}: {verdict}")
    if write:
        stored = {"environment": pb_bench.environment(), "seeds": list(pb_bench.DIGEST_SEEDS),
                  "workloads": entries}
        pb_bench.DIGEST_PATH.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 1 if bad else 0
