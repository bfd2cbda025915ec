"""Reproducible experiment runner.

Every operation is exposed as a subcommand; runs emit JSON or CSV
artifacts plus a manifest carrying the full configuration, library
versions, and seeds.  Identical configurations produce byte-identical
artifacts except for elapsed_ms fields, which the compare mode ignores.

Each subcommand takes only the flags that it reads, so a flag it would
ignore is a usage error.  One table, ``FLAGS``, gives every flag its spec
and default; the manifest's config records the subcommand and each of its
flags, with its value or default.

Exit codes: 0 success, 1 compared artifacts differ, 2 usage or
precondition failure (bad flag, bad value, unreadable input), 3
numerical-invariant violation detected during the run.
"""

import argparse
import json
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .finite_vn import MasaFrame
from .free_model import (
    EnsembleSpec,
    calibrate,
    conjugation_paving_experiment,
    equal_block_partition,
    kesten_norm_oracle,
    kesten_values,
    make_block_paver,
    power_conjugation_growth,
    projection_paving_experiment,
    sample,
)
from .independence import build_independent_partition, check_cor37
from .matrix_io import load_matrix
from .paving import (
    EXHAUSTIVE_DIM_LIMIT,
    STRATEGIES,
    compress,
    dixmier_average,
    pave_search,
    paving_number_exact,
    roots_of_unity_tuple,
)
from .reduction import reduce_and_pave


def _manifest(args, seeds) -> dict:
    return {
        "config": vars(args),
        "versions": {
            "pavlab": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "seeds": list(seeds),
    }


def _seeds(args) -> list:
    if args.seed_count < 1:
        raise ValueError("seed_count must be >= 1")
    return list(range(args.seed, args.seed + args.seed_count))


def strip_timing(obj):
    """Drop elapsed_ms fields recursively; used by artifact comparison."""
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def _csv_text(header, rows) -> str:
    lines = [header] + [[repr(v) if isinstance(v, float) else str(v) for v in row]
                        for row in rows]
    return "".join(",".join(line) + "\n" for line in lines)


def _emit(args, payload: dict, seeds, csv=None) -> None:
    """Write the artifact to --out with its manifest beside it, or to stdout
    with the manifest inside a JSON payload; CSV on stdout keeps its
    manifest on stderr.  Only curve and free take --format, and both pass
    csv."""
    manifest = _manifest(args, seeds)
    manifest_text = json.dumps(manifest, indent=2) + "\n"
    as_csv = csv and args.format == "csv"
    if as_csv:
        text = _csv_text(*csv)
    elif args.output:
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = json.dumps({**payload, "manifest": manifest}, indent=2) + "\n"
    if args.output:
        Path(args.output).write_text(text)
        Path(args.output + ".manifest.json").write_text(manifest_text)
    else:
        sys.stdout.write(text)
        if as_csv:
            sys.stderr.write(manifest_text)


def _input_matrix(args):
    if args.input:
        return load_matrix(args.input).entries
    return sample(EnsembleSpec("zero_diag_haar", args.dim, args.seed)).entries


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_pave(args) -> int:
    x = _input_matrix(args)
    part, report = pave_search(x, args.eps, args.strategy, args.budget, args.seed)
    payload = {
        "report": report.to_json_dict(),
        "assignment": part.assignment.tolist(),
    }
    _emit(args, payload, [args.seed])
    return 0


def cmd_pave_exact(args) -> int:
    x = _input_matrix(args)
    n = paving_number_exact(x, args.eps, MasaFrame.identity(x.shape[0]))
    payload = {"eps": args.eps, "paving_number": n, "dim": int(x.shape[0])}
    _emit(args, payload, [args.seed])
    return 0


def cmd_curve(args) -> int:
    """Empirical paving-size curve with the ensemble paver (free strategy)."""
    eps_grid = args.eps_grid
    x = _input_matrix(args)
    dim = int(x.shape[0])
    points = []
    for eps in eps_grid:
        part, report = pave_search(x, eps, "roots_of_unity", args.budget, args.seed)
        points.append({"eps": eps, "n": part.effective_blocks, "ratio": report.ratio})
    c = points[0]["n"] * eps_grid[0] ** 6
    for p in points:
        p["envelope"] = c * p["eps"] ** -6
    # a line through fewer than two distinct eps has no slope: JSON null
    slope = None
    if len(set(eps_grid)) > 1:
        logs = np.log([p["n"] for p in points])
        exps = np.log([1 / p["eps"] for p in points])
        slope = float(np.polyfit(exps, logs, 1)[0])
    payload = {
        "dim": dim,
        "seed": args.seed,
        "points": points,
        "envelope_constant": c,
        "fitted_exponent": slope,
    }
    rows = [(p["eps"], p["n"], dim, args.seed, p["ratio"], p["envelope"]) for p in points]
    _emit(args, payload, [args.seed], csv=(("eps", "n", "dim", "seed", "ratio", "envelope"), rows))
    return 0


def cmd_indep(args) -> int:
    x = _input_matrix(args)
    frame = MasaFrame.identity(x.shape[0])
    part, report = build_independent_partition([x], [], args.levels, args.alpha, frame,
                                               args.budget, args.seed)
    cert = check_cor37(part, [x])
    payload = {
        "levels": args.levels,
        "blocks": part.n_blocks,
        "report": report.to_json_dict(),
        "certificate": cert.to_json_dict(),
    }
    _emit(args, payload, [args.seed])
    return 0 if cert.all_hold else 3


def cmd_free(args) -> int:
    seeds = _seeds(args)
    op = args.op
    rows = []
    lines = []
    if op == "conj":
        reports = [conjugation_paving_experiment(args.n, args.dim, s) for s in seeds]
        for rep in reports:
            lines.append(rep.to_json_dict())
            rows.append(("conj", rep.n, rep.dim, rep.seed, rep.measured_norm,
                         rep.paper_bound, rep.slack))
    elif op == "proj":
        reports = [projection_paving_experiment(args.t, args.n, args.dim, s) for s in seeds]
        for block, half in reports:
            lines.append({"blocks": block.to_json_dict(), "half_split": half.to_json_dict()})
            rows.append(("proj_blocks", block.n, block.dim, block.seed,
                         block.measured_norm, block.paper_bound, block.slack))
            rows.append(("proj_half", half.n, half.dim, half.seed,
                         half.measured_norm, half.paper_bound, half.slack))
    elif op == "kesten":
        m = args.m
        vals = [kesten_norm_oracle(m, args.dim, s) for s in seeds]
        paper, free = kesten_values(m)
        for s, v in zip(seeds, vals):
            lines.append({"m": m, "dim": args.dim, "seed": s, "measured": v,
                          "paper_value": paper, "free_value": free})
            rows.append(("kesten", m, args.dim, s, v, paper, v - paper))
            rows.append(("kesten_free", m, args.dim, s, v, free, v - free))
    elif op == "growth":
        reports = [power_conjugation_growth(args.dim, args.n_max, s) for s in seeds]
        for rep in reports:
            lines.append(rep.to_json_dict())
            for i, g in enumerate(rep.values, start=1):
                ref = float(np.sqrt(i))
                rows.append(("growth", i, rep.dim, rep.seed, g, ref, g - ref))
    payload = {"op": op, "lines": lines}
    header = ("param", "n", "dim", "seed", "measured", "bound", "slack")
    _emit(args, payload, seeds, csv=(header, rows))
    return 0


def cmd_reduce(args) -> int:
    x = _input_matrix(args)
    # reduce_and_pave scales each component to unit norm itself
    x = (x + x.conj().T) / 2
    part, trace, report = reduce_and_pave(x, args.eps, make_block_paver(), seed=args.seed)
    payload = {
        "report": report.to_json_dict(),
        "trace": trace.to_json_dict(),
        "blocks": part.n_blocks,
    }
    _emit(args, payload, [args.seed])
    return 0 if trace.all_ok else 3


def cmd_dixmier(args) -> int:
    """Averaging over the W-tuple must reproduce the block compression."""
    x = _input_matrix(args)
    dim = x.shape[0]
    part = equal_block_partition(dim, args.n, args.seed)
    tw = dixmier_average(x, roots_of_unity_tuple(part), part.frame)
    comp = compress(x, part)
    dev = float(np.abs(tw.entries - comp.entries).max())
    payload = {"n": args.n, "dim": dim, "seed": args.seed, "max_deviation": dev}
    _emit(args, payload, [args.seed])
    return 0 if dev <= 1e-12 else 3


def cmd_calibrate(args) -> int:
    seeds = _seeds(args)
    manifest = calibrate(seeds, args.dim_conj, args.dim_proj, args.dim_kesten)
    payload = {"calibration": manifest}
    _emit(args, payload, seeds)
    return 0


def cmd_compare(args) -> int:
    """Byte comparison of two JSON artifacts modulo timing fields."""
    da = strip_timing(json.loads(Path(args.a).read_text()))
    db = strip_timing(json.loads(Path(args.b).read_text()))
    same = json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)
    sys.stdout.write(json.dumps({"match": same}) + "\n")
    return 0 if same else 1


# ---------------------------------------------------------------------------

# Every flag once, with its argparse spec and default; a subcommand's
# manifest config records its flags in this order.
FLAGS = {
    "dim": dict(type=int, default=64),
    "eps": dict(type=float, default=0.5),
    "n": dict(type=int, default=4),
    "seed": dict(type=int, default=0),
    "seeds": dict(dest="seed_count", type=int, default=1,
                  help="sweep width: seeds seed..seed+count-1"),
    "strategy": dict(choices=STRATEGIES, default="anneal"),
    "budget": dict(type=int, default=10_000),
    "input": dict(help="matrix file (JSON or PVLB binary)"),
    "out": dict(dest="output"),
    "format": dict(choices=("json", "csv"), default="json"),
    "eps-grid": dict(type=float, nargs="+", default=(0.6, 0.5, 0.4, 0.3)),
    "levels": dict(type=int, default=4),
    "alpha": dict(type=float, default=0.01),
    "op": dict(choices=("conj", "proj", "kesten", "growth"), default="conj"),
    "t": dict(type=float, default=0.5),
    "m": dict(type=int, default=2),
    "n-max": dict(type=int, default=16),
    "dim-conj": dict(type=int, default=1024),
    "dim-proj": dict(type=int, default=2048),
    "dim-kesten": dict(type=int, default=2048),
}

# subcommand: (help, the flags its cmd_* reads in FLAGS order, its own defaults)
SUBCOMMANDS = {
    "pave": ("search for a paving partition", "dim eps seed strategy budget input out", {}),
    "pave-exact": (f"exhaustive paving number (dim <= {EXHAUSTIVE_DIM_LIMIT})",
                   "dim eps seed input out", {"dim": EXHAUSTIVE_DIM_LIMIT}),
    "curve": ("empirical paving-size curve over an eps grid",
              "dim seed budget input out format eps-grid", {}),
    "indep": ("build an independent partition and certify it",
              "dim seed budget input out levels alpha", {}),
    "free": ("random-matrix freeness experiments",
             "dim n seed seeds out format op t m n-max", {}),
    "reduce": ("reduction pipeline on a self-adjoint element", "dim eps seed input out", {}),
    "dixmier": ("W-tuple averaging identity", "dim n seed input out", {}),
    "calibrate": ("calibration run for the free-model tolerances",
                  "seed seeds out dim-conj dim-proj dim-kesten", {}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pavlab",
                                     description="matrix paving experiments")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (text, flags, defaults) in SUBCOMMANDS.items():
        # no abbreviations: "curve --eps" must not be read as "--eps-grid"
        p = sub.add_parser(name, help=text, allow_abbrev=False)
        for flag in flags.split():
            p.add_argument(f"--{flag}", **FLAGS[flag])
        p.set_defaults(**defaults)
    comp = sub.add_parser("compare", help="compare artifacts ignoring timing")
    comp.add_argument("a")
    comp.add_argument("b")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up at call time, so a wrapper bound on the module attribute runs
        return globals()["cmd_" + args.subcommand.replace("-", "_")](args)
    except (ValueError, OSError) as exc:
        sys.stdout.write(json.dumps({"error": str(exc), "code": 2}) + "\n")
        return 2
    except AssertionError as exc:
        sys.stdout.write(json.dumps({"error": str(exc), "code": 3}) + "\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
