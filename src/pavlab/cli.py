"""Reproducible experiment runner.

Every operation is exposed as a subcommand; runs emit JSON or CSV
artifacts plus a manifest carrying the full configuration, library
versions, and seeds.  Identical configurations produce byte-identical
artifacts except for elapsed_ms fields, which the compare mode ignores.

Each subcommand takes only the shared flags (``--dim --eps --n --seed
--seeds --budget --input --out --format --strategy``) that it reads, so a
flag it would ignore is a usage error.  The manifest still records every
``RunConfig`` field, with its default where the subcommand takes no flag.

Exit codes: 0 success, 1 compared artifacts differ, 2 usage or
precondition failure (bad flag, bad value, unreadable input), 3
numerical-invariant violation detected during the run.
"""

import argparse
import json
import platform
import sys
from dataclasses import asdict, dataclass, fields
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

DEFAULT_EPS_GRID = (0.6, 0.5, 0.4, 0.3)


@dataclass
class RunConfig:
    subcommand: str
    dim: int = 64
    eps: float = 0.5
    n: int = 4
    seed: int = 0
    seed_count: int = 1
    strategy: str = "anneal"
    budget: int = 10_000
    input: str | None = None
    output: str | None = None
    format: str = "json"

    def __post_init__(self):
        if self.seed_count < 1:
            raise ValueError("seed_count must be >= 1")


def _manifest(cfg: RunConfig, seeds) -> dict:
    return {
        "config": asdict(cfg),
        "versions": {
            "pavlab": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "seeds": list(seeds),
    }


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


def _emit(cfg: RunConfig, payload: dict, seeds, csv=None) -> None:
    """Write the artifact to --out with its manifest beside it, or to stdout
    with the manifest inside a JSON payload; only curve and free take
    --format, and both pass csv."""
    manifest = _manifest(cfg, seeds)
    if cfg.format == "csv":
        text = _csv_text(*csv)
    elif cfg.output:
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = json.dumps({**payload, "manifest": manifest}, indent=2) + "\n"
    if cfg.output:
        Path(cfg.output).write_text(text)
        Path(cfg.output + ".manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    else:
        sys.stdout.write(text)


def _input_matrix(cfg: RunConfig):
    if cfg.input:
        return load_matrix(cfg.input).entries
    return sample(EnsembleSpec("zero_diag_haar", cfg.dim, cfg.seed)).entries


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_pave(cfg: RunConfig) -> int:
    x = _input_matrix(cfg)
    part, report = pave_search(x, cfg.eps, cfg.strategy, cfg.budget, cfg.seed)
    payload = {
        "report": report.to_json_dict(),
        "assignment": part.assignment.tolist(),
    }
    _emit(cfg, payload, [cfg.seed])
    return 0


def cmd_pave_exact(cfg: RunConfig) -> int:
    x = _input_matrix(cfg)
    n = paving_number_exact(x, cfg.eps, MasaFrame.identity(x.shape[0]))
    payload = {"eps": cfg.eps, "paving_number": n, "dim": int(x.shape[0])}
    _emit(cfg, payload, [cfg.seed])
    return 0


def cmd_curve(cfg: RunConfig, eps_grid) -> int:
    """Empirical paving-size curve with the ensemble paver (free strategy)."""
    eps_grid = tuple(eps_grid) if eps_grid else DEFAULT_EPS_GRID
    x = _input_matrix(cfg)
    dim = int(x.shape[0])
    points = []
    for eps in eps_grid:
        part, report = pave_search(x, eps, "roots_of_unity", cfg.budget, cfg.seed)
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
        "seed": cfg.seed,
        "points": points,
        "envelope_constant": c,
        "fitted_exponent": slope,
    }
    rows = [(p["eps"], p["n"], dim, cfg.seed, p["ratio"], p["envelope"]) for p in points]
    _emit(cfg, payload, [cfg.seed], csv=(("eps", "n", "dim", "seed", "ratio", "envelope"), rows))
    return 0


def cmd_indep(cfg: RunConfig, levels: int, alpha: float) -> int:
    x = _input_matrix(cfg)
    frame = MasaFrame.identity(x.shape[0])
    part, report = build_independent_partition([x], [], levels, alpha, frame,
                                               cfg.budget, cfg.seed)
    cert = check_cor37(part, [x])
    payload = {
        "levels": levels,
        "blocks": part.n_blocks,
        "report": report.to_json_dict(),
        "certificate": cert.to_json_dict(),
    }
    _emit(cfg, payload, [cfg.seed])
    return 0 if cert.all_hold else 3


def cmd_free(cfg: RunConfig, op: str, t: float, m: int, n_max: int) -> int:
    seeds = list(range(cfg.seed, cfg.seed + cfg.seed_count))
    rows = []
    lines = []
    if op == "conj":
        reports = [conjugation_paving_experiment(cfg.n, cfg.dim, s) for s in seeds]
        for rep in reports:
            lines.append(rep.to_json_dict())
            rows.append(("conj", rep.n, rep.dim, rep.seed, rep.measured_norm,
                         rep.paper_bound, rep.slack))
    elif op == "proj":
        reports = [projection_paving_experiment(t, cfg.n, cfg.dim, s) for s in seeds]
        for block, half in reports:
            lines.append({"blocks": block.to_json_dict(), "half_split": half.to_json_dict()})
            rows.append(("proj_blocks", block.n, block.dim, block.seed,
                         block.measured_norm, block.paper_bound, block.slack))
            rows.append(("proj_half", half.n, half.dim, half.seed,
                         half.measured_norm, half.paper_bound, half.slack))
    elif op == "kesten":
        vals = [kesten_norm_oracle(m, cfg.dim, s) for s in seeds]
        for s, v in zip(seeds, vals):
            paper = float(np.sqrt(m))
            free = float(2 * np.sqrt(m - 1)) if m > 1 else 1.0
            lines.append({"m": m, "dim": cfg.dim, "seed": s, "measured": v,
                          "paper_value": paper, "free_value": free})
            rows.append(("kesten", m, cfg.dim, s, v, paper, v - paper))
            rows.append(("kesten_free", m, cfg.dim, s, v, free, v - free))
    elif op == "growth":
        reports = [power_conjugation_growth(cfg.dim, n_max, s) for s in seeds]
        for rep in reports:
            lines.append(rep.to_json_dict())
            for i, g in enumerate(rep.values, start=1):
                ref = float(np.sqrt(i))
                rows.append(("growth", i, rep.dim, rep.seed, g, ref, g - ref))
    else:
        raise ValueError(f"unknown free op {op!r}")
    payload = {"op": op, "lines": lines}
    header = ("param", "n", "dim", "seed", "measured", "bound", "slack")
    _emit(cfg, payload, seeds, csv=(header, rows))
    return 0


def cmd_reduce(cfg: RunConfig) -> int:
    x = _input_matrix(cfg)
    # reduce_and_pave scales each component to unit norm itself
    x = (x + x.conj().T) / 2
    part, trace, report = reduce_and_pave(x, cfg.eps, make_block_paver(), seed=cfg.seed)
    payload = {
        "report": report.to_json_dict(),
        "trace": trace.to_json_dict(),
        "blocks": part.n_blocks,
    }
    _emit(cfg, payload, [cfg.seed])
    return 0 if trace.all_ok else 3


def cmd_dixmier(cfg: RunConfig) -> int:
    """Averaging over the W-tuple must reproduce the block compression."""
    x = _input_matrix(cfg)
    dim = x.shape[0]
    part = equal_block_partition(dim, cfg.n, cfg.seed)
    tw = dixmier_average(x, roots_of_unity_tuple(part), part.frame)
    comp = compress(x, part)
    dev = float(np.abs(tw.entries - comp.entries).max())
    payload = {"n": cfg.n, "dim": dim, "seed": cfg.seed, "max_deviation": dev}
    _emit(cfg, payload, [cfg.seed])
    return 0 if dev <= 1e-12 else 3


def cmd_calibrate(cfg: RunConfig, dims: dict) -> int:
    seeds = list(range(cfg.seed, cfg.seed + cfg.seed_count))
    manifest = calibrate(seeds, **dims)
    payload = {"calibration": manifest}
    _emit(cfg, payload, seeds)
    return 0


def cmd_compare(a: str, b: str) -> int:
    """Byte comparison of two JSON artifacts modulo timing fields."""
    da = strip_timing(json.loads(Path(a).read_text()))
    db = strip_timing(json.loads(Path(b).read_text()))
    same = json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)
    sys.stdout.write(json.dumps({"match": same}) + "\n")
    return 0 if same else 1


# ---------------------------------------------------------------------------

# The shared flags; their defaults live only in RunConfig, so a flag left
# off the command line is absent from the parsed namespace.
SHARED_FLAGS = {
    "dim": dict(type=int),
    "eps": dict(type=float),
    "n": dict(type=int),
    "seed": dict(type=int),
    "seeds": dict(dest="seed_count", type=int, help="sweep width: seeds seed..seed+count-1"),
    "budget": dict(type=int),
    "input": dict(help="matrix file (JSON or PVLB binary)"),
    "out": dict(dest="output"),
    "format": dict(choices=("json", "csv")),
    "strategy": dict(choices=STRATEGIES),
}

# subcommand: (help, the shared flags its cmd_* reads)
SUBCOMMANDS = {
    "pave": ("search for a paving partition", "dim eps seed budget input out strategy"),
    "pave-exact": (f"exhaustive paving number (dim <= {EXHAUSTIVE_DIM_LIMIT})",
                   "dim eps seed input out"),
    "curve": ("empirical paving-size curve over an eps grid",
              "dim seed budget input out format"),
    "indep": ("build an independent partition and certify it", "dim seed budget input out"),
    "free": ("random-matrix freeness experiments", "dim n seed seeds out format"),
    "reduce": ("reduction pipeline on a self-adjoint element", "dim eps seed input out"),
    "dixmier": ("W-tuple averaging identity", "dim n seed input out"),
    "calibrate": ("calibration run for the free-model tolerances", "seed seeds out"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pavlab",
                                     description="matrix paving experiments")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # no abbreviations: "curve --eps" must not be read as "--eps-grid"
    subs = {}
    for name, (text, flags) in SUBCOMMANDS.items():
        p = subs[name] = sub.add_parser(name, help=text, allow_abbrev=False)
        for flag in flags.split():
            p.add_argument(f"--{flag}", default=argparse.SUPPRESS, **SHARED_FLAGS[flag])
    subs["curve"].add_argument("--eps-grid", type=float, nargs="+", default=None)
    subs["indep"].add_argument("--levels", type=int, default=4)
    subs["indep"].add_argument("--alpha", type=float, default=0.01)
    subs["free"].add_argument("--op", choices=("conj", "proj", "kesten", "growth"),
                              default="conj")
    subs["free"].add_argument("--t", type=float, default=0.5)
    subs["free"].add_argument("--m", type=int, default=2)
    subs["free"].add_argument("--n-max", type=int, default=16)
    subs["calibrate"].add_argument("--dim-conj", type=int, default=1024)
    subs["calibrate"].add_argument("--dim-proj", type=int, default=2048)
    subs["calibrate"].add_argument("--dim-kesten", type=int, default=2048)
    comp = sub.add_parser("compare", help="compare artifacts ignoring timing")
    comp.add_argument("a")
    comp.add_argument("b")
    return parser


def _config_from(args) -> RunConfig:
    return RunConfig(**{f.name: getattr(args, f.name)
                        for f in fields(RunConfig) if hasattr(args, f.name)})


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.subcommand == "compare":
            return cmd_compare(args.a, args.b)
        cfg = _config_from(args)
        if args.subcommand == "pave":
            return cmd_pave(cfg)
        if args.subcommand == "pave-exact":
            return cmd_pave_exact(cfg)
        if args.subcommand == "curve":
            return cmd_curve(cfg, args.eps_grid)
        if args.subcommand == "indep":
            return cmd_indep(cfg, args.levels, args.alpha)
        if args.subcommand == "free":
            return cmd_free(cfg, args.op, args.t, args.m, args.n_max)
        if args.subcommand == "reduce":
            return cmd_reduce(cfg)
        if args.subcommand == "dixmier":
            return cmd_dixmier(cfg)
        if args.subcommand == "calibrate":
            dims = {"dim_conj": args.dim_conj, "dim_proj": args.dim_proj,
                    "dim_kesten": args.dim_kesten}
            return cmd_calibrate(cfg, dims)
        raise ValueError(f"unknown subcommand {args.subcommand!r}")
    except (ValueError, OSError) as exc:
        sys.stdout.write(json.dumps({"error": str(exc), "code": 2}) + "\n")
        return 2
    except AssertionError as exc:
        sys.stdout.write(json.dumps({"error": str(exc), "code": 3}) + "\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
