"""Benchmark of pavlab: one workload, one seed, one run.

    python3 perfbench/run.py --workload search --seed 3 --seconds 20 --trace 0

runs from the root of a checkout and prints a table of every metric with
its unit, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.

    python3 perfbench/run.py --check-digest [--workload W]
    python3 perfbench/run.py --write-digest

run one pass at each seed stored in perfbench/digest.json and compare
every op's quality fields with the stored ones exactly, naming each op
that differs (exit 1), or store them anew.

BLAS runs on one thread and PAVLAB_THREADS is 1, both pinned here before
numpy is imported, so quality fields repeat bit for bit.  Two BLAS threads
repeat bit for bit as well, but on a two-core machine shared with other
work they made pass times less steady from run to run than one thread.
Everything the run writes goes under .perfbench_out/ in the checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BLAS_THREADS = 1
IMPORT_REPEATS = 3
WORKLOAD_NAMES = ("search", "reduce", "oracle", "indep")


def pin_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PAVLAB_THREADS"] = "1"


def import_seconds() -> float:
    """Median wall time of a fresh interpreter importing pavlab and the benchmark."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE.parent / "src"), str(HERE)]))
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import pb_bench"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def parse(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--check-digest", action="store_true")
    mode.add_argument("--write-digest", action="store_true")
    args = p.parse_args(argv)
    if not (args.check_digest or args.write_digest):
        missing = [f"--{k}" for k in ("workload", "seed", "seconds", "trace")
                   if getattr(args, k) is None]
        if missing:
            p.error("a run needs " + ", ".join(missing))
        if args.seconds <= 0:
            p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse(argv)
    pin_threads()
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    try:
        import pb_bench
        import pb_report
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.check_digest or args.write_digest:
        names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
        return pb_report.digest_mode(names, write=args.write_digest)
    rep = pb_bench.run(args.workload, args.seed, args.seconds, bool(args.trace), import_seconds())
    result = pb_report.emit(rep)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
