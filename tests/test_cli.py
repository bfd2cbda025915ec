"""CLI subcommands, artifacts, manifests, and exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pavlab import TracedMatrix, cli, free_model, op_norm, paving, reduction
from pavlab.cli import main, strip_timing
from pavlab.free_model import EnsembleSpec, sample
from pavlab.matrix_io import load_matrix, save_json
from pavlab.paving import pave_search


FLIP = TracedMatrix(np.array([[0, 1], [1, 0]], dtype=complex))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_pave_exact_flip(tmp_path, capsys):
    p = tmp_path / "flip.json"
    save_json(FLIP, p)
    code, out = run(capsys, "pave-exact", "--input", str(p), "--eps", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["paving_number"] == 2


def test_pave_writes_artifact_and_manifest(tmp_path, capsys):
    out_path = tmp_path / "pave.json"
    code, _ = run(capsys, "pave", "--dim", "12", "--eps", "0.5", "--strategy", "anneal",
                  "--budget", "300", "--seed", "3", "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["report"]["ratio"] <= 0.5
    manifest = json.loads((tmp_path / "pave.json.manifest.json").read_text())
    assert manifest["config"]["subcommand"] == "pave"
    assert manifest["seeds"] == [3]
    assert "pavlab" in manifest["versions"]


def test_unknown_strategy_exit_code(capsys):
    code, out = run(capsys, "pave", "--dim", "8", "--strategy", "anneal", "--budget", "0")
    assert code == 2
    assert json.loads(out)["code"] == 2


@pytest.mark.parametrize("obj", [
    {"entries": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]},
    {"dim": 2, "entries": [[[0.0, 0.0], ["one", 0.0]], [[1.0, 0.0], [0.0, 0.0]]]},
    # a dim that is not an int was read as int(2.7) == 2 and int(True) == 1
    {"dim": 2.7, "entries": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]},
    {"dim": True, "entries": [[[0.0, 0.0]]]},
])
def test_malformed_input_exit_code(tmp_path, capsys, obj):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(obj))
    code, out = run(capsys, "pave", "--input", str(p), "--budget", "10")
    assert code == 2
    payload = json.loads(out)
    assert payload["code"] == 2 and payload["error"]


@pytest.mark.parametrize("argv", [
    ["free-proj", "--t", "0"],
    ["free-conj", "--dim", "0"],
    ["free-kesten", "--dim", "0"],
    ["free-growth", "--dim", "0"],
    ["calibrate", "--dim-conj", "8", "--dim-proj", "64", "--dim-kesten", "0"],
], ids=lambda argv: "-".join(argv[:3]))
def test_bad_parameter_exit_code(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 2
    payload = json.loads(out)
    assert payload["code"] == 2 and payload["error"]


@pytest.mark.parametrize("argv, flag", [
    (["--dim-conj", "16", "--dim-proj", "16", "--dim-kesten", "16"], "--dim-proj"),
    (["--dim-conj", "12", "--dim-proj", "64", "--dim-kesten", "16"], "--dim-conj"),
    (["--dim-conj", "0", "--dim-proj", "64", "--dim-kesten", "16"], "--dim-conj"),
])
def test_calibrate_bad_dim_names_its_flag(capsys, argv, flag):
    code, out = run(capsys, "calibrate", *argv)
    assert code == 2
    payload = json.loads(out)
    assert payload["code"] == 2 and flag in payload["error"]


def test_curve_and_indep_read_input(tmp_path, capsys):
    p = tmp_path / "x.json"
    save_json(sample(EnsembleSpec("zero_diag_haar", 12, 5)), p)
    code, out = run(capsys, "curve", "--input", str(p), "--budget", "50",
                    "--eps-grid", "0.6", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 12
    for point in payload["points"]:
        part, rep = pave_search(load_matrix(p), point["eps"], "roots_of_unity", 50, 0)
        assert (point["n"], point["ratio"]) == (part.effective_blocks, rep.ratio)
    code, out = run(capsys, "indep", "--input", str(p), "--levels", "1", "--budget", "200")
    assert code == 0
    payload = json.loads(out)
    assert payload["blocks"] == 2
    assert all(c["ok"] for c in payload["certificate"]["conditions"].values())


def test_pave_exact_guard_exit_code(capsys):
    code, out = run(capsys, "pave-exact", "--dim", "16")
    assert code == 2


def test_pave_exact_help_names_the_exhaustive_limit():
    text = " ".join(cli.build_parser().format_help().split())
    assert f"exhaustive paving number (dim <= {paving.EXHAUSTIVE_DIM_LIMIT})" in text


def test_curve_csv(tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    code, _ = run(capsys, "curve", "--dim", "32", "--seed", "1", "--budget", "50",
                  "--eps-grid", "0.6", "0.5", "--format", "csv", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "eps,n,dim,seed,ratio,envelope"
    assert len(lines) == 3
    # envelope column recomputed from the fitted constant
    first = lines[1].split(",")
    c = float(first[1]) * 0.6 ** 6
    assert float(first[5]) == pytest.approx(c * 0.6 ** -6)


def test_free_conj_csv(tmp_path, capsys):
    out_path = tmp_path / "free.csv"
    code, _ = run(capsys, "free-conj", "--n", "4", "--dim", "32",
                  "--seeds", "3", "--format", "csv", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "param,n,dim,seed,measured,bound,slack"
    assert len(lines) == 4
    assert [line.split(",")[3] for line in lines[1:]] == ["0", "1", "2"]
    bound = (np.sqrt(3) + 1) / 4
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[5]) == pytest.approx(bound)
        assert float(cells[6]) == pytest.approx(float(cells[4]) - bound, abs=1e-12)


@pytest.mark.parametrize("argv", [
    ("free-kesten", "--dim", "8"),
    ("curve", "--dim", "16", "--budget", "20", "--eps-grid", "0.6"),
])
def test_csv_on_stdout_keeps_its_manifest_on_stderr(capsys, argv):
    assert main([*argv, "--format", "csv"]) == 0
    captured = capsys.readouterr()
    rows = list(csv.reader(io.StringIO(captured.out)))
    assert len(rows) >= 2 and all(len(row) == len(rows[0]) for row in rows)
    manifest = json.loads(captured.err)
    assert list(manifest) == ["config", "versions", "seeds"]
    assert manifest["config"]["subcommand"] == argv[0]
    assert manifest["config"]["format"] == "csv"


@pytest.mark.parametrize("op", [("conj", "--n", "1"), ("growth",)])
def test_free_refuses_dim_one_without_a_warning(op):
    # a dim-1 zero-diagonal model is the zero matrix: dividing it by its norm
    # warned on stderr and failed as "SVD did not converge"
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"),
                                                       os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-m", "pavlab.cli", f"free-{op[0]}", "--dim", "1",
                          *op[1:]], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 2
    assert json.loads(out.stdout) == {"error": "dim must be >= 2", "code": 2}
    assert out.stderr == ""


def test_free_kesten_json(capsys):
    code, out = run(capsys, "free-kesten", "--m", "2", "--dim", "64", "--seeds", "2")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["lines"]) == 2
    line = payload["lines"][0]
    assert line["paper_value"] == pytest.approx(np.sqrt(2))
    assert line["free_value"] == pytest.approx(2.0)


def test_dixmier_identity(capsys):
    code, out = run(capsys, "dixmier", "--dim", "16", "--n", "4", "--seed", "2")
    assert code == 0
    assert json.loads(out)["max_deviation"] <= 1e-12


def test_indep_certificate(capsys):
    code, out = run(capsys, "indep", "--dim", "32", "--levels", "2", "--budget", "400",
                    "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["blocks"] == 4
    assert all(c["ok"] for c in payload["certificate"]["conditions"].values())


def test_reduce_subcommand(capsys):
    code, out = run(capsys, "reduce", "--dim", "16", "--eps", "0.6", "--seed", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["ratio"] <= 0.6


def test_same_config_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _ = run(capsys, "pave", "--dim", "10", "--eps", "0.4", "--budget", "200",
                      "--seed", "7", "--out", str(path))
        assert code == 0
    da = strip_timing(json.loads(a.read_text()))
    db = strip_timing(json.loads(b.read_text()))
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)
    code, out = run(capsys, "compare", str(a), str(b))
    assert code == 0
    assert json.loads(out)["match"] is True


def test_compare_detects_difference(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"x": 1, "elapsed_ms": 5}))
    b.write_text(json.dumps({"x": 2, "elapsed_ms": 9}))
    code, out = run(capsys, "compare", str(a), str(b))
    assert code == 1
    assert json.loads(out)["match"] is False


def test_calibrate_small(capsys):
    code, out = run(capsys, "calibrate", "--seeds", "2", "--dim-conj", "32",
                    "--dim-proj", "64", "--dim-kesten", "32")
    assert code == 0
    payload = json.loads(out)["calibration"]
    assert "conjugation" in payload and "kesten" in payload
    assert payload["kesten"]["2"]["free_value"] == pytest.approx(2.0)


PLAIN_TYPES = (dict, list, str, int, float, bool, type(None))


def strict_json(text: str):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


def assert_plain(value):
    assert type(value) in PLAIN_TYPES, type(value)
    if isinstance(value, dict):
        for k, v in value.items():
            assert type(k) is str
            assert_plain(v)
    elif isinstance(value, list):
        for v in value:
            assert_plain(v)


@pytest.mark.parametrize("argv", [
    ["pave", "--dim", "8", "--strategy", "exhaustive", "--eps", "0.6"],
    ["pave", "--dim", "16", "--strategy", "sign_split", "--budget", "200"],
    ["pave-exact", "--dim", "6", "--eps", "0.6"],
    ["curve", "--dim", "16", "--budget", "50", "--eps-grid", "0.6", "0.5"],
    ["indep", "--dim", "32", "--levels", "2", "--budget", "400", "--seed", "1"],
    ["free-conj", "--dim", "16", "--n", "4"],
    ["free-proj", "--dim", "15", "--n", "5", "--t", "0.2"],
    ["free-kesten", "--dim", "16"],
    ["free-growth", "--dim", "16", "--n-max", "4"],
    ["reduce", "--dim", "16", "--eps", "0.6"],
    ["dixmier", "--dim", "12", "--n", "3"],
    ["calibrate", "--seeds", "2", "--dim-conj", "16", "--dim-proj", "64", "--dim-kesten", "16"],
], ids=lambda argv: "-".join(a for a in argv[:5] if not a.startswith("-") and not a.isdigit()))
def test_out_artifact_holds_plain_json(tmp_path, capsys, monkeypatch, argv):
    payloads = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda cfg, payload, *rest, **kw:
                        payloads.append(payload) or emit(cfg, payload, *rest, **kw))
    out_path = tmp_path / "out.json"
    code, _ = run(capsys, *argv, "--out", str(out_path))
    assert code == 0
    assert_plain(payloads[0])
    assert strict_json(out_path.read_text()) == payloads[0]
    assert_plain(strict_json((tmp_path / "out.json.manifest.json").read_text()))


@pytest.mark.parametrize("grid", [["0.6"], ["0.6", "0.6"]])
def test_curve_with_one_distinct_eps_fits_no_exponent(capsys, grid):
    # a single point, or repeated ones, fix no line: the exponent is null,
    # not NaN (no JSON) and not the slope of a singular fit
    code, out = run(capsys, "curve", "--dim", "16", "--budget", "50", "--eps-grid", *grid)
    assert code == 0
    payload = strict_json(out)
    assert payload["fitted_exponent"] is None
    assert len(payload["points"]) == len(grid)


def test_reduce_takes_four_full_size_norms(capsys, monkeypatch):
    # the sample's own, the pipeline base, which also decides the degenerate
    # short circuit and scales the real component, and two in flatten; the
    # input is not normalized first, and the component reports of the
    # singletons take no base
    sizes = []

    def counted(a):
        sizes.append(a.shape[0])
        return op_norm(a)

    for mod in (free_model, paving, reduction):
        monkeypatch.setattr(mod, "op_norm", counted)
    code, out = run(capsys, "reduce", "--dim", "64")
    assert code == 0 and json.loads(out)["blocks"] == 64
    assert sizes.count(64) == 4


@pytest.mark.parametrize("scale", [1e-13, 0.5e-12, 0.9e-12, 1e-12, 1.0000000001e-12, 1.5e-12,
                                   3e-12, 1.0])
def test_reduce_degenerate_test_agrees_with_the_norm(tmp_path, capsys, scale):
    # reduce short-circuits to the one block exactly when the off-diagonal
    # part of the symmetrized input has norm below DEGENERATE_NORM, whatever
    # its diagonal: the last input's diagonal dominates by a factor 1e3
    haar = [sample(EnsembleSpec("zero_diag_haar", 12, seed)).entries for seed in range(3)]
    path = tmp_path / "x.json"
    for m, diagonal in [(h, 0.0) for h in haar] + [(np.ones((12, 12), dtype=complex), 0.0),
                                                    (haar[0], 1e3)]:
        m = m * (scale / op_norm(m)) + diagonal * np.eye(12)
        for a in (m, m * (1 + 1e-10), m * (1 - 1e-10)):
            save_json(TracedMatrix(a), path)
            code, out = run(capsys, "reduce", "--input", str(path), "--eps", "0.6")
            assert code == 0
            sym = (a + a.conj().T) / 2
            degenerate = op_norm(sym - np.diag(np.diagonal(sym))) < paving.DEGENERATE_NORM
            payload = json.loads(out)
            assert (payload["trace"]["stages"][0]["label"] == "short_circuit") == degenerate
            assert (payload["blocks"] == 1) == degenerate


# the shared flags each subcommand's cmd_* reads
READ_FLAGS = {
    "pave": "dim eps seed budget input out strategy",
    "pave-exact": "dim eps seed input out",
    "curve": "dim seed budget input out format",
    "indep": "dim seed budget input out",
    "free-conj": "dim n seed seeds out format",
    "free-proj": "dim n seed seeds out format",
    "free-kesten": "dim seed seeds out format",
    "free-growth": "dim seed seeds out format",
    "reduce": "dim eps seed input out",
    "dixmier": "dim n seed input out",
    "calibrate": "seed seeds out",
}
FLAG_VALUES = {"dim": "8", "eps": "0.5", "n": "2", "seed": "1", "seeds": "1", "budget": "10",
               "input": "x.json", "out": "x.json", "format": "json", "strategy": "anneal"}
READ_PAIRS = [(sub, f) for sub, flags in READ_FLAGS.items() for f in flags.split()]
# --strategy only ever belonged to pave; the other nine flags were once on
# every subcommand
UNREAD_PAIRS = [(sub, f) for sub in READ_FLAGS for f in FLAG_VALUES
                if f != "strategy" and (sub, f) not in READ_PAIRS]


def test_flag_slot_counts():
    # with the 9 flags of a subcommand's own (--eps-grid, --levels, ...),
    # 67 flag slots remain
    assert (len(READ_PAIRS), len(UNREAD_PAIRS)) == (58, 42)


def test_every_read_flag_parses():
    parser = cli.build_parser()
    for sub, flag in READ_PAIRS:
        args = parser.parse_args([sub, f"--{flag}", FLAG_VALUES[flag]])
        assert args.subcommand == sub


@pytest.mark.parametrize("sub,flag", UNREAD_PAIRS, ids=lambda v: v)
def test_unread_flag_is_a_usage_error(capsys, sub, flag):
    with pytest.raises(SystemExit) as exc:
        main([sub, f"--{flag}", FLAG_VALUES[flag]])
    assert exc.value.code == 2
    assert f"--{flag}" in capsys.readouterr().err


OUT = object()    # stands for the --out path of the run

# each subcommand's config: exactly the flags it takes, in table order, with
# the value given or the default
CONFIG_CASES = [
    (["pave", "--dim", "8", "--eps", "0.6", "--budget", "20", "--strategy", "roots_of_unity"],
     {"dim": 8, "eps": 0.6, "seed": 0, "strategy": "roots_of_unity", "budget": 20,
      "input": None, "output": OUT}),
    (["pave-exact", "--dim", "4", "--seed", "2"],
     {"dim": 4, "eps": 0.5, "seed": 2, "input": None, "output": OUT}),
    (["curve", "--dim", "8", "--budget", "20", "--format", "csv"],
     {"dim": 8, "seed": 0, "budget": 20, "input": None, "output": OUT, "format": "csv",
      "eps_grid": [0.6, 0.5, 0.4, 0.3]}),
    (["indep", "--dim", "8", "--levels", "1", "--alpha", "0.5", "--budget", "20"],
     {"dim": 8, "seed": 0, "budget": 20, "input": None, "output": OUT, "levels": 1,
      "alpha": 0.5}),
    (["free-conj", "--dim", "8", "--n", "2"],
     {"dim": 8, "n": 2, "seed": 0, "seed_count": 1, "output": OUT, "format": "json"}),
    (["free-proj", "--dim", "8", "--n", "4"],
     {"dim": 8, "n": 4, "seed": 0, "seed_count": 1, "output": OUT, "format": "json", "t": 0.5}),
    (["free-kesten", "--dim", "8", "--seeds", "2"],
     {"dim": 8, "seed": 0, "seed_count": 2, "output": OUT, "format": "json", "m": 2}),
    (["free-growth", "--dim", "8", "--n-max", "3"],
     {"dim": 8, "seed": 0, "seed_count": 1, "output": OUT, "format": "json", "n_max": 3}),
    (["reduce", "--dim", "8", "--eps", "0.6"],
     {"dim": 8, "eps": 0.6, "seed": 0, "input": None, "output": OUT}),
    (["dixmier", "--dim", "8", "--n", "2"],
     {"dim": 8, "n": 2, "seed": 0, "input": None, "output": OUT}),
    (["calibrate", "--seed", "1", "--dim-conj", "16", "--dim-proj", "64", "--dim-kesten", "16"],
     {"seed": 1, "seed_count": 1, "output": OUT, "dim_conj": 16, "dim_proj": 64,
      "dim_kesten": 16}),
]


@pytest.mark.parametrize("argv,want", CONFIG_CASES, ids=[argv[0] for argv, _ in CONFIG_CASES])
def test_manifest_config_keeps_every_key_with_defaults(tmp_path, capsys, argv, want):
    out_path = tmp_path / "out"
    code, _ = run(capsys, *argv, "--out", str(out_path))
    assert code == 0
    config = json.loads((tmp_path / "out.manifest.json").read_text())["config"]
    want = {k: str(out_path) if v is OUT else v for k, v in want.items()}
    assert list(config.items()) == [("subcommand", argv[0]), *want.items()]


@pytest.mark.parametrize("sub", [sub for sub, (_, flags) in cli.SUBCOMMANDS.items()
                                 if "input" in flags.split()])
def test_dim_beside_input_is_a_usage_error(tmp_path, capsys, sub):
    # the file's dim ran while the manifest recorded the ignored --dim
    path = tmp_path / "x.json"
    save_json(sample(EnsembleSpec("zero_diag_haar", 6, 1)), path)
    for dim in ("6", "64"):
        code, out = run(capsys, sub, "--input", str(path), "--dim", dim)
        assert code == 2
        assert "--dim" in json.loads(out)["error"]


def test_manifest_records_the_dim_of_the_input_file(tmp_path, capsys):
    path = tmp_path / "flip.json"
    save_json(FLIP, path)
    out_path = tmp_path / "pave.json"
    code, _ = run(capsys, "pave", "--input", str(path), "--budget", "10", "--out", str(out_path))
    assert code == 0
    manifest = json.loads((tmp_path / "pave.json.manifest.json").read_text())
    assert manifest["config"]["dim"] == 2 and manifest["config"]["input"] == str(path)
    assert len(json.loads(out_path.read_text())["assignment"]) == 2


@pytest.mark.parametrize("sub", ["free-conj", "free-proj", "free-kesten", "free-growth"])
def test_free_commands_refuse_the_flags_of_the_other_ops(capsys, sub):
    # one free command with --op ran "--op kesten --t 0.3 --n-max 5 --n 7"
    # and recorded t, n_max and n as if they had applied
    own = cli.SUBCOMMANDS[sub][1].split()
    for flag, value in (("op", "kesten"), ("n", "7"), ("t", "0.3"), ("m", "3"), ("n-max", "5")):
        if flag in own:
            continue
        with pytest.raises(SystemExit) as exc:
            main([sub, f"--{flag}", value])
        assert exc.value.code == 2
        assert f"--{flag}" in capsys.readouterr().err


def test_pave_exact_runs_at_its_default_dim(capsys):
    code, out = run(capsys, "pave-exact")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == payload["manifest"]["config"]["dim"] == paving.EXHAUSTIVE_DIM_LIMIT


def test_dixmier_zero_blocks_is_a_usage_error(capsys):
    code, out = run(capsys, "dixmier", "--dim", "8", "--n", "0")
    assert code == 2
    assert json.loads(out) == {"error": "number of blocks must be >= 1, got n=0", "code": 2}


@pytest.mark.parametrize("family", ["free", "calibrate"])
def test_zero_seeds_is_a_usage_error(capsys, family):
    # the free family is the four free-* subcommands
    subs = [sub for sub in cli.SUBCOMMANDS if sub.split("-")[0] == family]
    assert len(subs) == {"free": 4, "calibrate": 1}[family]
    for sub in subs:
        code, out = run(capsys, sub, "--seeds", "0")
        assert code == 2
        assert json.loads(out) == {"error": "seed_count must be >= 1", "code": 2}


@pytest.mark.parametrize("case", ["compare-missing", "compare-not-json", "compare-directory",
                                  "pave-input-directory", "pave-input-missing", "pave-input-deep",
                                  "compare-deep", "compare-deep-closed"])
def test_file_errors_exit_code(tmp_path, capsys, case):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"x": 1}))
    bad = tmp_path / "bad.json"
    bad.write_text("not json {")
    # too deep for the parser, which raised RecursionError; and parsed, but
    # too deep for the walk that strips timing fields
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    closed = tmp_path / "closed.json"
    closed.write_text("[" * 600 + "]" * 600)
    argv = {
        "pave-input-deep": ["pave", "--input", str(deep)],
        "compare-deep": ["compare", str(deep), str(good)],
        "compare-deep-closed": ["compare", str(closed), str(closed)],
        "compare-missing": ["compare", str(tmp_path / "missing.json"), str(good)],
        "compare-not-json": ["compare", str(good), str(bad)],
        "compare-directory": ["compare", str(tmp_path), str(good)],
        "pave-input-directory": ["pave", "--input", str(tmp_path), "--budget", "10"],
        "pave-input-missing": ["pave", "--input", str(tmp_path / "missing.json")],
    }[case]
    code, out = run(capsys, *argv)
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert list(payload) == ["error", "code"] and payload["code"] == 2 and payload["error"]


def test_indep_zero_levels_is_one_block(capsys):
    code, out = run(capsys, "indep", "--dim", "16", "--levels", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["blocks"] == 1
    assert payload["certificate"]["measured_alpha"] == 0.0


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which JSON does not have."""
    def refuse(name):
        raise ValueError(f"not JSON: {name}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "0", "-1", "1"])
def test_indep_alpha_outside_the_unit_interval_exit_code(capsys, alpha):
    # a NaN or infinite alpha ran and wrote a manifest that is not JSON
    code, out = run(capsys, "indep", "--dim", "16", "--levels", "2", f"--alpha={alpha}")
    assert code == 2
    assert strict_json(out) == {"error": "alpha must lie in (0, 1)", "code": 2}


@pytest.mark.parametrize("argv, error", [
    (["free-kesten", "--dim", "0"], "dim must be >= 1"),
    (["free-kesten", "--dim", "-3"], "dim must be >= 1"),
    (["free-proj", "--dim", "0", "--n", "2"], "dim must be >= 2"),
    (["free-proj", "--dim", "1", "--n", "2"], "n=2 must divide dim=1"),
], ids=["kesten-dim0", "kesten-dim-3", "proj-dim0", "proj-dim1"])
def test_free_bad_dim_messages(capsys, argv, error):
    code, out = run(capsys, *argv)
    assert code == 2
    assert strict_json(out) == {"error": error, "code": 2}


def test_free_kesten_dim_one_is_valid(capsys):
    code, out = run(capsys, "free-kesten", "--m", "2", "--dim", "1")
    assert code == 0
    # two unit phases sum to at most 2
    assert 0.0 <= strict_json(out)["lines"][0]["measured"] <= 2.0 + 1e-12


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_indep_nonpositive_budget_exit_code(capsys, budget):
    code, out = run(capsys, "indep", "--dim", "16", "--levels", "2", "--budget", budget)
    assert code == 2
    assert json.loads(out) == {"error": "budget must be positive", "code": 2}
