"""CLI subcommands, artifacts, manifests, and exit codes."""

import json

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
])
def test_malformed_input_exit_code(tmp_path, capsys, obj):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(obj))
    code, out = run(capsys, "pave", "--input", str(p), "--budget", "10")
    assert code == 2
    payload = json.loads(out)
    assert payload["code"] == 2 and payload["error"]


@pytest.mark.parametrize("argv", [
    ["free", "--op", "proj", "--t", "0"],
    ["free", "--op", "conj", "--dim", "0"],
    ["free", "--op", "kesten", "--dim", "0"],
    ["free", "--op", "growth", "--dim", "0"],
    ["calibrate", "--dim-conj", "8", "--dim-proj", "64", "--dim-kesten", "0"],
], ids=lambda argv: "-".join(argv[:3]))
def test_bad_parameter_exit_code(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 2
    payload = json.loads(out)
    assert payload["code"] == 2 and payload["error"]


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
    code, _ = run(capsys, "free", "--op", "conj", "--n", "4", "--dim", "32",
                  "--seeds", "3", "--format", "csv", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "param,n,dim,seed,measured,bound,slack"
    assert len(lines) == 4
    bound = (np.sqrt(3) + 1) / 4
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[5]) == pytest.approx(bound)
        assert float(cells[6]) == pytest.approx(float(cells[4]) - bound, abs=1e-12)


def test_free_kesten_json(capsys):
    code, out = run(capsys, "free", "--op", "kesten", "--m", "2", "--dim", "64", "--seeds", "2")
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
    ["free", "--op", "conj", "--dim", "16", "--n", "4"],
    ["free", "--op", "proj", "--dim", "15", "--n", "5", "--t", "0.2"],
    ["free", "--op", "kesten", "--dim", "16"],
    ["free", "--op", "growth", "--dim", "16", "--n-max", "4"],
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
    assert json.loads(out_path.read_text()) == payloads[0]
    assert_plain(json.loads((tmp_path / "out.json.manifest.json").read_text()))


def test_reduce_takes_five_full_size_norms(capsys, monkeypatch):
    # the input norm, the pipeline base and two in flatten; the degenerate
    # test is settled by the largest entry and the component reports of the
    # singletons take no base
    sizes = []

    def counted(a):
        sizes.append(a.shape[0])
        return op_norm(a)

    for mod in (cli, free_model, paving, reduction):
        monkeypatch.setattr(mod, "op_norm", counted)
    code, out = run(capsys, "reduce", "--dim", "64")
    assert code == 0 and json.loads(out)["blocks"] == 64
    assert sizes.count(64) == 5


@pytest.mark.parametrize("scale", [1e-13, 0.5e-12, 0.9e-12, 1e-12, 1.0000000001e-12, 1.5e-12,
                                   3e-12, 1.0])
def test_reduce_degenerate_test_agrees_with_the_norm(scale):
    # the rank-one all-ones matrix has its norm equal to its Frobenius norm
    for m in [sample(EnsembleSpec("zero_diag_haar", 12, seed)).entries for seed in range(3)] + [
            np.ones((12, 12), dtype=complex)]:
        m = m * (scale / op_norm(m))
        for a in (m, m * (1 + 1e-10), m * (1 - 1e-10)):
            assert cli._norm_exceeds(a, 1e-12) == (op_norm(a) > 1e-12)
