"""Seed streams and seed sweeps."""

import json

import numpy as np

from pavlab.cli import main
from pavlab.seeds import rng_for


def test_rng_for_streams_repeat_and_are_separated_by_path():
    draw = rng_for(7, 3, 1).random(6)
    assert np.array_equal(draw, rng_for(7, 3, 1).random(6))
    assert not np.array_equal(draw, rng_for(7, 3, 2).random(6))
    assert not np.array_equal(draw, rng_for(8, 3, 1).random(6))
    # seeds are taken modulo 2^64
    assert np.array_equal(rng_for(-1).random(3), rng_for(2 ** 64 - 1).random(3))


def _free_lines(capsys, *argv):
    assert main(["free", "--dim", "16", *argv]) == 0
    return json.loads(capsys.readouterr().out)["lines"]


def test_seed_sweep_is_the_single_seed_runs_in_seed_order(capsys):
    for op in ("conj", "kesten"):
        sweep = _free_lines(capsys, "--op", op, "--seed", "5", "--seeds", "3")
        singles = [_free_lines(capsys, "--op", op, "--seed", str(s))[0] for s in (5, 6, 7)]
        assert sweep == singles
