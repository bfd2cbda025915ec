"""The seed sweep."""

from pavlab import free_model, pave_search, seeds


def _search(seed):
    x = free_model.sample(free_model.EnsembleSpec("zero_diag_haar", 8, seed))
    part, report = pave_search(x, 0.6, "anneal", 200, seed)
    return part.assignment.tolist(), repr(report.ratio), report.effective_blocks


def test_threaded_sweep_returns_the_single_thread_results_in_seed_order(monkeypatch):
    sweep = [5, 0, 3, 1, 4, 2]
    monkeypatch.setenv("PAVLAB_THREADS", "1")
    want = seeds.map_over_seeds(_search, sweep)
    assert want == [_search(s) for s in sweep]

    pools = []
    pool_class = seeds.ThreadPoolExecutor

    def recorded(max_workers):
        pools.append(max_workers)
        return pool_class(max_workers=max_workers)

    monkeypatch.setattr(seeds, "ThreadPoolExecutor", recorded)
    monkeypatch.setenv("PAVLAB_THREADS", "2")
    assert seeds.map_over_seeds(_search, sweep) == want
    assert pools == [2]

