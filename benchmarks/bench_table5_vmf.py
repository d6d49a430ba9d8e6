"""Table 5 benchmark: VMF quality as a pairwise filter on TPC-DS-lite
labeled pairs (train TPC-H). Writes ``results/table5.md``."""
import pytest

from repro.experiments import table5, write_result


@pytest.mark.benchmark(group="table5")
def test_table5_vmf(benchmark, timed_model):
    model, _ = timed_model
    res = benchmark.pedantic(table5.run, args=(model,), rounds=1, iterations=1)
    write_result("table5", res.markdown())

    # the paper's VMF profile: recall ≈ 0.98 with only moderate
    # precision — a wide-net pre-filter, not a classifier
    assert res.recall >= 0.9
    assert res.precision < 0.95
    assert res.accuracy >= 0.6
