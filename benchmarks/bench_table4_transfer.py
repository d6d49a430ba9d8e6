"""Table 4 benchmark: transfer of the TPC-H-lite-trained EMF to
randomly-generated schemas at the paper's dataset sizes
(1.2k–44.9k pairs). Writes ``results/table4.md``."""
import pytest

from repro.experiments import table4, write_result


@pytest.mark.benchmark(group="table4")
def test_table4_transfer(benchmark, timed_model):
    model, _ = timed_model
    res = benchmark.pedantic(table4.run, args=(model,), rounds=1, iterations=1)
    write_result("table4", res.markdown())

    # shape: high transfer quality at every size, mild degradation
    # tolerated (paper: F1 0.94–0.97 across 1.2k–44.9k)
    for row in res.rows:
        assert row.recall >= 0.85, row
        assert row.precision >= 0.75, row
        assert row.f1 >= 0.8, row
