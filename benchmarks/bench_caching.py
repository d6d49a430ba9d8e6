"""Result caching benchmark (§7.7 / Figure 15): workload runtime
reduction from GEqO-driven result caching on Spark + TPC-H-lite,
across storage budgets. Writes ``results/caching.md``."""
import pytest

from repro.experiments import caching_study, write_result


@pytest.mark.benchmark(group="caching")
def test_caching_case_study(benchmark, spark, timed_model):
    model, _ = timed_model
    res = benchmark.pedantic(
        caching_study.run, args=(spark, model), rounds=1, iterations=1
    )
    write_result("caching", res.markdown())

    # shape: savings are monotone in budget and material at full budget
    s = [res.report.savings(b) for b in res.budgets]
    assert s[0] <= s[-1] + 0.05
    assert s[-1] > 0.05
    assert res.n_classes_multi >= 4  # GEqO actually found reuse
