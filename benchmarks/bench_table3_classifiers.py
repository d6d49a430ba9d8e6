"""Table 3 benchmark: EMF classifier comparison (MLP vs RF vs LR),
train TPC-H-lite → test TPC-DS-lite. Writes ``results/table3.md``."""
import pytest

from repro.experiments import table3, write_result


@pytest.mark.benchmark(group="table3")
def test_table3_classifiers(benchmark, timed_model):
    model, train_secs = timed_model
    res = benchmark.pedantic(
        table3.run, args=(model,), kwargs={"mlp_train_seconds": train_secs},
        rounds=1, iterations=1,
    )
    write_result("table3", res.markdown())

    by_name = {r.name.split(" ")[0]: r for r in res.rows}
    # the paper's claim: the MLP is decisively better on both metrics
    assert by_name["MLP"].accuracy > by_name["RF"].accuracy + 0.15
    assert by_name["MLP"].accuracy > by_name["LR"].accuracy + 0.15
    assert by_name["MLP"].f1 > max(by_name["RF"].f1, by_name["LR"].f1) + 0.1
    # and its false negatives are far fewer (§7.1.1: β error matters most)
    assert by_name["MLP"].confusion["fn"] < by_name["RF"].confusion["fn"]
    assert by_name["MLP"].confusion["fn"] < by_name["LR"].confusion["fn"]
