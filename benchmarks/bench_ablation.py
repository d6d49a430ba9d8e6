"""Filter ablation benchmark (Figure 14 as a table): total runtime of
GEqO_SET under every nonempty filter subset. Writes
``results/ablation.md``."""
import pytest

from repro.experiments import ablation, write_result


@pytest.mark.benchmark(group="ablation")
def test_filter_ablation(benchmark, timed_model):
    model, _ = timed_model
    res = benchmark.pedantic(ablation.run, args=(model,), rounds=1, iterations=1)
    write_result("ablation", res.markdown())

    by_filters = {r.filters: r for r in res.rows}
    full = by_filters["SF+VMF+EMF"]
    # the cascade does the fewest expensive verifications of any subset
    assert full.av_verifications == min(
        r.av_verifications for r in res.rows
    )
    # and its total runtime is near the minimum (within 3× — with a
    # lightweight FM verifier the EMF's savings are smaller than with
    # Z3-grade verification, so SF+VMF can edge it out on wall clock;
    # see EXPERIMENTS.md for the discussion)
    best = min(r.total_seconds for r in res.rows)
    assert full.total_seconds <= 3.0 * best
