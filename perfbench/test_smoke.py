"""Smoke test for the benchmark itself, at a tiny size.

    python -m pytest perfbench/test_smoke.py -q

Each workload prints every named metric in both modes, and each gate
fires on a planted failure.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402


def _bench_main(*args: str) -> list[str]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args, "--size", "tiny"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    return out.stdout.splitlines()


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_prints_every_metric(workload, trace):
    lines = _bench_main("--workload", workload, "--seed", "3",
                        "--seconds", "0.5", "--trace", str(trace))
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = run.LAYER_UNITS if trace else run.E2E_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    text = lines[:-1]
    for name, unit in units.items():
        assert any(ln.split()[:1] == [name] and f" {unit}" in ln for ln in text), name


@pytest.fixture(scope="module")
def bench():
    run.configure_env()
    run.import_repro()
    b = run.Bench("table1-local", seed=0, size=run.SIZES["tiny"])
    assert b.set_up()
    assert b.failed == 0
    return b


def test_falsifier_gate_fires_on_a_fake_pair(bench, monkeypatch):
    from repro.core import pipeline

    fake = next(
        (0, j) for j in range(1, len(bench.plans)) if bench.refuted(0, j)
    )
    real = pipeline.geqo_set_local

    def with_fake_pair(*args, **kwargs):
        res = real(*args, **kwargs)
        res.pairs.add(fake)
        return res

    monkeypatch.setattr(pipeline, "geqo_set_local", with_fake_pair)
    failed, violations = bench.failed, bench.violations
    res, _ = bench.attempt(bench.call)
    assert res is None
    assert bench.failed == failed + 1 and bench.violations == violations + 1
    assert "refuted by the DuckDB falsifier" in bench.failures[-1]


def test_exception_inside_a_call_is_counted_and_the_run_goes_on(bench, monkeypatch):
    from repro.core import pipeline

    def raises(*args, **kwargs):
        raise RuntimeError("alias bijection search exceeded budget")

    monkeypatch.setattr(pipeline, "geqo_set_local", raises)
    attempted, violations = bench.attempted, bench.violations
    metrics = bench.measure(0.2)
    assert bench.attempted > attempted + 1  # kept calling after a failure
    assert bench.violations == violations  # an exception is no wrong output
    assert "run_s" not in metrics and metrics["ok_frac"] < 1
    assert "RuntimeError" in bench.failures[-1]


def test_generator_failure_is_counted(monkeypatch):
    from repro.workload import labeler

    def raises(*args, **kwargs):
        raise ValueError("join graph disconnected under this order")

    monkeypatch.setattr(labeler, "make_planted_workload", raises)
    b = run.Bench("verify-all", seed=0, size=run.SIZES["tiny"])
    assert not b.set_up()
    assert (b.attempted, b.failed) == (1, 1)


def test_invalid_cached_model_is_removed():
    run.configure_env()
    run.import_repro()
    models = run.WORK / "results" / "models"
    models.mkdir(parents=True, exist_ok=True)
    broken = models / "emf_truncated.npz"
    broken.write_bytes(b"PK\x03\x04 not a whole zip")
    info = run.provision_model(run.SIZES["tiny"])
    assert not broken.exists()
    assert "emf_truncated.npz" in info["model_removed_invalid"]


def test_self_time_excludes_children():
    tr = Tracer()
    tr.call_id = 1
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    summ = tr.summary(1)
    outer, inner = summ["outer"], summ["inner"]
    assert outer["count"] == inner["count"] == 1
    assert outer["self_s"] == pytest.approx(outer["total_s"] - inner["total_s"])
