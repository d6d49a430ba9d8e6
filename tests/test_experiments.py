"""Smoke tests for the table-reproduction harnesses at reduced scale.

The full-scale numbers live in benchmarks/ (and results/*.md); these
tests pin the qualitative shape cheaply so a regression in any filter,
baseline, or harness shows up in the unit suite.
"""
import importlib.util
import os

import pytest

from repro.experiments import ablation, table1, table3, table4, table5, write_result
from repro.filters.schema_filter import sf_pairs
from repro.nn.pretrained import EPOCHS, TRAIN_PAIRS
from repro.verifier.av import Verifier
from repro.workload.labeler import make_planted_workload
from repro.workload.schema import TPCDS_LITE
from tests.test_labeler import FreshVerifier, av_flattened, flattened_once_each
from tests.test_plan import fig1_q1, fig1_q2
from tests.test_verifier import _disequalities

PAPER_TABLES = {"table1", "table3", "table4", "table5", "ablation", "caching"}


def _job():
    path = os.path.join(os.path.dirname(__file__), "..", "jobs", "run_table.py")
    spec = importlib.util.spec_from_file_location("run_table", path)
    job = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(job)
    return job


@pytest.fixture(scope="module")
def t1(emf_model):
    return table1.run(emf_model, n_subexpr=100, n_equiv=12, seed=100)


def test_table1_rows_complete(t1):
    names = [r.name for r in t1.rows]
    assert len(names) == 8
    assert any("GEqO" == n for n in names)
    assert any("Oracle" in n for n in names)


def test_table1_geqo_profile(t1):
    by = {r.name.split(" (")[0]: r for r in t1.rows}
    geqo = by["GEqO"]
    assert geqo.tnr == 1.0  # AV guarantees precision
    assert geqo.tpr >= 0.7
    assert geqo.seconds < by["Automated Verifier"].seconds


def test_table1_baseline_ladder(t1):
    by = {r.name.split(" (")[0]: r for r in t1.rows}
    assert by["Signature-based [32]"].tpr <= by["Optimizer-rule"].tpr
    assert by["Optimizer-rule"].tpr <= by["GEqO"].tpr + 0.1


def test_table1_markdown_renders(t1):
    md = t1.markdown()
    assert "| GEqO |" in md and "TPR" in md


def test_oracle_row_counts_a_raising_check_as_unknown():
    class Unknown:
        def equivalent(self, r1, r2):
            return None

    plans = [fig1_q1(), fig1_q2()]
    assert table1.oracle_row(plans, {(0, 1)}, Unknown()).extra == (
        "1 verifications, 1 unknown"
    )
    assert table1.oracle_row(plans, {(0, 1)}, Verifier()).extra == (
        "1 verifications, 0 unknown"
    )


def test_oracle_row_flattens_each_plan_once(monkeypatch):
    """The Oracle row checks one record per plan: over every SF pair of
    a pool (two plans FM gives up on among them), each plan is
    flattened at most once, and the row equals a fresh check per
    pair."""
    w = make_planted_workload(TPCDS_LITE, n_subexpr=40, n_equiv=6, seed=50)
    plans = w.plans + [_disequalities(), _disequalities()]
    truth = sf_pairs(plans)
    flattened = av_flattened(monkeypatch)
    row = table1.oracle_row(plans, truth, Verifier())
    assert flattened_once_each(flattened)
    assert row.extra == table1.oracle_row(plans, truth, FreshVerifier()).extra
    assert row.extra.endswith(" 1 unknown")


def test_table3_mlp_wins(emf_model):
    res = table3.run(emf_model, n_test=150, seed=201, mlp_train_seconds=0.0)
    by = {r.name.split(" ")[0]: r for r in res.rows}
    assert by["MLP"].accuracy > by["RF"].accuracy
    assert by["MLP"].accuracy > by["LR"].accuracy
    assert "| MLP" in res.markdown()


def test_table4_transfer_quality(emf_model):
    res = table4.run(emf_model, sizes=(300,), seed=301)
    assert len(res.rows) == 1
    assert res.rows[0].f1 >= 0.75
    assert res.rows[0].schema.startswith("rand")


def test_table5_vmf_profile(emf_model):
    res = table5.run(emf_model, n_pairs=150, seed=401)
    assert res.recall >= 0.85  # wide-net filter
    assert res.n_pairs > 0
    assert "Recall" in res.markdown()


def test_ablation_full_cascade_fewest_verifications(emf_model):
    res = ablation.run(emf_model, n_subexpr=60, n_equiv=8, seed=501)
    by = {r.filters: r for r in res.rows}
    assert len(res.rows) == 7
    full = by["SF+VMF+EMF"]
    assert full.av_verifications == min(r.av_verifications for r in res.rows)


def test_write_result_puts_markdown_in_results_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    res = table5.Table5Result(0.74, 0.42, 0.98, 0.60, 4.2, 1200, 0.5)
    path = write_result("table5", res.markdown())
    assert os.path.samefile(path, tmp_path / "table5.md")
    assert os.listdir(tmp_path) == ["table5.md"]
    assert (tmp_path / "table5.md").read_text() == res.markdown() + "\n"


def test_job_accepts_exactly_the_registered_tables():
    job = _job()
    assert set(job.TABLES) == PAPER_TABLES
    for name in sorted(PAPER_TABLES):
        assert job.parse_args([name]).table == name
        assert callable(job.TABLES[name].run)
    for bad in ([], ["table2"], ["converter"], ["table1_filters"], ["table1", "320"]):
        with pytest.raises(SystemExit):
            job.parse_args(bad)


def test_table3_markdown_carries_training_footnote():
    row = table3.ClassifierRow("MLP (tree-conv EMF)", 0.9, 0.9, 1.5,
                               {"tp": 1, "fp": 0, "fn": 0, "tn": 1})
    md = table3.Table3Result(rows=[row], n_train=2, n_test=2).markdown()
    assert md.endswith(
        f"\n\n(MLP pretrained on {2 * TRAIN_PAIRS} TPC-H-lite pairs, "
        f"{EPOCHS} epochs; 'train s' is cache-load time when warm)"
    )
