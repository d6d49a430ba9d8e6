"""Result caching case study harness (§7.7, Figure 15).

End-to-end on real Spark: generate a TPC-H-lite SPJ workload with
repeated computation, detect equivalence classes with the full GEqO
pipeline, then measure workload runtime under result caching at varying
storage budgets. Paper profile: ~61.5% runtime reduction at 10% budget,
96.2% computation reduction at 100% (their workload is far more
redundant; shape = savings grow with budget)."""
from __future__ import annotations

import tempfile
from dataclasses import dataclass

from pyspark.sql import SparkSession

from repro.core.pipeline import geqo_set_local
from repro.filters.vmf import calibrate_tau
from repro.nn.model import EMF
from repro.spark_bridge.caching import (
    CachingReport,
    equivalence_classes,
    register_tpch_views,
    run_caching_study,
)
from repro.workload.labeler import make_positive_pairs, make_reuse_workload
from repro.workload.schema import TPCH_LITE


@dataclass
class CachingStudyResult:
    report: CachingReport = None
    n_queries: int = 0
    n_classes_multi: int = 0
    budgets: tuple[float, ...] = ()

    def markdown(self) -> str:
        out = [
            f"{self.n_queries} Spark SQL queries, "
            f"{self.n_classes_multi} GEqO-detected multi-member "
            f"equivalence classes; baseline {self.report.baseline_time:.1f}s",
            "",
            "| Storage budget | Runtime (s) | Savings | classes cached |",
            "|---|---|---|---|",
        ]
        for b in self.budgets:
            out.append(
                f"| {b:.0%} | {self.report.cached_time[b]:.1f} | "
                f"{self.report.savings(b):.1%} | {self.report.n_cached[b]} |"
            )
        return "\n".join(out)


def run(
    spark: SparkSession,
    model: EMF,
    *,
    n_classes: int = 6,
    class_size: int = 3,
    n_singletons: int = 6,
    sf: float = 0.2,
    budgets: tuple[float, ...] = (0.1, 0.5, 1.0),
    seed: int = 600,
) -> CachingStudyResult:
    register_tpch_views(spark, sf=sf, seed=0)
    # Require ≥2-table joins: §7.7's expressions are "computationally
    # expensive but return small results" — single-table scans at this
    # scale are dominated by fixed Spark overhead and cache-read cost,
    # which would hide the compute savings caching provides. Classes
    # have multiple members (the paper's workload averages ~4.4
    # occurrences per equivalence class).
    w = make_reuse_workload(
        TPCH_LITE, n_classes=n_classes, class_size=class_size,
        n_singletons=n_singletons, seed=seed, min_tables=2,
    )
    cal = make_positive_pairs(TPCH_LITE, 60, seed=seed + 1)
    tau = calibrate_tau(model, [(p.p1, p.p2) for p in cal])
    pipeline = geqo_set_local(w.plans, model, tau=tau)
    classes = equivalence_classes(len(w.plans), pipeline.pairs)
    # the materialized results are scratch: none outlives the study
    with tempfile.TemporaryDirectory() as cache_dir:
        report = run_caching_study(
            spark, w.plans, classes, budgets=budgets, cache_dir=cache_dir
        )
    return CachingStudyResult(
        report=report,
        n_queries=len(w.plans),
        n_classes_multi=report.n_classes,
        budgets=budgets,
    )
