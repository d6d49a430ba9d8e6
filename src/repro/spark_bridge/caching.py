"""Result caching case study (§7.7, Figure 15).

GEqO's output (equivalence classes over a workload) drives a result
cache on actual Spark + TPC-H-lite data: the first occurrence of each
class executes and materializes its result to parquet; later members
are rewritten to read the materialized result instead of recomputing.
A storage budget limits which classes are cached (most-expensive-first,
using measured runtimes — the paper's policy).

Correctness of the rewrite is oracle-checked: a cache-served result
must equal fresh execution row-for-row.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from pyspark.sql import DataFrame, SparkSession

from repro.core.plan import Plan
from repro.core.sqlgen import to_sql
from repro.workload.schema import TPCH_LITE

ORACLE_CLASSES = 2


def equivalence_classes(n: int, pairs: set[tuple[int, int]]) -> list[list[int]]:
    """Union-find over confirmed equivalent pairs → classes (sorted)."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [sorted(v) for v in sorted(groups.values())]


def register_tpch_views(spark: SparkSession, *, sf: float = 0.01) -> None:
    """Register TPC-H-lite synthetic tables (generator seed 0) as temp
    views, projected to the columns the workload schema knows about."""
    from repro import synth_data

    gens = {
        "lineitem": synth_data.lineitem,
        "orders": synth_data.orders,
        "customer": synth_data.customer,
        "part": synth_data.part,
    }
    for t in TPCH_LITE.tables:
        df = gens[t.name](spark, sf=sf, seed=0)
        df.select(*t.columns).createOrReplaceTempView(t.name)


def _run(df: DataFrame) -> tuple[float, int]:
    """Execute fully; returns (seconds, result rows)."""
    t0 = time.perf_counter()
    n = df.count()
    return time.perf_counter() - t0, n


@dataclass
class CachingReport:
    baseline_time: float
    cached_time: dict[float, float] = field(default_factory=dict)  # budget → s
    storage_used: dict[float, float] = field(default_factory=dict)  # budget → bytes
    total_storage: float = 0.0
    n_classes: int = 0
    n_cached: dict[float, int] = field(default_factory=dict)

    def savings(self, budget: float) -> float:
        if self.baseline_time == 0:
            return 0.0
        return 1.0 - self.cached_time[budget] / self.baseline_time


def run_caching_study(
    spark: SparkSession,
    plans: list[Plan],
    classes: list[list[int]],
    *,
    budgets: tuple[float, ...] = (0.1, 0.5, 1.0),
    cache_dir: str,
) -> CachingReport:
    """Measure workload runtime without and with equivalence-driven
    result caching under each storage ``budget`` (fraction of the
    storage an unlimited cache would use). The first
    ``ORACLE_CLASSES`` classes are oracle-checked: a cache-served
    result must equal fresh execution row for row."""
    os.makedirs(cache_dir, exist_ok=True)

    # --- baseline: every query executes ------------------------------
    exec_time: dict[int, float] = {}
    for i, p in enumerate(plans):
        exec_time[i], _ = _run(spark.sql(to_sql(p)))
    baseline = sum(exec_time.values())

    # --- materialize one representative per multi-member class -------
    multi = [c for c in classes if len(c) > 1]
    sizes: dict[int, float] = {}
    write_time: dict[int, float] = {}
    read_time: dict[int, float] = {}
    for ci, members in enumerate(multi):
        rep = members[0]
        path = os.path.join(cache_dir, f"class_{ci}.parquet")
        t0 = time.perf_counter()
        spark.sql(to_sql(plans[rep])).write.mode("overwrite").parquet(path)
        write_time[ci] = time.perf_counter() - t0
        sizes[ci] = sum(
            os.path.getsize(os.path.join(path, f))
            for f in os.listdir(path)
            if f.endswith(".parquet")
        )
        read_time[ci], _ = _run(spark.read.parquet(path))
        # oracle: cache-served rows equal fresh execution for the later
        # members of the first few classes
        if ci < ORACLE_CLASSES:
            for m in members[1:2]:
                fresh = spark.sql(to_sql(plans[m]))
                cached = spark.read.parquet(path)
                a = sorted(map(tuple, fresh.collect()))
                b = sorted(map(tuple, cached.collect()))
                assert a == b, f"cache rewrite changed results (class {ci})"

    total_storage = sum(sizes.values())
    # benefit of caching a class: later members read instead of
    # recompute; the first occurrence is served by the materialization
    # run itself (write_time includes executing the query once), so the
    # write overhead vs plain execution is (write − exec).
    benefit = {
        ci: sum(exec_time[m] for m in members[1:])
        - len(members[1:]) * read_time[ci]
        - (write_time[ci] - exec_time[members[0]])
        for ci, members in enumerate(multi)
    }
    order = sorted(benefit, key=lambda ci: -benefit[ci])

    report = CachingReport(
        baseline_time=baseline, total_storage=total_storage, n_classes=len(multi)
    )
    for budget in budgets:
        cap = budget * total_storage
        used = 0.0
        chosen: set[int] = set()
        for ci in order:
            if benefit[ci] <= 0:
                continue
            if used + sizes[ci] <= cap + 1e-9:
                chosen.add(ci)
                used += sizes[ci]
        total = 0.0
        for ci, members in enumerate(multi):
            if ci in chosen:
                # first occurrence = execute-and-materialize; later
                # occurrences read the materialized result
                total += write_time[ci]
                total += len(members[1:]) * read_time[ci]
            else:
                total += sum(exec_time[m] for m in members)
        for c in classes:
            if len(c) == 1:
                total += exec_time[c[0]]
        report.cached_time[budget] = total
        report.storage_used[budget] = used
        report.n_cached[budget] = len(chosen)
    return report
