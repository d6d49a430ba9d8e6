"""The GEqO cascade (§2.2): SF → VMF → EMF → AV.

The SF keys every subexpression on the driver, and every later stage
works inside one SF-group: :func:`cascade_group`. It makes one record
per plan (:mod:`repro.core.record`) that every stage reads, so a plan
is decomposed, its predicates lowered, and it is canonicalized and
encoded once for both the VMF and the EMF; the AV checks pairs of the
same records, so it flattens a plan and decides its satisfiability at
most once. Per pair come the radius join, the EMF's slot map and head,
and the AV's bijection search and FM checks. A record's parts are
computed on first use: the encoding is timed with the first model
filter (with the AV when there is none), flattening and satisfiability
with the AV. Nothing prepared outlives the call. The two implementations of ``GEqO_SET`` (Equation 1) take
the same SF-groups and differ only in how they map it:

- :func:`geqo_set_spark` — one Spark stage without a shuffle: an RDD of
  ``(ids, plans)`` per SF-group, ``mapPartitions`` with the model
  weights broadcast once. PySpark pickles the plans and the
  :class:`PipelineResult` objects itself; a DataFrame would add a
  schema, an Arrow/pandas batch and a second serialization for rows
  that are Python object graphs with no column-wise work.
- :func:`geqo_set_local` — the same on the driver, used by the
  experiments, the SSFL inner loop and micro-benchmarks where Spark
  task overhead would drown the measured quantity.

A pair dropped by a stage never reaches the next. Both return a
:class:`PipelineResult` with per-stage survivor counts, times,
pass-throughs and AV unknowns, which the Table 1 / ablation report.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from pyspark.sql import SparkSession

from repro.core.plan import Plan
from repro.core.record import records
from repro.encoding.agnostic import instance_group
from repro.filters.emf_filter import EMF_THRESHOLD, emf_scores
from repro.filters.schema_filter import sf_groups
from repro.filters.vmf import DEFAULT_TAU, group_pairs
from repro.nn.model import EMF
from repro.verifier.av import Verifier

CASCADE = ("SF", "VMF", "EMF")


@dataclass
class PipelineResult:
    """Output of one ``GEqO_SET`` call (or of one SF-group).

    ``survivors``, ``times`` and ``passthrough`` (out-of-space SF-groups
    the VMF passed whole, pairs the EMF scored 1.0) are keyed by stage.
    ``times`` are seconds: under :func:`geqo_set_spark` the SF seconds
    are driver wall time, and the VMF, EMF and AV seconds are task
    seconds summed over SF-groups, which run in parallel.
    """

    pairs: set[tuple[int, int]]  # AV-confirmed equivalent pairs
    n_total_pairs: int
    survivors: dict[str, int] = field(default_factory=dict)  # per stage
    times: dict[str, float] = field(default_factory=dict)  # seconds
    passthrough: dict[str, int] = field(default_factory=dict)  # VMF, EMF
    av_pairs_checked: int = 0
    av_unknown: int = 0  # AV verdict unknown: never reported as equivalent

    @property
    def total_time(self) -> float:
        return sum(self.times.values())

    def merge(self, group: PipelineResult, ids) -> None:
        """Add one SF-group's result; ``ids`` maps its local plan
        indices to workload ids in ascending order."""
        self.pairs.update((ids[a], ids[b]) for a, b in group.pairs)
        for stage, k in group.survivors.items():
            self.survivors[stage] += k
        for stage, s in group.times.items():
            self.times[stage] += s
        for stage, k in group.passthrough.items():
            self.passthrough[stage] += k
        self.av_pairs_checked += group.av_pairs_checked
        self.av_unknown += group.av_unknown


def _empty_result(n: int, filters: tuple[str, ...]) -> PipelineResult:
    stages = [s for s in CASCADE if s in filters] + ["AV"]
    return PipelineResult(
        set(), n * (n - 1) // 2,
        survivors=dict.fromkeys(stages, 0), times=dict.fromkeys(stages, 0.0),
        passthrough={s: 0 for s in ("VMF", "EMF") if s in filters},
    )


def cascade_group(
    plans: list[Plan],
    model: EMF | None,
    *,
    filters: tuple[str, ...] = CASCADE,
    tau: float,
    verifier: Verifier,
) -> PipelineResult:
    """VMF → EMF → AV over the pairs of ``plans``, one SF-group (or the
    whole workload when no filter groups it). Pairs are local indices.

    A pair whose AV verdict is unknown is counted in ``av_unknown``
    and not reported."""
    res = _empty_result(len(plans), filters)
    pairs = list(itertools.combinations(range(len(plans)), 2))
    if "SF" in filters:
        res.survivors["SF"] = len(pairs)
    t0 = time.perf_counter()
    recs = records(plans)  # one record per plan, read by every stage
    if "VMF" in filters or "EMF" in filters:
        group = instance_group(recs)  # timed with the first model filter
    if "VMF" in filters:
        found, res.passthrough["VMF"] = group_pairs(model, group, tau=tau)
        pairs = sorted(found)
        res.times["VMF"] = time.perf_counter() - t0
        res.survivors["VMF"] = len(pairs)
        t0 = time.perf_counter()
    if "EMF" in filters:
        proba, res.passthrough["EMF"] = emf_scores(model, pairs, group)
        pairs = [p for p, s in zip(pairs, proba) if s >= EMF_THRESHOLD]
        res.times["EMF"] = time.perf_counter() - t0
        res.survivors["EMF"] = len(pairs)

    t0 = time.perf_counter()
    for i, j in pairs:
        verdict = verifier.equivalent(recs[i], recs[j])
        if verdict:
            res.pairs.add((i, j))
        elif verdict is None:
            res.av_unknown += 1
    res.times["AV"] = time.perf_counter() - t0
    res.av_pairs_checked = len(pairs)
    res.survivors["AV"] = len(res.pairs)
    return res


def _groups(
    plans: list[Plan], filters: tuple[str, ...]
) -> tuple[PipelineResult, list[tuple[list[int], list[Plan]]]]:
    """The empty result, with the SF's seconds, and ``(workload ids,
    plans)`` of every group that holds a pair: the SF-groups, or the
    whole workload when neither the SF nor the VMF (which embeds within
    SF-groups) is in ``filters``."""
    res = _empty_result(len(plans), filters)
    t0 = time.perf_counter()
    if "SF" in filters or "VMF" in filters:
        groups = list(sf_groups(plans).values())
    else:
        groups = [list(range(len(plans)))]
    if "SF" in filters:
        res.times["SF"] = time.perf_counter() - t0
    return res, [(ids, [plans[i] for i in ids]) for ids in groups if len(ids) > 1]


def geqo_set_local(
    plans: list[Plan],
    model: EMF | None,
    *,
    filters: tuple[str, ...] = CASCADE,
    tau: float = DEFAULT_TAU,
    verifier: Verifier | None = None,
) -> PipelineResult:
    """Driver-side GEqO_SET; ``filters`` selects the cascade (ablation)."""
    if model is None and ("VMF" in filters or "EMF" in filters):
        raise ValueError("VMF and EMF require a trained model")
    res, groups = _groups(plans, filters)
    verifier = verifier or Verifier()
    for ids, group in groups:
        res.merge(cascade_group(
            group, model, filters=filters, tau=tau, verifier=verifier,
        ), ids)
    return res


def geqo_set_spark(
    spark: SparkSession,
    plans: list[Plan],
    model: EMF,
    *,
    tau: float = DEFAULT_TAU,
) -> PipelineResult:
    """Distributed GEqO_SET: :func:`cascade_group` on each SF-group."""
    res, groups = _groups(plans, CASCADE)
    if not groups:
        return res
    sc = spark.sparkContext
    weights = sc.broadcast(model.to_bytes())

    def run_groups(partition):
        model = EMF.from_bytes(weights.value)
        verifier = Verifier()
        for ids, group in partition:
            yield ids, cascade_group(group, model, tau=tau, verifier=verifier)

    try:
        collected = sc.parallelize(groups).mapPartitions(run_groups).collect()
    finally:
        weights.unpersist()
    for ids, group in collected:
        res.merge(group, ids)
    return res
