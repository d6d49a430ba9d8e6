"""The GEqO cascade (§2.2): SF → VMF → EMF → AV.

The SF keys every subexpression on the driver, and every later stage
works inside one SF-group: :func:`cascade_group`, which encodes each
plan once for both the VMF and the EMF. The two implementations of ``GEqO_SET`` (Equation 1) are thin maps over it:

- :func:`geqo_set_spark` — one Spark stage without a shuffle: one row
  per SF-group, `mapInPandas` with the model weights broadcast once.
- :func:`geqo_set_local` — the same on the driver, used by the
  experiments, the SSFL inner loop and micro-benchmarks where Spark
  task overhead would drown the measured quantity.

A pair dropped by a stage never reaches the next. Both return a
:class:`PipelineResult` with per-stage survivor counts, times and
pass-throughs, which the Table 1 / ablation experiments report.
"""
from __future__ import annotations

import itertools
import pickle
import time
from dataclasses import dataclass, field

from pyspark.sql import SparkSession

from repro.core.plan import Plan, from_json, to_json
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
    av_unknown: int = 0  # AV raised: never reported as equivalent

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

    A pair whose AV check raises ``RuntimeError`` (the alias-bijection
    budget, or the solver's ``SolverError``) is counted in
    ``av_unknown`` and not reported."""
    res = _empty_result(len(plans), filters)
    pairs = list(itertools.combinations(range(len(plans)), 2))
    if "SF" in filters:
        res.survivors["SF"] = len(pairs)
    t0 = time.perf_counter()
    if "VMF" in filters or "EMF" in filters:
        group = instance_group(plans)  # timed with the first model filter
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
        try:
            if verifier.equivalent(plans[i], plans[j]):
                res.pairs.add((i, j))
        except RuntimeError:
            res.av_unknown += 1
    res.times["AV"] = time.perf_counter() - t0
    res.av_pairs_checked = len(pairs)
    res.survivors["AV"] = len(res.pairs)
    return res


def geqo_set_local(
    plans: list[Plan],
    model: EMF | None,
    *,
    filters: tuple[str, ...] = CASCADE,
    tau: float = DEFAULT_TAU,
    verifier: Verifier | None = None,
) -> PipelineResult:
    """Driver-side GEqO_SET; ``filters`` selects the cascade (ablation).

    The VMF embeds within SF-groups, so it groups the workload even
    without the SF; with neither, the workload is one group."""
    if model is None and ("VMF" in filters or "EMF" in filters):
        raise ValueError("VMF and EMF require a trained model")
    res = _empty_result(len(plans), filters)
    verifier = verifier or Verifier()

    t0 = time.perf_counter()
    if "SF" in filters or "VMF" in filters:
        groups = list(sf_groups(plans).values())
    else:
        groups = [list(range(len(plans)))]
    if "SF" in filters:
        res.times["SF"] = time.perf_counter() - t0
    for ids in groups:
        if len(ids) > 1:
            group = cascade_group(
                [plans[i] for i in ids], model, filters=filters, tau=tau,
                verifier=verifier,
            )
            res.merge(group, ids)
    return res


def geqo_set_spark(
    spark: SparkSession,
    plans: list[Plan],
    model: EMF,
    *,
    tau: float = DEFAULT_TAU,
) -> PipelineResult:
    """Distributed GEqO_SET: :func:`cascade_group` on each SF-group."""
    res = _empty_result(len(plans), CASCADE)
    t0 = time.perf_counter()
    rows = [
        (ids, [to_json(plans[i]) for i in ids])
        for ids in sf_groups(plans).values()
        if len(ids) > 1
    ]
    res.times["SF"] = time.perf_counter() - t0
    if not rows:
        return res

    weights = spark.sparkContext.broadcast(model.to_bytes())

    def run_groups(batches):
        import pandas as pd

        model = EMF.from_bytes(weights.value)
        verifier = Verifier()
        for pdf in batches:
            out = [
                pickle.dumps((ids.tolist(), cascade_group(
                    [from_json(s) for s in group], model, tau=tau, verifier=verifier,
                )))
                for ids, group in zip(pdf["ids"], pdf["plans"])
            ]
            yield pd.DataFrame({"result": out})

    try:
        collected = (
            spark.createDataFrame(rows, "ids array<long>, plans array<string>")
            .mapInPandas(run_groups, schema="result binary")
            .collect()
        )
    finally:
        weights.unpersist()
    for row in collected:
        ids, group = pickle.loads(row.result)
        res.merge(group, ids)
    return res
