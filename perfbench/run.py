#!/usr/bin/env python3
"""GEqO benchmark: time to E(W) on the Table 1 workload.

Run from the repository root:

    python3 perfbench/run.py --workload table1-local --seed 1 --seconds 25 --trace 0

Workloads (all share the Table 1 plan pool of §7.5: 320 TPC-DS-lite plans,
51,040 pairs, 50 planted equivalences, generator seed 100 as in
Table 1; ``--seed`` shuffles the plan order, so every seed runs the
same work under other plan ids):

- ``table1-local``  the SF → VMF → EMF → AV cascade through ``geqo_set_local``;
- ``table1-spark``  the same plans and τ through ``geqo_set_spark``;
- ``verify-all``    the verify-every-pair baseline,
                    ``geqo_set_local(plans, None, filters=())``; one call
                    per run, too few to be steady on a shared host, so
                    it is run by hand and not listed in BENCHMARK.json.

Load is a closed loop with one client: one ``GEqO_SET`` call at a time,
the next one only after the previous returned, for ``--seconds``
seconds after set-up. Every call's output is checked (see ``check``);
a call that raises or fails a check counts as failed and the run goes
on. With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` untraced and traced calls alternate and the per-layer
metrics of ``perfbench/tracing.py`` are printed, with the tracing
overhead. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Each run appends a
record with the host fingerprint to ``perfbench/.work/records.jsonl``.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shlex
import statistics
import subprocess
import sys
import time
import traceback
import zipfile
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"  # model cache, Spark scratch, records, traces

WORKLOADS = ("table1-local", "table1-spark", "verify-all")
POOL_SEED = 100  # Table 1's workload generator seed

BLAS_THREADS = 1
SPARK_CORES = min(4, os.cpu_count() or 1)
SHUFFLE_PARTITIONS = 4
# Set-up steps that can repeat in-process do so, at least SETUP_REPEATS
# times and for at least SETUP_SECONDS; each step reports its median.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
MAX_FAILURES_KEPT = 20
PROBE_SECONDS = 0.5  # host-speed probes before and after the calls

E2E_UNITS = {
    "run_s": "s",
    "recall": "frac",
    "av_per_found": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

LAYER_UNITS = {
    # core.pipeline
    **{f"{st}.s": "s" for st in ("sf", "vmf", "emf", "av")},
    **{f"{st}.out": "count" for st in ("sf", "vmf", "emf", "av")},
    "pipeline.glue_s": "s",
    "pipeline.self_s": "s",
    # filters.vmf with encoding.agnostic, nn.model, ann.hnsw
    "vmf.groups": "count",
    "vmf.passthrough_groups": "count",
    "vmf.encode_s": "s",
    "vmf.embed_s": "s",
    "vmf.embed_rows": "count",
    "vmf.self_s": "s",
    "hnsw.build_s": "s",
    "hnsw.search_s": "s",
    "hnsw.searches": "count",
    "hnsw.recall": "frac",
    # filters.emf_filter
    "emf.pairs": "count",
    "emf.passthrough": "count",
    "emf.encode_s": "s",
    "emf.head_s": "s",
    "emf.self_s": "s",
    "emf.yield": "frac",
    # verifier.av with verifier.canonical and solver.fm
    "av.pairs": "count",
    "av.yield": "frac",
    "av.errors": "count",
    "av.flatten_calls": "count",
    "av.flatten_s": "s",
    "fm.sat_calls": "count",
    "fm.sat_s": "s",
    "fm.implies_calls": "count",
    "fm.implies_s": "s",
    "av.solver_calls": "count",
    "av.self_s": "s",
    # Spark executor
    "spark.jobs": "count",
    "spark.stages": "count",
    "spark.tasks": "count",
    "spark.empty_stage_s": "s",
    # set-up
    "setup.workload_s": "s",
    "setup.model_s": "s",
    "setup.tau_s": "s",
    "setup.spark_s": "s",
    "setup.first_call_s": "s",
    # the tracer itself
    "trace.run_s": "s",
    "trace.traced_run_s": "s",
    "trace.overhead_frac": "frac",
    "trace.spans": "count",
    # host speed around the calls (see probe())
    "host.probe_s": "s",
}


@dataclass(frozen=True)
class Size:
    plans: int = 320
    equiv: int = 50
    tau_pairs: int = 80
    train_pairs: int | None = None  # None: repro.nn.pretrained defaults
    epochs: int | None = None


SIZES = {
    "table1": Size(),
    "tiny": Size(plans=40, equiv=5, tau_pairs=10, train_pairs=60, epochs=2),
}


# --------------------------------------------------------------------------
# Process environment (before numpy or the JVM start)
# --------------------------------------------------------------------------


def configure_env() -> None:
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    # cached_model() reads and writes <REPRO_RESULTS_DIR>/models
    os.environ["REPRO_RESULTS_DIR"] = str(WORK / "results")
    # Spark's Python workers import repro through PYTHONPATH
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData -XX:+UseSerialGC"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        "--master", f"local[{SPARK_CORES}]",
        "--driver-memory", "512m",
        "--conf", "spark.driver.host=127.0.0.1",
        "--conf", "spark.ui.enabled=false",
        "--driver-java-options", shlex.quote(java_opts),
        "pyspark-shell",
    ])


def import_repro():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"repro imported from {repro.__file__}, not {SRC}")
    return repro


# --------------------------------------------------------------------------
# Model provisioning
# --------------------------------------------------------------------------


def _zip_ok(path: Path) -> bool:
    try:
        with zipfile.ZipFile(path) as z:
            return z.testzip() is None
    except (zipfile.BadZipFile, OSError):
        return False


def load_model(size: Size):
    from repro.nn import pretrained

    return pretrained.default_model(
        train_pairs=size.train_pairs or pretrained.TRAIN_PAIRS,
        epochs=size.epochs or pretrained.EPOCHS,
    )


def provision_model(size: Size) -> dict:
    """Make the benchmark's own model cache usable; train on a miss.

    ``cached_model`` loads whatever file sits at its path, so every
    ``.npz`` that does not open as a zip is deleted first. Returns info
    fields (cold training time is kept out of ``setup_s``)."""
    models = WORK / "results" / "models"
    models.mkdir(parents=True, exist_ok=True)
    removed = [p.name for p in models.glob("*.npz") if not _zip_ok(p)]
    for name in removed:
        (models / name).unlink()
    before = set(models.glob("*.npz"))
    t0 = time.perf_counter()
    load_model(size)
    dt = time.perf_counter() - t0
    new = sorted(set(models.glob("*.npz")) - before)
    return {
        "model_removed_invalid": removed,
        "model_train_s": dt if new else None,
        "model_bytes": new[0].stat().st_size if new else None,
    }


# --------------------------------------------------------------------------
# Host fingerprint
# --------------------------------------------------------------------------


def fingerprint() -> dict:
    from importlib.metadata import PackageNotFoundError, version

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass

    def ver(pkg):
        try:
            return version(pkg)
        except PackageNotFoundError:
            return None

    digest = hashlib.sha256()
    for p in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(p.relative_to(SRC)).encode())
        digest.update(p.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": ver("numpy"),
        "pyspark": ver("pyspark"),
        "duckdb": ver("duckdb"),
        "spark_master": f"local[{SPARK_CORES}]",
        "shuffle_partitions": SHUFFLE_PARTITIONS,
        "blas_threads": BLAS_THREADS,
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest()[:16],
    }


def _git_sha() -> str | None:
    """HEAD of the repository rooted exactly here; None elsewhere (a
    plain checkout without ``.git``, or no git installed)."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=20,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


# --------------------------------------------------------------------------
# Spark
# --------------------------------------------------------------------------


def start_spark():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("geqo-bench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.warehouse.dir", str(WORK / "spark-warehouse"))
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _children(pid: int) -> list[int]:
    """All live descendants of ``pid`` (from /proc)."""
    parent = {}
    for d in Path("/proc").iterdir():
        if d.name.isdigit():
            try:
                stat = (d / "stat").read_text()
            except OSError:
                continue
            parent[int(d.name)] = int(stat.rsplit(")", 1)[1].split()[1])
    out, frontier = [], [pid]
    while frontier:
        p = frontier.pop()
        kids = [c for c, pp in parent.items() if pp == p]
        out += kids
        frontier += kids
    return out


def _vm_hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as f:
            for ln in f:
                if ln.startswith("VmHWM:"):
                    return int(ln.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


def jvm_pid() -> int | None:
    from pyspark import SparkContext

    proc = getattr(SparkContext._gateway, "proc", None)
    return proc.pid if proc is not None else None


def stop_spark(spark) -> None:
    """Stop the session, end the JVM and wait for it and its Python
    workers to exit."""
    from pyspark import SparkContext

    proc = getattr(SparkContext._gateway, "proc", None)
    workers = _children(proc.pid) if proc is not None else []
    spark.stop()
    if proc is None:
        return
    proc.stdin.close()  # the gateway JVM exits on EOF from its parent
    proc.wait(timeout=60)
    deadline = time.monotonic() + 30
    while workers and time.monotonic() < deadline:
        workers = [p for p in workers if Path(f"/proc/{p}").exists()]
        time.sleep(0.05)


def spark_job_counts(spark, group: str) -> dict[str, int]:
    tracker = spark.sparkContext.statusTracker()
    stages = set()
    jobs = tracker.getJobIdsForGroup(group)
    for j in jobs:
        info = tracker.getJobInfo(j)
        if info is not None:
            stages.update(info.stageIds)
    ran = tasks = 0
    for s in stages:
        info = tracker.getStageInfo(s)
        if info is not None and info.numCompletedTasks + info.numFailedTasks > 0:
            ran += 1
            tasks += info.numCompletedTasks + info.numFailedTasks
    return {"spark.jobs": len(jobs), "spark.stages": ran, "spark.tasks": tasks}


def empty_stage_s(spark, repeats: int = 5) -> float:
    """Median wall time of a one-row ``mapInPandas`` round trip."""
    df = spark.range(1)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        df.mapInPandas(lambda it: it, "id long").collect()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# --------------------------------------------------------------------------
# Host speed
# --------------------------------------------------------------------------


def probe() -> float:
    """Seconds for a fixed mix of the work the cascade does: small numpy
    vector ops (HNSW), Fraction arithmetic (FM) and dict churn (encoding).

    On a shared host the same call runs up to 1.6 times slower from one
    minute to the next. Probes before and after the measured calls tell
    a slow host from a slow program; they run no code from ``src/``.
    They are not used to rescale timings: they do not follow the
    multi-core Spark calls or the speed inside one long call."""
    from fractions import Fraction

    import numpy as np

    V = np.random.default_rng(0).random((256, 32))
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(12000):
        d = V[k % 256] - V[(k * 7) % 256]
        acc += float(np.dot(d, d))
    f = Fraction(0)
    for k in range(1, 6000):
        f += Fraction(k % 13, k % 7 + 1)
    counts: dict[tuple[int, int], int] = {}
    for k in range(120000):
        key = (k % 101, k % 7)
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - t0


def probe_for(dest: list[float], seconds: float) -> None:
    """Append probe times to ``dest`` for about ``seconds`` (at least one)."""
    t_end = time.perf_counter() + seconds
    dest.append(probe())
    while time.perf_counter() < t_end:
        dest.append(probe())


# --------------------------------------------------------------------------
# The benchmark
# --------------------------------------------------------------------------


def shuffled(w, seed: int):
    """(plans, planted pairs) with the plan order permuted by ``seed``."""
    import numpy as np

    perm = np.random.default_rng(seed).permutation(len(w.plans))
    new_id = {int(old): new for new, old in enumerate(perm)}
    plans = [w.plans[int(old)] for old in perm]
    planted = {
        (min(new_id[i], new_id[j]), max(new_id[i], new_id[j])) for i, j in w.planted
    }
    return plans, planted


class Verdicts:
    """DuckDB falsifier verdicts, kept in ``.work`` between runs.

    A verdict depends only on the two plans and the falsifier's code, so
    the file is named by a digest of that code (and the DuckDB version)
    and each entry is keyed by the two plans' JSON."""

    CODE = ("verifier/model_check.py", "core/sqlgen.py", "core/plan.py")

    def __init__(self):
        import duckdb

        h = hashlib.sha256(duckdb.__version__.encode())
        for f in self.CODE:
            h.update((SRC / "repro" / f).read_bytes())
        self.path = WORK / f"falsifier-{h.hexdigest()[:16]}.json"
        try:
            self.known: dict[str, bool] = json.loads(self.path.read_text())
        except (OSError, ValueError):
            self.known = {}
        self.added = 0

    def refuted(self, p1, p2) -> bool:
        from repro.core.plan import to_json
        from repro.verifier.model_check import counterexample

        j1, j2 = to_json(p1), to_json(p2)
        if j2 < j1:  # one entry per unordered pair
            p1, p2, j1, j2 = p2, p1, j2, j1
        key = hashlib.sha256(f"{j1}\n{j2}".encode()).hexdigest()
        if key not in self.known:
            self.known[key] = counterexample(p1, p2) is not None
            self.added += 1
        return self.known[key]

    def save(self) -> None:
        if self.added:
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.known))
            os.replace(tmp, self.path)


class Bench:
    def __init__(self, workload: str, seed: int, size: Size):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.spark = None
        self.jvm_pid = None
        self.plans = []
        self.planted = set()
        self.model = None
        self.tau = None
        self.reference = None  # local result that table1-spark must match
        self.attempted = 0
        self.failed = 0
        self.violations = 0
        self.failures: list[str] = []  # the first MAX_FAILURES_KEPT
        self.setup: dict[str, float] = {}
        self.probes: list[float] = []
        self.info: dict = {}
        self.verdicts: Verdicts | None = None

    # -- set-up --------------------------------------------------------
    def set_up(self) -> bool:
        """Build inputs; False when the workload generator failed."""
        from repro.experiments.table1 import FAMILY_TIERS, TABLE_SETS
        from repro.filters.vmf import calibrate_tau
        from repro.workload.labeler import make_planted_workload, make_positive_pairs
        from repro.workload.schema import TPCDS_LITE

        self.verdicts = Verdicts()
        self.info.update(provision_model(self.size))
        uses_model = self.workload != "verify-all"
        times: dict[str, list[float]] = {"workload": [], "model": [], "tau": []}
        t_end = time.perf_counter() + SETUP_SECONDS
        while len(times["workload"]) < SETUP_REPEATS or time.perf_counter() < t_end:
            t0 = time.perf_counter()
            try:
                w = make_planted_workload(
                    TPCDS_LITE, n_subexpr=self.size.plans, n_equiv=self.size.equiv,
                    seed=POOL_SEED, table_sets=TABLE_SETS, max_proj=2,
                    family_tiers=FAMILY_TIERS,
                )
                self.plans, self.planted = shuffled(w, self.seed)
            except ValueError:
                self.attempted = self.failed = 1
                self.failures.append("workload generator: " + traceback.format_exc(limit=4))
                return False
            times["workload"].append(time.perf_counter() - t0)
            if not uses_model:
                continue
            t0 = time.perf_counter()
            self.model = load_model(self.size)
            times["model"].append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            pos = make_positive_pairs(TPCDS_LITE, self.size.tau_pairs, seed=POOL_SEED + 1)
            self.tau = calibrate_tau(self.model, [(p.p1, p.p2) for p in pos])
            times["tau"].append(time.perf_counter() - t0)
        for k, v in times.items():
            self.setup[k] = statistics.median(v) if v else 0.0
        self.setup["spark"] = 0.0
        if self.workload == "table1-spark":
            t0 = time.perf_counter()
            self.spark = start_spark()
            self.setup["spark"] = time.perf_counter() - t0
            self.jvm_pid = jvm_pid()
            try:
                self.reference = self._local_call(None)
            except Exception:  # noqa: BLE001 — the parity gate reports it
                self.failures.append("local reference: " + traceback.format_exc(limit=4))
        # Warm-up: the Spark executor starts its Python workers and the
        # JVM compiles on the first call. The AV path of verify-all keeps
        # nothing between calls, so it makes no warm-up call.
        self.setup["first_call"] = 0.0
        if self.workload != "verify-all":
            _, self.setup["first_call"] = self.attempt(self.call)
        return True

    # -- calls ---------------------------------------------------------
    def _local_call(self, verifier):
        from repro.core import pipeline

        return pipeline.geqo_set_local(self.plans, self.model, tau=self.tau, verifier=verifier)

    def call(self, verifier=None):
        from repro.core import pipeline

        if self.workload == "table1-local":
            return self._local_call(verifier)
        if self.workload == "table1-spark":
            return pipeline.geqo_set_spark(self.spark, self.plans, self.model, tau=self.tau)
        return pipeline.geqo_set_local(self.plans, None, filters=(), verifier=verifier)

    def attempt(self, fn):
        """(result, seconds) of one checked call; result None if the call
        raised or failed a check."""
        gc.collect()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            res = fn()
        except Exception:  # noqa: BLE001 — any escaping error is a failed call
            dt = time.perf_counter() - t0
            self.failed += 1
            self._keep_failure(traceback.format_exc(limit=6))
            return None, dt
        dt = time.perf_counter() - t0
        problems = self.check(res)
        if problems:
            self.failed += 1
            self.violations += 1
            self._keep_failure("; ".join(problems[:5]))
            return None, dt
        return res, dt

    def _keep_failure(self, msg: str) -> None:
        if len(self.failures) < MAX_FAILURES_KEPT:
            self.failures.append(msg)

    # -- correctness gates ---------------------------------------------
    def refuted(self, i: int, j: int) -> bool:
        """Does the DuckDB falsifier find a counterexample to (i, j)?"""
        return self.verdicts.refuted(self.plans[i], self.plans[j])

    def check(self, res) -> list[str]:
        problems = []
        n = len(self.plans)
        for i, j in sorted(res.pairs):
            if not 0 <= i < j < n:
                problems.append(f"pair {(i, j)} is not an index pair")
            elif self.refuted(i, j):
                problems.append(f"pair {(i, j)} refuted by the DuckDB falsifier")
        if self.workload == "table1-spark":
            ref = self.reference
            if ref is None:
                problems.append("no local reference to compare with")
            else:
                if res.pairs != ref.pairs:
                    problems.append(
                        f"pairs differ from local: {len(res.pairs ^ ref.pairs)} in symmetric difference"
                    )
                if res.survivors != ref.survivors:
                    problems.append(f"survivors {res.survivors} != local {ref.survivors}")
        return problems

    # -- measurement ---------------------------------------------------
    def measure(self, seconds: float) -> dict:
        samples, results = [], []
        probe_for(self.probes, PROBE_SECONDS)
        deadline = time.perf_counter() + seconds
        k, dt = 0, 0.0
        # no call starts that would likely end past the deadline
        while k == 0 or time.perf_counter() + dt <= deadline:
            k += 1
            res, dt = self.attempt(self.call)
            if res is not None:
                samples.append(dt)
                results.append(res)
        probe_for(self.probes, PROBE_SECONDS)
        self.info["call_s"] = samples
        self.info["probe_s"] = self.probes
        metrics = {}
        if samples:
            metrics["run_s"] = statistics.median(samples)
            metrics["recall"] = statistics.median(
                len(r.pairs & self.planted) / len(self.planted) for r in results
            )
            # the paper's 1+ε; no pair found counts as one found
            metrics["av_per_found"] = statistics.median(
                r.av_pairs_checked / max(len(r.pairs), 1) for r in results
            )
        metrics["setup_s"] = sum(self.setup.values())
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if self.jvm_pid is not None:
            rss += _vm_hwm_mb(self.jvm_pid)
        metrics["peak_rss_mb"] = rss
        metrics["ok_frac"] = 1 - self.failed / self.attempted
        return metrics

    def measure_traced(self, seconds: float) -> dict:
        """Alternate untraced and traced calls; per-layer medians over the
        traced ones, overhead against the untraced ones."""
        from repro.verifier.av import Verifier

        from tracing import Tracer, layer_patches

        tracer = Tracer()
        plain, traced, rows = [], [], []
        av_errors = 0
        probe_for(self.probes, PROBE_SECONDS)
        deadline = time.perf_counter() + seconds
        k, dt = 0, 0.0
        while k < 2 or time.perf_counter() + dt <= deadline:
            if k % 2 == 0:
                res, dt = self.attempt(self.call)
                if res is not None:
                    plain.append(dt)
            else:
                tracer.reset_call_state()
                patches = layer_patches(tracer)
                verifier = Verifier()
                group = f"geqo-bench-{k}"
                if self.spark is not None:
                    self.spark.sparkContext.setJobGroup(group, "traced GEqO_SET call")

                def traced_call():
                    with tracer.call(patches):
                        return self.call(verifier)

                res, dt = self.attempt(traced_call)
                av_errors += sum(
                    v for key, v in tracer.counts.items() if key.startswith("av.equivalent.")
                )
                if res is not None:
                    traced.append(dt)
                    row = layer_row(res, dt, tracer, verifier if self.spark is None else None)
                    if self.spark is not None:
                        row.update(spark_job_counts(self.spark, group))
                    rows.append(row)
            k += 1
        probe_for(self.probes, PROBE_SECONDS)
        self.info["call_s"] = plain
        self.info["traced_call_s"] = traced
        self.info["probe_s"] = self.probes
        metrics = {name: 0.0 for name in LAYER_UNITS}
        for name in rows[0] if rows else ():
            metrics[name] = statistics.median(r[name] for r in rows)
        metrics["av.errors"] = av_errors
        for step in ("workload", "model", "tau", "spark", "first_call"):
            metrics[f"setup.{step}_s"] = self.setup.get(step, 0.0)
        if self.spark is not None:
            metrics["spark.empty_stage_s"] = empty_stage_s(self.spark)
        if plain and traced:
            metrics["trace.run_s"] = statistics.median(plain)
            metrics["trace.traced_run_s"] = statistics.median(traced)
            metrics["trace.overhead_frac"] = (
                metrics["trace.traced_run_s"] / metrics["trace.run_s"] - 1
            )
        metrics["host.probe_s"] = statistics.mean(self.probes)
        tracer.dump(WORK / f"spans-{self.workload}.jsonl")
        return metrics

    def close(self) -> None:
        if self.verdicts is not None:
            self.verdicts.save()
        if self.spark is not None:
            stop_spark(self.spark)
            self.spark = None


def layer_row(res, wall: float, tracer, verifier) -> dict[str, float]:
    """Per-layer metrics of one traced call."""
    summ = tracer.summary(tracer.call_id)

    def span(name, key):
        return summ.get(name, {}).get(key, 0.0)

    t, s = res.times, res.survivors
    found, exact = tracer.hnsw_recall()
    vmf_groups = span("vmf.group", "count")
    row = {
        **{f"{st.lower()}.s": t.get(st, 0.0) for st in ("SF", "VMF", "EMF", "AV")},
        **{f"{st.lower()}.out": s.get(st, 0) for st in ("SF", "VMF", "EMF", "AV")},
        "pipeline.glue_s": wall - sum(t.values()),
        "pipeline.self_s": span("call", "self_s"),
        "vmf.groups": vmf_groups,
        "vmf.passthrough_groups": tracer.counts["vmf.group.ValueError"],
        "vmf.encode_s": span("vmf.embed_group", "self_s"),
        "vmf.embed_s": span("nn.embed_eval", "total_s"),
        "vmf.embed_rows": tracer.counts["vmf.embed_rows"],
        "vmf.self_s": span("vmf.group", "self_s"),
        "hnsw.build_s": span("hnsw.build", "total_s"),
        "hnsw.search_s": span("hnsw.radius_search", "total_s"),
        "hnsw.searches": span("hnsw.radius_search", "count"),
        # groups with nothing within τ are vacuously recalled
        "hnsw.recall": found / exact if exact else (1.0 if vmf_groups else 0.0),
        "emf.pairs": tracer.counts["emf.pairs"],
        "emf.passthrough": tracer.counts["emf.encode_pair.ValueError"],
        "emf.encode_s": span("emf.encode_pair", "total_s"),
        "emf.head_s": span("nn.predict_proba", "total_s"),
        "emf.self_s": span("emf.scores", "self_s"),
        "emf.yield": s["AV"] / s["EMF"] if s.get("EMF") else 0.0,
        "av.pairs": res.av_pairs_checked,
        "av.yield": s["AV"] / res.av_pairs_checked if res.av_pairs_checked else 0.0,
        "av.flatten_calls": span("av.flatten", "count"),
        "av.flatten_s": span("av.flatten", "total_s"),
        "fm.sat_calls": span("fm.satisfiable", "count"),
        "fm.sat_s": span("fm.satisfiable", "total_s"),
        "fm.implies_calls": span("fm.implies", "count"),
        "fm.implies_s": span("fm.implies", "total_s"),
        "av.solver_calls": verifier.solver_calls if verifier is not None else 0,
        "av.self_s": span("av.equivalent", "self_s"),
        "trace.spans": sum(r["count"] for r in summ.values()),
    }
    return row


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def report(metrics: dict, units: dict, info: dict) -> None:
    """Human-readable lines: every metric by name with its unit."""
    for name, unit in units.items():
        if name not in metrics:
            print(f"{name:24s} (not measured)")
            continue
        extra = ""
        if name == "run_s" and info.get("call_s"):
            calls = sorted(info["call_s"])
            n = len(calls)
            extra = f"  median of {n} calls"
            if n >= 20:  # highest percentile with at least ten calls beyond it
                extra += f"; p{100 * (n - 10) // n} {calls[n - 11]:.4f} s"
            extra += f"; host probe {statistics.mean(info['probe_s']):.4f} s"
        print(f"{name:24s} {metrics[name]:.6g} {unit}{extra}")
        if name == "ok_frac":
            print(f"{'failed_frac':24s} {1 - metrics[name]:.6g} frac  (1 - ok_frac)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0, help="plan order")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="table1",
                    help="'tiny' is for the benchmark's own smoke test")
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    configure_env()
    import_repro()

    bench = Bench(args.workload, args.seed, SIZES[args.size])
    host = fingerprint()
    try:
        if bench.set_up():
            metrics = (bench.measure_traced if args.trace else bench.measure)(args.seconds)
        else:
            metrics = {"ok_frac": 0.0}
    finally:
        bench.close()

    units = LAYER_UNITS if args.trace else E2E_UNITS
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "host": host,
        "setup": bench.setup, **bench.info, "failures": bench.failures,
        "metrics": metrics,
    }
    with open(WORK / "records.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    for msg in bench.failures:
        print("failure:", msg.strip().splitlines()[-1], file=sys.stderr)
    print("host " + json.dumps(host))
    if bench.info.get("model_train_s") is not None:
        print(f"model trained cold in {bench.info['model_train_s']:.1f} s "
              f"({bench.info['model_bytes']} bytes; not part of setup_s)")
    print(f"workload {args.workload} seed {args.seed}: "
          f"{bench.attempted} calls attempted, {bench.failed} failed")
    report(metrics, units, bench.info)
    result = {
        "correct": bench.violations == 0 and bench.failed < bench.attempted,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
