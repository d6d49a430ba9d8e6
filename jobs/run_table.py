"""Regenerate one of the paper's tables and write ``results/<table>.md``.

Usage: ``spark-submit jobs/run_table.py <table>`` (``python`` works too),
with ``<table>`` one of ``table1``, ``table3``, ``table4``, ``table5``,
``ablation`` or ``caching``. Each table runs at its canonical
parameters, the defaults of its ``repro.experiments`` harness, and is
written by ``repro.experiments.write_result``, like the benchmarks.

Only ``caching`` (§7.7) starts a Spark session. The other tables run on
the driver: Table 1 calls ``geqo_set_local``, whose agreement with the
one-stage ``geqo_set_spark`` is tested.
"""
import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.experiments import (  # noqa: E402
    ablation,
    caching_study,
    table1,
    table3,
    table4,
    table5,
    write_result,
)

TABLES = {
    "table1": table1,
    "table3": table3,
    "table4": table4,
    "table5": table5,
    "ablation": ablation,
    "caching": caching_study,
}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description="Regenerate one paper table.")
    ap.add_argument("table", choices=list(TABLES))
    return ap.parse_args(argv)


def _spark_session():
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName("geqo-caching")
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )


def run(name: str):
    """The named table's result at its canonical parameters."""
    from repro.nn.pretrained import default_model

    t0 = time.perf_counter()
    model = default_model()
    load_s = time.perf_counter() - t0
    if name == "table3":
        return table3.run(model, mlp_train_seconds=load_s)
    if name == "caching":
        spark = _spark_session()
        try:
            return caching_study.run(spark, model)
        finally:
            spark.stop()
    return TABLES[name].run(model)


def main(argv: list[str] | None = None) -> None:
    name = parse_args(argv).table
    markdown = run(name).markdown()
    path = write_result(name, markdown)
    print(markdown)
    print(f"\n[written to {path}]")


if __name__ == "__main__":
    main()
