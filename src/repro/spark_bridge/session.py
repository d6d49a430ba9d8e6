"""The Spark SQL settings shared by every session this repo starts."""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def sql_session(builder: SparkSession.Builder) -> SparkSession:
    """``builder.getOrCreate()`` with the SQL settings that the tests,
    the benchmarks and ``jobs/run_table.py`` share, so that a table
    measured by a job and by its benchmark runs the same session.

    ``spark.sql.shuffle.partitions`` is 64, or ``SPARK_SHUFFLE_PARTITIONS``.
    Broadcast joins are disabled so that joins take the shuffle path at
    the small scale factors used here; a query that wants a broadcast
    join sets the threshold back for itself. Deployment settings
    (master, driver host, UI) stay with the caller."""
    return (
        builder.config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
