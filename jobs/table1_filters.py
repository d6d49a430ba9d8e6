"""Table 1 + §7.5 job: per-filter and end-to-end GEqO performance.

Usage: ``spark-submit jobs/table1_filters.py [n_subexpr] [n_equiv]``
(the experiment itself runs on the driver through ``geqo_set_local``;
``repro.core.pipeline.geqo_set_spark`` runs the same per-SF-group
cascade as one Spark stage, and its parity with the driver is tested).
"""
import sys

from _common import emit, standalone_session


def run(spark, n_subexpr: int = 320, n_equiv: int = 50) -> str:
    from repro.experiments import table1
    from repro.nn.pretrained import default_model

    res = table1.run(default_model(), n_subexpr=n_subexpr, n_equiv=n_equiv,
                     seed=100)
    return res.markdown()


def main() -> None:
    spark = standalone_session("geqo-table1")
    try:
        n = int(sys.argv[1]) if len(sys.argv) > 1 else 320
        e = int(sys.argv[2]) if len(sys.argv) > 2 else 50
        emit("table1", run(spark, n, e))
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
