"""Result caching case study job (§7.7 / Figure 15) on Spark +
TPC-H-lite. Usage:
``spark-submit jobs/caching_case_study.py [n_classes] [sf]``"""
import sys

from _common import emit, standalone_session


def run(spark, n_classes: int = 6, sf: float = 0.2) -> str:
    from repro.experiments import caching_study
    from repro.nn.pretrained import default_model

    res = caching_study.run(
        spark, default_model(), n_classes=n_classes, sf=sf,
        cache_dir="results/cache", seed=600,
    )
    return res.markdown()


def main() -> None:
    spark = standalone_session("geqo-caching")
    try:
        n = int(sys.argv[1]) if len(sys.argv) > 1 else 6
        sf = float(sys.argv[2]) if len(sys.argv) > 2 else 0.2
        emit("caching", run(spark, n, sf))
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
