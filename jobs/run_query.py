"""Run one of the eight NebulaMEOS queries (paper §3) on its synthetic
SNCB stream and print its results.

    spark-submit jobs/run_query.py --query q7 [--duration-s 3600]

The events come from ``repro.sncb.events.EVENT_BUILDERS``, the static
zones from ``repro.core.queries.QUERY_ZONES``, and the query runs with
its default parameters. Q6 also prints its per-train extra-train
suggestion; Q8 prints both parts, Q8a (emergency clusters) and Q8b
(persistent low pressure).
"""
from __future__ import annotations

import argparse

from pyspark.sql import DataFrame, SparkSession

from repro.core import queries as Q
from repro.core.throughput import ALL_QUERIES, weather_view
from repro.sncb.events import EVENT_BUILDERS
from repro.sncb.zones import zones_df

#: The queries whose one result is ``transform(events, zones)``.
ZONE_TRANSFORMS = {
    "q1": Q.q1_alert_filtering, "q2": Q.q2_noise_monitoring,
    "q3": Q.q3_dynamic_speed_limit, "q5": Q.q5_battery_monitoring,
    "q7": Q.q7_unscheduled_stops,
}


def get_spark(app: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.shuffle.partitions", "8")
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )


def results(
    spark: SparkSession, qid: str, events: DataFrame, *, duration_s: float, seed: int
) -> dict[str, DataFrame]:
    """``qid``'s named result tables over ``events``."""
    if qid in ZONE_TRANSFORMS:
        return {qid: ZONE_TRANSFORMS[qid](events, zones_df(Q.QUERY_ZONES[qid]))}
    if qid == "q4":
        weather = spark.table(weather_view(spark, duration_s=duration_s, seed=seed))
        return {qid: Q.q4_weather_speed_zones(events, weather)}
    if qid == "q6":
        windows = Q.q6_heavy_passenger_load(events)
        return {qid: windows, "q6 extra-train suggestion": Q.q6_extra_train_suggestion(windows)}
    if qid == "q8":
        return {"q8a": Q.q8_emergency_clusters(events), "q8b": Q.q8_low_pressure(events)}
    raise ValueError(f"unknown query {qid!r}")


def run_query(
    spark: SparkSession,
    qid: str,
    *,
    duration_s: float = 3600.0,
    dt: float = 1.0,
    seed: int = 0,
    show: int = 20,
) -> dict[str, int]:
    """Run ``qid`` on a ``duration_s`` stream; print and return the row
    count of each result table, and print its first ``show`` rows."""
    pdf = EVENT_BUILDERS[qid](duration_s=duration_s, dt=dt, seed=seed)
    events = spark.createDataFrame(pdf)
    print(f"[{qid}] input events: {len(pdf):,}")
    counts = {}
    for name, out in results(spark, qid, events, duration_s=duration_s, seed=seed).items():
        counts[name] = out.count()
        print(f"[{name}] result rows: {counts[name]:,}")
        out.show(show, truncate=False)
    return counts


if __name__ == "__main__":
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--query", required=True, choices=ALL_QUERIES)
    p.add_argument("--duration-s", type=float, default=3600.0,
                   help="simulated stream length in seconds")
    p.add_argument("--dt", type=float, default=1.0,
                   help="sensor sampling period in seconds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--show", type=int, default=20, help="rows to print")
    args = p.parse_args()
    spark = get_spark(f"nebulameos-{args.query}")
    run_query(spark, args.query, duration_s=args.duration_s, dt=args.dt,
              seed=args.seed, show=args.show)
    spark.stop()
