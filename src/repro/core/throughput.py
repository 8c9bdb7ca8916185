"""Ingestion-rate / throughput harness — reproduces the paper's Table 1.

§3 reports, per query, a sustained throughput (MB/s) at an ingestion
rate (events/s):

    Q1–Q4: 2.24 MB/s @ 20 K e/s     Q5: 0.61 MB/s @  8 K e/s
    Q6:    3.68 MB/s @ 32 K e/s     Q7: 0.40 MB/s @ 10 K e/s
    Q8:    2.24 MB/s @ 20 K e/s

This harness measures the same quantities on our substrate: each query
pipeline consumes its event stream in micro-batches (the stream-engine
buffer model); events/s = events ÷ wall time over the processing loop
(stream generation excluded), MB/s = events/s × the query's nominal
event size (`sncb.events`). Absolute numbers will differ from the
paper's Intel-Atom edge device — EXPERIMENTS.md compares *shape*:
per-query ratios and ordering. ``edge_mode`` constrains execution to a
single partition to approximate the single-board deployment.

:func:`table1b` adds the push-down comparison (uplink bytes with the
operators in the cloud vs on the trains).
"""
from __future__ import annotations

import re
import time
from collections.abc import Callable
from dataclasses import dataclass

import pandas as pd
from pyspark.sql import SparkSession

from repro.core import queries as Q
from repro.core.streaming import Q7StopDetector, Q8LowPressureDetector
from repro.core.udfs import register_meos_udfs
from repro.meos.vectorized import in_any_zone
from repro.nebula.engine import split_batches
from repro.nebula.topology import Operator, place, transfer_bytes
from repro.nebula.windows import ThresholdWindowOperator
from repro.sncb.events import EVENT_BUILDERS, event_size_for_query
from repro.sncb.trains import T0_EPOCH
from repro.sncb.weather import weather_stream
from repro.sncb.zones import shapes_from_df, zones_df

#: qid → (paper MB/s, paper events/s).
PAPER_TABLE1: dict[str, tuple[float, int]] = {
    "q1": (2.24, 20_000), "q2": (2.24, 20_000), "q3": (2.24, 20_000),
    "q4": (2.24, 20_000), "q5": (0.61, 8_000), "q6": (3.68, 32_000),
    "q7": (0.40, 10_000), "q8": (2.24, 20_000),
}

ALL_QUERIES = sorted(PAPER_TABLE1)


@dataclass(frozen=True)
class ThroughputResult:
    """One Table 1 row: measured + paper-reported numbers."""

    qid: str
    n_events: int
    n_output: int
    elapsed_s: float
    events_per_s: float
    mb_per_s: float
    event_size_b: int
    paper_mb_per_s: float
    paper_events_per_s: int


def build_events(
    qid: str, *, duration_s: float = 1800.0, dt: float = 1.0, seed: int = 0
) -> pd.DataFrame:
    """The input stream for one query (generation is NOT timed)."""
    return EVENT_BUILDERS[qid](duration_s=duration_s, dt=dt, seed=seed)


def make_processor(
    spark: SparkSession,
    qid: str,
    *,
    duration_s: float,
    seed: int = 0,
    edge_mode: bool = False,
) -> Callable[[pd.DataFrame], int]:
    """A per-micro-batch processor for ``qid``: takes one pandas batch,
    runs the full query pipeline, returns the number of result rows.

    The query is compiled here, once: its SQL statement, the UDFs it
    calls and its static views (Q4's weather table). A call then runs
    only ``createDataFrame`` → ``spark.sql(statement, ev=batch)`` → one
    action. Q7 and Q8b run their stateful threshold operators
    incrementally (driver-side state), fed by their compiled projection
    — the same split the streaming wrappers use.
    """
    def to_spark(pdf):
        sdf = spark.createDataFrame(pdf)
        return sdf.coalesce(1) if edge_mode else sdf

    def count_rows(stmt: str) -> Callable[[pd.DataFrame], int]:
        return lambda b: spark.sql(stmt, ev=to_spark(b)).count()

    zones = zones_df(Q.QUERY_ZONES[qid]) if qid in Q.QUERY_ZONES else None
    if qid == "q1":
        return count_rows(Q.q1_sql(zones))
    if qid == "q2":
        return count_rows(Q.q2_sql(zones))
    if qid == "q3":
        return count_rows(Q.q3_sql(zones))
    if qid == "q4":
        # The static view is bound once; only {ev} is bound per batch.
        view = weather_view(spark, duration_s=duration_s, seed=seed)
        return count_rows(Q.q4_sql().replace("{wx}", view))
    if qid == "q5":
        register_meos_udfs(spark)
        return count_rows(Q.q5_sql(zones))
    if qid == "q6":
        return count_rows(Q.q6_sql())
    if qid == "q7":
        det = Q7StopDetector(zones)
        return lambda b: len(det.process_spark_batch(to_spark(b)))
    if qid == "q8":
        det = Q8LowPressureDetector()
        q8a = Q.q8a_sql()

        def q8(b) -> int:
            # Both statements read the batch; re-reading its Arrow data
            # costs less than caching it.
            sdf = to_spark(b)
            return spark.sql(q8a, ev=sdf).count() + len(det.process_spark_batch(sdf))

        return q8
    raise ValueError(f"unknown query {qid!r}")


def weather_view(spark: SparkSession, *, duration_s: float, seed: int) -> str:
    """The temp view of Q4's weather table for a ``duration_s`` stream
    and ``seed``. The first call caches and materialises the table;
    later calls with the same arguments reuse it, so building processors
    and jobs again does not pile up cached tables."""
    view = re.sub(r"\W", "_", f"weather_{float(duration_s)}_{seed}")
    if not spark.catalog.tableExists(view):
        wx = spark.createDataFrame(
            weather_stream(t0=T0_EPOCH, duration_s=duration_s, seed=seed)
        ).cache()
        wx.count()  # materialise outside the timed loop
        wx.createOrReplaceTempView(view)
    return view


def measure_query(
    spark: SparkSession,
    qid: str,
    *,
    duration_s: float = 1800.0,
    dt: float = 1.0,
    seed: int = 0,
    batch_rows: int = 20_000,
    edge_mode: bool = False,
    warmup_batches: int = 1,
    shuffle_partitions: int | None = 8,
) -> ThroughputResult:
    """Measure one Table 1 row.

    The event stream is pre-generated; the timed section is the
    micro-batch processing loop only. ``shuffle_partitions`` is applied
    for the measurement (micro-batches are small; the session default
    of 64 partitions only measures scheduler overhead) and restored
    afterwards; ``edge_mode`` forces single-partition execution.
    """
    if qid not in PAPER_TABLE1:
        raise ValueError(f"unknown query {qid!r}")
    pdf = build_events(qid, duration_s=duration_s, dt=dt, seed=seed)
    build = dict(duration_s=duration_s, seed=seed, edge_mode=edge_mode)
    proc = make_processor(spark, qid, **build)
    # Q7 and Q8b keep driver-side state: they warm up on a processor of
    # their own, so no batch reaches the measured state twice.
    warm = make_processor(spark, qid, **build) if qid in ("q7", "q8") else proc
    batches = list(split_batches(pdf, batch_rows))

    old_parts = spark.conf.get("spark.sql.shuffle.partitions")
    if shuffle_partitions is not None:
        spark.conf.set(
            "spark.sql.shuffle.partitions",
            "1" if edge_mode else str(shuffle_partitions),
        )
    try:
        for b in batches[:warmup_batches]:
            warm(b)
        n_output = 0
        t0 = time.perf_counter()
        for b in batches:
            n_output += proc(b)
        elapsed = time.perf_counter() - t0
    finally:
        spark.conf.set("spark.sql.shuffle.partitions", old_parts)

    n_events = len(pdf)
    eps = n_events / elapsed if elapsed > 0 else float("inf")
    size = event_size_for_query(qid)
    paper_mb, paper_eps = PAPER_TABLE1[qid]
    return ThroughputResult(
        qid=qid,
        n_events=n_events,
        n_output=n_output,
        elapsed_s=elapsed,
        events_per_s=eps,
        mb_per_s=eps * size / 1e6,
        event_size_b=size,
        paper_mb_per_s=paper_mb,
        paper_events_per_s=paper_eps,
    )


def table1(
    spark: SparkSession,
    *,
    qids: list[str] | None = None,
    duration_s: float = 1800.0,
    dt: float = 1.0,
    seed: int = 0,
    batch_rows: int = 20_000,
    edge_mode: bool = False,
) -> pd.DataFrame:
    """Measure all queries and assemble the Table 1 comparison frame:
    measured events/s and MB/s next to the paper's numbers, plus both
    normalised to their Q1 row (the shape comparison)."""
    qids = qids or ALL_QUERIES
    rows = [
        measure_query(
            spark, q, duration_s=duration_s, dt=dt, seed=seed,
            batch_rows=batch_rows, edge_mode=edge_mode,
        )
        for q in qids
    ]
    df = pd.DataFrame([r.__dict__ for r in rows])
    if "q1" in set(df["qid"]):
        base = df.loc[df["qid"] == "q1", "events_per_s"].iloc[0]
        paper_base = df.loc[df["qid"] == "q1", "paper_events_per_s"].iloc[0]
        df["ratio_vs_q1"] = df["events_per_s"] / base
        df["paper_ratio_vs_q1"] = df["paper_events_per_s"] / paper_base
    return df


def format_table1(df: pd.DataFrame) -> str:
    """Human-readable Table 1 (the rows the paper reports, side by
    side with ours)."""
    lines = [
        f"{'query':<6} {'paper MB/s':>10} {'paper e/s':>10} "
        f"{'ours MB/s':>10} {'ours e/s':>10} {'B/event':>8} {'outputs':>8}",
    ]
    for r in df.itertuples():
        lines.append(
            f"{r.qid:<6} {r.paper_mb_per_s:>10.2f} {r.paper_events_per_s:>10,} "
            f"{r.mb_per_s:>10.2f} {r.events_per_s:>10,.0f} "
            f"{r.event_size_b:>8} {r.n_output:>8}"
        )
    return "\n".join(lines)


def table1b(*, duration_s: float = 3600.0, dt: float = 0.5, seed: int = 0) -> pd.DataFrame:
    """Table 1b — uplink bytes of Q1 and Q7 on the coordinator/worker
    model (`repro.nebula.topology`) with every operator in the cloud vs
    pushed down to the trains.

    Each query's edge-side selectivity is measured on its own stream,
    without Spark: Q1's alert filter with the MEOS zone kernel, Q7's
    stop windows (≥ 60 s below 0.5 m/s, each shipped as a 64-byte
    record) with the threshold operator.
    """
    gf = EVENT_BUILDERS["q1"](duration_s=duration_s, dt=dt, seed=seed)
    shapes, _ = shapes_from_df(zones_df(Q.QUERY_ZONES["q1"]))
    in_mnt = in_any_zone(gf["x"].to_numpy(), gf["y"].to_numpy(), shapes)
    keep = (gf["alert_kind"] != "").to_numpy() & (gf["alert_essential"].to_numpy() | ~in_mnt)

    st = EVENT_BUILDERS["q7"](duration_s=duration_s, dt=dt, seed=seed)
    op = ThresholdWindowOperator(key_cols=["train_id"], flag_col="stopped", min_duration_s=60.0)
    n_windows = len(op.process(st.assign(stopped=st["speed_ms"] < 0.5))) + len(op.flush())

    chains = {
        "q1": (len(gf), [Operator("q1_filter", selectivity=float(keep.mean()))]),
        "q7": (len(st), [Operator("q7_windows", selectivity=n_windows / len(st),
                                  out_event_size=64)]),
    }
    rows = []
    for qid, (n, ops) in chains.items():
        for strategy in ("cloud", "pushdown"):
            rep = transfer_bytes(
                ops, place(ops, strategy), n_events=n, event_size=event_size_for_query(qid)
            )
            rows.append({"qid": qid, "strategy": strategy, **rep.__dict__,
                         "savings_frac": rep.savings_frac})
    return pd.DataFrame(rows)
