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
per-query ratios and ordering. Each micro-batch runs as one partition,
like one NebulaStream tuple buffer through its fused pipeline.

:func:`table1b` adds the push-down comparison (uplink bytes with the
operators in the cloud vs on the trains).
"""
from __future__ import annotations

import re
import time
import uuid
import weakref
from collections.abc import Callable
from dataclasses import dataclass
from operator import methodcaller

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

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
    spark: SparkSession, qid: str, *, duration_s: float, seed: int = 0
) -> Callable[[pd.DataFrame], int]:
    """A per-micro-batch processor for ``qid``: takes one pandas batch,
    runs the full query pipeline, returns the number of result rows.

    The query is compiled here, once: its SQL statement, bound to an
    event view of this processor's own, the UDFs it calls and its static
    views (Q4's weather table). A call replaces the event view with the
    batch, as one partition, and runs the statement with one action. So
    every aggregate, window and join finds its input distributed as it
    needs: no exchange, one Spark job of one stage. Q7 and Q8b feed their
    compiled projection to a stateful threshold operator on the driver,
    as the streaming path does. The event view (the last batch) goes with
    the processor, but not at exit, when the session may be stopped.
    """
    zones = zones_df(Q.QUERY_ZONES[qid]) if qid in Q.QUERY_ZONES else None
    action: Callable[[DataFrame], int] = methodcaller("count")
    if qid == "q1":
        stmt = Q.q1_sql(zones)
    elif qid == "q2":
        stmt = Q.q2_sql(zones)
    elif qid == "q3":
        stmt = Q.q3_sql(zones)
    elif qid == "q4":
        stmt = Q.q4_sql().replace("{wx}", weather_view(spark, duration_s=duration_s, seed=seed))
    elif qid == "q5":
        register_meos_udfs(spark)
        stmt = Q.q5_sql(zones)
    elif qid == "q6":
        stmt = Q.q6_sql()
    elif qid == "q7":
        det = Q7StopDetector(zones)
        stmt = det.stmt
        action = lambda df: len(det.process_pandas_batch(df.toPandas()))  # noqa: E731
    elif qid == "q8":
        # One action: Q8b's flagged events, then one row per Q8a window
        # (tagged ``q8a``, train id only); the driver splits on the tag.
        det = Q8LowPressureDetector()
        stmt = (
            f"SELECT false AS q8a, * FROM ({det.stmt}) UNION ALL "
            f"SELECT true, train_id, NULL, NULL, NULL FROM ({Q.q8a_sql()})"
        )

        def action(df: DataFrame) -> int:
            pdf = df.toPandas()
            q8a = pdf.pop("q8a").to_numpy(dtype=bool)
            return int(q8a.sum()) + len(det.process_pandas_batch(pdf[~q8a]))
    else:
        raise ValueError(f"unknown query {qid!r}")
    view = f"ev_{qid}_{uuid.uuid4().hex}"
    stmt = stmt.replace("{ev}", view)

    def process(b: pd.DataFrame) -> int:
        spark.createDataFrame(b).coalesce(1).createOrReplaceTempView(view)
        return action(spark.sql(stmt))

    weakref.finalize(process, spark.catalog.dropTempView, view).atexit = False
    return process


def weather_view(spark: SparkSession, *, duration_s: float, seed: int) -> str:
    """The temp view of Q4's weather table, one partition, for a
    ``duration_s`` stream and ``seed``. The first call caches and
    materialises it; later calls with the same arguments reuse it, so
    rebuilt processors and jobs do not pile up cached tables."""
    view = re.sub(r"\W", "_", f"weather_{float(duration_s)}_{seed}")
    if not spark.catalog.tableExists(view):
        wx = spark.createDataFrame(
            weather_stream(t0=T0_EPOCH, duration_s=duration_s, seed=seed)
        ).coalesce(1).cache()
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
    warmup_batches: int = 1,
) -> ThroughputResult:
    """Measure one Table 1 row.

    The event stream is pre-generated; the timed section is the
    micro-batch processing loop only.
    """
    if qid not in PAPER_TABLE1:
        raise ValueError(f"unknown query {qid!r}")
    pdf = build_events(qid, duration_s=duration_s, dt=dt, seed=seed)
    build = dict(duration_s=duration_s, seed=seed)
    proc = make_processor(spark, qid, **build)
    # Q7 and Q8b keep driver-side state: they warm up on a processor of
    # their own, so no batch reaches the measured state twice.
    warm = make_processor(spark, qid, **build) if qid in ("q7", "q8") else proc
    batches = list(split_batches(pdf, batch_rows))
    for b in batches[:warmup_batches]:
        warm(b)
    n_output = 0
    t0 = time.perf_counter()
    for b in batches:
        n_output += proc(b)
    elapsed = time.perf_counter() - t0

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
) -> pd.DataFrame:
    """Measure all queries and assemble the Table 1 comparison frame:
    measured events/s and MB/s next to the paper's numbers, plus both
    normalised to their Q1 row (the shape comparison)."""
    qids = qids or ALL_QUERIES
    rows = [
        measure_query(
            spark, q, duration_s=duration_s, dt=dt, seed=seed, batch_rows=batch_rows
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
    stop windows (Q7's default stop, each shipped as a 64-byte record)
    with the threshold operator.
    """
    gf = EVENT_BUILDERS["q1"](duration_s=duration_s, dt=dt, seed=seed)
    shapes, _ = shapes_from_df(zones_df(Q.QUERY_ZONES["q1"]))
    in_mnt = in_any_zone(gf["x"].to_numpy(), gf["y"].to_numpy(), shapes)
    keep = (gf["alert_kind"] != "").to_numpy() & (gf["alert_essential"].to_numpy() | ~in_mnt)

    st = EVENT_BUILDERS["q7"](duration_s=duration_s, dt=dt, seed=seed)
    op = ThresholdWindowOperator(
        key_cols=["train_id"], flag_col="stopped", min_duration_s=Q.Q7_MIN_STOP_S
    )
    stopped = st["speed_ms"] < Q.Q7_SPEED_EPS_MS
    n_windows = len(op.process(st.assign(stopped=stopped))) + len(op.flush())

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
