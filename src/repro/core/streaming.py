"""Structured-Streaming forms of the NebulaMEOS queries.

Stateless queries (Q1, Q3, Q4) stream in append mode unchanged: their
``repro.core.queries`` transform is the streaming transform. Windowed
aggregations get an event-time watermark ahead of the window (Q2 and
Q6 here). Threshold-window queries (Q7, Q8b) cannot use
``applyInPandas`` under Structured Streaming; they run through
``foreachBatch`` in a :class:`ThresholdDetector`, whose incremental
:class:`~repro.nebula.windows.ThresholdWindowOperator` carries a summary
of each key's open run across micro-batches — the stateful-operator pattern
an edge engine uses (and the reason NebulaMEOS had to extend the window
framework rather than reuse stock operators).
"""
from __future__ import annotations

from collections.abc import Callable

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core import queries as Q
from repro.meos.vectorized import min_zone_distance
from repro.nebula.windows import ThresholdWindowOperator
from repro.sncb.sensors import LOW_PRESSURE_BAR
from repro.sncb.zones import shapes_from_df


def q2_streaming(
    neighbourhood_zones, *, window: str = "60 seconds", watermark: str = "30 seconds"
) -> Callable[[DataFrame], DataFrame]:
    """Q2 with an event-time watermark ahead of the tumbling window."""

    def transform(df: DataFrame) -> DataFrame:
        return Q.q2_noise_monitoring(
            df.withWatermark("t", watermark), neighbourhood_zones, window=window
        )

    return transform


def q6_streaming(
    *, window: str = "60 seconds", watermark: str = "30 seconds"
) -> Callable[[DataFrame], DataFrame]:
    def transform(df: DataFrame) -> DataFrame:
        return Q.q6_heavy_passenger_load(df.withWatermark("t", watermark), window=window)

    return transform


# ---------------------------------------------------------------------
# foreachBatch path for threshold-window queries
# ---------------------------------------------------------------------

class ThresholdDetector:
    """A threshold-window query as a stateful micro-batch pipeline.

    Per batch: run the query's per-event projection ``stmt`` (over the
    view ``{ev}``) in Spark, then feed its rows to the incremental
    threshold operator ``op`` (driver-side state). Every window closed
    so far is kept for :meth:`finish`.
    """

    def __init__(self, stmt: str, op: ThresholdWindowOperator) -> None:
        self.stmt = stmt
        self.op = op
        self.windows: list[pd.DataFrame] = []

    def _classify(self, wins: pd.DataFrame) -> pd.DataFrame:
        """Per-query columns derived from closed windows (none here)."""
        return wins

    def process_spark_batch(self, batch_df: DataFrame) -> pd.DataFrame:
        # The per-event flags are evaluated *in the engine*, by the same
        # statement the batch query runs; only the stateful threshold
        # operator runs on the driver.
        pdf = batch_df.sparkSession.sql(self.stmt, ev=batch_df).toPandas()
        return self.process_pandas_batch(pdf)

    def process_pandas_batch(self, pdf: pd.DataFrame) -> pd.DataFrame:
        """Feed pre-flagged events to the stateful operator; returns the
        windows this batch closed."""
        wins = self._classify(self.op.process(pdf))
        if len(wins):
            self.windows.append(wins)
        return wins

    def foreach_batch(self, batch_df: DataFrame, batch_id: int) -> None:
        self.process_spark_batch(batch_df)

    def finish(self) -> pd.DataFrame:
        """Close open runs and return all windows detected so far."""
        tail = self._classify(self.op.flush())
        if len(tail):
            self.windows.append(tail)
        if not self.windows:
            return tail
        return pd.concat(self.windows, ignore_index=True)


class Q7StopDetector(ThresholdDetector):
    """Q7: the ``stopped`` flag and the compiled ``in_allowed`` geofence
    check (built once here) per event; a closed stop is unscheduled when
    it began outside every allowed zone."""

    def __init__(
        self,
        allowed_zones,
        *,
        min_stop_s: float = Q.Q7_MIN_STOP_S,
        speed_eps_ms: float = Q.Q7_SPEED_EPS_MS,
    ) -> None:
        self.shapes, _ = shapes_from_df(allowed_zones)
        super().__init__(
            "SELECT train_id, ts, x, y, stopped, in_allowed "
            f"FROM ({Q.q7_sql(allowed_zones, speed_eps_ms=speed_eps_ms)})",
            ThresholdWindowOperator(
                key_cols=["train_id"], flag_col="stopped",
                min_duration_s=min_stop_s, carry_cols=["x", "y", "in_allowed"],
            ),
        )

    def _classify(self, wins: pd.DataFrame) -> pd.DataFrame:
        wins = wins.copy()
        wins["unscheduled"] = ~wins["in_allowed_first"].astype(bool)
        return wins

    def process_pandas_batch(self, pdf: pd.DataFrame) -> pd.DataFrame:
        """Computes ``in_allowed`` itself if the batch lacks it."""
        if "in_allowed" not in pdf.columns:
            pdf = pdf.copy()
            pdf["in_allowed"] = (
                min_zone_distance(pdf["x"].to_numpy(), pdf["y"].to_numpy(), self.shapes)
                <= 0.0
            )
        return super().process_pandas_batch(pdf)


class Q8LowPressureDetector(ThresholdDetector):
    """Q8b (persistent low pressure while moving)."""

    def __init__(
        self, *, low_bar: float = LOW_PRESSURE_BAR,
        min_duration_s: float = Q.Q8B_MIN_DURATION_S,
        moving_eps_kmh: float = Q.Q8B_MOVING_EPS_KMH,
    ) -> None:
        super().__init__(
            "SELECT train_id, ts, brake_bar, low_p "
            f"FROM ({Q.q8b_sql(low_bar=low_bar, moving_eps_kmh=moving_eps_kmh)})",
            ThresholdWindowOperator(
                key_cols=["train_id"], flag_col="low_p",
                min_duration_s=min_duration_s, value_cols=["brake_bar"],
            ),
        )


def run_foreach_batch_stream(
    spark: SparkSession,
    source: DataFrame,
    detector,
    *,
    timeout_s: float = 120.0,
) -> pd.DataFrame:
    """Drive a streaming source through a stateful detector via
    ``foreachBatch`` and return the detector's collected windows."""
    query = (
        source.writeStream.foreachBatch(detector.foreach_batch)
        .trigger(availableNow=True)
        .start()
    )
    try:
        query.awaitTermination(timeout_s)
    finally:
        if query.isActive:
            query.stop()
    return detector.finish()
