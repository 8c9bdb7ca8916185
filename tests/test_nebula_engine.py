"""Tests for repro.nebula.engine — batch / micro-batch / streaming paths."""
import os

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.nebula.engine import (
    _spark_schema_of,
    run_streaming_to_memory,
    split_batches,
    stream_events_end_to_end,
    stream_from_files,
    write_stream_files,
)


def make_pdf(n=100):
    pdf = pd.DataFrame(
        {
            "ts": np.arange(n, dtype=np.float64),
            "k": np.arange(n) % 4,
            "v": np.arange(n, dtype=np.float64),
        }
    )
    pdf["t"] = pd.to_datetime(pdf["ts"], unit="s")
    return pdf


def keep_high(df):
    return df.filter(F.col("v") >= 50)


def edge_pdf():
    """Every column kind an event frame carries, with NaN and null
    floats (positions included), null strings and timestamps, and
    negative values."""
    return pd.DataFrame(
        {
            "ts": np.arange(8, dtype=np.float64) - 3.0,
            "x": [1.5, np.nan, None, -2.0, 0.0, 3.0, np.nan, -1e300],
            "y": [np.nan, 2.5, -7.25, None, 1.0, 0.0, 4.0, 1e-300],
            "v": [0.0, -0.5, np.nan, None, 2.0, np.inf, -np.inf, 7.0],
            "s": ["a", "b", None, "d", None, "", "é", "h"],
            "ok": [True, False, True, True, False, False, True, False],
            "i8": np.array([-128, 127, -1, 0, 1, 2, 3, 4], dtype=np.int8),
            "i32": np.array([-(2**31), 2**31 - 1, -5, 0, 5, 6, 7, 8], dtype=np.int32),
            "i64": np.array([-(2**63), 2**63 - 1, -9, 0, 9, 10, 11, 12], dtype=np.int64),
            "seen": pd.to_datetime([0.5, None, -1.25, 3, 4, 5, 6, 1.7e9], unit="s"),
        }
    )


def identity(df):
    return df


class TestSplitBatches:
    def test_covers_all_rows(self):
        pdf = make_pdf(100)
        parts = list(split_batches(pdf, 30))
        assert [len(p) for p in parts] == [30, 30, 30, 10]
        pd.testing.assert_frame_equal(pd.concat(parts), pdf)

    def test_exact_division(self):
        assert [len(p) for p in split_batches(make_pdf(90), 30)] == [30, 30, 30]

    def test_invalid_batch_rows(self):
        with pytest.raises(ValueError):
            list(split_batches(make_pdf(10), 0))


class TestStructuredStreaming:
    def test_filter_end_to_end(self, spark):
        pdf = make_pdf(100)
        got = stream_events_end_to_end(spark, keep_high, pdf, n_files=4)
        assert len(got) == 50
        assert got["v"].min() == 50

    def test_windowed_aggregation_with_watermark(self, spark):
        """Tumbling count over event time through a real streaming query
        — proves the window operators run under Structured Streaming,
        not just in batch."""
        pdf = make_pdf(120)

        def windowed(df):
            return (
                df.withWatermark("t", "10 seconds")
                .groupBy(F.window("t", "30 seconds"), "k")
                .agg(F.count("*").alias("n"))
                .select(F.col("window.start").alias("w_start"), "k", "n")
            )

        got = stream_events_end_to_end(
            spark, windowed, pdf, n_files=4, output_mode="complete"
        )
        # 120 s of 1 Hz events → 4 windows × 4 keys (30 s holds 30
        # events, balanced keys).
        assert len(got) == 16
        assert got["n"].sum() == 120

    def test_meos_udf_inside_stream(self, spark):
        """MEOS kernel (edwithin) applied inside Structured Streaming."""
        from repro.meos.geometry import Rect
        from repro.nebula.expressions import EdWithinExpression, field

        pdf = make_pdf(60)
        pdf["x"] = np.linspace(0, 600, 60)
        pdf["y"] = 0.0

        def geofence(df):
            expr = EdWithinExpression(field("x"), field("y"), [Rect(100, -10, 200, 10)], 0.0)
            return df.filter(expr.to_column())

        got = stream_events_end_to_end(spark, geofence, pdf, n_files=3)
        assert len(got) > 0
        assert got["x"].between(100, 200).all()

    def test_memory_sink_table_dropped(self, spark):
        before = spark.catalog.listTables()
        stream_events_end_to_end(spark, keep_high, make_pdf(20), n_files=2)
        assert spark.catalog.listTables() == before


class TestSpill:
    """``write_stream_files`` → ``stream_from_files`` keeps every row,
    value and Spark type of the frame, in stream order."""

    @pytest.mark.parametrize("tz", ["UTC", "America/New_York"])
    def test_round_trip_keeps_rows_and_types(self, spark, tz):
        """Equal dtypes pin the Spark types (int8 is ByteType, …); the
        timestamps keep their wall-clock time in any session time zone,
        as with ``createDataFrame``."""
        pdf = edge_pdf()
        old_tz = spark.conf.get("spark.sql.session.timeZone")
        spark.conf.set("spark.sql.session.timeZone", tz)
        try:
            got = stream_events_end_to_end(spark, identity, pdf, n_files=3)
            assert spark.createDataFrame(pdf).toPandas()["seen"].equals(pdf["seen"])
        finally:
            spark.conf.set("spark.sql.session.timeZone", old_tz)
        got = got.drop(columns="t").sort_values("ts").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, pdf)

    def test_empty_frame(self, spark, tmp_path):
        pdf = edge_pdf()
        assert write_stream_files(pdf.iloc[:0], str(tmp_path)) == []
        schema = spark.createDataFrame(pdf).schema
        got = run_streaming_to_memory(stream_from_files(spark, str(tmp_path), schema))
        assert got.empty
        assert list(got.columns) == list(pdf.columns)

    def test_empty_frame_end_to_end(self, spark):
        """The stream's schema comes from the frame itself, so an empty
        frame streams no row (inferring it from rows cannot)."""
        got = stream_events_end_to_end(spark, identity, edge_pdf().iloc[:0])
        assert got.empty
        assert list(got.columns) == [*edge_pdf().columns, "t"]

    def test_schema_from_whole_frame(self, spark):
        """A string column whose first values are null is still a string
        column, as ``createDataFrame`` types it."""
        pdf = edge_pdf().assign(s=[None, None, None, "d", None, "", "é", "h"])
        assert _spark_schema_of(spark, pdf) == spark.createDataFrame(pdf).schema
        got = stream_events_end_to_end(spark, identity, pdf, n_files=4)
        got = got.drop(columns="t").sort_values("ts").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, pdf)

    def test_more_files_than_rows(self, spark, tmp_path):
        """One row per part; the third part's only string is null."""
        pdf = edge_pdf().head(3)
        assert len(write_stream_files(pdf, str(tmp_path), n_files=8)) == 3
        got = stream_events_end_to_end(spark, identity, pdf, n_files=8)
        got = got.drop(columns="t").sort_values("ts").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, pdf)

    def test_parts_replay_in_write_order(self, tmp_path):
        """The file source replays parts by modification time in ms; on
        a tie it takes directory-listing order, which is not name order."""
        paths = write_stream_files(make_pdf(50), str(tmp_path), n_files=50)
        ms = [os.stat(p).st_mtime_ns // 1_000_000 for p in paths]
        assert all(a < b for a, b in zip(ms, ms[1:]))
