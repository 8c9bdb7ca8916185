"""Tests for repro.nebula.engine — batch / micro-batch / streaming paths."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.nebula.engine import split_batches, stream_events_end_to_end


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
