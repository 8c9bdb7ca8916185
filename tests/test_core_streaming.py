"""Structured-Streaming tests for the NebulaMEOS queries.

Each test replays a synthesized SNCB stream through a real Spark
streaming query (file source → memory sink or foreachBatch) and checks
the streamed result against the batch form of the same query — batch
results are themselves oracle-checked in test_core_queries_*.py, so
agreement here closes the loop.
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import queries as Q
from repro.core.streaming import (
    Q7StopDetector,
    Q8LowPressureDetector,
    q2_streaming,
    q6_streaming,
    run_foreach_batch_stream,
)
from repro.nebula.engine import (
    _spark_schema_of,
    stream_events_end_to_end,
    stream_from_files,
    write_stream_files,
)
from repro.sncb.zones import zones_df


def _canon(pdf, cols):
    pdf = pdf[cols].sort_values(cols).reset_index(drop=True)
    casts = {}
    for c in cols:
        if pdf[c].dtype.kind == "f":
            casts[c] = "float64"
        elif pdf[c].dtype.kind in "iu":
            casts[c] = "int64"
    return pdf.astype(casts)


class TestQ1Streaming:
    def test_matches_batch(self, spark, geofence_pdf, geofence_sdf):
        zones = zones_df(["maintenance"])
        streamed = stream_events_end_to_end(
            spark, lambda df: Q.q1_alert_filtering(df, zones), geofence_pdf, n_files=6
        )
        batch = Q.q1_alert_filtering(geofence_sdf, zones).toPandas()
        cols = ["train_id", "ts", "alert_kind"]
        pd.testing.assert_frame_equal(_canon(streamed, cols), _canon(batch, cols))


class TestQ2Streaming:
    def test_matches_batch(self, spark, geofence_pdf, geofence_sdf):
        zones = zones_df(["neighbourhood"])
        streamed = stream_events_end_to_end(
            spark, q2_streaming(zones), geofence_pdf, n_files=6,
            output_mode="append",
        )
        batch = Q.q2_noise_monitoring(geofence_sdf, zones).toPandas()
        cols = ["w_start_s", "zone_id", "n_events", "max_noise_db"]
        # Append mode emits only watermark-closed windows; every emitted
        # window must match its batch counterpart, and most windows
        # must have been emitted.
        streamed_c = _canon(streamed, cols)
        batch_c = _canon(batch, cols)
        merged = streamed_c.merge(batch_c, on=cols, how="left", indicator=True)
        assert (merged["_merge"] == "both").all()
        assert len(streamed_c) >= 0.5 * len(batch_c)


class TestQ3Streaming:
    def test_matches_batch(self, spark, geofence_pdf, geofence_sdf):
        zones = zones_df(["curve"])
        streamed = stream_events_end_to_end(
            spark, lambda df: Q.q3_dynamic_speed_limit(df, zones), geofence_pdf, n_files=6
        )
        batch = Q.q3_dynamic_speed_limit(geofence_sdf, zones).toPandas()
        cols = ["train_id", "ts", "zone_id", "speed_limit_kmh"]
        pd.testing.assert_frame_equal(_canon(streamed, cols), _canon(batch, cols))


class TestQ6Streaming:
    def test_matches_batch(self, spark, passenger_pdf, passenger_sdf):
        streamed = stream_events_end_to_end(
            spark,
            q6_streaming(),
            passenger_pdf.drop(columns=["route", "dwell"]),
            n_files=6,
            output_mode="append",
        )
        batch = Q.q6_heavy_passenger_load(passenger_sdf).toPandas()
        cols = ["w_start_s", "train_id", "max_onboard"]
        streamed_c = _canon(streamed, cols)
        batch_c = _canon(batch, cols)
        merged = streamed_c.merge(batch_c, on=cols, how="left", indicator=True)
        assert (merged["_merge"] == "both").all()
        assert len(streamed_c) >= 0.5 * len(batch_c)


class TestQ7ForeachBatch:
    def test_matches_batch_threshold_query(self, spark, stop_pdf, stop_sdf):
        """The stateful foreachBatch pipeline must find exactly the
        stops the batch threshold query finds, regardless of file/batch
        boundaries."""
        allowed = zones_df(["station", "workshop"])
        det = Q7StopDetector(allowed, min_stop_s=90.0)
        import tempfile

        file_pdf = stop_pdf.drop(columns=["t", "dwell"])
        with tempfile.TemporaryDirectory() as d:
            write_stream_files(file_pdf, d, n_files=10)
            src = stream_from_files(spark, d, _spark_schema_of(spark, file_pdf))
            streamed = run_foreach_batch_stream(spark, src, det)

        batch = Q.q7_unscheduled_stops(stop_sdf, allowed, min_stop_s=90.0).toPandas()
        cols = ["train_id", "w_start", "w_end", "n_events"]
        pd.testing.assert_frame_equal(
            _canon(streamed, cols), _canon(batch, cols)
        )
        # Classification agrees too.
        s = streamed.sort_values(["train_id", "w_start"]).reset_index(drop=True)
        b = batch.sort_values(["train_id", "w_start"]).reset_index(drop=True)
        np.testing.assert_array_equal(s["unscheduled"], b["unscheduled"])


class TestQ8bForeachBatch:
    def test_matches_batch_threshold_query(self, spark, brake_pdf, brake_sdf):
        det = Q8LowPressureDetector()
        import tempfile

        file_pdf = brake_pdf.drop(columns=["t"])
        with tempfile.TemporaryDirectory() as d:
            write_stream_files(file_pdf, d, n_files=10)
            src = stream_from_files(spark, d, _spark_schema_of(spark, file_pdf))
            streamed = run_foreach_batch_stream(spark, src, det)

        batch = Q.q8_low_pressure(brake_sdf).toPandas()
        cols = ["train_id", "w_start", "w_end", "n_events"]
        pd.testing.assert_frame_equal(_canon(streamed, cols), _canon(batch, cols))


class TestDetectorsWithoutWindows:
    """A stream in which no window closes still yields the window
    columns, for an empty batch and for a batch without any run."""

    def test_q8b_finish_has_columns(self, spark, brake_pdf):
        det = Q8LowPressureDetector()
        healthy = brake_pdf.drop(columns=["t"]).head(50).assign(brake_bar=9.0)
        sdf = spark.createDataFrame(healthy)
        assert len(det.process_spark_batch(sdf.limit(0))) == 0
        assert len(det.process_spark_batch(sdf)) == 0
        out = det.finish()
        assert len(out) == 0
        for c in ["train_id", "w_start", "w_end", "duration_s", "n_events",
                  "brake_bar_mean", "brake_bar_min", "brake_bar_max"]:
            assert c in out.columns
        assert out["w_start"].dtype == np.float64

    def test_q7_finish_has_columns(self, spark, stop_pdf):
        det = Q7StopDetector(zones_df(["station", "workshop"]))
        moving = stop_pdf.drop(columns=["t", "dwell"]).assign(speed_ms=10.0).head(50)
        assert len(det.process_spark_batch(spark.createDataFrame(moving))) == 0
        out = det.finish()
        assert len(out) == 0
        for c in ["train_id", "w_start", "w_end", "duration_s", "n_events",
                  "x_first", "y_first", "unscheduled"]:
            assert c in out.columns
