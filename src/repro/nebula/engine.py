"""Query execution: batch, micro-batch, and Structured Streaming.

The same query — a ``DataFrame → DataFrame`` transform — runs on three
paths, mirroring how a NebulaStream query executes identically whether
fed from a replayed file or a live source:

* batch — call the transform on a static DataFrame.
* micro-batch — :func:`split_batches` cuts the event stream into
  fixed-size batches; the throughput harness
  (`repro.core.throughput.make_processor`) converts each through Arrow
  and runs the query's compiled statement on it (stable timing, no
  streaming-trigger jitter).
* :func:`stream_from_files` + :func:`run_streaming_to_memory` — real
  Structured Streaming over replayed Parquet part files, collected
  through a memory sink (watermarks, windows and triggers end-to-end).
"""
from __future__ import annotations

import math
import os
import tempfile
import time
import uuid
from collections.abc import Callable, Iterator

import pandas as pd
import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T
from pyspark.sql.pandas.types import from_arrow_schema


def split_batches(pdf: pd.DataFrame, batch_rows: int) -> Iterator[pd.DataFrame]:
    """Split an event frame into contiguous micro-batches (stream order
    = frame order)."""
    if batch_rows <= 0:
        raise ValueError("batch_rows must be positive")
    for i in range(0, len(pdf), batch_rows):
        yield pdf.iloc[i : i + batch_rows]


# ---------------------------------------------------------------------
# Structured Streaming path
# ---------------------------------------------------------------------

def _spark_schema_of(spark: SparkSession, pdf: pd.DataFrame) -> T.StructType:
    """The whole frame's Spark schema, typed as ``createDataFrame`` types
    it, from the frame's Arrow schema: an empty frame has one too, and a
    column whose first values are null is typed by the rest."""
    ntz = spark.conf.get("spark.sql.timestampType") == "TIMESTAMP_NTZ"
    return from_arrow_schema(pa.Schema.from_pandas(pdf, preserve_index=False), ntz)


def write_stream_files(
    pdf: pd.DataFrame,
    directory: str,
    *,
    n_files: int = 8,
    ts_col: str = "ts",
) -> list[str]:
    """Write the event frame as time-ordered Parquet part files — the
    replayed "continuous event stream" of §3 (the paper simulates its
    stream from a recorded dataset the same way). Every part has the
    whole frame's column types (also a part whose strings are all null),
    timestamps in µs (Spark cannot read ns), and part ``i`` is stamped ``i``
    ms after the first: the file source replays parts by mtime in ms, and
    a tie in listing, not name, order."""
    import pyarrow.parquet as pq  # not at module level: micro-batch runs need no writer (~3 MB)

    os.makedirs(directory, exist_ok=True)
    table = pa.Table.from_pandas(pdf.sort_values(ts_col), preserve_index=False)
    per = max(1, math.ceil(len(table) / n_files))
    base_ns = time.time_ns()
    paths = []
    for i, start in enumerate(range(0, len(table), per)):
        path = os.path.join(directory, f"part-{i:05d}.parquet")
        pq.write_table(table.slice(start, per), path, coerce_timestamps="us",
                       allow_truncated_timestamps=True)
        os.utime(path, ns=(base_ns + i * 1_000_000,) * 2)
        paths.append(path)
    return paths


def stream_from_files(
    spark: SparkSession,
    directory: str,
    schema: T.StructType,
    *,
    max_files_per_trigger: int = 1,
) -> DataFrame:
    """A Structured Streaming source over Parquet part files. Timestamps
    keep their wall-clock time in the session's zone, as in ``createDataFrame``."""
    ts = [f.name for f in schema if isinstance(f.dataType, T.TimestampType)]
    wall = T.StructType([T.StructField(f.name, T.TimestampNTZType()) if f.name in ts else f
                         for f in schema])
    src = spark.readStream.schema(wall).option("maxFilesPerTrigger", max_files_per_trigger)
    return src.parquet(directory).withColumns({c: F.col(c).cast("timestamp") for c in ts})


def run_streaming_to_memory(
    sdf: DataFrame,
    *,
    output_mode: str = "append",
    timeout_s: float = 120.0,
) -> pd.DataFrame:
    """Start the streaming query with a memory sink, process everything
    available, and return the collected result (its table is dropped)."""
    name = f"q_{uuid.uuid4().hex[:8]}"
    query = (
        sdf.writeStream.format("memory")
        .queryName(name)
        .outputMode(output_mode)
        .trigger(availableNow=True)
        .start()
    )
    spark = sdf.sparkSession
    try:
        query.awaitTermination(timeout_s)
        return spark.table(name).toPandas()
    finally:
        if query.isActive:
            query.stop()
        spark.catalog.dropTempView(name)


def stream_events_end_to_end(
    spark: SparkSession,
    transform: Callable[[DataFrame], DataFrame],
    pdf: pd.DataFrame,
    *,
    ts_datetime_col: str = "t",
    n_files: int = 8,
    output_mode: str = "append",
) -> pd.DataFrame:
    """Full streaming round trip: spill ``pdf`` to Parquet files, read
    as a stream, apply ``transform``, collect via memory sink. The
    event-time column is not spilled but rebuilt from ``ts`` after read."""
    with tempfile.TemporaryDirectory(prefix="nebula-stream-") as d:
        file_pdf = pdf.drop(columns=[ts_datetime_col], errors="ignore")
        write_stream_files(file_pdf, d, n_files=n_files)
        src = stream_from_files(spark, d, _spark_schema_of(spark, file_pdf))
        src = src.withColumn(ts_datetime_col, F.timestamp_seconds(F.col("ts")))
        return run_streaming_to_memory(transform(src), output_mode=output_mode)
