"""Tests for repro.core.throughput — the Table 1 harness."""
import gc

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F
from pyspark.sql.classic.dataframe import DataFrame

from repro.core import throughput
from repro.core.throughput import (
    ALL_QUERIES,
    PAPER_TABLE1,
    ThroughputResult,
    build_events,
    format_table1,
    make_processor,
    measure_query,
    table1,
    table1b,
)
from repro.nebula import expressions
from repro.nebula.engine import split_batches
from repro.sncb.events import event_size_for_query

SMALL = dict(duration_s=300.0, batch_rows=600)


class TestPaperNumbers:
    def test_all_eight_queries(self):
        assert ALL_QUERIES == [f"q{i}" for i in range(1, 9)]

    def test_paper_values_match_section3(self):
        assert PAPER_TABLE1["q1"] == (2.24, 20_000)
        assert PAPER_TABLE1["q5"] == (0.61, 8_000)
        assert PAPER_TABLE1["q6"] == (3.68, 32_000)
        assert PAPER_TABLE1["q7"] == (0.40, 10_000)
        assert PAPER_TABLE1["q8"] == (2.24, 20_000)

    def test_paper_mb_consistent_with_event_sizes(self):
        # MB/s ≈ e/s × B/event: the schemas were derived from this.
        for q, (mb, eps) in PAPER_TABLE1.items():
            implied = eps * event_size_for_query(q) / 1e6
            assert implied == pytest.approx(mb, rel=0.01), q


class TestBuildEvents:
    @pytest.mark.parametrize("qid", ALL_QUERIES)
    def test_builds_for_every_query(self, qid):
        pdf = build_events(qid, duration_s=120.0)
        assert len(pdf) > 0
        assert "ts" in pdf.columns and "train_id" in pdf.columns

    def test_unknown_query_raises(self, spark):
        with pytest.raises(ValueError):
            make_processor(spark, "q99", duration_s=60.0)


class TestMeasureQuery:
    @pytest.mark.parametrize("qid", ALL_QUERIES)
    def test_smoke_every_query(self, spark, qid):
        r = measure_query(spark, qid, **SMALL)
        assert isinstance(r, ThroughputResult)
        assert r.n_events > 0
        assert r.elapsed_s > 0
        assert r.events_per_s > 0
        assert r.mb_per_s == pytest.approx(
            r.events_per_s * r.event_size_b / 1e6
        )
        assert r.event_size_b == event_size_for_query(qid)

    def test_unknown_query(self, spark):
        with pytest.raises(ValueError):
            measure_query(spark, "q0", **SMALL)

    def test_session_conf_untouched(self, spark):
        before = spark.conf.getAll
        measure_query(spark, "q1", **SMALL)
        assert spark.conf.getAll == before

    def test_q1_produces_output(self, spark):
        r = measure_query(spark, "q1", duration_s=600.0, batch_rows=1200)
        assert r.n_output > 0  # alerts exist in the stream


class TestTable1:
    def test_assembles_frame(self, spark):
        df = table1(spark, qids=["q1", "q6"], **SMALL)
        assert list(df["qid"]) == ["q1", "q6"]
        for c in ["events_per_s", "mb_per_s", "paper_mb_per_s",
                  "paper_events_per_s", "ratio_vs_q1", "paper_ratio_vs_q1"]:
            assert c in df.columns
        assert df.loc[0, "ratio_vs_q1"] == pytest.approx(1.0)
        assert df.loc[0, "paper_ratio_vs_q1"] == pytest.approx(1.0)

    def test_format_contains_all_rows(self, spark):
        df = table1(spark, qids=["q1", "q7"], **SMALL)
        text = format_table1(df)
        assert "q1" in text and "q7" in text
        assert "paper MB/s" in text


class TestTable1b:
    """Push-down ships fewer uplink bytes than shipping raw events to the
    cloud; for Q7's stop windows it saves more than 99 %."""

    @pytest.fixture(scope="class")
    def report(self):
        return table1b(duration_s=600.0).set_index(["qid", "strategy"])

    def test_q1_pushdown_ships_fewer_bytes(self, report):
        assert (report.loc[("q1", "pushdown"), "bytes_shipped"]
                < report.loc[("q1", "cloud"), "bytes_shipped"])

    def test_q7_pushdown_saves_over_99_percent(self, report):
        assert report.loc[("q7", "pushdown"), "savings_frac"] > 0.99


class TestWeatherView:
    def test_rebuilt_q4_processor_reuses_its_weather_table(self, spark):
        def views():
            temp = [t.name for t in spark.catalog.listTables() if t.isTemporary]
            return len(temp), sum(spark.catalog.isCached(v) for v in temp)

        make_processor(spark, "q4", duration_s=180.0)
        before = views()
        make_processor(spark, "q4", duration_s=180.0)
        assert views() == before


class TestProcessorView:
    def test_released_processors_drop_their_event_views(self, spark):
        batch = build_events("q7", duration_s=60.0).head(200)
        before = spark.catalog.listTables()
        for _ in range(3):
            proc = make_processor(spark, "q7", duration_s=60.0)
            proc(batch)
            del proc
        gc.collect()
        assert spark.catalog.listTables() == before


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class TestCompiledProcessor:
    @pytest.mark.parametrize("qid", ALL_QUERIES)
    def test_batch_lowers_no_expression(self, spark, qid, monkeypatch):
        """The query is compiled when the processor is built; running it
        on a batch builds no expression and defines no UDF again."""
        proc = make_processor(spark, qid, duration_s=120.0)
        calls = []

        def counting(fn, name):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        for cls in [expressions.Expression, *_subclasses(expressions.Expression)]:
            for name in ("to_sql", "to_column", "_sql", "_udf_column"):
                if name in vars(cls):
                    monkeypatch.setattr(cls, name, counting(vars(cls)[name], name))
        monkeypatch.setattr(F, "pandas_udf", counting(F.pandas_udf, "pandas_udf"))
        assert proc(build_events(qid, duration_s=120.0).head(600)) >= 0
        assert calls == []


class TestMeasureQueryWarmup:
    def test_q7_measured_once_per_batch_equals_single_pass(self, spark, monkeypatch):
        """Warm-up batches go to their own processor: the measured Q7
        detector sees every batch once, so its output is a single pass."""
        duration_s, batch_rows = 600.0, 600
        fed: list[list[float]] = []

        def recording(*args, **kwargs):
            proc, seen = make_processor(*args, **kwargs), []
            fed.append(seen)

            def run(b):
                seen.append(float(b["ts"].iloc[0]))
                return proc(b)
            return run

        monkeypatch.setattr(throughput, "make_processor", recording)
        r = measure_query(spark, "q7", duration_s=duration_s, batch_rows=batch_rows)
        monkeypatch.undo()

        batches = list(split_batches(build_events("q7", duration_s=duration_s), batch_rows))
        firsts = [float(b["ts"].iloc[0]) for b in batches]
        assert firsts in fed  # the measured processor: each batch once, in order
        assert all(len(seen) in (1, len(batches)) for seen in fed)
        proc = make_processor(spark, "q7", duration_s=duration_s)
        assert r.n_output == sum(proc(b) for b in batches) > 0


#: Per-batch row counts of the multi-partition processors that one
#: partition per batch replaced, on ``stream(qid)``: its first five
#: 10 000-row batches, and its first 50 000 rows as one batch.
PINNED_COUNTS = {
    "q1": ([4060, 2899, 1134, 2193, 2012], [12298]),
    "q2": ([3, 3, 14, 15, 7], [39]),
    "q3": ([0, 675, 319, 415, 121], [1530]),
    "q4": ([2608, 733, 153, 0, 2510], [6004]),
    "q5": ([0, 0, 0, 14, 19], [28]),
    "q6": ([84, 90, 90, 90, 90], [420]),
    "q7": ([6, 6, 5, 5, 2], [24]),
    "q8": ([0, 2, 0, 1, 2], [5]),
}
#: Stream length of 100 000 events at 0.5 s (six trains); the generated
#: events and weather depend on it, so the pins hold for this length only.
STREAM_S = 100_000 * 0.5 / 6 + 5.0


@pytest.fixture(scope="module")
def stream():
    """``qid`` → its first 50 000 events at 0.5 s, seed 1, in arrival
    order (time, then train), as the benchmark replays them."""
    cache = {}

    def get(qid):
        if qid not in cache:
            pdf = build_events(qid, duration_s=STREAM_S, dt=0.5, seed=1)
            pdf = pdf.sort_values(["ts", "train_id"], kind="stable").head(50_000)
            cache[qid] = pdf.reset_index(drop=True)
        return cache[qid]

    return get


class TestOnePartitionBatch:
    """Each micro-batch runs as one partition: its plan has no exchange,
    each batch is one Spark job, and the results are those of the
    multi-partition processors it replaced.

    The first four 10 000-row batches include batches in which no row
    passes Q3's or Q4's filter. Catalyst evaluates such a filter over
    the local batch while planning and proves the result empty; counting
    that empty relation plans an exchange over no partitions."""

    @pytest.mark.parametrize("qid", ALL_QUERIES)
    def test_plan_has_no_exchange(self, spark, stream, qid, monkeypatch):
        proc = make_processor(spark, qid, duration_s=STREAM_S, seed=1)
        plans = []
        for action, plan_of in (("count", lambda df: df.groupBy().count()),
                                ("toPandas", lambda df: df)):
            def record(self, *args, _fn=getattr(DataFrame, action), _plan=plan_of):
                plans.append(_plan(self)._jdf.queryExecution().executedPlan().toString())
                return _fn(self, *args)
            monkeypatch.setattr(DataFrame, action, record)
        for b in list(split_batches(stream(qid), 10_000))[:4]:
            proc(b)
        assert len(plans) == 4
        for plan in plans:
            assert "Exchange" not in plan or "LocalTableScan <empty>" in plan, plan

    @pytest.mark.parametrize("qid", ALL_QUERIES)
    def test_one_spark_job_per_batch(self, spark, stream, qid):
        batches = list(split_batches(stream(qid), 10_000))[:4]
        make_processor(spark, qid, duration_s=STREAM_S, seed=1)(batches[0])  # one-time costs
        proc = make_processor(spark, qid, duration_s=STREAM_S, seed=1)
        sc = spark.sparkContext
        jobs = []
        try:
            for i, b in enumerate(batches):
                group = f"one-job-{qid}-{i}"
                sc.setJobGroup(group, group)
                proc(b)
                jobs.append(len(sc.statusTracker().getJobIdsForGroup(group)))
        finally:
            for key in ("spark.jobGroup.id", "spark.job.description"):
                sc.setLocalProperty(key, None)
        assert jobs == [1, 1, 1, 1]

    @pytest.mark.parametrize("rows", [10_000, 50_000])
    @pytest.mark.parametrize("qid", ALL_QUERIES)
    def test_counts_unchanged(self, spark, stream, qid, rows):
        proc = make_processor(spark, qid, duration_s=STREAM_S, seed=1)
        got = [proc(b) for b in split_batches(stream(qid), rows)]
        assert got == PINNED_COUNTS[qid][rows == 50_000]
