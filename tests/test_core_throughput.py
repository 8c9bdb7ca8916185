"""Tests for repro.core.throughput — the Table 1 harness."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

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

    def test_shuffle_partitions_restored(self, spark):
        before = spark.conf.get("spark.sql.shuffle.partitions")
        measure_query(spark, "q1", **SMALL)
        assert spark.conf.get("spark.sql.shuffle.partitions") == before

    def test_edge_mode_runs(self, spark):
        r = measure_query(spark, "q1", edge_mode=True, **SMALL)
        assert r.events_per_s > 0

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
