"""Tests for jobs/run_query.py — the one entry point that runs any query
on its synthetic stream."""
import pytest

from jobs.run_query import run_query
from repro.core import queries as Q
from repro.core.throughput import ALL_QUERIES
from repro.sncb.events import EVENT_BUILDERS
from repro.sncb.zones import zones_df

DURATION_S = 120.0


@pytest.mark.parametrize("qid", ALL_QUERIES)
def test_runs_every_query(spark, qid, capsys):
    counts = run_query(spark, qid, duration_s=DURATION_S, show=1)
    names = {"q6": ["q6", "q6 extra-train suggestion"], "q8": ["q8a", "q8b"]}.get(qid, [qid])
    assert list(counts) == names
    printed = capsys.readouterr().out
    assert f"[{qid}] input events: " in printed
    for name in names:
        assert f"[{name}] result rows: {counts[name]:,}" in printed


def test_q7_job_runs_the_query_default(spark):
    """The job's Q7 uses the query's own ``min_stop_s``: on this stream
    every stop lasts 60 s, so a job with a longer minimum finds none."""
    counts = run_query(spark, "q7", duration_s=DURATION_S, show=0)
    events = spark.createDataFrame(EVENT_BUILDERS["q7"](duration_s=DURATION_S))
    expected = Q.q7_unscheduled_stops(events, zones_df(Q.QUERY_ZONES["q7"])).count()
    assert counts["q7"] == expected > 0
