"""Self-test of the benchmark's output check: it must flag a wrong program.

    PYTHONPATH=src python -m pytest perfbench -q
"""
import pytest

from perfbench import reference as R
from perfbench import workloads as W
from repro.core.throughput import make_processor

SMALL = W.Settings(stream_batches=3, warmup_rounds=0, min_samples=12, stream_files=2)


@pytest.fixture
def few_partitions(spark):
    old = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", str(SMALL.shuffle_partitions))
    yield spark
    spark.conf.set("spark.sql.shuffle.partitions", old)


def short_weather(spark, qid, *, duration_s, seed):
    """``make_processor`` handed a Q4 weather table that covers only the
    first third of the stream, so later batches silently lose rows."""
    if qid == "q4":
        duration_s /= 3
    return make_processor(spark, qid, duration_s=duration_s, seed=seed)


@pytest.mark.parametrize("processor, ok", [(make_processor, True), (short_weather, False)])
def test_check_flags_short_weather_table(few_partitions, processor, ok):
    inp = W.make_inputs("geofence", 3, SMALL)
    loop = W.run_microbatch(
        few_partitions, "geofence", inp, SMALL, seconds=0, processor=processor
    )
    assert loop.attempted >= 12
    frac = loop.end_to_end()["ok_frac"]
    assert (frac == 1.0) if ok else (frac < 1.0)


@pytest.mark.parametrize("qid", ["q2", "q7"])
def test_stream_check_flags_a_lost_row(qid):
    events, _ = W.stream_events(qid, 20_000, SMALL.dt_s, 3)
    expected = R.stream_result(qid, events)
    assert len(expected) > 1
    assert R.same_rows(expected.copy(), expected)
    assert not R.same_rows(expected.iloc[1:].reset_index(drop=True), expected)


def test_replayed_batch_changes_stateful_counts():
    """Feeding a batch twice into a Q7 detector (as a warm-up that reuses
    the processor would) changes what it emits; the per-batch reference
    assumes each batch is seen once, so the check would flag it."""
    from repro.core.streaming import Q7StopDetector
    from repro.sncb.zones import zones_df

    events, _ = W.stream_events("q7", 30_000, SMALL.dt_s, 3)
    expected = R.batch_counts("q7", events, 10_000)
    batches = [events.iloc[i:i + 10_000] for i in range(0, 30_000, 10_000)]

    def emitted(order):
        det = Q7StopDetector(zones_df(R.Q7_ZONES))
        pdf = lambda b: b.assign(stopped=b["speed_ms"] < 0.5)  # noqa: E731
        return [len(det.process_pandas_batch(pdf(b))) for b in order]

    assert emitted(batches) == list(expected)
    replayed = emitted([batches[0], *batches])[1:]
    assert replayed != list(expected)
