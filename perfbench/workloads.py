"""The three closed-loop workloads: inputs, timed loops and their figures.

``geofence`` and ``gcep`` push whole micro-batches through
``repro.core.throughput.make_processor``, one batch in flight, the
workload's queries taking turns (round-robin) so that a slow stretch of
the host hits every query alike. ``streaming`` hands whole recorded
streams to the engine's Structured Streaming calls, again one at a time
and round-robin.

Inputs come from ``repro.sncb`` with the run's seed and are built, with
their reference outputs, before the session starts; the program sees
only the generated frames.
"""
from __future__ import annotations

import os
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from perfbench import reference as R
from perfbench.trace import ProgressListener, Tracer, job_counts
from repro.core import streaming as S
from repro.core.throughput import make_processor
from repro.meos import vectorized as V
from repro.nebula import engine as E
from repro.sncb import sensors
from repro.sncb.events import EVENT_BUILDERS, event_size_for_query
from repro.sncb.trains import T0_EPOCH
from repro.sncb.weather import cell_id_of, weather_stream
from repro.sncb.zones import shapes_from_df, zones_df

QUERIES = {
    "geofence": ["q1", "q2", "q3", "q4"],
    "gcep": ["q5", "q6", "q7", "q8"],
    "streaming": ["q2", "q6", "q7", "q8"],
}
#: Processors that carry operator state from batch to batch.
STATEFUL = {"q7", "q8"}


@dataclass(frozen=True)
class Settings:
    """Everything that fixes what a run measures; recorded with it."""

    master: str = "local[2]"
    shuffle_partitions: int = 2
    driver_memory: str = "2g"
    batch_rows: int = 10_000
    dt_s: float = 0.5
    #: Batches per generated micro-batch stream; a run that needs more
    #: starts the stream again from fresh operator state.
    stream_batches: int = 16
    warmup_rounds: int = 3
    #: Files (= triggers) per replayed stream on ``streaming``; its
    #: warm-up round replays ``stream_warmup_files`` of them.
    stream_files: int = 5
    stream_warmup_files: int = 2
    #: A run keeps measuring past ``--seconds`` until it has this many
    #: batch samples, so ``batch_ms_p75`` has 10 samples beyond it.
    min_samples: int = 40


@dataclass
class Inputs:
    seed: int
    duration_s: float
    events: dict[str, pd.DataFrame]
    batches: dict[str, list[pd.DataFrame]] = field(default_factory=dict)
    expected: dict[str, object] = field(default_factory=dict)


def stream_events(qid: str, rows: int, dt_s: float, seed: int) -> tuple[pd.DataFrame, float]:
    """``rows`` events of ``qid``'s stream in arrival order: the six
    trains report together, so the frame is ordered by time, then train."""
    duration = rows * dt_s / 6 + 10 * dt_s
    pdf = EVENT_BUILDERS[qid](duration_s=duration, dt=dt_s, seed=seed)
    pdf = pdf.sort_values(["ts", "train_id"], kind="stable").head(rows)
    return pdf.reset_index(drop=True), duration


def make_inputs(workload: str, seed: int, cfg: Settings) -> Inputs:
    """Generate the workload's streams and their reference outputs."""
    qids = QUERIES[workload]
    if workload == "streaming":
        rows = cfg.stream_files * cfg.batch_rows
        events, duration = {}, 0.0
        for q in qids:
            events[q], duration = stream_events(q, rows, cfg.dt_s, seed)
        inp = Inputs(seed, duration, events)
        for q in qids:
            inp.expected[q] = R.stream_result(q, events[q])
        return inp
    rows = cfg.stream_batches * cfg.batch_rows
    events, by_builder = {}, {}
    duration = 0.0
    for q in qids:
        builder = EVENT_BUILDERS[q]
        if builder not in by_builder:
            by_builder[builder], duration = stream_events(q, rows, cfg.dt_s, seed)
        events[q] = by_builder[builder]
    inp = Inputs(seed, duration, events)
    wx = weather_stream(t0=T0_EPOCH, duration_s=duration, seed=seed)
    for q in qids:
        inp.batches[q] = list(E.split_batches(events[q], cfg.batch_rows))
        inp.expected[q] = R.batch_counts(q, events[q], cfg.batch_rows, weather=wx)
    return inp


# ---------------------------------------------------------------------
# MEOS floor: the query's kernels run directly on the pandas batch
# ---------------------------------------------------------------------

def _floor_fn(qid: str):
    if qid == "q1":
        shapes, _ = shapes_from_df(zones_df(R.Q1_ZONES))

        def f(b):
            m = (b["alert_kind"] != "").to_numpy()
            return V.ewithin_any(b["x"].to_numpy()[m], b["y"].to_numpy()[m], shapes, 0.0)
        return f
    if qid in ("q2", "q3"):
        shapes, ids = shapes_from_df(zones_df(R.Q2_ZONES if qid == "q2" else R.Q3_ZONES))
        return lambda b: V.zone_id_at(b["x"].to_numpy(), b["y"].to_numpy(), shapes, ids)
    if qid == "q4":
        return lambda b: cell_id_of(b["x"].to_numpy(), b["y"].to_numpy())
    if qid == "q5":
        shapes, ids = shapes_from_df(zones_df(R.Q5_ZONES))

        def f(b):
            sensors.expected_battery_voltage(b["ts"].to_numpy() - T0_EPOCH)
            return V.nearest_zone(b["x"].to_numpy(), b["y"].to_numpy(), shapes, ids)
        return f
    if qid == "q6":
        return lambda b: None  # windows only: no MEOS kernel
    if qid == "q7":
        shapes, _ = shapes_from_df(zones_df(R.Q7_ZONES))

        def f(b):
            V.min_zone_distance(b["x"].to_numpy(), b["y"].to_numpy(), shapes)
            return V.run_lengths(b["speed_ms"].to_numpy() < 0.5)
        return f
    if qid == "q8":
        return lambda b: V.run_lengths(
            (b["brake_bar"].to_numpy() < sensors.LOW_PRESSURE_BAR)
            & (b["speed_kmh"].to_numpy() > 3.6)
        )
    raise ValueError(qid)


# ---------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------

def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


@dataclass
class Loop:
    """What the timed part of a run saw."""

    qids: list[str]
    wall_s: float = 0.0
    events: int = 0
    bytes: float = 0.0
    attempted: int = 0
    failed: int = 0
    batch_ms: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    untraced_ms: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    per_query: dict[str, dict[str, list[float]]] = field(
        default_factory=lambda: defaultdict(lambda: defaultdict(list))
    )

    def samples(self) -> int:
        """Batches timed so far, traced or not."""
        return sum(len(v) for v in (*self.batch_ms.values(), *self.untraced_ms.values()))

    def end_to_end(self) -> dict[str, float]:
        """Throughput over the timed wall time, and batch-time
        percentiles that weigh every query alike: ``batch_ms_p50`` is
        the mean of the queries' median batch times, ``batch_ms_p75``
        scales it by the 75th percentile of all batch times taken
        relative to their query's median. (Percentiles of the pooled
        times would sit on the gap between a slow and a fast query.)"""
        meds = {q: pct(v, 50) for q, v in self.batch_ms.items() if v}
        rel = [x / m for q, m in meds.items() for x in self.batch_ms[q]]
        p50 = float(np.mean(list(meds.values()))) if meds else 0.0
        return {
            "events_per_s": self.events / self.wall_s,
            "mb_per_s": self.bytes / self.wall_s / 1e6,
            "batch_ms_p50": p50,
            "batch_ms_p75": p50 * pct(rel, 75) if rel else 0.0,
            "ok_frac": (self.attempted - self.failed) / self.attempted,
        }


def _report_failure(what: str, exc: BaseException | None = None) -> None:
    print(f"[perfbench] failed: {what}", file=sys.stderr)
    if exc is not None:
        traceback.print_exception(exc, file=sys.stderr)


def _traced_round(rnd: int) -> bool:
    """Traced rounds of a traced run in ABBA order (0, 3, 4, 7, 8, …), so
    a steady drift of the host or the JIT weighs on traced and untraced
    rounds alike."""
    return rnd % 4 in (0, 3)


# ---------------------------------------------------------------------
# Micro-batch workloads
# ---------------------------------------------------------------------

def run_microbatch(
    spark,
    workload: str,
    inp: Inputs,
    cfg: Settings,
    *,
    seconds: float,
    tracer: Tracer | None = None,
    on_first_timed=lambda: None,
    processor=make_processor,
) -> Loop:
    """Warm up, then time round after round until ``seconds`` have
    passed and ``cfg.min_samples`` batches were timed.

    Every processor sees the stream in order, each batch once; past the
    end of the generated stream the stateful processors are rebuilt and
    the stream starts again, so no batch is replayed into old state.
    With a ``tracer``, half the rounds are traced (see ``_traced_round``).
    """
    qids = QUERIES[workload]
    sc = spark.sparkContext
    build = lambda q: processor(spark, q, duration_s=inp.duration_s, seed=inp.seed)  # noqa: E731
    procs = {q: build(q) for q in qids}
    floors = {q: _floor_fn(q) for q in qids}
    n_batches = len(inp.batches[qids[0]])
    for r in range(cfg.warmup_rounds):
        for q in qids:
            procs[q](inp.batches[q][r])

    loop = Loop(qids)
    pos, rnd = cfg.warmup_rounds, 0
    counted_rounds = -(-cfg.min_samples // len(qids))
    on_first_timed()
    while loop.wall_s < seconds or loop.samples() < cfg.min_samples:
        if pos == n_batches:
            procs.update({q: build(q) for q in qids if q in STATEFUL})
            pos = 0
        traced = tracer is not None and _traced_round(rnd)
        t_round = time.perf_counter()
        for q in qids:
            b = inp.batches[q][pos]
            group = f"perfbench-{q}-{rnd}"
            if traced:
                sc.setJobGroup(group, group)
                tracer.enabled = True
                root = tracer.open(
                    "batch", "batch", qid=q, idx=pos, counted=rnd < counted_rounds
                )
            t0 = time.perf_counter()
            try:
                got = procs[q](b)
            except Exception as exc:  # a failing batch counts, the loop goes on
                got = None
                _report_failure(f"{q} batch {pos}", exc)
            dt_ms = (time.perf_counter() - t0) * 1e3
            if traced:
                tracer.close(root)
                tracer.enabled = False
                root.attrs["rows_out"] = got if got is not None else -1
                root.attrs["input_rows"] = len(b)
                root.attrs["jobs"], root.attrs["stages"], root.attrs["tasks"] = (
                    job_counts(sc, group)
                )
                t_f = time.perf_counter()
                floors[q](b)
                loop.per_query[q]["meos_floor_ms"].append((time.perf_counter() - t_f) * 1e3)
            loop.attempted += 1
            if got is None or got != inp.expected[q][pos]:
                loop.failed += 1
                if got is not None:
                    _report_failure(
                        f"{q} batch {pos}: {got} rows, expected {inp.expected[q][pos]}"
                    )
            else:
                (loop.batch_ms if tracer is None or traced else loop.untraced_ms)[q].append(dt_ms)
            loop.events += len(b)
            loop.bytes += len(b) * event_size_for_query(q)
        loop.wall_s += time.perf_counter() - t_round
        pos += 1
        rnd += 1
    return loop


# ---------------------------------------------------------------------
# Streaming workload
# ---------------------------------------------------------------------

def _stream_once(spark, qid: str, frame: pd.DataFrame, n_files: int) -> pd.DataFrame:
    """One whole-stream run of ``qid`` through the engine's public calls."""
    if qid == "q2":
        return E.stream_events_end_to_end(
            spark, S.q2_streaming(zones_df(R.Q2_ZONES)), frame, n_files=n_files
        )
    if qid == "q6":
        return E.stream_events_end_to_end(spark, S.q6_streaming(), frame, n_files=n_files)
    with tempfile.TemporaryDirectory(prefix="perfbench-stream-") as d:
        pdf = frame.drop(columns=["t"])
        E.write_stream_files(pdf, d, n_files=n_files)
        schema = spark.createDataFrame(pdf.head(2)).schema
        src = E.stream_from_files(spark, d, schema)
        det = (
            S.Q7StopDetector(zones_df(R.Q7_ZONES)) if qid == "q7"
            else S.Q8LowPressureDetector()
        )
        return S.run_foreach_batch_stream(spark, src, det)


def _progress_figures(progress: list, pq: dict) -> list:
    """Append the per-trigger phase times of one stream to ``pq``;
    returns its data triggers."""
    data = [p for p in progress if p.numInputRows > 0]
    for p in data:
        d = p.durationMs
        parts = {
            "get_batch_ms": d.get("getBatch", 0), "query_planning_ms": d.get("queryPlanning", 0),
            "add_batch_ms": d.get("addBatch", 0), "wal_commit_ms": d.get("walCommit", 0),
        }
        for k, v in parts.items():
            pq[k].append(float(v))
        pq["trigger_other_ms"].append(d.get("triggerExecution", 0) - sum(parts.values()))
    last = progress[-1] if progress else None
    ops = list(last.stateOperators) if last is not None else []
    pq["state_rows_total"].append(sum(o.numRowsTotal for o in ops))
    pq["state_memory_mb"].append(sum(o.memoryUsedBytes for o in ops) / 1e6)
    return data


def run_streaming(
    spark,
    inp: Inputs,
    cfg: Settings,
    *,
    seconds: float,
    listener: ProgressListener,
    tracer: Tracer | None = None,
    on_first_timed=lambda: None,
) -> Loop:
    """Replay each query's stream, round-robin, until ``seconds`` have
    passed and ``cfg.min_samples`` triggers were timed. A stream's time
    runs from handing over the frame to holding the collected result."""
    qids = QUERIES["streaming"]
    sc = spark.sparkContext
    loop = Loop(qids)
    counted_rounds = -(-cfg.min_samples // (len(qids) * cfg.stream_files))
    rnd = -1  # the warm-up round: a short prefix of every stream
    while rnd < 0 or loop.wall_s < seconds or loop.samples() < cfg.min_samples:
        if rnd == 0:
            on_first_timed()
        traced = tracer is not None and rnd >= 0 and _traced_round(rnd)
        n_files = cfg.stream_warmup_files if rnd < 0 else cfg.stream_files
        for q in qids:
            frame = inp.events[q].head(n_files * cfg.batch_rows)
            listener.begin()
            if traced:
                tracer.enabled = True
                root = tracer.open(
                    "stream", "batch", qid=q, idx=rnd, counted=rnd < counted_rounds
                )
            t0 = time.perf_counter()
            try:
                out = _stream_once(spark, q, frame, n_files)
            except Exception as exc:  # a failing stream counts, the loop goes on
                out = None
                _report_failure(f"stream {q} round {rnd}", exc)
            dt = time.perf_counter() - t0
            if traced:
                tracer.close(root)
                tracer.enabled = False
            ok = None if out is None else rnd < 0 or R.same_rows(
                R.canon(out, R.STREAM_COLUMNS[q]), inp.expected[q]
            )
            try:
                progress = listener.wait_all_terminated()
            except TimeoutError as exc:
                progress, ok = [], None
                _report_failure(f"stream {q} round {rnd}", exc)
            if rnd < 0:
                continue
            pq = loop.per_query[q]
            data = _progress_figures(progress, pq)
            if traced:
                root.attrs["rows_out"] = len(out) if ok is not None else -1
                root.attrs["triggers"] = len(data)
                root.attrs["input_rows"] = sum(p.numInputRows for p in data)
                # The stream thread runs its jobs in the query's run id group.
                counts = [job_counts(sc, run_id) for run_id in listener.started]
                for i, k in enumerate(("jobs", "stages", "tasks")):
                    root.attrs[k] = sum(c[i] for c in counts)
            loop.attempted += 1
            if not ok:
                loop.failed += 1
                if ok is False:
                    _report_failure(f"stream {q} round {rnd}: result differs from reference")
                # result is wrong: its triggers do not count as batches
            else:
                trig = [float(p.durationMs.get("triggerExecution", 0)) for p in data]
                (loop.batch_ms if tracer is None or traced else loop.untraced_ms)[q].extend(trig)
            loop.wall_s += dt
            loop.events += len(frame)
            loop.bytes += len(frame) * event_size_for_query(q)
        rnd += 1
    return loop


# ---------------------------------------------------------------------
# Per-layer figures of a traced run
# ---------------------------------------------------------------------

def _arrow_mb(frame) -> float:
    import pyarrow as pa

    if not isinstance(frame, pd.DataFrame):
        return 0.0
    return pa.Table.from_pandas(frame, preserve_index=False).nbytes / 1e6


def layer_figures(loop: Loop, tracer: Tracer, workload: str) -> dict[str, dict[str, float]]:
    """Per query, in the ``<q>.<metric>`` form: the median layer self
    times over the traced batches, and the mean counts per batch over the
    traced batches of the first rounds, which every run reaches, so the
    counts repeat exactly for a seed. Each batch's layer self times plus
    ``other_ms`` equal its traced batch time."""
    kids = tracer.children()
    main = {s.thread for s in tracer.spans if s.layer == "batch"}
    mb_cache: dict[int, float] = {}
    out: dict[str, dict[str, float]] = {}
    for q in loop.qids:
        times = loop.per_query[q]
        counts: dict[str, list[float]] = defaultdict(list)
        roots = [s for s in tracer.spans if s.layer == "batch" and s.attrs["qid"] == q]
        for root in roots:
            split = tracer.layer_self_s(root, kids)
            below = tracer.descendants(root, kids)
            n = max(root.attrs.get("triggers", 1), 1)
            if workload == "streaming":
                times["spill_stream_ms"].append(split["spill"] * 1e3)
                # foreachBatch callbacks run on Spark's callback thread
                # while the main thread waits in the engine span: move
                # their self time from ``engine`` to their own layers.
                cb = [s for s in tracer.spans if s.thread not in main
                      and root.start <= s.start <= root.end]
                for s in cb:
                    split[s.layer] += s.self_s
                    split["engine"] -= s.self_s
                below = below + cb
            for layer, sec in split.items():
                times[f"{layer}_ms"].append(sec * 1e3 / n)
            times["traced_batch_ms"].append(root.dur_s * 1e3 / n)
            if not root.attrs["counted"]:
                continue
            mb = 0.0
            for s in below:
                if s.layer == "ingest":
                    f = s.attrs.get("frame")
                    if id(f) not in mb_cache:
                        mb_cache[id(f)] = _arrow_mb(f)
                    mb += mb_cache[id(f)]
            counts["ingest_mb_per_batch"].append(mb / n)
            counts["collect_rows_per_batch"].append(
                sum(s.attrs.get("rows", 0) for s in below if s.layer == "exec") / n
            )
            for k in ("rows_out", "input_rows"):
                counts[f"{k}_per_batch"].append(root.attrs[k] / n)
            for k in ("jobs", "stages", "tasks"):
                counts[f"spark_{k}_per_batch"].append(root.attrs[k] / n)
        fig: dict[str, float] = {}
        for k, v in times.items():
            if v:
                fig[f"{q}.{k}_p50"] = pct(v, 50)
        for k, v in counts.items():
            fig[f"{q}.{k}"] = float(np.mean(v))
        if workload == "streaming":
            fig[f"{q}.spill_ms"] = fig.pop(f"{q}.spill_stream_ms_p50")
            for k in ("state_rows_total", "state_memory_mb"):
                fig[f"{q}.{k}"] = fig.pop(f"{q}.{k}_p50")
        if loop.untraced_ms[q] and loop.batch_ms[q]:
            fig[f"{q}.trace_overhead_frac"] = (
                pct(loop.batch_ms[q], 50) / pct(loop.untraced_ms[q], 50) - 1.0
            )
        out[q] = fig
    return out


#: Per-layer metrics every traced run reports, averaged over the
#: workload's queries (a layer a workload does not have reads 0).
PER_LAYER = {
    "traced_batch_ms_p50": "ms", "ingest_ms_p50": "ms", "ingest_mb_per_batch": "MB",
    "plan_ms_p50": "ms", "exec_ms_p50": "ms", "state_ms_p50": "ms", "other_ms_p50": "ms",
    "meos_floor_ms_p50": "ms", "spark_jobs_per_batch": "count",
    "spark_stages_per_batch": "count", "spark_tasks_per_batch": "count",
    "collect_rows_per_batch": "count", "rows_out_per_batch": "count",
    "spill_ms": "ms", "engine_ms_p50": "ms", "get_batch_ms_p50": "ms",
    "query_planning_ms_p50": "ms", "add_batch_ms_p50": "ms", "wal_commit_ms_p50": "ms",
    "input_rows_per_batch": "count",
    "state_rows_total": "count", "state_memory_mb": "MB", "trace_overhead_frac": "frac",
}


def workload_layers(figs: dict[str, dict[str, float]]) -> dict[str, float]:
    out = {}
    for name in PER_LAYER:
        vals = [f.get(f"{q}.{name}", 0.0) for q, f in figs.items()]
        out[name] = float(np.mean(vals)) if vals else 0.0
    return out


def host_ref_blocks(n: int, seed: int = 12345) -> list[float]:
    """A fixed numpy-only loop: ``n`` blocks of sorting 2^20 doubles
    four times. Diagnostic of host speed beside a run, never a gate."""
    rng = np.random.default_rng(seed)
    a = rng.random(1 << 20)
    out = []
    for _ in range(n):
        t = time.perf_counter()
        for _ in range(4):
            np.sort(a)
        out.append((time.perf_counter() - t) * 1e3)
    return out


def os_facts() -> dict:
    import pandas
    import pyarrow
    import pyspark

    return {
        "nproc": os.cpu_count(), "python": sys.version.split()[0],
        "spark": pyspark.__version__, "pyarrow": pyarrow.__version__,
        "pandas": pandas.__version__, "numpy": np.__version__,
    }
