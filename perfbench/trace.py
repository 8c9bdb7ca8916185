"""Spans, layer wrappers and Spark counters for the traced run.

A :class:`Tracer` keeps every span in memory (name, layer, start, end,
parent, thread) and writes them out only when the run ends. Its
:meth:`Tracer.install` wraps the public calls that mark a layer
boundary; nothing in ``src/`` changes. The self time of a span is its
duration minus the time its children (spans opened inside it, on the
same thread) cover, so the layer self times of one batch plus its
``other`` time add up to the batch span exactly.

The streaming progress phases come from a ``StreamingQueryListener``
(:class:`ProgressListener`), a Spark callback rather than a wrapper.
"""
from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

from pyspark.sql.streaming import StreamingQueryListener

#: Layers a batch's time is split into; ``other`` is the rest.
LAYERS = ("ingest", "plan", "exec", "state", "spill", "engine")


@dataclass
class Span:
    sid: int
    name: str
    layer: str
    start: float
    parent: int | None
    thread: int
    end: float = 0.0
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def dur_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur_s - self.child_s


class Tracer:
    """In-memory span recorder with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str, layer: str, **attrs) -> Span:
        stack = self._stack()
        with self._lock:
            span = Span(
                sid=len(self.spans), name=name, layer=layer,
                start=time.perf_counter(),
                parent=stack[-1].sid if stack else None,
                thread=threading.get_ident(), attrs=attrs,
            )
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child_s += span.dur_s

    def wrap(self, owner, attr: str, layer: str, *, on_result=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a ``layer``
        span around each call while tracing is enabled. ``on_result``
        may add attributes from the call's arguments and result."""
        fn = getattr(owner, attr)
        name = f"{getattr(owner, '__name__', owner)}.{attr}"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = tracer.open(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if on_result is not None:
                on_result(span, args, out)
            return out

        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the layer boundaries of the Spark session, the query
        builders, the operators and the streaming engine."""
        from pyspark.sql.classic.dataframe import DataFrame
        from pyspark.sql.session import SparkSession

        from repro.core import queries, streaming
        from repro.nebula import engine, windows

        def ingest_attrs(span, args, out):
            data = args[1] if len(args) > 1 else None
            span.attrs["frame"] = data

        def rows_attrs(span, args, out):
            span.attrs["rows"] = len(out)

        self.wrap(SparkSession, "createDataFrame", "ingest", on_result=ingest_attrs)
        self.wrap(DataFrame, "count", "exec")
        self.wrap(DataFrame, "toPandas", "exec", on_result=rows_attrs)
        self.wrap(DataFrame, "collect", "exec", on_result=rows_attrs)
        for name in dir(queries):
            if name[0] == "q" and name[1:2].isdigit():
                self.wrap(queries, name, "plan")
        for det in (streaming.Q7StopDetector, streaming.Q8LowPressureDetector):
            self.wrap(det, "process_spark_batch", "plan")
            self.wrap(det, "finish", "state")
        self.wrap(streaming.Q7StopDetector, "process_pandas_batch", "state")
        self.wrap(windows.ThresholdWindowOperator, "process", "state")
        self.wrap(windows.ThresholdWindowOperator, "flush", "state")
        self.wrap(engine, "write_stream_files", "spill")
        self.wrap(engine, "stream_from_files", "plan")
        self.wrap(engine, "run_streaming_to_memory", "engine")
        self.wrap(streaming, "run_foreach_batch_stream", "engine")

    def children(self) -> dict[int, list[Span]]:
        kids: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                kids[s.parent].append(s)
        return kids

    def layer_self_s(self, root: Span, kids: dict[int, list[Span]]) -> dict[str, float]:
        """Self time per layer of the spans below ``root`` (same thread),
        plus ``other``: the part of ``root`` no layer span covers."""
        out = dict.fromkeys(LAYERS, 0.0)
        todo = list(kids.get(root.sid, ()))
        while todo:
            s = todo.pop()
            out[s.layer] += s.self_s
            todo.extend(kids.get(s.sid, ()))
        out["other"] = root.dur_s - sum(out[k] for k in LAYERS)
        return out

    def descendants(self, root: Span, kids: dict[int, list[Span]]) -> list[Span]:
        out, todo = [], list(kids.get(root.sid, ()))
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(kids.get(s.sid, ()))
        return out

    def dump(self) -> list[dict]:
        return [
            {"sid": s.sid, "name": s.name, "layer": s.layer, "parent": s.parent,
             "thread": s.thread, "start": s.start, "end": s.end,
             "self_ms": s.self_s * 1e3,
             **{k: v for k, v in s.attrs.items() if isinstance(v, (int, float, str))}}
            for s in self.spans
        ]


def job_counts(sc, group: str) -> tuple[int, int, int]:
    """(jobs, stages, tasks) Spark ran under job group ``group``; tasks
    count those of each stage that completed."""
    tracker = sc.statusTracker()
    jobs = tracker.getJobIdsForGroup(group)
    stages = tasks = 0
    for jid in jobs:
        info = tracker.getJobInfo(jid)
        if info is None:
            continue
        for sid in info.stageIds:
            st = tracker.getStageInfo(sid)
            if st is not None and st.numCompletedTasks > 0:
                stages += 1
                tasks += st.numCompletedTasks
    return len(jobs), stages, tasks


class ProgressListener(StreamingQueryListener):
    """Collects every ``StreamingQueryProgress`` of the queries started
    since :meth:`begin`, and lets the caller wait for their end."""

    def __init__(self) -> None:
        self._cv = threading.Condition()
        self.progress: list = []
        self.started: list[str] = []
        self.terminated: set[str] = set()

    def begin(self) -> None:
        with self._cv:
            self.progress, self.started, self.terminated = [], [], set()

    def onQueryStarted(self, event) -> None:
        with self._cv:
            self.started.append(str(event.runId))

    def onQueryProgress(self, event) -> None:
        with self._cv:
            self.progress.append(event.progress)

    def onQueryIdle(self, event) -> None:
        pass

    def onQueryTerminated(self, event) -> None:
        with self._cv:
            self.terminated.add(str(event.runId))
            self._cv.notify_all()

    def wait_all_terminated(self, timeout_s: float = 30.0) -> list:
        """Block until every started query reported its end; returns
        their progress records in arrival order."""
        with self._cv:
            ok = self._cv.wait_for(
                lambda: self.started and set(self.started) <= self.terminated,
                timeout=timeout_s,
            )
            if not ok:
                raise TimeoutError("streaming query end not reported")
            return list(self.progress)
