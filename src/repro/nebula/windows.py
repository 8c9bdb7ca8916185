"""Window operators over spatiotemporal streams.

§2.3: "MEOS extends the expressions processing framework to support
tumbling, sliding, and threshold windows over spatiotemporal data
streams." Tumbling and sliding windows are Catalyst's own
``window(t, size[, slide])``, which the query statements of
``repro.core.queries`` call (``_window``) identically on batch and
streaming DataFrames (streaming callers add a watermark). This module
adds the third kind, which Spark lacks: *predicate-bounded* windows. A
window opens while a boolean column holds and closes when it drops,
keeping only runs of at least ``min_duration_s`` (Q7 stop detection,
Q8 persistent low pressure).

:class:`ThresholdWindowOperator` is the one implementation. Its state
is one fixed-size summary per key of the key's open run (start and last
timestamp, event count, first carried values, and the sum, min and max
of each value column), never buffered events, so it merges a
micro-batch in time independent of how long a run has been open.
:func:`threshold_window`, the batch form, runs a fresh operator over
each key's events with ``applyInPandas``.
"""
from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.meos.vectorized import run_lengths


class ThresholdWindowOperator:
    """Incremental threshold windows across micro-batches.

    Keeps, per key, a summary of the *open* run (the True-run that the
    last batch ended in) and merges the next batch into it, so windows
    spanning batch boundaries are neither lost nor split. ``flush()``
    closes every open run at end of stream.
    """

    def __init__(
        self,
        *,
        key_cols: Sequence[str],
        ts_col: str = "ts",
        flag_col: str,
        min_duration_s: float,
        value_cols: Sequence[str] = (),
        carry_cols: Sequence[str] = (),
    ) -> None:
        if min_duration_s < 0:
            raise ValueError("negative min_duration_s")
        self.key_cols = list(key_cols)
        self.ts_col = ts_col
        self.flag_col = flag_col
        self.min_duration_s = min_duration_s
        self.value_cols = list(value_cols)
        self.carry_cols = list(carry_cols)
        #: summary column → how a run reduces it: its first or last
        #: element, or a ufunc over all of them.
        self._reduce: dict[str, object] = dict.fromkeys(self.key_cols, "first")
        self._reduce.update(w_start="first", w_end="last", n_events=np.add)
        self._reduce.update((f"{c}_first", "first") for c in self.carry_cols)
        for c in self.value_cols:
            self._reduce.update(
                {f"{c}_sum": np.add, f"{c}_min": np.minimum, f"{c}_max": np.maximum}
            )
        #: key → summary of its open run (one-element arrays per column).
        self._open: dict[tuple, dict[str, np.ndarray]] = {}
        #: dtypes of the key and carried columns, from the last batch.
        self._dtypes: dict[str, object] = {}

    def empty(self) -> pd.DataFrame:
        """A frame with no windows but every window column, typed: what
        ``process``/``flush`` return when no window closes."""
        cols = {"w_start": "float64", "w_end": "float64", "duration_s": "float64",
                "n_events": "int64"}
        for c in self.carry_cols:
            cols[f"{c}_first"] = self._dtypes.get(c, object)
        for c in self.value_cols:
            cols.update({f"{c}_{s}": "float64" for s in ("mean", "min", "max")})
        for k in self.key_cols:
            cols[k] = self._dtypes.get(k, object)
        return pd.DataFrame({c: pd.Series(dtype=t) for c, t in cols.items()})

    def _events(self, rows: pd.DataFrame) -> dict[str, np.ndarray]:
        """One key's time-sorted rows, each summarised as a run of one."""
        ts = rows[self.ts_col].to_numpy(dtype=np.float64)
        cols = {k: rows[k].to_numpy() for k in self.key_cols}
        cols.update(w_start=ts, w_end=ts, n_events=np.ones(len(ts), dtype=np.int64))
        cols.update((f"{c}_first", rows[c].to_numpy()) for c in self.carry_cols)
        for c in self.value_cols:
            v = rows[c].to_numpy(dtype=np.float64)
            cols.update({f"{c}_sum": v, f"{c}_min": v, f"{c}_max": v})
        return cols

    def _runs(self, cols: dict[str, np.ndarray], flag: np.ndarray) -> dict[str, np.ndarray]:
        """One summary per True-run of ``flag``. Each ufunc reduces every
        run at once, ``reduceat`` over the interleaved [start, end) bounds
        (the even slots are the runs; the input gets one pad element so
        that an end at its length is a valid index)."""
        starts, ends, _ = run_lengths(flag)
        pick = {"first": starts, "last": ends - 1}
        bounds = np.column_stack((starts, ends)).ravel()
        return {
            c: cols[c][pick[how]] if how in pick
            else how.reduceat(np.append(cols[c], cols[c][:1]), bounds)[::2]
            for c, how in self._reduce.items()
        }

    def _windows(self, runs: list[dict[str, np.ndarray]]) -> pd.DataFrame:
        """The closed runs lasting at least ``min_duration_s``, as windows."""
        if not runs:
            return self.empty()
        s = {c: np.concatenate([r[c] for r in runs]) for c in self._reduce}
        duration = s["w_end"] - s["w_start"]
        keep = duration >= self.min_duration_s
        if not keep.any():
            return self.empty()
        out = {"w_start": s["w_start"], "w_end": s["w_end"], "duration_s": duration,
               "n_events": s["n_events"]}
        out.update((f"{c}_first", s[f"{c}_first"]) for c in self.carry_cols)
        for c in self.value_cols:
            out.update({f"{c}_mean": s[f"{c}_sum"] / s["n_events"],
                        f"{c}_min": s[f"{c}_min"], f"{c}_max": s[f"{c}_max"]})
        out.update((k, s[k]) for k in self.key_cols)
        return pd.DataFrame({c: a[keep] for c, a in out.items()})

    def process(self, batch: pd.DataFrame) -> pd.DataFrame:
        """Feed one micro-batch; returns windows closed by this batch."""
        self._dtypes.update(
            (c, batch[c].dtype) for c in (*self.key_cols, *self.carry_cols) if c in batch
        )
        closed = []
        for key, g in batch.groupby(self.key_cols, sort=False):
            key = key if isinstance(key, tuple) else (key,)
            g = g.sort_values(self.ts_col)
            flag = g[self.flag_col].to_numpy(dtype=bool)
            cols = self._events(g)
            prev = self._open.pop(key, None)
            if prev is not None:
                # The open run leads as one more True event: a leading
                # True-run extends it, a leading False closes it.
                flag = np.concatenate(([True], flag))
                cols = {c: np.concatenate((prev[c], a)) for c, a in cols.items()}
            runs = self._runs(cols, flag)
            if flag[-1]:
                self._open[key] = {c: a[-1:] for c, a in runs.items()}
                runs = {c: a[:-1] for c, a in runs.items()}
            closed.append(runs)
        return self._windows(closed)

    def flush(self) -> pd.DataFrame:
        """Close all open runs (end of stream)."""
        runs = list(self._open.values())
        self._open.clear()
        return self._windows(runs)


def _window_schema(
    df: DataFrame,
    key_cols: Sequence[str],
    value_cols: Sequence[str],
    carry_cols: Sequence[str],
) -> str:
    type_of = dict(df.dtypes)
    parts = [f"{k} {type_of[k]}" for k in key_cols]
    parts += ["w_start double", "w_end double", "duration_s double", "n_events long"]
    parts += [f"{c}_first {type_of[c]}" for c in carry_cols]
    for c in value_cols:
        parts += [f"{c}_mean double", f"{c}_min double", f"{c}_max double"]
    return ", ".join(parts)


def threshold_window(
    df: DataFrame,
    *,
    key_cols: Sequence[str],
    ts_col: str = "ts",
    flag_col: str,
    min_duration_s: float,
    value_cols: Sequence[str] = (),
    carry_cols: Sequence[str] = (),
) -> DataFrame:
    """Batch threshold windows: per key, contiguous True-runs of
    ``flag_col`` lasting ≥ ``min_duration_s``, with run bounds, event
    count, first values of ``carry_cols`` and mean/min/max of
    ``value_cols``. Each key's events go through a fresh
    :class:`ThresholdWindowOperator` (``process`` then ``flush``)."""
    spec = dict(
        key_cols=list(key_cols), ts_col=ts_col, flag_col=flag_col,
        min_duration_s=min_duration_s, value_cols=list(value_cols),
        carry_cols=list(carry_cols),
    )
    ThresholdWindowOperator(**spec)  # validates the arguments here, not in a task

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        op = ThresholdWindowOperator(**spec)
        return pd.concat([op.process(pdf), op.flush()], ignore_index=True)

    schema = _window_schema(df, key_cols, value_cols, carry_cols)
    return df.groupBy(*spec["key_cols"]).applyInPandas(fn, schema)
