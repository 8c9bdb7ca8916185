"""Window operators over spatiotemporal streams.

§2.3: "MEOS extends the expressions processing framework to support
tumbling, sliding, and threshold windows over spatiotemporal data
streams." Tumbling and sliding windows are Catalyst's own
``window(t, size[, slide])``, which the query statements of
``repro.core.queries`` call (``_window``) identically on batch and
streaming DataFrames (streaming callers add a watermark). This module
adds the third kind, which Spark lacks:

* :func:`threshold_window` — *predicate-bounded* windows: a window
  opens while a boolean column holds and closes when it drops, keeping
  only runs of at least ``min_duration_s`` (Q7 stop detection, Q8
  persistent low pressure). Implemented per key with ``applyInPandas``
  over the full frame (batch form).
* :class:`ThresholdWindowOperator` — the *incremental* form of the
  same operator for micro-batch execution: carries open runs across
  batch boundaries, exactly like a stateful stream operator.
"""
from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.meos.vectorized import run_lengths


def _runs_to_windows(
    pdf: pd.DataFrame,
    *,
    ts_col: str,
    flag_col: str,
    min_duration_s: float,
    value_cols: Sequence[str],
    carry_cols: Sequence[str],
) -> pd.DataFrame:
    """Closed threshold windows of one key's time-sorted events."""
    pdf = pdf.sort_values(ts_col)
    flag = pdf[flag_col].to_numpy(dtype=bool)
    ts = pdf[ts_col].to_numpy(dtype=np.float64)
    starts, ends, _ = run_lengths(flag)
    rows = []
    for s0, e0 in zip(starts, ends):
        dur = float(ts[e0 - 1] - ts[s0])
        if dur < min_duration_s:
            continue
        row = {
            "w_start": float(ts[s0]),
            "w_end": float(ts[e0 - 1]),
            "duration_s": dur,
            "n_events": int(e0 - s0),
        }
        for c in carry_cols:
            row[f"{c}_first"] = pdf[c].iloc[s0]
        for c in value_cols:
            v = pdf[c].to_numpy(dtype=np.float64)[s0:e0]
            row[f"{c}_mean"] = float(v.mean())
            row[f"{c}_min"] = float(v.min())
            row[f"{c}_max"] = float(v.max())
        rows.append(row)
    return pd.DataFrame(rows)


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
    ``value_cols``."""
    if min_duration_s < 0:
        raise ValueError("negative min_duration_s")
    key_cols = list(key_cols)
    value_cols = list(value_cols)
    carry_cols = list(carry_cols)
    schema = _window_schema(df, key_cols, value_cols, carry_cols)

    def fn(key, pdf):
        out = _runs_to_windows(
            pdf, ts_col=ts_col, flag_col=flag_col,
            min_duration_s=min_duration_s,
            value_cols=value_cols, carry_cols=carry_cols,
        )
        if out.empty:
            # Preserve schema for empty groups.
            return pd.DataFrame(columns=[f.split(" ")[0] for f in schema.split(", ")])
        for k, v in zip(key_cols, key):
            out[k] = v
        return out[[f.split(" ")[0] for f in schema.split(", ")]]

    return df.groupBy(*key_cols).applyInPandas(fn, schema)


class ThresholdWindowOperator:
    """Incremental threshold windows across micro-batches.

    Keeps, per key, the *open* run (events since the last False flag)
    and prepends it to the next batch — the stateful-operator behaviour
    a stream engine needs so windows spanning batch boundaries are not
    lost or split. ``flush()`` closes any still-open runs at end of
    stream.
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
        self.key_cols = list(key_cols)
        self.ts_col = ts_col
        self.flag_col = flag_col
        self.min_duration_s = min_duration_s
        self.value_cols = list(value_cols)
        self.carry_cols = list(carry_cols)
        self._pending: dict[tuple, pd.DataFrame] = {}
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

    def _close(self, pdf: pd.DataFrame, *, final: bool) -> tuple[pd.DataFrame, pd.DataFrame]:
        """(closed windows, open-run tail) of one key's sorted events."""
        flag = pdf[self.flag_col].to_numpy(dtype=bool)
        tail = pdf.iloc[0:0]
        if not final and flag.size and flag[-1]:
            starts, ends, _ = run_lengths(flag)
            s_last = starts[-1]
            tail = pdf.iloc[s_last:]
            pdf = pdf.iloc[:s_last]
        wins = _runs_to_windows(
            pdf, ts_col=self.ts_col, flag_col=self.flag_col,
            min_duration_s=self.min_duration_s,
            value_cols=self.value_cols, carry_cols=self.carry_cols,
        )
        return wins, tail

    def process(self, batch: pd.DataFrame) -> pd.DataFrame:
        """Feed one micro-batch; returns windows closed by this batch."""
        self._dtypes.update(
            (c, batch[c].dtype) for c in (*self.key_cols, *self.carry_cols) if c in batch
        )
        out = []
        for key, g in batch.groupby(self.key_cols, sort=False):
            key = key if isinstance(key, tuple) else (key,)
            g = g.sort_values(self.ts_col)
            prev = self._pending.pop(key, None)
            if prev is not None and len(prev):
                g = pd.concat([prev, g], ignore_index=True)
            wins, tail = self._close(g, final=False)
            if len(tail):
                self._pending[key] = tail
            if len(wins):
                for k, v in zip(self.key_cols, key):
                    wins[k] = v
                out.append(wins)
        return pd.concat(out, ignore_index=True) if out else self.empty()

    def flush(self) -> pd.DataFrame:
        """Close all open runs (end of stream)."""
        out = []
        for key, g in self._pending.items():
            wins, _ = self._close(g, final=True)
            if len(wins):
                for k, v in zip(self.key_cols, key):
                    wins[k] = v
                out.append(wins)
        self._pending.clear()
        return pd.concat(out, ignore_index=True) if out else self.empty()
