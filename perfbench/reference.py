"""Reference outputs for the benchmark's output check, built in DuckDB.

Everything here runs before the timed window. The micro-batch workloads
are checked per batch: the row count a processor returns must equal the
count DuckDB derives from the same events, batch by batch. The streaming
workload is checked on content: the rows a stream collects must equal
the DuckDB result row for row.

The SQL mirrors the query definitions independently of the Spark code
(the same mirrors the oracle tests use), so a wrong plan, a wrong static
table or a lost operator state shows up as a mismatch.
"""
from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd

from repro.sncb import sensors
from repro.sncb.trains import T0_EPOCH
from repro.sncb.weather import cell_id_sql
from repro.sncb.zones import zone_id_sql_case, zones_df, zones_sql_predicate

#: Zone sets and thresholds of the queries (their defaults in
#: ``repro.core.throughput.make_processor`` and ``repro.core.streaming``).
Q1_ZONES = ["maintenance"]
Q2_ZONES = ["neighbourhood"]
Q3_ZONES = ["curve"]
Q5_ZONES = ["workshop"]
Q7_ZONES = ["station", "workshop"]
Q7_MIN_STOP_S = 60.0
Q8B_MIN_S = 120.0
WATERMARK_S = 30.0

_EXPECTED_V = (
    f"(CASE WHEN ((ts - {T0_EPOCH!r}) % {sensors.BATTERY_PERIOD_S!r}) "
    f"< {sensors.BATTERY_DISCHARGE_S!r} "
    f"THEN {sensors.BATTERY_V_FULL!r} - ({sensors.BATTERY_V_FULL!r} - "
    f"{sensors.BATTERY_V_EMPTY!r}) * ((ts - {T0_EPOCH!r}) % "
    f"{sensors.BATTERY_PERIOD_S!r}) / {sensors.BATTERY_DISCHARGE_S!r} "
    f"ELSE {sensors.BATTERY_V_EMPTY!r} + ({sensors.BATTERY_V_FULL!r} - "
    f"{sensors.BATTERY_V_EMPTY!r}) * (((ts - {T0_EPOCH!r}) % "
    f"{sensors.BATTERY_PERIOD_S!r}) - {sensors.BATTERY_DISCHARGE_S!r}) / "
    f"({sensors.BATTERY_PERIOD_S!r} - {sensors.BATTERY_DISCHARGE_S!r}) END)"
)


def _runs_sql(flag: str, min_s: float, extra: str = "") -> str:
    """Gaps-and-islands threshold windows per train over table ``ev``:
    one row per run of ``flag`` lasting at least ``min_s`` seconds,
    with the batch ``emit_b`` of the event that closes the run (NULL
    when the stream ends inside the run)."""
    return f"""
        WITH f AS (
          SELECT *, ({flag}) AS flag,
                 lead(_b) OVER (PARTITION BY train_id ORDER BY ts) AS next_b,
                 row_number() OVER (PARTITION BY train_id ORDER BY ts)
               - row_number() OVER (PARTITION BY train_id, ({flag}) ORDER BY ts)
                 AS grp
          FROM ev
        )
        SELECT train_id, min(ts) AS w_start, max(ts) AS w_end,
               count(*) AS n_events, arg_max_null(next_b, ts) AS emit_b {extra}
        FROM f WHERE flag
        GROUP BY train_id, grp
        HAVING max(ts) - min(ts) >= {min_s!r}
    """


def _q7_runs() -> str:
    pred = zones_sql_predicate(zones_df(Q7_ZONES), "x_first", "y_first")
    return f"""
        SELECT train_id, w_start, w_end, n_events, emit_b, NOT {pred} AS unscheduled
        FROM ({_runs_sql("speed_ms < 0.5", Q7_MIN_STOP_S,
                         ", arg_min(x, ts) AS x_first, arg_min(y, ts) AS y_first")})
    """


def _q8b_runs() -> str:
    return _runs_sql(
        f"brake_bar < {sensors.LOW_PRESSURE_BAR!r} AND speed_kmh > 3.6",
        Q8B_MIN_S,
        ", avg(brake_bar) AS brake_bar_mean, min(brake_bar) AS brake_bar_min,"
        " max(brake_bar) AS brake_bar_max",
    )


def _zoned(kinds: list[str]) -> str:
    return f"SELECT *, {zone_id_sql_case(zones_df(kinds))} AS zone_id FROM ev"


def _q2_windows() -> str:
    return f"""
        WITH z AS ({_zoned(Q2_ZONES)})
        SELECT _b, CAST(floor(ts / 60) * 60 AS BIGINT) AS w_start_s, zone_id,
               count(*) AS n_events, avg(noise_db) AS avg_noise_db,
               max(noise_db) AS max_noise_db, max(noise_db) > 70.0 AS is_peak
        FROM z WHERE zone_id >= 0 GROUP BY ALL
    """


def _q6_windows() -> str:
    return """
        SELECT _b, CAST(floor(ts / 60) * 60 AS BIGINT) AS w_start_s, train_id,
               max(onboard) AS max_onboard, max(capacity) AS capacity,
               max(onboard) / max(capacity) AS occupancy,
               max(onboard) / max(capacity) >= 1.0 AS is_full
        FROM ev GROUP BY _b, 2, train_id
    """


def _count_sql(qid: str) -> str:
    """SQL giving (_b, n): the row count the micro-batch processor of
    ``qid`` returns for batch ``_b``."""
    if qid == "q1":
        pred = zones_sql_predicate(zones_df(Q1_ZONES))
        return f"""SELECT _b, count(*) AS n FROM ev
                   WHERE alert_kind <> '' AND (alert_essential OR NOT {pred})
                   GROUP BY _b"""
    if qid == "q2":
        return f"SELECT _b, count(*) AS n FROM ({_q2_windows()}) GROUP BY _b"
    if qid == "q3":
        return f"""WITH z AS ({_zoned(Q3_ZONES)})
                   SELECT _b, count(*) AS n FROM z JOIN lim USING (zone_id)
                   GROUP BY _b"""
    if qid == "q4":
        cell = cell_id_sql("e.x", "e.y")
        return f"""SELECT e._b, count(*) AS n FROM ev e JOIN wx w
                     ON {cell} = w.cell_id AND e.ts >= w.t_start AND e.ts < w.t_end
                   WHERE w.suggested_limit_kmh IS NOT NULL GROUP BY e._b"""
    if qid == "q5":
        return f"""
            WITH e AS (SELECT _b, train_id, ts, battery_temp_c,
                              battery_v - {_EXPECTED_V} AS dev FROM ev),
            w AS (SELECT _b, train_id,
                         CAST(floor(ts / 60) AS BIGINT) * 60 - 60 * k AS ws,
                         dev, battery_temp_c
                  FROM e, (SELECT unnest(range(5)) AS k)),
            a AS (SELECT _b, train_id, ws, avg(dev) AS d, max(battery_temp_c) AS m
                  FROM w GROUP BY ALL)
            SELECT _b, count(*) AS n FROM a
            WHERE abs(d) > {sensors.DEVIATION_THRESHOLD_V!r}
               OR m > {sensors.OVERHEAT_THRESHOLD_C!r}
            GROUP BY _b"""
    if qid == "q6":
        return f"SELECT _b, count(*) AS n FROM ({_q6_windows()}) GROUP BY _b"
    if qid == "q7":
        return f"""SELECT emit_b AS _b, count(*) AS n FROM ({_q7_runs()})
                   WHERE emit_b IS NOT NULL GROUP BY 1"""
    if qid == "q8":
        return f"""
            WITH a AS (
              SELECT _b, count(*) AS n FROM (
                SELECT DISTINCT _b, floor(ts / 120), train_id, floor(s_route / 5000)
                FROM ev WHERE brake_bar < {sensors.EMERGENCY_BAR!r}) GROUP BY _b),
            b AS (SELECT emit_b AS _b, count(*) AS n FROM ({_q8b_runs()})
                  WHERE emit_b IS NOT NULL GROUP BY 1)
            SELECT _b, coalesce(a.n, 0) + coalesce(b.n, 0) AS n
            FROM a FULL OUTER JOIN b USING (_b)"""
    raise ValueError(f"unknown query {qid!r}")


def _connect(events: pd.DataFrame, batch_rows: int, weather: pd.DataFrame | None):
    ev = events.drop(columns=["t"], errors="ignore").reset_index(drop=True)
    ev["_b"] = np.arange(len(ev), dtype=np.int64) // batch_rows
    con = duckdb.connect()
    con.register("ev", ev)
    con.register("lim", zones_df(Q3_ZONES)[["zone_id", "speed_limit_kmh"]])
    if weather is not None:
        con.register("wx", weather)
    return con


def batch_counts(
    qid: str,
    events: pd.DataFrame,
    batch_rows: int,
    *,
    weather: pd.DataFrame | None = None,
) -> np.ndarray:
    """Expected processor output per batch of ``events`` (split in frame
    order into ``batch_rows``-row batches), for a processor that sees the
    batches in order from fresh state."""
    n_batches = -(-len(events) // batch_rows)
    con = _connect(events, batch_rows, weather)
    try:
        got = con.execute(_count_sql(qid)).fetchdf()
    finally:
        con.close()
    out = np.zeros(n_batches, dtype=np.int64)
    out[got["_b"].to_numpy(dtype=np.int64)] = got["n"].to_numpy(dtype=np.int64)
    return out


#: Columns compared on the streaming workload's collected results.
STREAM_COLUMNS: dict[str, list[str]] = {
    "q2": ["w_start_s", "zone_id", "n_events", "avg_noise_db", "max_noise_db", "is_peak"],
    "q6": ["w_start_s", "train_id", "max_onboard", "capacity", "occupancy", "is_full"],
    "q7": ["train_id", "w_start", "w_end", "n_events", "unscheduled"],
    "q8": ["train_id", "w_start", "w_end", "n_events",
           "brake_bar_mean", "brake_bar_min", "brake_bar_max"],
}


def stream_result(qid: str, events: pd.DataFrame) -> pd.DataFrame:
    """Expected result of the whole-stream run of ``qid``.

    Q2 and Q6 run in append mode behind a 30 s watermark on a
    time-ordered replay, so exactly the windows that end at or before
    the last event time the watermark saw, minus 30 s, are emitted.
    Q2's zone filter runs below the watermark (Catalyst pushes it down),
    so only events inside a zone move Q2's watermark. Q7 and Q8b flush
    their open runs at the end, so they emit every run of the batch
    query.
    """
    con = _connect(events, len(events) or 1, None)
    try:
        if qid == "q2":
            sql = f"""WITH w AS ({_q2_windows()})
                      SELECT * FROM w WHERE w_start_s + 60 <=
                        (SELECT max(ts) FROM ({_zoned(Q2_ZONES)}) WHERE zone_id >= 0)
                        - {WATERMARK_S!r}"""
        elif qid == "q6":
            sql = f"""WITH w AS ({_q6_windows()})
                      SELECT * FROM w WHERE w_start_s + 60 <=
                        (SELECT max(ts) FROM ev) - {WATERMARK_S!r}"""
        elif qid == "q7":
            sql = _q7_runs()
        elif qid == "q8":
            sql = _q8b_runs()
        else:
            raise ValueError(f"no streaming form for {qid!r}")
        got = con.execute(sql).fetchdf()
    finally:
        con.close()
    return canon(got, STREAM_COLUMNS[qid])


def canon(pdf: pd.DataFrame, columns: list[str]) -> pd.DataFrame:
    """Project, round floats, sort: two results equal as sets of rows
    compare equal after this."""
    out = pdf.reindex(columns=columns).copy()
    for c in out.columns:
        if pd.api.types.is_float_dtype(out[c]):
            out[c] = out[c].round(6)
        elif pd.api.types.is_bool_dtype(out[c]) or pd.api.types.is_integer_dtype(out[c]):
            out[c] = out[c].astype(np.int64)
    return out.sort_values(columns).reset_index(drop=True)


def same_rows(got: pd.DataFrame, expected: pd.DataFrame) -> bool:
    """Whether two canonical frames hold the same rows."""
    if got.shape != expected.shape:
        return False
    try:
        pd.testing.assert_frame_equal(got, expected, check_dtype=False)
    except AssertionError:
        return False
    return True
