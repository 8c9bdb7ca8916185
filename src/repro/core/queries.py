"""The eight demonstration queries of §3, each compiled to one Spark SQL
statement.

Each query ``N`` has two faces:

* ``qN_sql(…static tables and parameters…) -> str`` compiles the query
  — MEOS expressions (`repro.nebula.expressions`, lowered through
  ``to_sql``), windows and relational operators — into one statement
  over the event view ``{ev}`` (Q4 also reads the weather view
  ``{wx}``). Building it touches no Spark session, so a processor
  builds it once and runs it on every micro-batch: NebulaStream's
  compile-once-at-deployment model (§2.3).
* ``qN_…(events, …) -> DataFrame`` is the transform the tests, the job
  runner and the Structured-Streaming wrappers call:
  ``events.sparkSession.sql(qN_sql(…), ev=events)``. The same transform
  runs in batch, micro-batch, and Structured Streaming (see
  `repro.nebula.engine` / `repro.core.streaming`).

``QUERY_ZONES`` names each query's static zone tables; the processor
(`repro.core.throughput.make_processor`) and the job runner
(``jobs/run_query.py``) both read it.

Q7 and Q8b keep their threshold window (``applyInPandas``); only their
per-event projection is a statement.

Geofencing (§3.1): Q1 alert filtering, Q2 noise monitoring, Q3 dynamic
speed limit, Q4 weather speed zones. GCEP (§3.2): Q5 battery
monitoring, Q6 heavy passenger load, Q7 unscheduled stops, Q8 brake
monitoring.

Every query has a DuckDB-SQL-expressible semantics (zones are rects/
circles, windows are time buckets or gaps-and-islands) so results are
oracle-checked in tests/test_core_queries_*.py.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.udfs import EXPECTED_V_UDF, register_meos_udfs
from repro.nebula.expressions import (
    EdWithinExpression,
    NearestZoneExpression,
    ZoneIdExpression,
    field,
    sql_literal,
)
from repro.nebula.windows import threshold_window
from repro.sncb.sensors import (
    DEVIATION_THRESHOLD_V,
    EMERGENCY_BAR,
    LOW_PRESSURE_BAR,
    OVERHEAT_THRESHOLD_C,
)
from repro.sncb.trains import T0_EPOCH
from repro.sncb.weather import CELL_SIZE_M, grid_origin
from repro.sncb.zones import shapes_from_df

lit = sql_literal
X, Y = field("x"), field("y")

#: qid → the zone kinds (``sncb.zones.zones_df``) its statement reads.
QUERY_ZONES: dict[str, list[str]] = {
    "q1": ["maintenance"], "q2": ["neighbourhood"], "q3": ["curve"],
    "q5": ["workshop"], "q7": ["station", "workshop"],
}

#: Q7's stop: speed below ``Q7_SPEED_EPS_MS`` for at least ``Q7_MIN_STOP_S``.
Q7_MIN_STOP_S, Q7_SPEED_EPS_MS = 60.0, 0.5
#: Q8b's run: low pressure while faster than ``Q8B_MOVING_EPS_KMH``, ≥ ``Q8B_MIN_DURATION_S``.
Q8B_MIN_DURATION_S, Q8B_MOVING_EPS_KMH = 120.0, 3.6


def _window(size: str, slide: str | None = None) -> str:
    """An event-time window over ``t`` (tumbling, or sliding by ``slide``)."""
    args = lit(size) if slide is None else f"{lit(size)}, {lit(slide)}"
    return f"window(`t`, {args})"


# ---------------------------------------------------------------------
# Geofencing
# ---------------------------------------------------------------------

def q1_sql(maintenance_zones: pd.DataFrame) -> str:
    shapes, _ = shapes_from_df(maintenance_zones)
    in_mnt = EdWithinExpression(X, Y, shapes, 0.0).to_sql()
    return (
        "SELECT train_id, ts, x, y, alert_kind, alert_essential, in_maintenance "
        f"FROM (SELECT *, {in_mnt} AS in_maintenance FROM {{ev}} WHERE alert_kind != '') "
        "WHERE alert_essential OR NOT in_maintenance"
    )


def q1_alert_filtering(events: DataFrame, maintenance_zones: pd.DataFrame) -> DataFrame:
    """Q1 — location-based alert filtering.

    Keep alert events, but drop *non-essential* alerts (speeding) raised
    while the train is inside a maintenance zone. Essential alerts
    (equipment malfunction) always pass.
    """
    return events.sparkSession.sql(q1_sql(maintenance_zones), ev=events)


def q2_sql(
    neighbourhood_zones: pd.DataFrame, *, window: str = "60 seconds", peak_db: float = 70.0
) -> str:
    shapes, ids = shapes_from_df(neighbourhood_zones)
    zid = ZoneIdExpression(X, Y, shapes, ids).to_sql()
    return (
        "SELECT CAST(w.start AS BIGINT) AS w_start_s, zone_id, n_events, avg_noise_db, "
        f"max_noise_db, max_noise_db > {lit(peak_db)} AS is_peak "
        f"FROM (SELECT {_window(window)} AS w, zone_id, count(*) AS n_events, "
        "avg(noise_db) AS avg_noise_db, max(noise_db) AS max_noise_db "
        f"FROM (SELECT *, {zid} AS zone_id FROM {{ev}}) WHERE zone_id >= 0 "
        "GROUP BY w, zone_id)"
    )


def q2_noise_monitoring(
    events: DataFrame,
    neighbourhood_zones: pd.DataFrame,
    *,
    window: str = "60 seconds",
    peak_db: float = 70.0,
) -> DataFrame:
    """Q2 — location-based noise monitoring.

    Attribute each event to the neighbourhood zone it falls in, then
    aggregate noise per (zone, tumbling window); windows whose max noise
    exceeds ``peak_db`` are flagged as peaks (the "noise peaks related
    to their geographical areas").
    """
    stmt = q2_sql(neighbourhood_zones, window=window, peak_db=peak_db)
    return events.sparkSession.sql(stmt, ev=events)


def q3_sql(curve_zones: pd.DataFrame) -> str:
    shapes, ids = shapes_from_df(curve_zones)
    zid = ZoneIdExpression(X, Y, shapes, ids).to_sql()
    # Each zone's limit, looked up from the zone id the CASE chain found
    # (a missing limit is NULL, as in a join with the zone table).
    limits = " ".join(
        f"WHEN {lit(int(z))} THEN {'NULL' if pd.isna(v) else lit(float(v))}"
        for z, v in zip(curve_zones["zone_id"], curve_zones["speed_limit_kmh"])
    )
    limit = f"CAST(CASE zone_id {limits} END AS DOUBLE)" if limits else "CAST(NULL AS DOUBLE)"
    return (
        "SELECT train_id, ts, zone_id, speed_kmh, speed_limit_kmh, "
        "speed_kmh > speed_limit_kmh AS violation "
        f"FROM (SELECT *, {limit} AS speed_limit_kmh "
        f"FROM (SELECT *, {zid} AS zone_id FROM {{ev}}) WHERE zone_id >= 0)"
    )


def q3_dynamic_speed_limit(events: DataFrame, curve_zones: pd.DataFrame) -> DataFrame:
    """Q3 — dynamic speed limit.

    Restrict the stream to high-risk zones (curves/construction), attach
    each zone's speed limit (folded into the statement as a lookup on
    the zone id, so no join), and flag violations (speed above the zone
    limit).
    """
    return events.sparkSession.sql(q3_sql(curve_zones), ev=events)


def weather_cell_sql(x: str = "x", y: str = "y") -> str:
    """The weather-cell id as a SQL expression (no UDF) — identical
    arithmetic to ``weather.cell_id_of``."""
    x0, y0, nx, _ = grid_origin()
    ix = f"CAST(FLOOR(({field(x).to_sql()} - {lit(x0)}) / {lit(CELL_SIZE_M)}) AS BIGINT)"
    iy = f"CAST(FLOOR(({field(y).to_sql()} - {lit(y0)}) / {lit(CELL_SIZE_M)}) AS BIGINT)"
    return f"(({iy} * {lit(nx)}) + {ix})"


def q4_sql() -> str:
    return (
        "SELECT e.train_id, e.ts, e.cell_id, w.condition, w.suggested_limit_kmh, "
        "e.speed_kmh, e.speed_kmh > w.suggested_limit_kmh AS violation "
        f"FROM (SELECT *, {weather_cell_sql()} AS cell_id FROM {{ev}}) e "
        "JOIN {wx} w ON e.cell_id = w.cell_id AND e.ts >= w.t_start AND e.ts < w.t_end "
        # An unrestricted limit is NULL, or NaN if converted without Arrow.
        "WHERE w.suggested_limit_kmh IS NOT NULL AND NOT isnan(w.suggested_limit_kmh)"
    )


def q4_weather_speed_zones(events: DataFrame, weather: DataFrame) -> DataFrame:
    """Q4 — weather-based speed zones.

    Join each event with the weather condition of its grid cell at its
    timestamp (interval join); keep adverse-condition rows (those with a
    suggested limit) and flag trains exceeding it.
    """
    return events.sparkSession.sql(q4_sql(), ev=events, wx=weather)


# ---------------------------------------------------------------------
# Geospatial Complex Event Processing
# ---------------------------------------------------------------------

def q5_sql(
    workshop_zones: pd.DataFrame,
    *,
    t0: float | None = None,
    window: str = "300 seconds",
    slide: str = "60 seconds",
    dev_threshold_v: float = DEVIATION_THRESHOLD_V,
    overheat_c: float = OVERHEAT_THRESHOLD_C,
) -> str:
    """Q5's statement; it calls the SQL UDF ``EXPECTED_V_UDF``, which
    must be registered (``register_meos_udfs``) in the session that runs it."""
    t0 = T0_EPOCH if t0 is None else t0
    shapes, ids = shapes_from_df(workshop_zones)
    nearest_ws = NearestZoneExpression(X, Y, shapes, ids).to_sql()
    return (
        "SELECT * FROM (SELECT CAST(w.start AS BIGINT) AS w_start_s, train_id, "
        f"avg_dev_v, max_temp_c, abs(avg_dev_v) > {lit(dev_threshold_v)} AS alert_deviation, "
        f"max_temp_c > {lit(overheat_c)} AS alert_overheat, workshop_id "
        "FROM (SELECT w, train_id, avg(dev_v) AS avg_dev_v, "
        "max(battery_temp_c) AS max_temp_c, max_by(nearest_ws, ts) AS workshop_id "
        # Neither the UDF nor the sliding window's row expansion keeps
        # the input's partitioning; one partition again here spares a
        # one-partition batch the exchange before the window aggregate.
        f"FROM (SELECT /*+ COALESCE(1) */ *, {_window(window, slide)} AS w "
        f"FROM (SELECT *, battery_v - {EXPECTED_V_UDF}(ts - {lit(t0)}) AS dev_v, "
        f"{nearest_ws} AS nearest_ws FROM {{ev}})) "
        "GROUP BY w, train_id)) "
        "WHERE alert_deviation OR alert_overheat"
    )


def q5_battery_monitoring(
    events: DataFrame,
    workshop_zones: pd.DataFrame,
    *,
    t0: float | None = None,
    window: str = "300 seconds",
    slide: str = "60 seconds",
    dev_threshold_v: float = DEVIATION_THRESHOLD_V,
    overheat_c: float = OVERHEAT_THRESHOLD_C,
) -> DataFrame:
    """Q5 — battery monitoring (GCEP).

    The query itself evaluates the reference charge/discharge curve per
    event (MEOS kernel UDF — "ensure the battery's charge and discharge
    cycles follow a predefined curve") and computes the measured-vs-
    expected deviation; sliding windows per train then smooth it.
    Windows with mean |deviation| above threshold (battery-health
    alert) or any overheat sample trigger an alert, and each alert
    looks up the *nearest workshop* from the train's latest position
    ("keeping track of nearby workshops" — §3.2).

    ``t0`` anchors the cycle phase (default: stream epoch).
    """
    spark = events.sparkSession
    register_meos_udfs(spark)
    stmt = q5_sql(
        workshop_zones, t0=t0, window=window, slide=slide,
        dev_threshold_v=dev_threshold_v, overheat_c=overheat_c,
    )
    return spark.sql(stmt, ev=events)


def q6_sql(*, window: str = "60 seconds", full_occupancy: float = 1.0) -> str:
    return (
        "SELECT CAST(w.start AS BIGINT) AS w_start_s, train_id, max_onboard, capacity, "
        f"occupancy, occupancy >= {lit(full_occupancy)} AS is_full "
        "FROM (SELECT *, max_onboard / capacity AS occupancy "
        f"FROM (SELECT {_window(window)} AS w, train_id, max(onboard) AS max_onboard, "
        "max(capacity) AS capacity FROM {ev} GROUP BY w, train_id))"
    )


def q6_heavy_passenger_load(
    events: DataFrame,
    *,
    window: str = "60 seconds",
    full_occupancy: float = 1.0,
) -> DataFrame:
    """Q6 — heavy passenger load.

    Tumbling occupancy per train; a window is *full* when peak onboard
    reaches seat capacity (no free seats) — the signal used to suggest
    adding a train (see :func:`q6_extra_train_suggestion`).
    """
    stmt = q6_sql(window=window, full_occupancy=full_occupancy)
    return events.sparkSession.sql(stmt, ev=events)


def q6_extra_train_suggestion(
    windows: DataFrame, *, full_frac_threshold: float = 0.2
) -> DataFrame:
    """Per-train verdict over the Q6 windows: suggest an extra train
    when the share of full windows exceeds the threshold ("an extra
    train can be added in the following days")."""
    return (
        windows.groupBy("train_id")
        .agg(
            F.count("*").alias("n_windows"),
            F.sum(F.col("is_full").cast("long")).alias("n_full"),
        )
        .withColumn("full_frac", F.col("n_full") / F.col("n_windows"))
        .withColumn("suggest_extra_train", F.col("full_frac") > full_frac_threshold)
    )


def q7_sql(allowed_zones: pd.DataFrame, *, speed_eps_ms: float = Q7_SPEED_EPS_MS) -> str:
    """Q7's per-event projection: the ``stopped`` flag and the
    ``in_allowed`` geofence check."""
    shapes, _ = shapes_from_df(allowed_zones)
    in_allowed = EdWithinExpression(X, Y, shapes, 0.0).to_sql()
    return (
        f"SELECT *, speed_ms < {lit(speed_eps_ms)} AS stopped, "
        f"{in_allowed} AS in_allowed FROM {{ev}}"
    )


def q7_unscheduled_stops(
    events: DataFrame,
    allowed_zones: pd.DataFrame,
    *,
    min_stop_s: float = Q7_MIN_STOP_S,
    speed_eps_ms: float = Q7_SPEED_EPS_MS,
) -> DataFrame:
    """Q7 — unscheduled stops (threshold window + geofence).

    Every event is geofence-checked against the allowed zones (stations
    and workshops) — the per-event MEOS predicate an edge engine
    evaluates as the stream arrives. A *stop* is a speed≈0 run of at
    least ``min_stop_s`` (threshold window per train); the stop is
    unscheduled when it began outside every allowed zone (the carried
    per-event flag at the window start).
    """
    flagged = events.sparkSession.sql(
        q7_sql(allowed_zones, speed_eps_ms=speed_eps_ms), ev=events
    )
    stops = threshold_window(
        flagged, key_cols=["train_id"], flag_col="stopped",
        min_duration_s=min_stop_s, carry_cols=["x", "y", "in_allowed"],
    )
    return stops.select(
        "train_id", "w_start", "w_end", "duration_s", "n_events",
        "x_first", "y_first", (~F.col("in_allowed_first")).alias("unscheduled"),
    )


def q8a_sql(
    *,
    window: str = "120 seconds",
    segment_len_m: float = 5_000.0,
    emergency_bar: float = EMERGENCY_BAR,
    min_repeats: int = 3,
) -> str:
    return (
        "SELECT CAST(w.start AS BIGINT) AS w_start_s, train_id, segment, n_emergency, "
        f"n_emergency >= {lit(min_repeats)} AS alert "
        f"FROM (SELECT {_window(window)} AS w, train_id, segment, count(*) AS n_emergency "
        f"FROM (SELECT *, CAST(FLOOR(s_route / {lit(segment_len_m)}) AS BIGINT) AS segment "
        f"FROM {{ev}} WHERE brake_bar < {lit(emergency_bar)}) "
        "GROUP BY w, train_id, segment)"
    )


def q8_emergency_clusters(
    events: DataFrame,
    *,
    window: str = "120 seconds",
    segment_len_m: float = 5_000.0,
    emergency_bar: float = EMERGENCY_BAR,
    min_repeats: int = 3,
) -> DataFrame:
    """Q8a — repeated emergency brakes per track segment.

    Emergency events (pressure collapse below ``emergency_bar``) are
    grouped per (train, 5 km track segment, tumbling window); windows
    with ``min_repeats`` or more are the "repeated emergency brakes in
    specific track segments" pattern.
    """
    stmt = q8a_sql(
        window=window, segment_len_m=segment_len_m,
        emergency_bar=emergency_bar, min_repeats=min_repeats,
    )
    return events.sparkSession.sql(stmt, ev=events)


def q8b_sql(
    *, low_bar: float = LOW_PRESSURE_BAR, moving_eps_kmh: float = Q8B_MOVING_EPS_KMH
) -> str:
    """Q8b's per-event projection: the ``low_p`` flag."""
    return (
        f"SELECT *, (brake_bar < {lit(low_bar)}) AND (speed_kmh > {lit(moving_eps_kmh)}) "
        "AS low_p FROM {ev}"
    )


def q8_low_pressure(
    events: DataFrame,
    *,
    low_bar: float = LOW_PRESSURE_BAR,
    min_duration_s: float = Q8B_MIN_DURATION_S,
    moving_eps_kmh: float = Q8B_MOVING_EPS_KMH,
) -> DataFrame:
    """Q8b — persistent low brake pressure while moving.

    Threshold window per train over "pressure below ``low_bar`` while
    the train is moving"; runs of at least ``min_duration_s`` indicate
    decreasing brake effectiveness.
    """
    flagged = events.sparkSession.sql(
        q8b_sql(low_bar=low_bar, moving_eps_kmh=moving_eps_kmh), ev=events
    )
    return threshold_window(
        flagged, key_cols=["train_id"], flag_col="low_p",
        min_duration_s=min_duration_s, value_cols=["brake_bar"],
    ).select(
        "train_id", "w_start", "w_end", "duration_s", "n_events",
        "brake_bar_mean", "brake_bar_min", "brake_bar_max",
    )
