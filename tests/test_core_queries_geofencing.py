"""Oracle-backed tests for the geofencing queries Q1–Q4 (§3.1)."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core.queries import (
    q1_alert_filtering,
    q2_noise_monitoring,
    q3_dynamic_speed_limit,
    q4_weather_speed_zones,
    weather_cell_sql,
)
from repro.oracle import assert_equivalent
from repro.sncb.weather import cell_id_of, cell_id_sql
from repro.sncb.zones import zone_id_sql_case, zones_df, zones_sql_predicate


@pytest.fixture(scope="module")
def mnt_zones():
    return zones_df(["maintenance"])


@pytest.fixture(scope="module")
def nbhd_zones():
    return zones_df(["neighbourhood"])


@pytest.fixture(scope="module")
def curve_zones():
    return zones_df(["curve"])


class TestQ1AlertFiltering:
    def test_oracle_equivalence(self, geofence_sdf, geofence_pdf, mnt_zones):
        out = q1_alert_filtering(geofence_sdf, mnt_zones)
        pred = zones_sql_predicate(mnt_zones)
        assert_equivalent(
            out,
            f"""
            SELECT train_id, ts, x, y, alert_kind, alert_essential,
                   {pred} AS in_maintenance
            FROM ev
            WHERE alert_kind <> ''
              AND (alert_essential OR NOT {pred})
            """,
            ev=geofence_pdf.drop(columns=["t"]),
        )

    def test_only_alert_rows(self, geofence_sdf, mnt_zones):
        out = q1_alert_filtering(geofence_sdf, mnt_zones).toPandas()
        assert (out["alert_kind"] != "").all()

    def test_essential_alerts_always_kept(self, geofence_sdf, geofence_pdf, mnt_zones):
        out = q1_alert_filtering(geofence_sdf, mnt_zones).toPandas()
        n_essential_in = int(geofence_pdf["alert_essential"].sum())
        assert int(out["alert_essential"].sum()) == n_essential_in

    def test_no_nonessential_inside_maintenance(self, geofence_sdf, mnt_zones):
        out = q1_alert_filtering(geofence_sdf, mnt_zones).toPandas()
        bad = out[out["in_maintenance"] & ~out["alert_essential"]]
        assert len(bad) == 0

    def test_some_alerts_filtered(self, geofence_sdf, geofence_pdf, mnt_zones):
        """The maintenance zones sit on the routes, so some speeding
        alerts must actually be suppressed — a zone placement that never
        fires would make Q1 vacuous."""
        n_in = int((geofence_pdf["alert_kind"] != "").sum())
        n_out = q1_alert_filtering(geofence_sdf, mnt_zones).count()
        assert n_out < n_in


class TestQ2NoiseMonitoring:
    def test_oracle_equivalence(self, geofence_sdf, geofence_pdf, nbhd_zones):
        out = q2_noise_monitoring(geofence_sdf, nbhd_zones, peak_db=70.0)
        case = zone_id_sql_case(nbhd_zones)
        assert_equivalent(
            out,
            f"""
            WITH zoned AS (SELECT *, {case} AS zone_id FROM ev)
            SELECT CAST(floor(ts / 60) * 60 AS BIGINT) AS w_start_s,
                   zone_id, count(*) AS n_events,
                   avg(noise_db) AS avg_noise_db,
                   max(noise_db) AS max_noise_db,
                   max(noise_db) > 70.0 AS is_peak
            FROM zoned WHERE zone_id >= 0
            GROUP BY 1, 2
            """,
            ev=geofence_pdf.drop(columns=["t"]),
        )

    def test_covers_multiple_zones(self, geofence_sdf, nbhd_zones):
        out = q2_noise_monitoring(geofence_sdf, nbhd_zones).toPandas()
        assert out["zone_id"].nunique() >= 2

    def test_peaks_exist_and_follow_threshold(self, geofence_sdf, nbhd_zones):
        out = q2_noise_monitoring(geofence_sdf, nbhd_zones, peak_db=60.0).toPandas()
        assert out["is_peak"].any()
        np.testing.assert_array_equal(out["is_peak"], out["max_noise_db"] > 60.0)

    def test_higher_threshold_fewer_peaks(self, geofence_sdf, nbhd_zones):
        lo = q2_noise_monitoring(geofence_sdf, nbhd_zones, peak_db=55.0).toPandas()
        hi = q2_noise_monitoring(geofence_sdf, nbhd_zones, peak_db=75.0).toPandas()
        assert hi["is_peak"].sum() <= lo["is_peak"].sum()


class TestQ3DynamicSpeedLimit:
    def test_oracle_equivalence(self, geofence_sdf, geofence_pdf, curve_zones):
        out = q3_dynamic_speed_limit(geofence_sdf, curve_zones)
        case = zone_id_sql_case(curve_zones)
        assert_equivalent(
            out,
            f"""
            WITH zoned AS (SELECT *, {case} AS zone_id FROM ev)
            SELECT z.train_id, z.ts, z.zone_id, z.speed_kmh,
                   c.speed_limit_kmh,
                   z.speed_kmh > c.speed_limit_kmh AS violation
            FROM zoned z JOIN curves c USING (zone_id)
            WHERE z.zone_id >= 0
            """,
            ev=geofence_pdf.drop(columns=["t"]),
            curves=curve_zones[["zone_id", "speed_limit_kmh"]],
        )

    def test_only_in_zone_rows(self, geofence_sdf, curve_zones):
        out = q3_dynamic_speed_limit(geofence_sdf, curve_zones).toPandas()
        assert len(out) > 0
        assert (out["zone_id"] >= 0).all()

    def test_violations_detected(self, geofence_sdf, curve_zones):
        """Trains cruise at ~120 km/h; curve limits are 60/80 km/h, so
        crossing a curve at speed must register violations."""
        out = q3_dynamic_speed_limit(geofence_sdf, curve_zones).toPandas()
        assert out["violation"].any()
        viol = out[out["violation"]]
        assert (viol["speed_kmh"] > viol["speed_limit_kmh"]).all()

    def test_limits_come_from_zone_table(self, geofence_sdf, curve_zones):
        out = q3_dynamic_speed_limit(geofence_sdf, curve_zones).toPandas()
        merged = out.merge(
            curve_zones[["zone_id", "speed_limit_kmh"]],
            on="zone_id", suffixes=("", "_zone"),
        )
        np.testing.assert_allclose(merged["speed_limit_kmh"], merged["speed_limit_kmh_zone"])


class TestQ4WeatherSpeedZones:
    def test_cell_column_matches_kernel(self, geofence_sdf, geofence_pdf):
        got = (
            geofence_sdf.select("seq", F.expr(weather_cell_sql()).alias("cid"))
            .orderBy("seq")
            .toPandas()
        )
        expected = cell_id_of(
            geofence_pdf.sort_values("seq")["x"].to_numpy(),
            geofence_pdf.sort_values("seq")["y"].to_numpy(),
        )
        np.testing.assert_array_equal(got["cid"].to_numpy(), expected)

    def test_oracle_equivalence(self, geofence_sdf, geofence_pdf, weather_sdf, weather_pdf):
        out = q4_weather_speed_zones(geofence_sdf, weather_sdf)
        cell = cell_id_sql("e.x", "e.y")
        assert_equivalent(
            out,
            f"""
            SELECT e.train_id, e.ts, {cell} AS cell_id, w.condition,
                   w.suggested_limit_kmh, e.speed_kmh,
                   e.speed_kmh > w.suggested_limit_kmh AS violation
            FROM ev e JOIN wx w
              ON {cell} = w.cell_id
             AND e.ts >= w.t_start AND e.ts < w.t_end
            WHERE w.suggested_limit_kmh IS NOT NULL
            """,
            ev=geofence_pdf.drop(columns=["t"]),
            wx=weather_pdf,
        )

    def test_adverse_rows_only(self, geofence_sdf, weather_sdf):
        out = q4_weather_speed_zones(geofence_sdf, weather_sdf).toPandas()
        assert len(out) > 0
        assert out["suggested_limit_kmh"].notna().all()
        assert set(out["condition"]).issubset({"heavy_rain", "snow", "fog"})

    def test_violation_logic(self, geofence_sdf, weather_sdf):
        out = q4_weather_speed_zones(geofence_sdf, weather_sdf).toPandas()
        np.testing.assert_array_equal(
            out["violation"], out["speed_kmh"] > out["suggested_limit_kmh"]
        )

    def test_each_event_at_most_one_weather_row(self, geofence_sdf, weather_sdf):
        out = q4_weather_speed_zones(geofence_sdf, weather_sdf).toPandas()
        assert not out.duplicated(subset=["train_id", "ts"]).any()
