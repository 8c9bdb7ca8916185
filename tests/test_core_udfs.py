"""Tests for repro.core.udfs — SQL-level MEOS function registration."""
import numpy as np
import pandas as pd
import pytest

from repro.core.udfs import EXPECTED_V_UDF, MEOS_UDF_NAMES, register_meos_udfs
from repro.sncb.sensors import expected_battery_voltage


@pytest.fixture(scope="module", autouse=True)
def registered(spark):
    return register_meos_udfs(spark)


class TestRegistration:
    def test_returns_all_names(self, registered):
        assert registered == MEOS_UDF_NAMES == [EXPECTED_V_UDF]

    def test_functions_visible_in_catalog(self, spark):
        names = {f.name for f in spark.catalog.listFunctions()}
        for n in MEOS_UDF_NAMES:
            assert n in names


class TestSqlExecution:
    def test_expected_battery_v(self, spark):
        got = spark.sql(
            "SELECT meos_expected_battery_v(CAST(0.0 AS DOUBLE)) AS v"
        ).toPandas()
        assert got["v"][0] == pytest.approx(expected_battery_voltage(np.array([0.0]))[0])

    def test_expected_battery_v_vectorised(self, spark):
        pdf = pd.DataFrame({"ts_rel": np.linspace(0, 10_800, 50)})
        spark.createDataFrame(pdf).createOrReplaceTempView("batt")
        got = spark.sql(
            "SELECT ts_rel, meos_expected_battery_v(ts_rel) AS v FROM batt ORDER BY ts_rel"
        ).toPandas()
        np.testing.assert_allclose(
            got["v"], expected_battery_voltage(pdf["ts_rel"].to_numpy()), rtol=1e-12
        )

    def test_usable_in_where_clause(self, spark):
        """The registered kernels compose with relational operators —
        the point of the plugin integration."""
        pdf = pd.DataFrame({"ts_rel": [0.0, 7200.0], "v": [27.4, 23.0]})
        spark.createDataFrame(pdf).createOrReplaceTempView("readings")
        got = spark.sql(
            """
            SELECT ts_rel FROM readings
            WHERE abs(v - meos_expected_battery_v(ts_rel)) > 0.8
            """
        ).toPandas()
        assert list(got["ts_rel"]) == [7200.0]
