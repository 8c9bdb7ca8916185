"""MEOS functions registered into Spark SQL at runtime.

Mirrors NebulaMEOS's dynamic operator registration (§2.3) at the SQL
layer: after :func:`register_meos_udfs`, plain ``spark.sql`` queries can
call the MEOS kernels by name — the same effect as NebulaStream loading
the MEOS plugin into its expression framework. The query statements of
``repro.core.queries`` call them this way. The UDF objects are defined
once, here; the column-level (expression-tree) integration lives in
``repro.nebula.expressions``.

All are Arrow-vectorised pandas UDFs so buffers flow through the
kernels without per-row Python overhead — the stream-engine execution
model. Their return types are type objects, not DDL strings: parsing a
string needs a running session, and this module is imported before one.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql.functions import pandas_udf
from pyspark.sql.types import DoubleType, LongType

from repro.meos.geometry import haversine_m
from repro.sncb.sensors import expected_battery_voltage
from repro.sncb.weather import cell_id_of


@pandas_udf(DoubleType())
def expected_battery_v(ts_rel: pd.Series) -> pd.Series:
    """The reference charge/discharge curve at ``ts_rel`` seconds."""
    return pd.Series(expected_battery_voltage(ts_rel.to_numpy()))


@pandas_udf(LongType())
def weather_cell(x: pd.Series, y: pd.Series) -> pd.Series:
    return pd.Series(cell_id_of(x.to_numpy(), y.to_numpy()))


@pandas_udf(DoubleType())
def haversine(lon1: pd.Series, lat1: pd.Series, lon2: pd.Series, lat2: pd.Series) -> pd.Series:
    return pd.Series(
        haversine_m(lon1.to_numpy(), lat1.to_numpy(), lon2.to_numpy(), lat2.to_numpy())
    )


#: The SQL name of the reference-curve UDF (Q5's statement calls it).
EXPECTED_V_UDF = "meos_expected_battery_v"

#: SQL name → UDF, as installed by :func:`register_meos_udfs`.
MEOS_UDFS = {
    EXPECTED_V_UDF: expected_battery_v,
    "meos_weather_cell": weather_cell,
    "meos_haversine_m": haversine,
}
MEOS_UDF_NAMES = list(MEOS_UDFS)


def register_meos_udfs(spark: SparkSession) -> list[str]:
    """Register the MEOS kernel UDFs into ``spark``; returns the names."""
    for name, udf in MEOS_UDFS.items():
        spark.udf.register(name, udf)
    return list(MEOS_UDF_NAMES)
