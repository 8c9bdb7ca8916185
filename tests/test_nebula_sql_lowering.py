"""The SQL lowering of the expression framework (``Expression.to_sql``).

Every compiled expression is one SQL string that a query statement
embeds; ``to_column`` is ``F.expr(to_sql())``. The lowering must build
the same arithmetic the Column trees built before it (``greatest(...)``,
dist² ≤ d²) and agree with the interpreted Arrow-UDF path bit for bit,
including the inputs where SQL text is easy to get wrong: points on zone
borders, negative coordinates (``x - -1.0`` reads as a ``--`` comment),
fractional literals (a bare ``0.5`` parses as a decimal) and null or NaN
positions.
"""
import math

import numpy as np
import pytest
from pyspark.sql import Column
from pyspark.sql import functions as F

from repro.meos.geometry import Circle, Rect
from repro.meos.stbox import STBox
from repro.nebula.expressions import (
    EdWithinExpression,
    Literal,
    NearestZoneExpression,
    TPointAtStboxExpression,
    ZoneIdExpression,
    field,
    sql_literal,
)

ZONES = [Rect(-500.0, -500.0, 500.0, 500.0), Circle(2000.0, 0.0, 300.0),
         Rect(-1.5, 1500.25, 0.5, 2500.75)]
IDS = [10, 20, 30]
X, Y, T = field("x"), field("y"), field("ts")

# (x, y): borders of every zone, corners, just-outside points, negative
# coordinates, non-finite and missing positions.
POINTS = [
    (500.0, 0.0), (-500.0, 0.0), (0.0, 500.0), (0.0, -500.0), (500.0, 500.0),
    (-500.0, -500.0), (500.0000001, 0.0), (-500.0000001, 0.0), (0.0, 0.0),
    (2300.0, 0.0), (1700.0, 0.0), (2000.0, 300.0), (2000.0, -300.0),
    (2300.0000001, 0.0), (2000.0, 0.0),
    (-1.5, 1500.25), (0.5, 2500.75), (-1.5000001, 2000.0), (0.25, 1500.2),
    (-3000.0, -3000.0), (-1.0, -1.0), (-2500.0, 2600.0), (2600.0, -2600.0),
    (math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan),
    (None, 0.0), (0.0, None), (None, None),
    (math.inf, 0.0), (-math.inf, 0.0), (0.0, math.inf),
]


@pytest.fixture(scope="module")
def points(spark):
    # Built from Python rows, not pandas: Arrow would turn NaN into null.
    rows = [(float(i), x, y) for i, (x, y) in enumerate(POINTS)]
    return spark.createDataFrame(rows, "ts double, x double, y double").cache()


# ---------------------------------------------------------------------
# The Column trees the compiled expressions built before the lowering
# (reference for the arithmetic; null positions excepted, see below).
# ---------------------------------------------------------------------

def _dist2_column(x: Column, y: Column, zone) -> Column:
    if isinstance(zone, Rect):
        ddx = F.greatest(F.lit(zone.xmin) - x, x - F.lit(zone.xmax), F.lit(0.0))
        ddy = F.greatest(F.lit(zone.ymin) - y, y - F.lit(zone.ymax), F.lit(0.0))
        return ddx * ddx + ddy * ddy
    dx, dy = x - F.lit(zone.cx), y - F.lit(zone.cy)
    d = F.greatest(F.sqrt(dx * dx + dy * dy) - F.lit(zone.r), F.lit(0.0))
    return d * d


def _column_edwithin(zones, d):
    pred = None
    for z in zones:
        term = _dist2_column(F.col("x"), F.col("y"), z) <= F.lit(float(d) ** 2)
        pred = term if pred is None else (pred | term)
    return pred


def _column_zone_id(zones, ids):
    expr = None
    for z, zid in zip(zones, ids):
        inside = _dist2_column(F.col("x"), F.col("y"), z) <= F.lit(0.0)
        expr = F.when(inside, F.lit(zid)) if expr is None else expr.when(inside, F.lit(zid))
    return expr.otherwise(F.lit(-1)).cast("long")


def _column_nearest(zones, ids):
    dists = [_dist2_column(F.col("x"), F.col("y"), z) for z in zones]
    dmin = F.least(*dists)
    expr = F.when(dists[0] == dmin, F.lit(ids[0]))
    for d, zid in zip(dists[1:], ids[1:]):
        expr = expr.when(d == dmin, F.lit(zid))
    return expr.cast("long")


def _values(points, **cols):
    pdf = points.select("ts", *[c.alias(n) for n, c in cols.items()]).orderBy("ts").toPandas()
    return {n: pdf[n].to_numpy() for n in cols}


def _finite_rows():
    return np.array([
        x is not None and y is not None and math.isfinite(x) and math.isfinite(y)
        for x, y in POINTS
    ])


CASES = {
    "edwithin_0": (lambda c: EdWithinExpression(X, Y, ZONES, 0.0, compile=c),
                   lambda: _column_edwithin(ZONES, 0.0)),
    "edwithin_0.5": (lambda c: EdWithinExpression(X, Y, ZONES, 0.5, compile=c),
                     lambda: _column_edwithin(ZONES, 0.5)),
    "edwithin_300": (lambda c: EdWithinExpression(X, Y, ZONES, 300.0, compile=c),
                     lambda: _column_edwithin(ZONES, 300.0)),
    "zone_id": (lambda c: ZoneIdExpression(X, Y, ZONES, IDS, compile=c),
                lambda: _column_zone_id(ZONES, IDS)),
    "nearest": (lambda c: NearestZoneExpression(X, Y, ZONES, IDS, compile=c),
                lambda: _column_nearest(ZONES, IDS)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_sql_equals_column_tree_and_udf(points, case):
    make, old_tree = CASES[case]
    got = _values(
        points,
        sql=F.expr(make(True).to_sql()), col=make(True).to_column(),
        old=old_tree(), udf=make(False).to_column(),
    )
    np.testing.assert_array_equal(got["sql"], got["col"])
    np.testing.assert_array_equal(got["sql"], got["udf"])
    # The old Column tree differs only where a coordinate is missing or
    # not finite: greatest() skips nulls, so a null position used to be
    # inside every zone, and NaN/inf used to count as nearest to the
    # first zone. The MEOS kernel answers "outside"/-1 there.
    finite = _finite_rows()
    np.testing.assert_array_equal(got["sql"][finite], got["old"][finite])


def test_null_position_is_outside_every_zone(points):
    got = _values(
        points,
        inside=EdWithinExpression(X, Y, ZONES, 0.0).to_column(),
        zid=ZoneIdExpression(X, Y, ZONES, IDS).to_column(),
        nearest=NearestZoneExpression(X, Y, ZONES, IDS).to_column(),
    )
    missing = np.array([x is None or y is None for x, y in POINTS])
    assert not got["inside"][missing].any()
    assert (got["zid"][missing] == -1).all()
    assert (got["nearest"][missing] == -1).all()


@pytest.mark.parametrize(
    "box",
    [STBox(-500.0, 500.0, -0.5, 2500.75, 0.0, 20.0), STBox(xmin=-1.5), STBox()],
)
def test_stbox_sql_equals_udf(points, box):
    got = _values(
        points,
        sql=TPointAtStboxExpression(X, Y, T, box).to_column(),
        udf=TPointAtStboxExpression(X, Y, T, box, compile=False).to_column(),
    )
    np.testing.assert_array_equal(got["sql"], got["udf"])


class TestLiterals:
    def test_doubles_are_doubles(self, spark):
        row = spark.sql(
            f"SELECT typeof({sql_literal(0.5)}) AS a, typeof({sql_literal(1)}) AS b, "
            f"typeof({sql_literal(3_000_000_000)}) AS c, {sql_literal(math.inf)} AS inf, "
            f"{sql_literal(-math.inf)} AS ninf, isnan({sql_literal(math.nan)}) AS nan"
        ).collect()[0]
        assert (row.a, row.b, row.c) == ("double", "int", "bigint")
        assert row.inf == math.inf and row.ninf == -math.inf and row.nan

    def test_fractional_arithmetic_is_double_arithmetic(self, points):
        # As decimals 0.1 + 0.2 is exactly 0.3; as doubles it is not.
        v = points.select((Literal(0.1) + 0.2).to_column().alias("v")).first().v
        assert v == 0.1 + 0.2

    def test_negative_literal_after_minus(self, points):
        v = points.select((Literal(2.0) - Literal(-1.0)).to_column().alias("v")).first().v
        assert v == 3.0

    def test_strings_and_bools(self, points):
        row = points.select(
            Literal("it's").to_column().alias("s"), Literal(True).to_column().alias("b"),
        ).first()
        assert row.s == "it's" and row.b is True

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            sql_literal(object())


def test_interpreted_expression_has_no_sql():
    e = EdWithinExpression(X, Y, ZONES, 0.0, compile=False)
    with pytest.raises(TypeError):
        e.to_sql()
    # ...but composes with compiled nodes through Columns.
    assert not (e & (field("x") > 0)).compile
