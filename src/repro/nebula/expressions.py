"""NebulaStream-style expression framework lowered to Spark SQL.

NebulaStream builds queries from an expression tree that supports
"custom operators and functions through inheritance and composition"
(§2.3), and compiles each query's tree once, at deployment. This module
reproduces that design: :class:`Expression` nodes compose through
Python operators and lower to one Spark SQL expression string via
:meth:`Expression.to_sql`, which a query statement embeds once and
Catalyst compiles; :meth:`Expression.to_column` is the same lowering as
a ``Column`` (``F.expr(to_sql())``). MEOS-backed nodes that cannot be
lowered run as Arrow-vectorised pandas UDFs closing over the MEOS
kernels — the exact structure of the paper's ``MeosAtStbox_Expression``.
"""
from __future__ import annotations

import math
import numbers
from collections.abc import Sequence

import numpy as np
import pandas as pd
from pyspark.sql import Column
from pyspark.sql import functions as F
from pyspark.sql.functions import pandas_udf

from repro.meos.geometry import Circle, Rect
from repro.meos.stbox import STBox
from repro.meos.vectorized import min_zone_distance, nearest_zone, zone_id_at


def sql_literal(value) -> str:
    """``value`` as a Spark SQL literal of the type ``F.lit`` gives it.

    Numbers are parenthesised, so ``x - -1.0`` cannot read as the
    comment ``x --``. Floats carry the ``D`` suffix (a bare ``0.5``
    parses as ``decimal(1,1)``); non-finite ones are cast from strings.
    """
    if value is None:
        return "NULL"
    if isinstance(value, (bool, np.bool_)):
        return "TRUE" if value else "FALSE"
    if isinstance(value, numbers.Integral):
        return f"({int(value)})"
    if isinstance(value, numbers.Real):
        v = float(value)
        return f"({v!r}D)" if math.isfinite(v) else f"CAST('{v}' AS DOUBLE)"
    if isinstance(value, str):
        return "'" + value.replace("\\", "\\\\").replace("'", "\\'") + "'"
    raise TypeError(f"no SQL literal for {type(value).__name__}")


class Expression:
    """Base expression node. Subclasses implement ``to_sql``."""

    #: False where the node (or a node below it) has no SQL lowering and
    #: runs as an Arrow UDF instead.
    compile = True

    def to_sql(self) -> str:
        raise NotImplementedError

    def to_column(self) -> Column:
        return F.expr(self.to_sql())

    # ---- composition --------------------------------------------------
    def _bin(self, other, op):
        return BinaryExpression(op, self, _wrap(other))

    def __add__(self, other):
        return self._bin(other, "+")

    def __sub__(self, other):
        return self._bin(other, "-")

    def __mul__(self, other):
        return self._bin(other, "*")

    def __truediv__(self, other):
        return self._bin(other, "/")

    def __gt__(self, other):
        return self._bin(other, ">")

    def __ge__(self, other):
        return self._bin(other, ">=")

    def __lt__(self, other):
        return self._bin(other, "<")

    def __le__(self, other):
        return self._bin(other, "<=")

    def eq(self, other):
        return self._bin(other, "==")

    def ne(self, other):
        return self._bin(other, "!=")

    def __and__(self, other):
        return self._bin(other, "&")

    def __or__(self, other):
        return self._bin(other, "|")

    def __invert__(self):
        return NotExpression(self)


def _wrap(v) -> "Expression":
    return v if isinstance(v, Expression) else Literal(v)


class FieldAccess(Expression):
    """Reference to a stream attribute by name."""

    def __init__(self, name: str) -> None:
        self.name = name

    def to_sql(self) -> str:
        return "`" + self.name.replace("`", "``") + "`"

    def __repr__(self) -> str:
        return f"Field({self.name})"


class Literal(Expression):
    """Constant value."""

    def __init__(self, value) -> None:
        self.value = value

    def to_sql(self) -> str:
        return sql_literal(self.value)

    def __repr__(self) -> str:
        return f"Lit({self.value!r})"


#: operator → (SQL operator, Column operator for trees with UDF nodes).
_OPS = {
    "+": ("+", lambda a, b: a + b),
    "-": ("-", lambda a, b: a - b),
    "*": ("*", lambda a, b: a * b),
    "/": ("/", lambda a, b: a / b),
    ">": (">", lambda a, b: a > b),
    ">=": (">=", lambda a, b: a >= b),
    "<": ("<", lambda a, b: a < b),
    "<=": ("<=", lambda a, b: a <= b),
    "==": ("=", lambda a, b: a == b),
    "!=": ("!=", lambda a, b: a != b),
    "&": ("AND", lambda a, b: a & b),
    "|": ("OR", lambda a, b: a | b),
}


class BinaryExpression(Expression):
    """Arithmetic/comparison/boolean composition of two expressions."""

    def __init__(self, op: str, left: Expression, right: Expression) -> None:
        if op not in _OPS:
            raise ValueError(f"unknown operator {op!r}")
        self.op, self.left, self.right = op, left, right

    @property
    def compile(self) -> bool:
        return self.left.compile and self.right.compile

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {_OPS[self.op][0]} {self.right.to_sql()})"

    def to_column(self) -> Column:
        if self.compile:
            return F.expr(self.to_sql())
        return _OPS[self.op][1](self.left.to_column(), self.right.to_column())

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


class NotExpression(Expression):
    def __init__(self, inner: Expression) -> None:
        self.inner = inner

    @property
    def compile(self) -> bool:
        return self.inner.compile

    def to_sql(self) -> str:
        return f"(NOT {self.inner.to_sql()})"

    def to_column(self) -> Column:
        return F.expr(self.to_sql()) if self.compile else ~self.inner.to_column()


class MeosExpression(Expression):
    """Base class for MEOS-backed expressions.

    Two execution paths, mirroring NebulaStream's query compilation
    (Grulich et al., "Query Compilation Without Regrets" — the paper's
    plugin host compiles operators to native code):

    * **compiled** (default where possible): rect/circle geometry
      predicates lower to plain SQL arithmetic (:meth:`to_sql`) — no
      Python boundary at runtime, whole-stage-codegen'd by Spark;
    * **interpreted**: an Arrow pandas UDF closing over the MEOS numpy
      kernel — required for general polygons, and available everywhere
      via ``compile=False`` (used to test path equivalence).

    Both paths give a missing (null) or NaN position the MEOS kernel's
    answer: outside every zone.
    """

    def to_sql(self) -> str:
        if not self.compile:
            raise TypeError(
                f"{type(self).__name__} over these operands has no SQL form; "
                "it runs as an Arrow UDF (to_column)"
            )
        return self._sql()

    def to_column(self) -> Column:
        return F.expr(self._sql()) if self.compile else self._udf_column()

    def _sql(self) -> str:
        raise NotImplementedError

    def _udf_column(self) -> Column:
        raise NotImplementedError


def _zone_dist2_sql(x: str, y: str, zone) -> str:
    """Squared distance from (x, y) to a Rect/Circle zone as a SQL
    expression (0 inside)."""
    lit = sql_literal
    if isinstance(zone, Rect):
        ddx = f"greatest(({lit(zone.xmin)} - {x}), ({x} - {lit(zone.xmax)}), {lit(0.0)})"
        ddy = f"greatest(({lit(zone.ymin)} - {y}), ({y} - {lit(zone.ymax)}), {lit(0.0)})"
        return f"(({ddx} * {ddx}) + ({ddy} * {ddy}))"
    if isinstance(zone, Circle):
        dx, dy = f"({x} - {lit(zone.cx)})", f"({y} - {lit(zone.cy)})"
        centre = f"sqrt((({dx} * {dx}) + ({dy} * {dy})))"
        d = f"greatest(({centre} - {lit(zone.r)}), {lit(0.0)})"
        return f"({d} * {d})"
    raise TypeError(f"cannot compile {type(zone).__name__}")


def _compilable(zones: Sequence) -> bool:
    return all(isinstance(z, (Rect, Circle)) for z in zones)


class _ZoneExpression(MeosExpression):
    """A MEOS expression over the event position and a zone set."""

    def __init__(
        self, x: Expression, y: Expression, zones: Sequence, *, compile: bool
    ) -> None:
        self.x, self.y, self.zones = x, y, list(zones)
        self.compile = compile and _compilable(self.zones) and x.compile and y.compile

    def _xy_sql(self) -> tuple[str, str, str]:
        """(x, y, "x or y is null") as SQL."""
        x, y = self.x.to_sql(), self.y.to_sql()
        return x, y, f"{x} IS NULL OR {y} IS NULL"


class EdWithinExpression(_ZoneExpression):
    """``edwithin``-style predicate: event position within ``d`` metres
    of any of the given zones (distance 0 = containment)."""

    def __init__(
        self, x: Expression, y: Expression, zones: Sequence, d: float,
        *, compile: bool = True,
    ) -> None:
        if d < 0:
            raise ValueError("negative distance")
        super().__init__(x, y, zones, compile=compile)
        self.d = d

    def _sql(self) -> str:
        if not self.zones:
            return "FALSE"
        x, y, null = self._xy_sql()
        d2 = sql_literal(float(self.d) ** 2)
        terms = " OR ".join(f"({_zone_dist2_sql(x, y, z)} <= {d2})" for z in self.zones)
        return f"(NOT ({null}) AND ({terms}))"

    def _udf_column(self) -> Column:
        zones, d = self.zones, self.d

        @pandas_udf("boolean")
        def _edwithin(xs: pd.Series, ys: pd.Series) -> pd.Series:
            return pd.Series(min_zone_distance(xs.to_numpy(), ys.to_numpy(), zones) <= d)

        return _edwithin(self.x.to_column(), self.y.to_column())


class TPointAtStboxExpression(MeosExpression):
    """``tpoint_at_stbox``-style restriction predicate at event level:
    true where the (x, y, t) sample falls inside the STBox. The engine
    uses it to *restrict* streams (filter), mirroring MEOS semantics of
    returning the portion of the temporal point inside the box."""

    def __init__(
        self, x: Expression, y: Expression, t: Expression, box: STBox,
        *, compile: bool = True,
    ) -> None:
        self.x, self.y, self.t, self.box = x, y, t, box
        self.compile = compile and x.compile and y.compile and t.compile

    def _sql(self) -> str:
        # Closed-box comparisons; unbounded sides are left out. A null or
        # NaN coordinate is outside, as in the MEOS kernel.
        box, lit = self.box, sql_literal
        terms = []
        for e, lo, hi in (
            (self.x, box.xmin, box.xmax), (self.y, box.ymin, box.ymax),
            (self.t, box.tmin, box.tmax),
        ):
            c = e.to_sql()
            terms.append(f"({c} IS NOT NULL AND NOT isnan({c}))")
            if math.isfinite(lo):
                terms.append(f"({c} >= {lit(lo)})")
            if math.isfinite(hi):
                terms.append(f"({c} <= {lit(hi)})")
        return "(" + " AND ".join(terms) + ")"

    def _udf_column(self) -> Column:
        box = self.box

        @pandas_udf("boolean")
        def _at_stbox(xs: pd.Series, ys: pd.Series, ts: pd.Series) -> pd.Series:
            return pd.Series(
                box.contains_point(xs.to_numpy(), ys.to_numpy(), ts.to_numpy())
            )

        return _at_stbox(self.x.to_column(), self.y.to_column(), self.t.to_column())


class ZoneIdExpression(_ZoneExpression):
    """Id of the first zone containing the event position (−1 outside)."""

    def __init__(
        self, x: Expression, y: Expression, zones: Sequence, ids: Sequence[int],
        *, compile: bool = True,
    ) -> None:
        super().__init__(x, y, zones, compile=compile)
        self.ids = list(ids)

    def _sql(self) -> str:
        # First-match-wins CASE chain, codegen'd by Catalyst.
        if not self.zones:
            return f"CAST({sql_literal(-1)} AS BIGINT)"
        x, y, null = self._xy_sql()
        zero, none = sql_literal(0.0), sql_literal(-1)
        whens = " ".join(
            f"WHEN ({_zone_dist2_sql(x, y, z)} <= {zero}) THEN {sql_literal(int(zid))}"
            for z, zid in zip(self.zones, self.ids)
        )
        return f"CAST(CASE WHEN {null} THEN {none} {whens} ELSE {none} END AS BIGINT)"

    def _udf_column(self) -> Column:
        zones, ids = self.zones, self.ids

        @pandas_udf("long")
        def _zone_id(xs: pd.Series, ys: pd.Series) -> pd.Series:
            return pd.Series(zone_id_at(xs.to_numpy(), ys.to_numpy(), zones, ids))

        return _zone_id(self.x.to_column(), self.y.to_column())


class NearestZoneExpression(_ZoneExpression):
    """Nearest zone id per event (brute-force kNN over a small zone set
    — Q5's "query nearby workshops"); −1 where no zone is at a finite
    distance."""

    def __init__(
        self, x: Expression, y: Expression, zones: Sequence, ids: Sequence[int],
        *, compile: bool = True,
    ) -> None:
        super().__init__(x, y, zones, compile=compile)
        self.ids = list(ids)

    def _sql(self) -> str:
        none = sql_literal(-1)
        if not self.zones:
            return f"CAST({none} AS BIGINT)"
        x, y, null = self._xy_sql()
        dists = [_zone_dist2_sql(x, y, z) for z in self.zones]
        dmin = dists[0] if len(dists) == 1 else f"least({', '.join(dists)})"
        far = f"NOT ({dmin} < {sql_literal(math.inf)})"
        # First minimum wins, as in numpy.
        whens = " ".join(
            f"WHEN ({d} = {dmin}) THEN {sql_literal(int(zid))}"
            for d, zid in zip(dists, self.ids)
        )
        return f"CAST(CASE WHEN {null} OR {far} THEN {none} {whens} END AS BIGINT)"

    def _udf_column(self) -> Column:
        zones, ids = self.zones, self.ids

        @pandas_udf("long")
        def _nearest(xs: pd.Series, ys: pd.Series) -> pd.Series:
            zid, _ = nearest_zone(xs.to_numpy(), ys.to_numpy(), zones, ids)
            return pd.Series(zid)

        return _nearest(self.x.to_column(), self.y.to_column())


def field(name: str) -> FieldAccess:
    """Convenience constructor mirroring NebulaStream's Attribute()."""
    return FieldAccess(name)
