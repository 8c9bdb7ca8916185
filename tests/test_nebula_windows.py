"""Tests for repro.nebula.windows — threshold windows (batch and
incremental)."""
import pickle

import duckdb
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nebula.windows import ThresholdWindowOperator, threshold_window
from repro.oracle import assert_equivalent


def stop_frame():
    """One key with two speed≈0 runs: 80 s (kept) and 20 s (too short);
    another key always moving."""
    ts = np.arange(0, 300, 10.0)
    speed = np.full(len(ts), 20.0)
    speed[3:12] = 0.0    # ts 30–110 → 80 s run
    speed[20:23] = 0.0   # ts 200–220 → 20 s run
    a = pd.DataFrame({"train": 1, "ts": ts, "speed": speed,
                      "x": np.arange(len(ts)) * 5.0, "y": 0.0})
    b = pd.DataFrame({"train": 2, "ts": ts, "speed": 20.0,
                      "x": np.arange(len(ts)) * 5.0, "y": 1.0})
    pdf = pd.concat([a, b], ignore_index=True)
    pdf["stopped"] = pdf["speed"] < 0.5
    return pdf


class TestThresholdWindow:
    def test_detects_long_run_only(self, spark):
        df = spark.createDataFrame(stop_frame())
        out = threshold_window(
            df, key_cols=["train"], flag_col="stopped", min_duration_s=60.0,
            value_cols=["speed"], carry_cols=["x", "y"],
        ).toPandas()
        assert len(out) == 1
        row = out.iloc[0]
        assert row["train"] == 1
        assert row["w_start"] == 30.0 and row["w_end"] == 110.0
        assert row["duration_s"] == 80.0
        assert row["n_events"] == 9
        assert row["x_first"] == pytest.approx(15.0)
        assert row["speed_max"] == 0.0

    def test_zero_min_duration_keeps_all_runs(self, spark):
        df = spark.createDataFrame(stop_frame())
        out = threshold_window(
            df, key_cols=["train"], flag_col="stopped", min_duration_s=0.0,
        ).toPandas()
        assert len(out) == 2

    def test_negative_min_duration_raises(self, spark):
        df = spark.createDataFrame(stop_frame())
        with pytest.raises(ValueError):
            threshold_window(df, key_cols=["train"], flag_col="stopped", min_duration_s=-1)

    def test_oracle_equivalence_gaps_and_islands(self, spark):
        """The threshold window is the classic gaps-and-islands query —
        DuckDB computes it with window functions and must agree."""
        pdf = stop_frame()
        df = spark.createDataFrame(pdf)
        out = threshold_window(
            df, key_cols=["train"], flag_col="stopped", min_duration_s=60.0,
        ).select("train", "w_start", "w_end", "n_events")
        assert_equivalent(
            out,
            """
            WITH flagged AS (
              SELECT train, ts, stopped,
                     row_number() OVER (PARTITION BY train ORDER BY ts)
                   - row_number() OVER (PARTITION BY train, stopped ORDER BY ts)
                       AS grp
              FROM ev
            )
            SELECT train, min(ts) AS w_start, max(ts) AS w_end,
                   count(*) AS n_events
            FROM flagged WHERE stopped
            GROUP BY train, grp
            HAVING max(ts) - min(ts) >= 60
            """,
            ev=pdf,
        )


class TestThresholdWindowOperator:
    def _op(self):
        return ThresholdWindowOperator(
            key_cols=["train"], flag_col="stopped", min_duration_s=60.0,
            value_cols=["speed"], carry_cols=["x"],
        )

    def test_single_batch_matches_batch_form(self):
        op = self._op()
        got = pd.concat([op.process(stop_frame()), op.flush()], ignore_index=True)
        assert len(got) == 1
        assert got.iloc[0]["w_start"] == 30.0 and got.iloc[0]["w_end"] == 110.0

    @pytest.mark.parametrize("batch_rows", [7, 13, 20, 31, 60])
    def test_batch_boundaries_do_not_split_windows(self, batch_rows):
        """The incremental operator must produce identical windows no
        matter where micro-batch boundaries fall."""
        pdf = stop_frame().sort_values(["ts", "train"]).reset_index(drop=True)
        op = self._op()
        parts = [
            op.process(pdf.iloc[i : i + batch_rows])
            for i in range(0, len(pdf), batch_rows)
        ]
        parts.append(op.flush())
        got = pd.concat([p for p in parts if len(p)], ignore_index=True)
        got = got.sort_values("w_start").reset_index(drop=True)
        assert len(got) == 1
        assert got.iloc[0]["w_start"] == 30.0
        assert got.iloc[0]["w_end"] == 110.0
        assert got.iloc[0]["n_events"] == 9

    def test_run_open_at_end_closed_by_flush(self):
        pdf = pd.DataFrame(
            {"train": 1, "ts": np.arange(0, 100, 10.0),
             "speed": 0.0, "x": 0.0, "stopped": True}
        )
        op = self._op()
        assert len(op.process(pdf)) == 0  # run still open
        out = op.flush()
        assert len(out) == 1
        assert out.iloc[0]["duration_s"] == 90.0

    def test_flush_idempotent(self):
        op = self._op()
        op.process(stop_frame())
        op.flush()
        assert len(op.flush()) == 0

    def test_multiple_keys_tracked_independently(self):
        pdf = stop_frame()
        op = self._op()
        # Feed interleaved by time: both keys share batches.
        pdf = pdf.sort_values("ts")
        out1 = op.process(pdf.iloc[: len(pdf) // 2])
        out2 = op.process(pdf.iloc[len(pdf) // 2 :])
        out3 = op.flush()
        total = sum(len(o) for o in (out1, out2, out3))
        assert total == 1

    def test_no_window_results_are_typed_and_carry_the_columns(self):
        op = self._op()
        full = op.process(stop_frame())
        expected = list(full.columns)
        frames = {
            "empty batch": op.process(stop_frame().iloc[0:0]),
            "no runs": op.process(stop_frame().assign(stopped=False)),
            "nothing open": op.flush(),
        }
        for what, got in frames.items():
            assert len(got) == 0, what
            assert list(got.columns) == expected, what
            assert got["w_start"].dtype == np.float64, what
            assert got["n_events"].dtype == np.int64, what
            assert got["speed_mean"].dtype == np.float64, what
            assert got["x_first"].dtype == full["x_first"].dtype, what
            assert got["train"].dtype == stop_frame()["train"].dtype, what
        # Concatenating with a non-empty result keeps the dtypes.
        both = pd.concat([frames["empty batch"], full], ignore_index=True)
        assert both.dtypes.equals(full.dtypes)

    def test_fresh_operator_flush_has_the_columns(self):
        got = self._op().flush()
        assert len(got) == 0
        assert {"train", "w_start", "w_end", "duration_s", "n_events",
                "x_first", "speed_mean", "speed_min", "speed_max"} <= set(got.columns)


@st.composite
def split_streams(draw):
    """A two-key event stream in time order, its flag drawn as runs (so
    runs cross batch cuts), and cuts into batches: a repeated cut is an
    empty batch, adjacent cuts a single-row one."""
    runs = draw(st.lists(st.tuples(st.booleans(), st.integers(1, 9)), max_size=10))
    stopped = [flag for flag, n in runs for _ in range(n)]
    n = len(stopped)
    pdf = pd.DataFrame({
        "train": draw(st.lists(st.sampled_from([1, 2]), min_size=n, max_size=n)),
        "ts": np.arange(n, dtype=np.float64),
        "stopped": np.array(stopped, dtype=bool),
        "x": draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)),
        "v": draw(st.lists(st.floats(-100, 100), min_size=n, max_size=n)),
    }).astype({"train": "int64", "x": "float64", "v": "float64"})
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=12)))
    min_duration_s = draw(st.sampled_from([0.0, 2.0, 6.0]))
    return pdf, [0, *cuts, n], min_duration_s


WINDOW_COLS = ["train", "w_start", "w_end", "n_events", "x_first",
               "v_mean", "v_min", "v_max"]


def gaps_and_islands(pdf, min_duration_s):
    """DuckDB's threshold windows over the whole stream."""
    con = duckdb.connect()
    try:
        con.register("ev", pdf)
        return con.execute(f"""
            WITH f AS (
              SELECT *, row_number() OVER (PARTITION BY train ORDER BY ts)
                      - row_number() OVER (PARTITION BY train, stopped ORDER BY ts) AS grp
              FROM ev
            )
            SELECT train, min(ts) AS w_start, max(ts) AS w_end, count(*) AS n_events,
                   arg_min(x, ts) AS x_first, avg(v) AS v_mean, min(v) AS v_min,
                   max(v) AS v_max
            FROM f WHERE stopped GROUP BY train, grp
            HAVING max(ts) - min(ts) >= {min_duration_s}
        """).fetchdf()
    finally:
        con.close()


def split_windows(pdf, cuts, min_duration_s):
    """The operator's windows over the stream cut into batches."""
    op = ThresholdWindowOperator(
        key_cols=["train"], flag_col="stopped", min_duration_s=min_duration_s,
        value_cols=["v"], carry_cols=["x"],
    )
    parts = [op.process(pdf.iloc[a:b]) for a, b in zip(cuts, cuts[1:])]
    return pd.concat([*parts, op.flush()], ignore_index=True)


def assert_same_windows(got, expected):
    """Equal windows; a mean may differ by summation order, which for at
    most 90 float64 values of magnitude ≤ 100 is below 90 · 100 · 2⁻⁵²."""
    def canon(df):
        df = df[WINDOW_COLS].astype({"train": "int64", "n_events": "int64"})
        return df.sort_values(["train", "w_start"]).reset_index(drop=True)

    pd.testing.assert_frame_equal(canon(got), canon(expected), check_dtype=False,
                                  rtol=0, atol=1e-10)


class TestAnySplit:
    @given(split_streams())
    @settings(max_examples=200, deadline=None)
    def test_operator_matches_oracle(self, case):
        pdf, cuts, min_duration_s = case
        assert_same_windows(split_windows(pdf, cuts, min_duration_s),
                            gaps_and_islands(pdf, min_duration_s))

    @given(split_streams())
    @settings(max_examples=8, deadline=None)
    def test_batch_form_matches_operator_and_oracle(self, spark, case):
        pdf, cuts, min_duration_s = case
        df = spark.createDataFrame(
            pdf, "train long, ts double, stopped boolean, x double, v double"
        )
        batch = threshold_window(
            df, key_cols=["train"], flag_col="stopped", min_duration_s=min_duration_s,
            value_cols=["v"], carry_cols=["x"],
        ).toPandas()
        assert_same_windows(batch, gaps_and_islands(pdf, min_duration_s))
        assert_same_windows(split_windows(pdf, cuts, min_duration_s), batch)


class TestOpenRunState:
    def test_state_size_constant_while_a_run_stays_open(self):
        """A train stopped for an hour at 0.5 s (7 200 events over 100
        batches): the operator keeps a summary of the run, not its rows."""
        op = ThresholdWindowOperator(
            key_cols=["train"], flag_col="stopped", min_duration_s=60.0,
            value_cols=["speed"], carry_cols=["x"],
        )
        run = pd.DataFrame({"train": 1, "ts": np.arange(7200) * 0.5, "speed": 0.0,
                            "x": 3.0, "stopped": True})
        sizes = []
        for batch in (run.iloc[i : i + 72] for i in range(0, 7200, 72)):
            assert len(op.process(batch)) == 0
            sizes.append(len(pickle.dumps(op)))
        assert max(sizes) == sizes[0]
        (win,) = op.flush().itertuples()
        assert (win.w_start, win.w_end, win.n_events, win.x_first) == (0.0, 3599.5, 7200, 3.0)
