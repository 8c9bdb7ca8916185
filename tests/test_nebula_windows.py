"""Tests for repro.nebula.windows — threshold windows (batch and
incremental)."""
import numpy as np
import pandas as pd
import pytest

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
