"""Tests for repro.nebula.topology — placement and uplink accounting."""
import pytest

from repro.nebula.topology import (
    Operator,
    Placement,
    place,
    transfer_bytes,
)

CHAIN = [
    Operator("geofence_filter", selectivity=0.1),
    Operator("project", selectivity=1.0, out_event_size=40),
    Operator("cross_train_join", selectivity=1.0, pushable=False),
    Operator("sink_filter", selectivity=0.5),
]


class TestModel:
    def test_operator_selectivity_validated(self):
        with pytest.raises(ValueError):
            Operator("f", selectivity=1.5)


class TestPlacement:
    def test_cloud_strategy_all_at_coordinator(self):
        pl = place(CHAIN, "cloud")
        assert all(v == "coordinator" for v in pl.assignment.values())

    def test_pushdown_prefix_at_edge(self):
        pl = place(CHAIN, "pushdown")
        assert pl.assignment["geofence_filter"] == "edge"
        assert pl.assignment["project"] == "edge"
        assert pl.assignment["cross_train_join"] == "coordinator"
        # Pushable ops after a coordinator op stay at the coordinator.
        assert pl.assignment["sink_filter"] == "coordinator"

    def test_all_pushable_chain_fully_at_edge(self):
        ops = [Operator("f1", 0.5), Operator("f2", 0.5)]
        pl = place(ops, "pushdown")
        assert all(v == "edge" for v in pl.assignment.values())

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            place(CHAIN, "fog")


class TestTransferBytes:
    def test_cloud_ships_raw(self):
        pl = place(CHAIN, "cloud")
        rep = transfer_bytes(CHAIN, pl, n_events=10_000, event_size=112)
        assert rep.bytes_shipped == rep.bytes_raw == 10_000 * 112
        assert rep.savings_frac == 0.0

    def test_pushdown_ships_filtered_projected(self):
        pl = place(CHAIN, "pushdown")
        rep = transfer_bytes(CHAIN, pl, n_events=10_000, event_size=112)
        # 10% survive the filter; events shrink to 40 B after project.
        assert rep.events_shipped == 1000
        assert rep.bytes_shipped == 1000 * 40
        assert rep.savings_frac == pytest.approx(1 - (1000 * 40) / (10_000 * 112))

    def test_savings_increase_with_selectivity(self):
        sel_strict = [Operator("f", 0.01)]
        sel_loose = [Operator("f", 0.9)]
        strict = transfer_bytes(
            sel_strict, place(sel_strict, "pushdown"), n_events=1000, event_size=100
        )
        loose = transfer_bytes(
            sel_loose, place(sel_loose, "pushdown"), n_events=1000, event_size=100
        )
        assert strict.savings_frac > loose.savings_frac

    def test_validates_inputs(self):
        pl = Placement()
        with pytest.raises(ValueError):
            transfer_bytes(CHAIN, pl, n_events=-1, event_size=100)
        with pytest.raises(ValueError):
            transfer_bytes(CHAIN, pl, n_events=1, event_size=0)

    def test_zero_events(self):
        pl = place(CHAIN, "pushdown")
        rep = transfer_bytes(CHAIN, pl, n_events=0, event_size=112)
        assert rep.bytes_shipped == 0
        assert rep.savings_frac == 0.0
