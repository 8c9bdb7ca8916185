"""Simulated coordinator/worker topology with operator push-down.

NebulaStream "employs its coordinators and worker nodes to manage
computations and allows execution directly on edge devices" (§2), and
the paper's GCEP section stresses "pushing down computation to IoT
devices". With no Raspberry Pi available, this module simulates that
deployment dimension: two tiers (an edge worker on every train, one
cloud coordinator), operator placement strategies, and
transferred-byte accounting — making the push-down claim quantifiable
(Table 1b: `repro.core.throughput.table1b`, `jobs/pushdown_report.py`).

The *data plane* still runs in Spark; this is the control-plane model
that decides where each operator would run and how many bytes cross the
uplink.
"""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Operator:
    """A logical stream operator with its data-volume effect.

    ``selectivity`` = output rows / input rows (filters < 1, maps = 1,
    windows ≪ 1 as they aggregate many events into one result).
    ``pushable`` marks operators that can run on edge hardware
    (stateless filters/maps and per-train windows can; a cross-train
    join cannot).
    """

    name: str
    selectivity: float
    pushable: bool = True
    out_event_size: int | None = None  # bytes; None = unchanged

    def __post_init__(self) -> None:
        if not (0.0 <= self.selectivity <= 1.0):
            raise ValueError("selectivity must be in [0, 1]")


@dataclass
class Placement:
    """operator name → node kind ("edge" runs replicated on every edge)."""

    assignment: dict[str, str] = field(default_factory=dict)

    def at_edge(self, op: Operator) -> bool:
        return self.assignment.get(op.name) == "edge"


def place(ops: list[Operator], strategy: str) -> Placement:
    """Assign operators to tiers.

    ``cloud``:    every operator at the coordinator (the paper's status
                  quo: "devices send raw data to the cloud").
    ``pushdown``: the maximal *prefix* of pushable operators runs on the
                  edge workers (NebulaMEOS's mode); the first
                  non-pushable operator and everything after it runs at
                  the coordinator.
    """
    if strategy not in ("cloud", "pushdown"):
        raise ValueError(f"unknown strategy {strategy!r}")
    pl = Placement()
    at_edge = strategy == "pushdown"
    for op in ops:
        if at_edge and not op.pushable:
            at_edge = False
        pl.assignment[op.name] = "edge" if at_edge else "coordinator"
    return pl


@dataclass(frozen=True)
class TransferReport:
    """Uplink accounting for one query deployment."""

    events_generated: int
    events_shipped: int
    bytes_shipped: int
    bytes_raw: int

    @property
    def savings_frac(self) -> float:
        """Fraction of raw uplink bytes avoided by the placement."""
        if self.bytes_raw == 0:
            return 0.0
        return 1.0 - self.bytes_shipped / self.bytes_raw


def transfer_bytes(
    ops: list[Operator],
    placement: Placement,
    *,
    n_events: int,
    event_size: int,
) -> TransferReport:
    """Bytes crossing edge→coordinator for ``n_events`` source events.

    Events flow through the operator chain in order; volume shrinks by
    each operator's selectivity. The uplink carries whatever volume
    exists after the last edge-resident operator.
    """
    if n_events < 0 or event_size <= 0:
        raise ValueError("n_events must be >= 0 and event_size positive")
    rows = float(n_events)
    size = event_size
    # Apply edge-resident prefix.
    for op in ops:
        if not placement.at_edge(op):
            break
        rows *= op.selectivity
        if op.out_event_size is not None:
            size = op.out_event_size
    shipped_rows = int(round(rows))
    return TransferReport(
        events_generated=n_events,
        events_shipped=shipped_rows,
        bytes_shipped=shipped_rows * size,
        bytes_raw=n_events * event_size,
    )
