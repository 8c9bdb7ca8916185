"""Batch (row-vectorised) forms of the MEOS kernels for Arrow UDFs.

MEOS processes one temporal value at a time; a stream engine processes
*buffers* of events. These helpers evaluate the MEOS predicates over
whole numpy/pandas batches at once — the exact shape NebulaMEOS's
operators need when invoked from the expression framework, and what the
`core.udfs` plugin registers into Spark.

All functions take plain numpy arrays of x/y metres so they can be
called from ``pandas_udf`` bodies without conversion overhead.
"""
from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def in_any_zone(x: np.ndarray, y: np.ndarray, zones: Sequence) -> np.ndarray:
    """True where the point lies inside *any* of ``zones`` (shapes with a
    ``contains`` method — Rect/Circle/Polygon)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    out = np.zeros(x.shape, dtype=bool)
    for z in zones:
        out |= z.contains(x, y)
    return out


def zone_id_at(
    x: np.ndarray, y: np.ndarray, zones: Sequence, ids: Sequence[int]
) -> np.ndarray:
    """Id of the first zone containing each point; −1 where none does.

    "First" follows the given order, matching a stream operator that
    checks geofences in registration order.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    out = np.full(x.shape, -1, dtype=np.int64)
    for z, zid in zip(zones, ids):
        hit = (out == -1) & z.contains(x, y)
        out[hit] = zid
    return out


def min_zone_distance(x: np.ndarray, y: np.ndarray, zones: Sequence) -> np.ndarray:
    """Min distance from each point to any zone (0 inside)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    d = np.full(x.shape, np.inf)
    for z in zones:
        d = np.minimum(d, z.distance(x, y))
    return d


def ewithin_any(x, y, zones: Sequence, d: float) -> np.ndarray:
    """Per-event form of ``edwithin``: point within ``d`` metres of any
    zone. (The sequence form lives in ``tpoint_ops.edwithin``.)"""
    if d < 0:
        raise ValueError("negative distance")
    return min_zone_distance(x, y, zones) <= d


def nearest_zone(
    x: np.ndarray, y: np.ndarray, zones: Sequence, ids: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest zone per point: (zone id, distance). Used by Q5 to find
    the closest workshop on a battery alert (the paper's "queries nearby
    workshops in case of emergencies")."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    best_d = np.full(x.shape, np.inf)
    best_id = np.full(x.shape, -1, dtype=np.int64)
    for z, zid in zip(zones, ids):
        d = z.distance(x, y)
        better = d < best_d
        best_d = np.where(better, d, best_d)
        best_id = np.where(better, zid, best_id)
    return best_id, best_d


def speed_kmh(t: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Instantaneous speed (km/h) from consecutive GPS fixes of ONE
    object, time-sorted. First sample repeats the second's speed so the
    output aligns 1:1 with input rows (stream-friendly).
    """
    t = np.asarray(t, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if t.size == 0:
        return np.empty(0)
    if t.size == 1:
        return np.zeros(1)
    dt = np.diff(t)
    if np.any(dt <= 0):
        raise ValueError("timestamps must be strictly increasing per object")
    v = np.hypot(np.diff(x), np.diff(y)) / dt * 3.6
    return np.concatenate(([v[0]], v))


def run_lengths(flag: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Contiguous runs of True in a boolean array.

    Returns (start_idx, end_idx_exclusive, length) per run — the kernel
    under threshold windows (Q7 stop detection, Q8 persistent low
    pressure).
    """
    flag = np.asarray(flag, dtype=bool)
    if flag.size == 0:
        z = np.empty(0, dtype=np.int64)
        return z, z, z
    padded = np.concatenate(([False], flag, [False]))
    edges = np.flatnonzero(np.diff(padded.astype(np.int8)))
    starts, ends = edges[::2], edges[1::2]
    return starts, ends, ends - starts
