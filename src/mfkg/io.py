"""Snapshot and CSV serialization.

Snapshot format (``.mfkg``), little-endian throughout:

    bytes 0-4   magic  b"MFKG1"
    u32         format version (currently 1)
    u32         dim
    u32         points per axis
    f64         box length L
    f64         mass m
    f64         sample time t
    f64 pairs   psi, row-major, interleaved (re, im)
    f64 pairs   pi, same layout

Trajectory CSV columns: t, re_gamma, im_gamma, re_f, im_f, H, Q, then one
column per configured seminorm radius.
"""
from __future__ import annotations

import csv
import struct
from pathlib import Path

import numpy as np

from .fields import FieldState
from .grid import Grid

__all__ = [
    "MAGIC",
    "save_snapshot",
    "load_snapshot",
    "write_trajectory_csv",
    "write_columns_csv",
]

MAGIC = b"MFKG1"
_HEADER = struct.Struct("<IIIddd")
_OFFSET = len(MAGIC) + _HEADER.size


def save_snapshot(path, state: FieldState, m: float = 1.0) -> None:
    """Write one phase-space sample to ``path`` in the MFKG1 layout."""
    grid = state.grid
    payload = [
        MAGIC,
        _HEADER.pack(1, grid.dim, grid.points_per_axis, grid.box_length, m, state.time),
        np.ascontiguousarray(state.psi, dtype="<c16").tobytes(),
        np.ascontiguousarray(state.pi, dtype="<c16").tobytes(),
    ]
    Path(path).write_bytes(b"".join(payload))


def _snapshot_header(head: bytes, size: int, path) -> tuple[Grid, float, float]:
    """(grid, m, t) from a snapshot's first bytes and its length in bytes."""
    if head[: len(MAGIC)] != MAGIC:
        raise ValueError(f"{path}: not an MFKG1 snapshot (bad magic)")
    if len(head) < _OFFSET:
        raise ValueError(f"{path}: truncated snapshot ({size} bytes)")
    version, dim, n, box_length, m, t = _HEADER.unpack_from(head, len(MAGIC))
    if version != 1:
        raise ValueError(f"{path}: unsupported snapshot version {version}")
    grid = Grid(dim, n, box_length)
    expected = _OFFSET + 2 * grid.num_points * 16
    if size != expected:
        raise ValueError(f"{path}: truncated snapshot ({size} bytes, expected {expected})")
    return grid, m, t


def _read_snapshot_header(path) -> tuple[Grid, float, float]:
    """(grid, m, t) of the snapshot at ``path``, reading only its header."""
    with open(path, "rb") as fh:
        head = fh.read(_OFFSET)
        size = fh.seek(0, 2)
    return _snapshot_header(head, size, path)


def load_snapshot(path) -> tuple[FieldState, float]:
    """Read a snapshot; returns the state together with the stored mass."""
    raw = Path(path).read_bytes()
    grid, m, t = _snapshot_header(raw[:_OFFSET], len(raw), path)
    count = grid.num_points
    flat = np.frombuffer(raw, dtype="<c16", count=2 * count, offset=_OFFSET)
    psi = flat[:count].reshape(grid.shape).astype(np.complex128)
    pi = flat[count:].reshape(grid.shape).astype(np.complex128)
    return FieldState(grid, psi, pi, t), m


def write_columns_csv(path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write equal-length columns; floats serialized via repr for determinism."""
    rows = zip(*columns)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])


def write_trajectory_csv(path, traj) -> None:
    header = ["t", "re_gamma", "im_gamma", "re_f", "im_f", "H", "Q"]
    columns = [
        traj.times,
        traj.gamma.real,
        traj.gamma.imag,
        traj.force.real,
        traj.force.imag,
        traj.energy,
        traj.charge,
    ]
    for label, series in traj.seminorms.items():
        header.append(label)
        columns.append(series)
    write_columns_csv(path, header, columns)
