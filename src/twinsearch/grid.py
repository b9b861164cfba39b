"""Log-spaced learning-rate x weight-decay search grids.

Convention used throughout the package: rows index weight decay, columns
index learning rate, so every matrix logged over the grid has shape
(n_wd, n_lr). Cells are compared by index, never by float equality.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "GridCell",
    "HyperGrid",
    "build_log_grid",
    "slice_grid",
    "cell_params",
]


class GridCell(NamedTuple):
    """Address of one lattice point: ``row`` indexes WD, ``col`` indexes LR.

    A ``NamedTuple``, so hashing and ordering run in C: the scheduler hashes
    every alive cell each round.
    """

    row: int
    col: int


def _log_spaced(low: float, high: float, n: int) -> tuple[float, ...]:
    values = np.logspace(math.log10(low), math.log10(high), n)
    # endpoints are part of the declared search bounds; pin them exactly
    values[0] = low
    values[-1] = high
    return tuple(float(v) for v in values)


def _check_log_spacing(values: tuple[float, ...], axis: str) -> None:
    logs = np.log10(np.asarray(values, dtype=float))
    steps = np.diff(logs)
    if np.any(steps <= 0):
        raise ValueError(f"{axis} values must be strictly increasing")
    span = logs[-1] - logs[0]
    if not np.allclose(steps, span / (len(values) - 1), rtol=1e-12, atol=1e-12):
        raise ValueError(f"{axis} values are not equally spaced in log10")


@dataclass(frozen=True)
class HyperGrid:
    """The n_wd x n_lr lattice of (LR, WD) pairs, equally spaced in log10."""

    lr_values: tuple[float, ...]
    wd_values: tuple[float, ...]

    def __post_init__(self) -> None:
        for values, axis in ((self.lr_values, "lr"), (self.wd_values, "wd")):
            if len(values) < 2:
                raise ValueError(f"{axis} axis needs at least 2 points")
            if not all(0 < v <= sys.float_info.max for v in values):  # NaN, inf and ints past floats fail
                raise ValueError(f"{axis} values must be finite and positive")
            _check_log_spacing(values, axis)

    @property
    def n_lr(self) -> int:
        return len(self.lr_values)

    @property
    def n_wd(self) -> int:
        return len(self.wd_values)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_wd, self.n_lr)

    @property
    def n_trials(self) -> int:
        return self.n_wd * self.n_lr

    def cells(self) -> list[GridCell]:
        """All cells in row-major (flat-index) order."""
        return [GridCell(r, c) for r in range(self.n_wd) for c in range(self.n_lr)]

    @classmethod
    def from_dict(cls, d: dict) -> "HyperGrid":
        """The grid of ``asdict(grid)``'s JSON; every value must be a JSON number (a boolean is not)."""
        lr_values, wd_values = tuple(d["lr_values"]), tuple(d["wd_values"])
        for values, axis in ((lr_values, "lr"), (wd_values, "wd")):
            if not {int, float} >= set(map(type, values)):
                raise ValueError(f"{axis} values must be numbers")
        return cls(lr_values=lr_values, wd_values=wd_values)


def build_log_grid(
    lr_low: float,
    lr_high: float,
    n_lr: int,
    wd_low: float,
    wd_high: float,
    n_wd: int,
) -> HyperGrid:
    """Build the search grid: ``n_lr`` x ``n_wd`` points, log10-equally spaced,
    both endpoints included.
    """
    for name, value in (("lr_low", lr_low), ("lr_high", lr_high), ("wd_low", wd_low), ("wd_high", wd_high)):
        if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    if lr_low >= lr_high:
        raise ValueError(f"lr_low must be < lr_high, got {lr_low} >= {lr_high}")
    if wd_low >= wd_high:
        raise ValueError(f"wd_low must be < wd_high, got {wd_low} >= {wd_high}")
    if n_lr < 2:
        raise ValueError(f"n_lr must be >= 2, got {n_lr}")
    if n_wd < 2:
        raise ValueError(f"n_wd must be >= 2, got {n_wd}")
    return HyperGrid(
        lr_values=_log_spaced(lr_low, lr_high, n_lr),
        wd_values=_log_spaced(wd_low, wd_high, n_wd),
    )


def slice_grid(grid: HyperGrid, lr_stride: int, wd_stride: int) -> HyperGrid:
    """Keep every stride-th value per axis starting at index 0."""
    if lr_stride < 1:
        raise ValueError(f"lr_stride must be >= 1, got {lr_stride}")
    if wd_stride < 1:
        raise ValueError(f"wd_stride must be >= 1, got {wd_stride}")
    lr_values = grid.lr_values[::lr_stride]
    wd_values = grid.wd_values[::wd_stride]
    if len(lr_values) < 2:
        raise ValueError(f"lr_stride {lr_stride} leaves fewer than 2 grid points")
    if len(wd_values) < 2:
        raise ValueError(f"wd_stride {wd_stride} leaves fewer than 2 grid points")
    return HyperGrid(lr_values=lr_values, wd_values=wd_values)


def cell_params(grid: HyperGrid, cell: GridCell) -> tuple[float, float]:
    """(learning rate, weight decay) at the given cell."""
    if not (0 <= cell.row < grid.n_wd and 0 <= cell.col < grid.n_lr):
        raise IndexError(f"cell {cell} outside grid of shape {grid.shape}")
    return grid.lr_values[cell.col], grid.wd_values[cell.row]
