"""Mode-seeking (Quickshift) segmentation of the normalized loss surface.

The matrix is treated as a 1-channel image: each non-masked cell gets an
augmented coordinate (row, col, ratio * value), a Gaussian kernel density
summed exactly over every non-masked cell, and a link to its nearest
higher-density neighbor within ``max_dist``. The resulting forest's trees
are the regions. Masked cells are invisible throughout, not zero pixels.

The M non-masked cells are walked in flat-index order in blocks of at most
``BLOCK`` (64) consecutive cells of one grid row, so density and linking hold
O(BLOCK * M) floats, never an (M, M) array. Each allocates two flat buffers of
``min(BLOCK, widest row) * M`` floats once and writes every block's distances
into their leading elements, so no block allocates (or page-faults in) fresh
arrays: on a 40x40 grid (M = 1,600) that is two 0.51 MB buffers, where one
(M, M) array would take 20.5 MB. All cells of a block share their row r, so
the row term (r - r_j)^2 is one length-M vector, added by broadcast. Squared
distances are summed as (value^2 + row^2) + col^2; IEEE addition is
commutative, so that has the bits of (row^2 + value^2) + col^2, the order
that stored runs were segmented with. The col^2 buffer is kept while the
block's and the other cells' columns stay the same, as they do along full
grid rows. The density kernel divides by -(2 * kernel_size^2), which is
exactly negating and then dividing.
A density block takes 7 passes over its (block, M) buffer when col^2 is kept
(subtract and square the values, add the row vector and col^2, divide, exp,
sum) and 9 when it is not. The three stages:

- Density sums each block row over all M cells. Every row is the same
  reduction over the same values as a full (M, M) row, so its bits do not
  depend on the blocking.
- Linking compares a block only with the cells whose grid row lies within
  ``max_dist`` rows of the block's row, which in flat order is one
  contiguous slice. That window is exact: the augmented distance is never
  smaller than the row difference (also after rounding), so no cell
  outside it can be eligible. Each cell's link is one masked row
  ``argmin`` over flat-ascending candidates, whose first minimum keeps the
  smaller-flat-index tie-break.
- Labelling follows the parent forest by vectorised pointer jumping and
  numbers the roots in ascending flat order.

A deterministic ``1e-12 * flat_index`` density perturbation totally orders
plateaus, replacing the randomized tie-breaking of common implementations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import HyperGrid

__all__ = [
    "QuickshiftParams",
    "SegmentLabels",
    "default_params",
    "compute_density",
    "link_parents",
    "label_segments",
    "quickshift",
]

DENSITY_TIE_EPS = 1e-12
BLOCK = 64  # cells of one grid row per block; density and linking hold O(BLOCK * M) floats


@dataclass(frozen=True)
class QuickshiftParams:
    kernel_size: float
    max_dist: float
    ratio: float

    def __post_init__(self) -> None:
        # the density divides by 2 * kernel_size**2, which must be a finite positive float
        try:
            bandwidth = 2.0 * self.kernel_size**2
        except OverflowError:
            bandwidth = math.inf
        if not (self.kernel_size > 0 and 0 < bandwidth < math.inf):
            raise ValueError(
                "kernel_size must be positive, with 2 * kernel_size**2 finite and non-zero, "
                f"got {self.kernel_size}"
            )
        if not self.max_dist > 0:
            raise ValueError(f"max_dist must be positive, got {self.max_dist}")
        # squared distances hold ratio**2 times a squared value difference of up to 1
        if not (math.isfinite(self.ratio * self.ratio) and self.ratio >= 0):
            raise ValueError(f"ratio must be non-negative, with ratio**2 finite, got {self.ratio}")


@dataclass
class SegmentLabels:
    """Region ids per cell, -1 for masked."""

    labels: np.ndarray  # (n_wd, n_lr) ints
    n_regions: int


def default_params(grid: HyperGrid) -> QuickshiftParams:
    """Both bandwidth and link range default to sqrt of the largest grid side."""
    side = math.sqrt(max(grid.n_lr, grid.n_wd))
    return QuickshiftParams(kernel_size=side, max_dist=side, ratio=1.0)


def _augmented_coords(values: np.ndarray, mask: np.ndarray, ratio: float) -> tuple[np.ndarray, np.ndarray]:
    """(3, M) row/col/value coordinates of the non-masked cells, plus their flat indices.

    Cells come in flat-index order, which fixes every summation order.
    """
    rows, cols = np.nonzero(~mask)  # row-major, so flat-index ascending
    flat = rows * values.shape[1] + cols
    coords = np.stack([rows.astype(float), cols.astype(float), ratio * values[rows, cols]])
    return coords, flat


def _blocks(rows: np.ndarray) -> list[slice]:
    """Slices of at most ``BLOCK`` consecutive cells of one grid row, in flat order, covering
    every cell; ``rows`` holds the cells' grid rows, ascending."""
    bounds = [0, *(np.flatnonzero(np.diff(rows)) + 1).tolist(), len(rows)]
    return [
        slice(lo, min(lo + BLOCK, stop))
        for start, stop in zip(bounds, bounds[1:])
        for lo in range(start, stop, BLOCK)
    ]


def _sq_dists(coords: np.ndarray, pairs: list[tuple[slice, slice]]):
    """Squared distances between the cells of ``block`` and those of ``others``, for each
    ``(block, others)`` of ``pairs``: yields the block, the others and the C-contiguous
    (block, others) view of one flat buffer, which the next pair overwrites.

    Summed as (value^2 + row^2) + col^2 in two flat buffers of ``widest block * M`` floats,
    allocated once; the col^2 buffer is kept while the columns stay the same.
    """
    width = max((block.stop - block.start for block, _ in pairs), default=0)
    out, col_buf = np.empty((2, width * coords.shape[1]))
    held = None  # the (block, others) columns whose squared differences col_buf holds
    for block, others in pairs:
        a, b = coords[:, block], coords[:, others]
        shape = (a.shape[1], b.shape[1])
        size = shape[0] * shape[1]
        sq = out[:size].reshape(shape)
        col_sq = col_buf[:size].reshape(shape)
        if held is None or not (np.array_equal(a[1], held[0]) and np.array_equal(b[1], held[1])):
            np.subtract.outer(a[1], b[1], out=col_sq)
            col_sq *= col_sq
            held = a[1], b[1]
        np.subtract.outer(a[2], b[2], out=sq)
        sq *= sq
        row_sq = a[0, 0] - b[0]  # every cell of the block lies in grid row a[0, 0]
        row_sq *= row_sq
        sq += row_sq
        sq += col_sq
        yield block, others, sq


def compute_density(
    values: np.ndarray, mask: np.ndarray, kernel_size: float, ratio: float
) -> np.ndarray:
    """Exact Gaussian kernel density per non-masked cell, tie-broken by flat index.

    Returns the full-shape matrix with NaN at masked cells.
    """
    _check_inputs(values, mask)
    density = np.full(values.shape, np.nan)
    coords, flat = _augmented_coords(values, mask, ratio)
    d = np.empty(len(flat))
    pairs = [(block, slice(None)) for block in _blocks(coords[0])]
    for block, _, kernel in _sq_dists(coords, pairs):
        np.divide(kernel, -(2.0 * kernel_size**2), out=kernel)
        np.exp(kernel, out=kernel)
        d[block] = kernel.sum(axis=1)
    d += DENSITY_TIE_EPS * flat
    density[np.unravel_index(flat, values.shape)] = d
    return density


def link_parents(
    density: np.ndarray,
    values: np.ndarray,
    mask: np.ndarray,
    max_dist: float,
    ratio: float,
) -> np.ndarray:
    """Link each cell to its nearest strictly-denser neighbor within ``max_dist``.

    Distance is the augmented (row, col, ratio * value) Euclidean metric; ties
    break on the smaller flat index. Cells with no eligible neighbor are roots
    (parent = own flat index). Masked cells get parent -1.
    """
    _check_inputs(values, mask)
    parent = np.full(values.shape, -1, dtype=np.int64)
    coords, flat = _augmented_coords(values, mask, ratio)
    if len(flat) == 0:
        return parent
    cells = np.unravel_index(flat, values.shape)
    d = density[cells]
    rows = coords[0]
    n_rows = values.shape[0]
    # distance >= |row difference|, an integer, so no cell more than
    # int(max_dist) rows away is eligible
    reach = n_rows if max_dist >= n_rows else int(max_dist)
    links = np.empty(len(flat), dtype=np.int64)
    blocks = _blocks(rows)
    block_rows = rows[[block.start for block in blocks]]
    los = np.searchsorted(rows, block_rows - reach, side="left")
    his = np.searchsorted(rows, block_rows + reach, side="right")
    pairs = [(block, slice(lo, hi)) for block, lo, hi in zip(blocks, los, his)]
    for block, window, dist in _sq_dists(coords, pairs):
        np.sqrt(dist, out=dist)
        # only strictly denser cells are eligible, so a cell is never its own candidate
        np.putmask(dist, (d[None, window] <= d[block, None]) | (dist > max_dist), np.inf)
        # argmin returns the first minimum; candidates are flat-ascending
        nearest = dist.argmin(axis=1)
        linked = np.isfinite(dist[np.arange(len(nearest)), nearest])
        links[block] = np.where(linked, flat[window.start + nearest], flat[block])
    parent[cells] = links
    return parent


def label_segments(parent: np.ndarray, mask: np.ndarray) -> SegmentLabels:
    """Collapse parent trees into region labels, numbered by ascending root index."""
    flat_parent = parent.ravel()
    n_cells = flat_parent.size
    active = np.flatnonzero(~mask.ravel())
    # pointer jumping: after k rounds each cell points 2**k steps up its
    # tree, so every chain (at most n_cells long) ends at its root
    anc = np.where(mask.ravel(), np.arange(n_cells), flat_parent)
    for _ in range(n_cells.bit_length() + 1):
        up = anc[anc]
        if np.array_equal(up, anc):
            break
        anc = up
    roots = anc[active]
    if np.any(flat_parent[roots] != roots):
        raise AssertionError("cycle in parent forest; density ordering violated")
    root_ids, region_of = np.unique(roots, return_inverse=True)
    labels = np.full(n_cells, -1, dtype=np.int64)
    labels[active] = region_of
    labels = labels.reshape(parent.shape)
    return SegmentLabels(labels=labels, n_regions=len(root_ids))


def quickshift(values: np.ndarray, mask: np.ndarray, params: QuickshiftParams) -> SegmentLabels:
    """Full segmentation: density, linking, labeling."""
    density = compute_density(values, mask, params.kernel_size, params.ratio)
    parent = link_parents(density, values, mask, params.max_dist, params.ratio)
    return label_segments(parent, mask)


def _check_inputs(values: np.ndarray, mask: np.ndarray) -> None:
    if values.shape != mask.shape:
        raise ValueError(f"values shape {values.shape} != mask shape {mask.shape}")
    active = values[~mask]
    if active.size and (np.any(~np.isfinite(active)) or np.any(active < 0) or np.any(active > 1)):
        raise ValueError("non-masked values must lie in [0, 1]")
