"""Mode-seeking (Quickshift) segmentation of the normalized loss surface.

The matrix is treated as a 1-channel image: each non-masked cell gets an
augmented coordinate (row, col, ratio * value), a Gaussian kernel density
summed exactly over every non-masked cell, and a link to its nearest
higher-density neighbor within ``max_dist``. The resulting forest's trees
are the regions. Masked cells are invisible throughout, not zero pixels.

The M non-masked cells are walked in flat-index order, ``BLOCK`` (64) at a
time, so density and linking hold O(BLOCK * M) floats, never an (M, M)
array: on a 40x40 grid (M = 1,600) each holds two 0.82 MB buffers, where
one (M, M) array would take 20.5 MB. Squared distances are accumulated axis by axis, (row^2 + value^2)
+ col^2, for one block against a contiguous slice of cells. Density and
linking each allocate two flat (BLOCK * M) buffers once and write every
block's distances into their leading elements, so no block allocates (or
page-faults in) fresh arrays; the operations and their order are those of
fresh arrays, and so are the bits:

- Density sums each block row over all M cells. Every row is the same
  reduction over the same values as a full (M, M) row, so its bits do not
  depend on the blocking.
- Linking compares a block only with the cells whose grid row lies within
  ``max_dist`` rows of the block's rows, which in flat order is one
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
from dataclasses import asdict, dataclass

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
BLOCK = 64  # cells per block; density and linking hold O(BLOCK * M) floats


@dataclass(frozen=True)
class QuickshiftParams:
    kernel_size: float
    max_dist: float
    ratio: float = 1.0

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

    def to_dict(self) -> dict:
        return asdict(self)


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


def _sq_dists(
    coords: np.ndarray, block: slice, others: slice, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Squared distances between the cells of ``block`` and those of ``others``.

    Written into the leading elements of the flat buffers ``out`` and
    ``scratch`` (see ``_buffers``); returns the C-contiguous (block, others)
    view of ``out``. Summed as (row^2 + value^2) + col^2: that order keeps
    the densities, and so the labels, bit-identical to those of earlier
    releases.
    """
    a, b = coords[:, block], coords[:, others]
    shape = (a.shape[1], b.shape[1])
    size = shape[0] * shape[1]
    sq = out[:size].reshape(shape)
    diff = scratch[:size].reshape(shape)
    np.subtract.outer(a[0], b[0], out=sq)
    sq *= sq
    for axis in (2, 1):
        np.subtract.outer(a[axis], b[axis], out=diff)
        diff *= diff
        sq += diff
    return sq


def _buffers(n: int) -> np.ndarray:
    """The two flat (BLOCK * n) buffers ``_sq_dists`` writes into, for n cells."""
    return np.empty((2, min(BLOCK, n) * n))


def _blocks(n: int):
    """Consecutive slices of at most ``BLOCK`` cells covering ``range(n)``."""
    for start in range(0, n, BLOCK):
        yield slice(start, min(start + BLOCK, n))


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
    out, scratch = _buffers(len(flat))
    for block in _blocks(len(flat)):
        kernel = _sq_dists(coords, block, slice(None), out, scratch)
        np.negative(kernel, out=kernel)
        kernel /= 2.0 * kernel_size**2
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
    out, scratch = _buffers(len(flat))
    for block in _blocks(len(flat)):
        lo = np.searchsorted(rows, rows[block.start] - reach, side="left")
        hi = np.searchsorted(rows, rows[block.stop - 1] + reach, side="right")
        dist = _sq_dists(coords, block, slice(lo, hi), out, scratch)
        np.sqrt(dist, out=dist)
        # strictly denser, so a cell is never its own candidate
        eligible = (d[None, lo:hi] > d[block, None]) & (dist <= max_dist)
        dist[~eligible] = np.inf
        # argmin returns the first minimum; candidates are flat-ascending
        nearest = dist.argmin(axis=1)
        linked = np.isfinite(dist[np.arange(len(nearest)), nearest])
        links[block] = np.where(linked, flat[lo + nearest], flat[block])
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
