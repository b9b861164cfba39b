"""Mode-seeking (Quickshift) segmentation of the normalized loss surface.

The matrix is treated as a 1-channel image: each non-masked cell gets an
augmented coordinate (row, col, ratio * value), a Gaussian kernel density
summed exactly over every non-masked cell, and a link to its nearest
higher-density neighbor within ``max_dist``. The resulting forest's trees
are the regions. Masked cells are invisible throughout, not zero pixels.

Density and linking each make a single pass over the pairs: the squared
distances are accumulated axis by axis into one (M, M) array for the M
non-masked cells, and every cell's link is one masked row ``argmin``.

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


@dataclass(frozen=True)
class QuickshiftParams:
    kernel_size: float
    max_dist: float
    ratio: float = 1.0

    def __post_init__(self) -> None:
        if not self.kernel_size > 0:
            raise ValueError(f"kernel_size must be positive, got {self.kernel_size}")
        if not self.max_dist > 0:
            raise ValueError(f"max_dist must be positive, got {self.max_dist}")
        if self.ratio < 0:
            raise ValueError(f"ratio must be non-negative, got {self.ratio}")

    def to_dict(self) -> dict:
        return {"kernel_size": self.kernel_size, "max_dist": self.max_dist, "ratio": self.ratio}


@dataclass
class SegmentLabels:
    """Region ids per cell (-1 for masked) plus the parent forest that formed them."""

    labels: np.ndarray  # (n_wd, n_lr) ints
    n_regions: int
    parent: np.ndarray  # flat index of parent; own index for roots; -1 masked


def default_params(grid: HyperGrid) -> QuickshiftParams:
    """Both bandwidth and link range default to sqrt of the largest grid side."""
    side = math.sqrt(max(grid.n_lr, grid.n_wd))
    return QuickshiftParams(kernel_size=side, max_dist=side, ratio=1.0)


def _augmented_coords(values: np.ndarray, mask: np.ndarray, ratio: float) -> tuple[np.ndarray, np.ndarray]:
    """(M, 3) coordinates for non-masked cells in flat-index order, plus flat indices."""
    rows, cols = np.nonzero(~mask)
    flat = rows * values.shape[1] + cols
    order = np.argsort(flat)  # flat-index ascending fixes the summation order
    rows, cols, flat = rows[order], cols[order], flat[order]
    coords = np.stack([rows.astype(float), cols.astype(float), ratio * values[rows, cols]], axis=1)
    return coords, flat


def _pairwise_sq_dists(coords: np.ndarray) -> np.ndarray:
    """(M, M) squared distances between the (M, 3) augmented coordinates.

    Summed as (row^2 + value^2) + col^2: that order keeps the densities, and
    so the labels, bit-identical to those of earlier releases.
    """
    sq = np.subtract.outer(coords[:, 0], coords[:, 0])
    sq *= sq
    diff = np.empty_like(sq)
    for axis in (2, 1):
        np.subtract.outer(coords[:, axis], coords[:, axis], out=diff)
        diff *= diff
        sq += diff
    return sq


def compute_density(
    values: np.ndarray, mask: np.ndarray, kernel_size: float, ratio: float
) -> np.ndarray:
    """Exact Gaussian kernel density per non-masked cell, tie-broken by flat index.

    Returns the full-shape matrix with NaN at masked cells.
    """
    _check_inputs(values, mask)
    density = np.full(values.shape, np.nan)
    coords, flat = _augmented_coords(values, mask, ratio)
    if len(flat) == 0:
        return density
    kernel = _pairwise_sq_dists(coords)
    np.negative(kernel, out=kernel)
    kernel /= 2.0 * kernel_size**2
    np.exp(kernel, out=kernel)
    d = kernel.sum(axis=1) + DENSITY_TIE_EPS * flat
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
    dist = _pairwise_sq_dists(coords)
    np.sqrt(dist, out=dist)
    # strictly denser, so a cell is never its own candidate
    eligible = (d[None, :] > d[:, None]) & (dist <= max_dist)
    dist[~eligible] = np.inf
    # argmin returns the first minimum; candidates are flat-ascending
    nearest = dist.argmin(axis=1)
    linked = np.isfinite(dist[np.arange(len(flat)), nearest])
    parent[cells] = np.where(linked, flat[nearest], flat)
    return parent


def label_segments(parent: np.ndarray, mask: np.ndarray) -> SegmentLabels:
    """Collapse parent trees into region labels, numbered by ascending root index."""
    shape = parent.shape
    labels = np.full(shape, -1, dtype=np.int64)
    flat_parent = parent.ravel()
    n_cells = flat_parent.size
    roots: dict[int, int] = {}
    root_of = {}
    for idx in np.nonzero(~mask.ravel())[0]:
        node = int(idx)
        steps = 0
        while flat_parent[node] != node:
            node = int(flat_parent[node])
            steps += 1
            if steps > n_cells:
                raise AssertionError("cycle in parent forest; density ordering violated")
        root_of[int(idx)] = node
        roots.setdefault(node, 0)
    label_of_root = {root: i for i, root in enumerate(sorted(roots))}
    flat_labels = labels.ravel()
    for idx, root in root_of.items():
        flat_labels[idx] = label_of_root[root]
    return SegmentLabels(labels=labels, n_regions=len(label_of_root), parent=parent)


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
