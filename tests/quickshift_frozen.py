"""Frozen reference for Quickshift's density, linking and labelling: the
single-pass (M, M) arithmetic, written out once and not changed since.

Any rewrite of ``twinsearch.quickshift`` must give the same density bits,
parents, labels and region count as this one. It builds every pairwise
distance at once, so it shares no blocking or windowing with the
production path. Only for small grids: it holds (M, M) float64 arrays.
"""

from __future__ import annotations

import numpy as np

__all__ = ["reference_density", "reference_parents", "reference_labels"]

DENSITY_TIE_EPS = 1e-12


def _augmented_coords(values, mask, ratio):
    rows, cols = np.nonzero(~mask)
    flat = rows * values.shape[1] + cols
    order = np.argsort(flat)
    rows, cols, flat = rows[order], cols[order], flat[order]
    coords = np.stack([rows.astype(float), cols.astype(float), ratio * values[rows, cols]], axis=1)
    return coords, flat


def _pairwise_sq_dists(coords):
    sq = np.subtract.outer(coords[:, 0], coords[:, 0])
    sq *= sq
    diff = np.empty_like(sq)
    for axis in (2, 1):
        np.subtract.outer(coords[:, axis], coords[:, axis], out=diff)
        diff *= diff
        sq += diff
    return sq


def reference_density(values, mask, kernel_size, ratio):
    """Full-shape density matrix, NaN at masked cells."""
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


def reference_parents(density, values, mask, max_dist, ratio):
    """Flat parent index per cell: own index for roots, -1 for masked."""
    parent = np.full(values.shape, -1, dtype=np.int64)
    coords, flat = _augmented_coords(values, mask, ratio)
    if len(flat) == 0:
        return parent
    cells = np.unravel_index(flat, values.shape)
    d = density[cells]
    dist = _pairwise_sq_dists(coords)
    np.sqrt(dist, out=dist)
    eligible = (d[None, :] > d[:, None]) & (dist <= max_dist)
    dist[~eligible] = np.inf
    nearest = dist.argmin(axis=1)
    linked = np.isfinite(dist[np.arange(len(flat)), nearest])
    parent[cells] = np.where(linked, flat[nearest], flat)
    return parent


def reference_labels(parent, mask):
    """(labels, n_regions): regions numbered by ascending root index, -1 masked."""
    labels = np.full(parent.shape, -1, dtype=np.int64)
    flat_parent = parent.ravel()
    n_cells = flat_parent.size
    roots = {}
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
    return labels, len(label_of_root)
