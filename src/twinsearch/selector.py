"""Final configuration selection and the reference baselines.

The twin selector never sees validation or test metrics: it filters and
normalizes the train-loss surface, segments it, takes the region with the
highest mean (best fitting), and returns that region's lowest-norm cell.
``TwinArtifacts`` keeps the pick and the segmentation, which the stored
selection records; the segmentation labels every masked cell -1, so neither
the outlier mask nor the normalized surface is kept. SelTS/SelVS/Oracle are
the comparison baselines; ``evaluate`` scores any method's picks against the
Oracle's across configurations.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .grid import GridCell, HyperGrid, cell_params
from .matrices import LogMatrices, MetricSurfaces, normalize_invert, zscore_outlier_mask
from .quickshift import QuickshiftParams, SegmentLabels, quickshift

__all__ = [
    "Selection",
    "TwinArtifacts",
    "EvalReport",
    "region_stats",
    "twin_pipeline",
    "baseline_select",
    "evaluate",
    "METHOD_TWIN",
    "METHOD_SELTS",
    "METHOD_SELVS",
    "METHOD_ORACLE",
]

METHOD_TWIN = "twin"
METHOD_SELTS = "selts"
METHOD_SELVS = "selvs"
METHOD_ORACLE = "oracle"


@dataclass(frozen=True)
class Selection:
    method: str
    cell: GridCell
    lr: float
    wd: float
    region_id: int | None = None
    region_mean: float | None = None
    norm_at_cell: float | None = None

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "cell": {"row": self.cell.row, "col": self.cell.col},
            "lr": self.lr,
            "wd": self.wd,
            "region_id": self.region_id,
            "region_mean": self.region_mean,
            "norm_at_cell": self.norm_at_cell,
        }


@dataclass
class TwinArtifacts:
    """Selection plus what the stored artifacts record of how it was made."""

    selection: Selection
    segments: SegmentLabels
    region_means: np.ndarray
    params: QuickshiftParams


def region_stats(values: np.ndarray, labels: SegmentLabels) -> np.ndarray:
    """Mean of ``values`` (the normalized-inverted loss) per region id."""
    if labels.n_regions == 0:
        raise ValueError("segmentation produced zero regions")
    means = np.zeros(labels.n_regions)
    for region in range(labels.n_regions):
        members = labels.labels == region
        means[region] = float(np.mean(values[members]))
    return means


def twin_pipeline(
    matrices: LogMatrices, grid: HyperGrid, params: QuickshiftParams
) -> TwinArtifacts:
    """Filter -> normalize/invert -> segment -> argmax-mean region -> argmin norm.

    The validation-free pick: the signature takes no val/test surface on purpose.
    """
    outliers = zscore_outlier_mask(matrices.psi, matrices.valid_mask)
    values = normalize_invert(matrices.psi, outliers)
    segments = quickshift(values, outliers, params)
    means = region_stats(values, segments)
    best_region = int(np.argmax(means))  # argmax keeps the lowest id on ties

    in_region = segments.labels == best_region
    norms = np.where(in_region, matrices.theta, np.inf)
    flat_best = int(np.argmin(norms))  # first minimum = lexicographic (row, col)
    row, col = np.unravel_index(flat_best, norms.shape)
    cell = GridCell(int(row), int(col))
    lr, wd = cell_params(grid, cell)
    selection = Selection(
        method=METHOD_TWIN,
        cell=cell,
        lr=lr,
        wd=wd,
        region_id=best_region,
        region_mean=float(means[best_region]),
        norm_at_cell=float(matrices.theta[cell.row, cell.col]),
    )
    return TwinArtifacts(
        selection=selection,
        segments=segments,
        region_means=means,
        params=params,
    )


def _lex_arg_best(values: np.ndarray, pick_max: bool) -> GridCell:
    candidates = np.where(np.isfinite(values), values, -np.inf if pick_max else np.inf)
    if not np.any(np.isfinite(values)):
        raise ValueError("no finite metric values to select from")
    flat = int(np.argmax(candidates) if pick_max else np.argmin(candidates))
    row, col = np.unravel_index(flat, values.shape)
    return GridCell(int(row), int(col))


def baseline_select(
    matrices: LogMatrices,
    surfaces: MetricSurfaces,
    method: str,
    grid: HyperGrid,
) -> Selection:
    """SelTS (lowest train loss), SelVS (best val accuracy), Oracle (best test accuracy)."""
    if method == METHOD_SELTS:
        metric = np.where(matrices.valid_mask, surfaces.train_loss, np.nan)
        cell = _lex_arg_best(metric, pick_max=False)
    elif method == METHOD_SELVS:
        if not np.any(np.isfinite(surfaces.val_acc)):
            raise ValueError("selvs requires validation metrics, none were logged")
        cell = _lex_arg_best(surfaces.val_acc, pick_max=True)
    elif method == METHOD_ORACLE:
        if not np.any(np.isfinite(surfaces.test_acc)):
            raise ValueError("oracle requires test metrics, none were logged")
        cell = _lex_arg_best(surfaces.test_acc, pick_max=True)
    else:
        raise ValueError(f"unknown baseline method {method!r}")
    lr, wd = cell_params(grid, cell)
    return Selection(method=method, cell=cell, lr=lr, wd=wd)


@dataclass
class EvalReport:
    """Test metric of each method's pick per config, and MAE vs the Oracle."""

    methods: list[str]
    per_config_metric: list[dict[str, float]] = field(default_factory=list)
    per_config_error: list[dict[str, float]] = field(default_factory=list)
    mae: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def evaluate(
    selections_per_config: Sequence[Mapping[str, Selection]],
    test_surfaces: Sequence[np.ndarray],
) -> EvalReport:
    """Score picks against the Oracle's: per-config |test(pick) - test(oracle pick)|."""
    if len(selections_per_config) != len(test_surfaces):
        raise ValueError("one test surface per configuration required")
    methods: list[str] = []
    for sels in selections_per_config:
        if METHOD_ORACLE not in sels:
            raise ValueError("evaluation requires an oracle selection per configuration")
        for m in sels:
            if m not in methods:
                methods.append(m)
    report = EvalReport(methods=methods)
    for sels, surface in zip(selections_per_config, test_surfaces):
        oracle_cell = sels[METHOD_ORACLE].cell
        oracle_metric = float(surface[oracle_cell.row, oracle_cell.col])
        metric_row: dict[str, float] = {}
        error_row: dict[str, float] = {}
        for m, sel in sels.items():
            value = float(surface[sel.cell.row, sel.cell.col])
            metric_row[m] = value
            error_row[m] = abs(value - oracle_metric)
        report.per_config_metric.append(metric_row)
        report.per_config_error.append(error_row)
    for m in methods:
        errors = [row[m] for row in report.per_config_error if m in row]
        report.mae[m] = float(np.mean(errors)) if errors else math.nan
    return report
