"""twinsearch: validation-free learning-rate / weight-decay search.

Grid-search trials over log-spaced (LR, WD) pairs, log training loss and
parameter norm, segment the loss landscape, and pick the lowest-norm
configuration inside the best-fitting region. Baselines and an evaluation
harness score the pick against train-loss-only and oracle selection.
"""

from .grid import GridCell, HyperGrid, build_log_grid, cell_params, slice_grid
from .matrices import (
    LogMatrices,
    MetricSurfaces,
    assemble,
    build_metric_surfaces,
    normalize_invert,
    zscore_outlier_mask,
)
from .quickshift import (
    QuickshiftParams,
    SegmentLabels,
    compute_density,
    default_params,
    label_segments,
    link_parents,
    quickshift,
)
from .scheduler import Schedule, SchedulerPolicy, ScheduleError
from .search import execute_search, run_and_store, select_and_store, slice_records
from .selector import (
    EvalReport,
    Selection,
    baseline_select,
    evaluate,
    region_stats,
    twin_pipeline,
)
from .tasks import SyntheticTask, TaskSpec
from .trainer import (
    ArchSpec,
    TrainerConfig,
    TrialRecord,
    TrialRunner,
    cosine_lr,
    sgdm_step,
)

__version__ = "0.1.0"
