"""twinsearch: validation-free learning-rate / weight-decay search.

Grid-search trials over log-spaced (LR, WD) pairs, log training loss and
parameter norm, segment the loss landscape, and pick the lowest-norm
configuration inside the best-fitting region. Baselines and an evaluation
harness score the pick against train-loss-only and oracle selection.

Import names from the modules (``twinsearch.cli``, ``twinsearch.search``,
...); the package root exports none but ``quickshift``, which the
benchmark's tracer test (``perfbench/test_perfbench.py``) still expects to
find bound here. It goes when that test is retargeted.
"""

from .quickshift import quickshift  # noqa: F401

__version__ = "0.1.0"
