"""The ledger of task seeds: those whose results have been seen, and those kept unseen.

A seed is spent once any result on it has been looked at, with
``scripts/compare_selectors.py`` or a probe, so no acceptance test may draw
it. The reserved seeds stay unseen for the first acceptance test of the twin
selector's segmentation. Add a seed to ``SPENT`` when a result on it is
looked at; a reserved seed moves there once its acceptance test has run.
"""

SPENT = frozenset([*range(0, 10), *range(15, 20), *range(40, 45)])
RESERVED = frozenset(range(10, 15))
