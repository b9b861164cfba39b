import importlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinsearch.grid import build_log_grid
from twinsearch.quickshift import (
    QuickshiftParams,
    compute_density,
    default_params,
    label_segments,
    link_parents,
    quickshift,
)
from quickshift_frozen import reference_density, reference_labels, reference_parents
from quickshift_oracle import brute_force_labels

# the module; the package exports its ``quickshift`` function under the same name
QUICKSHIFT_MODULE = importlib.import_module("twinsearch.quickshift")


def canonical(labels):
    """Relabel regions by first appearance in row-major order."""
    mapping = {}
    out = []
    for row in np.asarray(labels):
        out_row = []
        for v in row:
            v = int(v)
            if v == -1:
                out_row.append(-1)
                continue
            if v not in mapping:
                mapping[v] = len(mapping)
            out_row.append(mapping[v])
        out.append(out_row)
    return out


def random_instance(rng):
    n_rows = int(rng.integers(2, 7))
    n_cols = int(rng.integers(2, 7))
    values = rng.random((n_rows, n_cols))
    mask = rng.random((n_rows, n_cols)) < rng.uniform(0.0, 0.35)
    if mask.all():
        mask[rng.integers(n_rows), rng.integers(n_cols)] = False
    params = QuickshiftParams(
        kernel_size=float(rng.uniform(0.3, 4.0)),
        max_dist=float(rng.uniform(0.5, 5.0)),
        ratio=float(rng.choice([0.0, 0.5, 1.0, 2.0])),
    )
    return values, mask, params


class TestDefaults:
    def test_sqrt_of_largest_side(self):
        grid = build_log_grid(5e-5, 5e-1, 10, 5e-5, 5e-1, 10)
        params = default_params(grid)
        assert params.kernel_size == pytest.approx(math.sqrt(10))
        assert params.max_dist == pytest.approx(math.sqrt(10))
        assert params.ratio == 1.0

    def test_six_by_six(self):
        grid = build_log_grid(5e-5, 5e-1, 6, 5e-5, 5e-1, 6)
        assert default_params(grid).kernel_size == pytest.approx(math.sqrt(6))

    def test_non_square_uses_max(self):
        grid = build_log_grid(5e-5, 5e-1, 4, 5e-5, 5e-1, 9)
        assert default_params(grid).kernel_size == pytest.approx(3.0)

    def test_explicit_large_params_constructible(self):
        params = QuickshiftParams(kernel_size=10.0, max_dist=10.0)
        assert params.max_dist == 10.0

    def test_the_largest_ratio_segments_without_a_warning(self):
        # ratio**2 finite: every squared distance stays finite
        params = QuickshiftParams(kernel_size=2.0, max_dist=2.0, ratio=1.3e154)
        values = np.linspace(0.0, 1.0, 36).reshape(6, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            segments = quickshift(values, np.zeros((6, 6), dtype=bool), params)
        assert segments.labels.shape == (6, 6)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kernel_size=0.0),
            dict(kernel_size=1e-300),  # 2 * kernel_size**2 underflows to 0
            dict(kernel_size=math.inf),
            dict(kernel_size=1e200),  # kernel_size**2 overflows
            dict(kernel_size=math.nan),
            dict(max_dist=-1.0),
            dict(ratio=-0.5),
            dict(ratio=math.nan),
            dict(ratio=math.inf),
            dict(ratio=1e200),  # ratio**2 overflows
            dict(ratio=1.35e154),  # the smallest of these whose square overflows is ~1.3408e154
        ],
    )
    def test_invalid_params(self, kwargs):
        base = dict(kernel_size=1.0, max_dist=1.0, ratio=1.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            QuickshiftParams(**base)


class TestDensity:
    def test_single_cell_density_is_one(self):
        values = np.array([[0.3]])
        mask = np.array([[False]])
        d = compute_density(values, mask, 1.0, 1.0)
        assert d[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_two_equal_cells_symmetric(self):
        values = np.array([[0.5, 0.5]])
        mask = np.zeros_like(values, dtype=bool)
        d = compute_density(values, mask, 2.0, 1.0)
        expected = 1.0 + math.exp(-1.0 / (2 * 4.0))
        # identical up to the deterministic flat-index perturbation
        assert d[0, 0] == pytest.approx(expected, abs=1e-9)
        assert d[0, 1] == pytest.approx(expected, abs=1e-9)
        assert d[0, 1] > d[0, 0]

    def test_masked_cells_are_invisible(self):
        values = np.array([[0.5, 0.5, 0.5]])
        mask = np.array([[False, True, False]])
        d = compute_density(values, mask, 2.0, 1.0)
        assert math.isnan(d[0, 1])
        expected = 1.0 + math.exp(-4.0 / (2 * 4.0))
        assert d[0, 0] == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_fsum_oracle_on_random_5x5(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.random((5, 5))
        mask = rng.random((5, 5)) < 0.2
        if mask.all():
            mask[0, 0] = False
        d = compute_density(values, mask, 1.3, 1.0)
        for r in range(5):
            for c in range(5):
                if mask[r, c]:
                    continue
                terms = []
                for r2 in range(5):
                    for c2 in range(5):
                        if mask[r2, c2]:
                            continue
                        sq = (r - r2) ** 2 + (c - c2) ** 2 + (values[r, c] - values[r2, c2]) ** 2
                        terms.append(math.exp(-sq / (2 * 1.3**2)))
                expected = math.fsum(terms) + 1e-12 * (r * 5 + c)
                assert d[r, c] == pytest.approx(expected, rel=1e-10)

    def test_values_outside_unit_interval_rejected(self):
        values = np.array([[0.2, 1.4]])
        with pytest.raises(ValueError, match="0, 1"):
            compute_density(values, np.zeros_like(values, dtype=bool), 1.0, 1.0)


class TestLinking:
    def test_global_max_density_is_root(self):
        rng = np.random.default_rng(0)
        values = rng.random((4, 4))
        mask = np.zeros((4, 4), dtype=bool)
        d = compute_density(values, mask, 2.0, 1.0)
        parent = link_parents(d, values, mask, 10.0, 1.0)
        top = np.nanargmax(np.where(mask, np.nan, d))
        assert parent.ravel()[top] == top

    def test_uniform_3x3_single_segment_rooted_at_density_argmax(self):
        # exact full-image density is not flat on a finite grid: the center
        # cell is densest, so it roots the single tree
        values = np.full((3, 3), 0.5)
        mask = np.zeros((3, 3), dtype=bool)
        params = QuickshiftParams(kernel_size=math.sqrt(3), max_dist=math.sqrt(3))
        segments = quickshift(values, mask, params)
        assert segments.n_regions == 1
        d = compute_density(values, mask, params.kernel_size, params.ratio)
        assert int(np.argmax(d)) == 4  # center of the 3x3
        assert link_parents(d, values, mask, params.max_dist, params.ratio)[1, 1] == 4

    def test_equidistant_denser_neighbors_tie_break_on_flat_index(self):
        # corner (0, 0) has denser neighbors (0, 1) and (1, 0), both at distance
        # 1; corner (2, 2) has (1, 2) and (2, 1)
        values = np.full((3, 3), 0.5)
        mask = np.zeros((3, 3), dtype=bool)
        d = compute_density(values, mask, 1.0, 0.0)
        parent = link_parents(d, values, mask, 1.0, 0.0)
        assert parent[0, 0] == 1
        assert parent[2, 2] == 5

    def test_two_minima_separated_by_masked_ridge(self):
        values = np.array(
            [
                [1.0, 0.9, 0.0, 0.1, 0.2],
                [0.9, 0.8, 0.0, 0.1, 0.2],
                [0.0, 0.0, 0.0, 0.0, 0.0],
                [0.2, 0.1, 0.0, 0.8, 0.9],
                [0.2, 0.1, 0.0, 0.9, 1.0],
            ]
        )
        mask = np.zeros((5, 5), dtype=bool)
        mask[2, :] = True
        mask[:, 2] = True
        params = QuickshiftParams(kernel_size=1.0, max_dist=1.5)
        segments = quickshift(values, mask, params)
        labels = segments.labels
        assert labels[0, 0] == labels[1, 1]
        assert labels[3, 3] == labels[4, 4]
        assert labels[0, 0] != labels[3, 3]
        expected = brute_force_labels(values, mask, 1.0, 1.5, 1.0)
        assert canonical(labels) == canonical(expected)


class TestLabeling:
    def test_all_roots_when_max_dist_below_one(self):
        values = np.random.default_rng(1).random((3, 4))
        mask = np.zeros((3, 4), dtype=bool)
        segments = quickshift(values, mask, QuickshiftParams(kernel_size=1.0, max_dist=0.5))
        assert segments.n_regions == 12
        assert len(np.unique(segments.labels)) == 12

    def test_single_root_single_region(self):
        values = np.full((2, 2), 0.5)
        mask = np.zeros((2, 2), dtype=bool)
        segments = quickshift(values, mask, QuickshiftParams(kernel_size=5.0, max_dist=5.0))
        assert segments.n_regions == 1

    def test_labels_partition_non_masked(self):
        rng = np.random.default_rng(7)
        values = rng.random((5, 5))
        mask = rng.random((5, 5)) < 0.3
        if mask.all():
            mask[0, 0] = False
        segments = quickshift(values, mask, QuickshiftParams(kernel_size=1.0, max_dist=2.0))
        assert (segments.labels[mask] == -1).all()
        non_masked = segments.labels[~mask]
        assert (non_masked >= 0).all()
        assert set(np.unique(non_masked)) == set(range(segments.n_regions))


class TestForestInvariants:
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_acyclic_and_density_monotone(self, seed):
        rng = np.random.default_rng(seed)
        values, mask, params = random_instance(rng)
        d = compute_density(values, mask, params.kernel_size, params.ratio)
        parent = link_parents(d, values, mask, params.max_dist, params.ratio)
        n_cells = values.size
        flat_d = d.ravel()
        flat_p = parent.ravel()
        for idx in np.nonzero(~mask.ravel())[0]:
            node, steps = int(idx), 0
            while flat_p[node] != node:
                assert flat_d[flat_p[node]] > flat_d[node]
                node = int(flat_p[node])
                steps += 1
                assert steps <= n_cells
        # masked cells have no parent
        assert (flat_p[mask.ravel()] == -1).all()

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(11)
        values, mask, params = random_instance(rng)
        a = quickshift(values, mask, params)
        b = quickshift(values, mask, params)
        np.testing.assert_array_equal(a.labels, b.labels)
        def parents():
            d = compute_density(values, mask, params.kernel_size, params.ratio)
            return link_parents(d, values, mask, params.max_dist, params.ratio)

        np.testing.assert_array_equal(parents(), parents())


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_instances_match_brute_force(self, seed):
        rng = np.random.default_rng(1000 + seed)
        values, mask, params = random_instance(rng)
        mine = quickshift(values, mask, params)
        expected = brute_force_labels(
            values.tolist(), mask.tolist(), params.kernel_size, params.max_dist, params.ratio
        )
        assert canonical(mine.labels) == canonical(expected)

    @pytest.mark.parametrize("seed", range(10))
    def test_transposed_instances_match_brute_force(self, seed):
        # flat-index tie-breaks change under transpose, so labels are checked
        # against the oracle on the transposed input, not label equality
        rng = np.random.default_rng(2000 + seed)
        values, mask, params = random_instance(rng)
        vt, mt = values.T.copy(), mask.T.copy()
        mine = quickshift(vt, mt, params)
        expected = brute_force_labels(
            vt.tolist(), mt.tolist(), params.kernel_size, params.max_dist, params.ratio
        )
        assert canonical(mine.labels) == canonical(expected)
        # the partition itself is transpose-equivariant
        straight = quickshift(values, mask, params)
        assert canonical(straight.labels.T) == canonical(mine.labels)


# None stands for the default link range of the instance's grid
FROZEN_MAX_DISTS = (0.5, 1.0, 1.5, None, 100.0, math.inf)
FROZEN_RATIOS = (0.0, 1.0, 20.0, 100.0)


def large_instance(seed):
    """Grids of side 1-50 (up to 2,500 cells, so many blocks), with
    masks, plateaus, and every (max_dist, ratio) pair of the lists above."""
    rng = np.random.default_rng(seed)
    n_rows, n_cols = (int(n) for n in rng.integers(1, 51, size=2))
    values = rng.random((n_rows, n_cols))
    if seed % 3 == 0:
        # plateaus: a few levels, so densities tie up to the flat-index term
        values = np.floor(values * int(rng.integers(1, 4))) / 3.0
    mask = rng.random((n_rows, n_cols)) < rng.uniform(0.0, 0.9)
    max_dist = FROZEN_MAX_DISTS[seed % len(FROZEN_MAX_DISTS)]
    ratio = FROZEN_RATIOS[(seed // len(FROZEN_MAX_DISTS)) % len(FROZEN_RATIOS)]
    side = math.sqrt(max(n_rows, n_cols))
    kernel_size = side if seed % 2 else float(rng.uniform(0.3, 8.0))
    return values, mask, kernel_size, side if max_dist is None else max_dist, ratio


def assert_matches_frozen(values, mask, kernel_size, max_dist, ratio):
    density = compute_density(values, mask, kernel_size, ratio)
    expected_density = reference_density(values, mask, kernel_size, ratio)
    assert density.tobytes() == expected_density.tobytes()
    parent = link_parents(density, values, mask, max_dist, ratio)
    np.testing.assert_array_equal(
        parent, reference_parents(expected_density, values, mask, max_dist, ratio)
    )
    segments = label_segments(parent, mask)
    expected_labels, expected_regions = reference_labels(parent, mask)
    np.testing.assert_array_equal(segments.labels, expected_labels)
    assert segments.n_regions == expected_regions


class TestFrozenParity:
    """Bit parity with the single-pass (M, M) implementation in quickshift_frozen."""

    @pytest.mark.parametrize("seed", range(240))
    def test_random_large_instances(self, seed):
        assert_matches_frozen(*large_instance(seed))

    # plateaus (9, 15), masks of 45-76% (4, 9, 22), links within one row (13)
    # and unbounded (17), and 1,662 cells (10)
    @pytest.mark.parametrize("seed", [4, 9, 10, 13, 15, 17, 22])
    @pytest.mark.parametrize("block", [1, 7, 64, 128])
    def test_bits_do_not_depend_on_the_blocking(self, monkeypatch, block, seed):
        monkeypatch.setattr(QUICKSHIFT_MODULE, "BLOCK", block)
        assert_matches_frozen(*large_instance(seed))

    @pytest.mark.parametrize("max_dist", [math.inf, 31.0, 1e6])
    def test_link_range_beyond_the_grid(self, max_dist):
        rng = np.random.default_rng(5)
        values = rng.random((30, 30))
        mask = rng.random((30, 30)) < 0.1
        assert_matches_frozen(values, mask, math.sqrt(30), max_dist, 20.0)

    def test_unmasked_forty_by_forty_at_defaults(self):
        values = np.random.default_rng(6).random((40, 40))
        params = default_params(build_log_grid(5e-5, 5e-1, 40, 5e-5, 5e-1, 40))
        mask = np.zeros((40, 40), dtype=bool)
        assert_matches_frozen(values, mask, params.kernel_size, params.max_dist, params.ratio)

    def test_single_row_and_single_column(self):
        for shape in ((1, 300), (300, 1)):
            values = np.random.default_rng(7).random(shape)
            assert_matches_frozen(values, np.zeros(shape, dtype=bool), 2.0, 3.0, 1.0)

    def test_everything_masked(self):
        values = np.zeros((20, 20))
        mask = np.ones((20, 20), dtype=bool)
        assert_matches_frozen(values, mask, 2.0, 2.0, 1.0)
        assert quickshift(values, mask, QuickshiftParams(2.0, 2.0)).n_regions == 0


class TestCycleDetection:
    @pytest.mark.parametrize(
        "parent",
        [
            [[1, 0]],  # two cells pointing at each other
            [[1, 2, 3, 1]],  # a tail running into a three-cycle
            [[0, 2], [1, 3]],  # one root, one two-cycle
        ],
    )
    def test_cyclic_parent_array_raises(self, parent):
        parent = np.array(parent, dtype=np.int64)
        mask = np.zeros(parent.shape, dtype=bool)
        with pytest.raises(AssertionError, match="cycle"):
            label_segments(parent, mask)
        with pytest.raises(AssertionError, match="cycle"):
            reference_labels(parent, mask)


class TestMemory:
    def test_sixty_by_sixty_peak_stays_bounded(self):
        # one (M, M) float64 array alone is 104 MB at M = 3,600
        values = np.random.default_rng(8).random((60, 60))
        mask = np.zeros((60, 60), dtype=bool)
        params = default_params(build_log_grid(5e-5, 5e-1, 60, 5e-5, 5e-1, 60))
        tracemalloc.start()
        try:
            quickshift(values, mask, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
