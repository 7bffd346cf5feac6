import pytest

from latticeineq import Cuboid, anneal_sets, ascend_function, classify_shape, lab, search
from latticeineq.certify import ShapeClass
from latticeineq.errors import InvalidInputError

from oracles import oracle_exhaustive_best_iso


class TestAnnealSets:
    def test_singleton_immediate(self):
        trace = anneal_sets(2, 1, iters=10, seed=0)
        assert trace.best_value == 1.0
        assert len(trace.best_input) == 1

    @pytest.mark.parametrize("size,box_side", [(1, None), (9, 3)])
    def test_no_proposal_counts_no_iteration(self, size, box_side):
        # a cube from the start (one cell, or the whole 3x3 box) proposes nothing
        trace = anneal_sets(2, size, iters=10, seed=0, box_side=box_side)
        assert trace.best_value == 1.0
        assert trace.iterations == 0
        assert trace.history == [(0, 1.0)]

    @pytest.mark.parametrize("n,size,box_side", [(2, 9, 3), (3, 8, 2)])
    def test_set_filling_the_box_stops_at_once(self, n, size, box_side):
        # the whole box is a cube: ratio exactly 1, so no step is taken
        trace = anneal_sets(n, size, iters=10, seed=0, box_side=box_side)
        assert trace.best_value == 1.0
        assert trace.iterations == 0
        assert classify_shape(trace.best_input) is ShapeClass.CUBE

    def test_nine_points_finds_cube(self):
        trace = anneal_sets(2, 9, iters=100_000, seed=1)
        assert trace.best_value == 1.0
        assert classify_shape(trace.best_input) is ShapeClass.CUBE

    def test_five_points_bounded_by_exhaustive_maximum(self):
        best, _ = oracle_exhaustive_best_iso(2, 5, 4)
        trace = anneal_sets(2, 5, iters=20_000, seed=3)
        assert trace.best_value <= best + 1e-12
        assert trace.best_value < 1.0

    def test_cardinality_preserved(self):
        trace = anneal_sets(2, 7, iters=2_000, seed=5)
        assert len(trace.best_input) == 7

    def test_stays_in_box(self):
        side = 5
        trace = anneal_sets(2, 6, iters=2_000, seed=9, box_side=side)
        for z in trace.best_input:
            assert all(0 <= c < side for c in z)

    def test_deterministic(self):
        a = anneal_sets(2, 6, iters=3_000, seed=11)
        b = anneal_sets(2, 6, iters=3_000, seed=11)
        assert a.best_value == b.best_value
        assert a.best_input == b.best_input
        assert a.history == b.history

    @pytest.mark.parametrize("n,size,box_side", [
        (2, 5, None), (2, 40, None), (3, 7, None), (3, 30, None),
        (2, 6, 3), (2, 8, 3), (2, 9, 3), (2, 3, 2), (2, 15, 4),
        (3, 10, 3), (3, 26, 3), (3, 7, 2), (3, 8, 2),
    ])
    def test_incremental_boundary_matches_recount(self, n, size, box_side):
        # sizes up to the whole box: one free cell, then none
        for seed in range(3):
            trace = anneal_sets(n, size, iters=1_500, seed=seed, box_side=box_side)
            assert trace.best_value == lab.iso_ratio(trace.best_input)
            assert len(trace.best_input) == size
            side = box_side or search._box_side_for(size, n)
            for z in trace.best_input:
                assert all(0 <= c < side for c in z)

    @pytest.mark.parametrize("iters", [0, 1, 3_000])
    def test_boundary_counted_once_per_run(self, iters, monkeypatch):
        calls = []
        full_count = search.kernels.subset_stats

        def counting(mask, dims):
            calls.append(mask)
            return full_count(mask, dims)

        monkeypatch.setattr(search.kernels, "subset_stats", counting)
        trace = anneal_sets(2, 40, iters=iters, seed=4)
        assert len(calls) == 1
        assert trace.iterations == iters

    @pytest.mark.parametrize("n,size", [(2, 40), (3, 30)])
    def test_ratio_computed_once_per_boundary(self, n, size, monkeypatch):
        boundaries = []
        ratio = search.iso_ratio_from_counts

        def recording(size, boundary, n):
            boundaries.append(boundary)
            return ratio(size, boundary, n)

        monkeypatch.setattr(search, "iso_ratio_from_counts", recording)
        trace = anneal_sets(n, size, iters=3_000, seed=6)
        assert trace.iterations == 3_000
        assert len(boundaries) == len(set(boundaries))
        assert trace.best_value == lab.iso_ratio(trace.best_input)

    def test_history_running_max_nondecreasing(self):
        trace = anneal_sets(2, 8, iters=5_000, seed=2)
        values = [v for _, v in trace.history]
        assert values == sorted(values)
        assert trace.best_value <= 1 + 1e-9


class TestAscendFunction:
    def test_indicator_start_is_immediately_extremal(self):
        trace = ascend_function(2, Cuboid(((0, 1), (0, 2))), iters=100, seed=0,
                                start="indicator")
        assert trace.best_value == 1.0
        assert trace.iterations == 0

    def test_single_point_window(self):
        trace = ascend_function(2, 1, iters=50, seed=4)
        assert trace.best_value == 1.0

    def test_random_start_reaches_high_ratio(self):
        trace = ascend_function(2, 3, iters=3_000, seed=0)
        assert trace.best_value >= 0.98

    def test_deterministic(self):
        a = ascend_function(2, 2, iters=500, seed=8)
        b = ascend_function(2, 2, iters=500, seed=8)
        assert a.best_value == b.best_value
        assert a.best_input == b.best_input

    def test_history_nondecreasing(self):
        trace = ascend_function(2, 2, iters=400, seed=6)
        values = [v for _, v in trace.history]
        assert values == sorted(values)

    def test_window_of_another_dimension_rejected(self):
        with pytest.raises(InvalidInputError, match=r"^window dimension 3 != n=2$"):
            ascend_function(2, Cuboid.from_sides((2, 2, 2)), iters=10)

    def test_unknown_start_rejected(self):
        with pytest.raises(InvalidInputError, match=r"^unknown start 'x'$"):
            ascend_function(2, 2, iters=10, start="x")

    def test_values_stay_on_grid(self):
        trace = ascend_function(2, 2, iters=300, seed=7)
        for _, v in trace.best_input.items():
            assert 0 <= v <= 1
            assert (v * 4096).denominator == 1
