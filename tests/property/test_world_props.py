"""Property-based tests: spatial grid vs brute force, bubble geometry."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.privacy import BubbleManager
from repro.world import SpatialGrid

points_strategy = st.lists(
    st.tuples(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        st.floats(min_value=-50, max_value=50, allow_nan=False),
    ),
    min_size=1,
    max_size=40,
)


class TestGridMatchesBruteForce:
    @given(
        points=points_strategy,
        radius=st.floats(min_value=0.0, max_value=30.0),
        cell=st.floats(min_value=0.5, max_value=10.0),
    )
    # The second point is exactly 1.0 away after rounding but floors
    # into the cell beyond ceil(radius / cell) of the query's.
    @example(points=[(1.0, 0.0), (-4.9e-177, 0.0)], radius=1.0, cell=1.0)
    @settings(max_examples=100, deadline=None)
    def test_within_equals_brute_force(self, points, radius, cell):
        grid = SpatialGrid(cell_size=cell)
        for index, point in enumerate(points):
            grid.insert(f"e{index}", point)
        query = points[0]
        expected = sorted(
            f"e{i}"
            for i, point in enumerate(points)
            if i != 0 and math.dist(query, point) <= radius
        )
        assert sorted(grid.within("e0", radius)) == expected

    @given(points=points_strategy, cell=st.floats(min_value=0.5, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_moves_preserve_membership(self, points, cell):
        grid = SpatialGrid(cell_size=cell)
        for index, point in enumerate(points):
            grid.insert(f"e{index}", point)
        # Move everything to a shifted location and verify integrity.
        for index, point in enumerate(points):
            grid.move(f"e{index}", (point[0] + 7.3, point[1] - 2.1))
        assert len(grid) == len(points)
        for index, point in enumerate(points):
            assert grid.position_of(f"e{index}") == (
                point[0] + 7.3,
                point[1] - 2.1,
            )


class TestBubbleGeometry:
    @given(
        radius=st.floats(min_value=0.01, max_value=20.0),
        target=st.tuples(
            st.floats(min_value=-20, max_value=20, allow_nan=False),
            st.floats(min_value=-20, max_value=20, allow_nan=False),
        ),
        initiator=st.tuples(
            st.floats(min_value=-20, max_value=20, allow_nan=False),
            st.floats(min_value=-20, max_value=20, allow_nan=False),
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_block_iff_inside_radius(self, radius, target, initiator):
        manager = BubbleManager()
        manager.enable("victim", radius=radius)
        permitted = manager.permits(
            "stranger", "victim", "touch", target, initiator
        )
        inside = math.dist(target, initiator) <= radius
        assert permitted == (not inside)
