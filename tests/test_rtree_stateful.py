"""Hypothesis stateful testing: the R*-tree against a dictionary model.

A rule-based state machine performs arbitrary interleavings of inserts,
deletes and queries; after every step the tree must agree with a plain
``dict`` model and satisfy its structural invariants.

Range searches run over the tree's flat snapshot, which every mutation
must drop.  An invariant searches after *every* step, so a snapshot is
always live when the next insert or delete arrives: a mutation that
failed to invalidate it would leave the following search stale.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.geometry.mbr import Rect
from repro.index.rtree import RStarTree

_coords = st.tuples(
    st.floats(-100.0, 100.0, allow_nan=False, width=32),
    st.floats(-100.0, 100.0, allow_nan=False, width=32),
)


class RTreeMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self) -> None:
        self.tree = RStarTree(2, max_entries=8)
        self.model: dict[int, np.ndarray] = {}
        self.next_id = 0
        self.steps = 0

    @rule(point=_coords)
    def insert(self, point) -> None:
        p = np.asarray(point, dtype=float)
        self.tree.insert(self.next_id, p)
        self.model[self.next_id] = p
        self.next_id += 1
        self.steps += 1

    @precondition(lambda self: bool(self.model))
    @rule(pick=st.randoms(use_true_random=False))
    def delete_existing(self, pick) -> None:
        victim = pick.choice(sorted(self.model))
        self.tree.delete(victim)
        del self.model[victim]
        self.steps += 1

    @rule(low=_coords, extent=st.tuples(st.floats(0.0, 80.0), st.floats(0.0, 80.0)))
    def range_query_matches_model(self, low, extent) -> None:
        lo = np.asarray(low, dtype=float)
        rect = Rect(lo, lo + np.asarray(extent, dtype=float))
        got = sorted(self.tree.range_search_rect(rect))
        expected = sorted(
            obj_id
            for obj_id, p in self.model.items()
            if rect.contains_point(p)
        )
        assert got == expected

    @rule(center=_coords, radius=st.floats(0.0, 120.0))
    def sphere_query_matches_model(self, center, radius) -> None:
        c = np.asarray(center, dtype=float)
        got = sorted(self.tree.range_search_sphere(c, radius))
        expected = sorted(
            obj_id
            for obj_id, p in self.model.items()
            if float((p - c) @ (p - c)) <= radius * radius
        )
        assert got == expected

    @precondition(lambda self: bool(self.model))
    @rule(pick=st.randoms(use_true_random=False))
    def points_of_matches_model(self, pick) -> None:
        wanted = [pick.choice(sorted(self.model)) for _ in range(4)]
        np.testing.assert_array_equal(
            self.tree.points_of(wanted), [self.model[i] for i in wanted]
        )

    @rule(center=_coords, k=st.integers(1, 6))
    def knn_matches_model(self, center, k) -> None:
        if not self.model:
            assert self.tree.knn(list(center), k) == []
            return
        c = np.asarray(center, dtype=float)
        got = self.tree.knn(c, k)
        ordered = sorted(
            self.model, key=lambda i: (float(np.linalg.norm(self.model[i] - c)), i)
        )
        got_distances = [d for _, d in got]
        expected_distances = sorted(
            float(np.linalg.norm(self.model[i] - c)) for i in self.model
        )[: len(got)]
        np.testing.assert_allclose(got_distances, expected_distances, rtol=1e-9)
        assert len(got) == min(k, len(self.model))
        del ordered  # ids may legitimately tie by distance; distances decide

    @invariant()
    def snapshot_tracks_mutations(self) -> None:
        everything = Rect([-101.0, -101.0], [101.0, 101.0])
        assert sorted(self.tree.range_search_rect(everything)) == sorted(self.model)

    @invariant()
    def sizes_agree(self) -> None:
        assert len(self.tree) == len(self.model)

    @invariant()
    def structure_valid(self) -> None:
        # Full structural validation is O(n); run it periodically.
        if self.steps % 5 == 0:
            self.tree.check_invariants()


TestRTreeStateful = RTreeMachine.TestCase
TestRTreeStateful.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)
