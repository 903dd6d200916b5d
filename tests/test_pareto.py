"""Unit tests for the Pareto machinery (repro.core.pareto)."""

import random

import pytest

from repro.core.pareto import (
    IncrementalParetoFront,
    dominates,
    hypervolume,
    hypervolume_2d,
    knee_point,
    non_dominated,
    pareto_front,
    pareto_front_indices,
    pareto_rank,
    reference_point,
    sort_front,
)


class TestDominates:
    def test_strict_domination(self):
        assert dominates((1, 1), (2, 2))

    def test_partial_improvement_dominates(self):
        assert dominates((1, 2), (2, 2))

    def test_equal_vectors_do_not_dominate(self):
        assert not dominates((1, 1), (1, 1))

    def test_tradeoff_does_not_dominate(self):
        assert not dominates((1, 3), (2, 2))
        assert not dominates((2, 2), (1, 3))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dominates((1,), (1, 2))


class TestNonDominated:
    def test_simple_front(self):
        vectors = [(1, 4), (2, 2), (4, 1), (3, 3), (5, 5)]
        assert set(non_dominated(vectors)) == {0, 1, 2}

    def test_single_point(self):
        assert non_dominated([(1, 1)]) == [0]

    def test_all_on_front(self):
        vectors = [(1, 3), (2, 2), (3, 1)]
        assert non_dominated(vectors) == [0, 1, 2]

    def test_duplicates_both_kept(self):
        vectors = [(1, 1), (1, 1), (2, 2)]
        assert set(non_dominated(vectors)) == {0, 1}

    def test_empty(self):
        assert non_dominated([]) == []

    def test_three_objectives(self):
        vectors = [(1, 1, 1), (2, 2, 2), (1, 2, 0)]
        front = set(non_dominated(vectors))
        assert 0 in front and 2 in front and 1 not in front


class TestParetoFront:
    def test_front_members_mutually_non_dominated(self):
        items = [(1, 4), (2, 2), (4, 1), (3, 3), (2, 5), (5, 2)]
        front = pareto_front(items, key=lambda item: item)
        for first in front:
            for second in front:
                assert not dominates(first, second)

    def test_front_dominates_or_ties_everything_else(self):
        items = [(1, 4), (2, 2), (4, 1), (3, 3), (2, 5), (5, 2)]
        front = pareto_front(items, key=lambda item: item)
        others = [item for item in items if item not in front]
        for other in others:
            assert any(dominates(member, other) for member in front)

    def test_indices_variant(self):
        items = [(1, 4), (0, 5), (9, 9)]
        indices = pareto_front_indices(items, key=lambda item: item)
        assert 2 not in indices

    def test_key_function(self):
        items = [{"a": 1, "b": 4}, {"a": 2, "b": 2}, {"a": 5, "b": 5}]
        front = pareto_front(items, key=lambda item: (item["a"], item["b"]))
        assert {"a": 5, "b": 5} not in front


class TestParetoRank:
    def test_rank_zero_is_the_front(self):
        vectors = [(1, 4), (2, 2), (4, 1), (3, 3), (5, 5)]
        ranks = pareto_rank(vectors)
        front = set(non_dominated(vectors))
        for index, rank in enumerate(ranks):
            assert (rank == 0) == (index in front)

    def test_layering(self):
        vectors = [(1, 1), (2, 2), (3, 3)]
        assert pareto_rank(vectors) == [0, 1, 2]

    def test_empty(self):
        assert pareto_rank([]) == []

    def test_single_point_is_rank_zero(self):
        assert pareto_rank([(7, 7)]) == [0]

    def test_exact_ties_share_a_rank(self):
        # Equal vectors never dominate each other, so duplicates always sit
        # in the same layer — here behind the strictly better (1, 1).
        assert pareto_rank([(2, 2), (2, 2), (1, 1)]) == [1, 1, 0]

    def test_all_tied_is_one_layer(self):
        assert pareto_rank([(3, 3)] * 4) == [0, 0, 0, 0]


class TestSortFront:
    def test_sorted_by_requested_objective(self):
        items = [(3, 1), (1, 3), (2, 2)]
        by_x = sort_front(items, key=lambda item: item, objective_index=0)
        assert [item[0] for item in by_x] == [1, 2, 3]
        by_y = sort_front(items, key=lambda item: item, objective_index=1)
        assert [item[1] for item in by_y] == [1, 2, 3]


class TestHypervolume:
    def test_single_point(self):
        assert hypervolume_2d([(1, 1)], reference=(3, 3)) == pytest.approx(4.0)

    def test_two_points(self):
        value = hypervolume_2d([(1, 2), (2, 1)], reference=(3, 3))
        assert value == pytest.approx(3.0)

    def test_dominated_point_does_not_add_area(self):
        base = hypervolume_2d([(1, 1)], reference=(3, 3))
        extended = hypervolume_2d([(1, 1), (2, 2)], reference=(3, 3))
        assert extended == pytest.approx(base)

    def test_points_outside_reference_ignored(self):
        assert hypervolume_2d([(4, 4)], reference=(3, 3)) == 0.0

    def test_bigger_front_bigger_volume(self):
        small = hypervolume_2d([(2, 2)], reference=(4, 4))
        large = hypervolume_2d([(1, 2), (2, 1)], reference=(4, 4))
        assert large > small

    def test_invalid_reference(self):
        with pytest.raises(ValueError):
            hypervolume_2d([(1, 1)], reference=(1, 2, 3))

    def test_empty_front(self):
        assert hypervolume_2d([], reference=(3, 3)) == 0.0

    def test_point_on_the_reference_contributes_nothing(self):
        assert hypervolume_2d([(3, 3)], reference=(3, 3)) == 0.0

    def test_exact_duplicate_points_count_once(self):
        single = hypervolume_2d([(1, 1)], reference=(3, 3))
        doubled = hypervolume_2d([(1, 1), (1, 1)], reference=(3, 3))
        assert doubled == pytest.approx(single)

    def test_non_2d_vectors_are_ignored(self):
        assert hypervolume_2d([(1, 1, 1)], reference=(3, 3)) == 0.0


class TestHypervolumeND:
    """The WFG-style n-D hypervolume (repro.core.pareto.hypervolume)."""

    def test_single_point_3d(self):
        # Box from (1, 1, 1) to (3, 3, 3): volume 2 * 2 * 2.
        assert hypervolume([(1, 1, 1)], reference=(3, 3, 3)) == pytest.approx(8.0)

    def test_two_points_3d_inclusion_exclusion(self):
        # Each box has volume 2*1*2 = 4; their overlap (from the
        # componentwise max (2, 2, 1) to the reference) has volume 1*1*2.
        value = hypervolume([(1, 2, 1), (2, 1, 1)], reference=(3, 3, 3))
        assert value == pytest.approx(4.0 + 4.0 - 2.0)

    def test_dominated_and_duplicate_points_add_nothing(self):
        base = hypervolume([(1, 1, 1)], reference=(3, 3, 3))
        noisy = hypervolume(
            [(1, 1, 1), (2, 2, 2), (1, 1, 1)], reference=(3, 3, 3)
        )
        assert noisy == pytest.approx(base)

    def test_points_outside_or_on_the_reference_contribute_nothing(self):
        assert hypervolume([(4, 1, 1)], reference=(3, 3, 3)) == 0.0
        assert hypervolume([(3, 3, 3)], reference=(3, 3, 3)) == 0.0
        assert hypervolume([], reference=(3, 3, 3)) == 0.0

    def test_adding_a_tradeoff_point_grows_the_volume(self):
        small = hypervolume([(2, 2, 2)], reference=(4, 4, 4))
        large = hypervolume([(2, 2, 2), (1, 3, 2)], reference=(4, 4, 4))
        assert large > small

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hypervolume([(1, 1)], reference=(3, 3, 3))

    def test_monotone_in_the_front(self):
        # A superset front never has smaller hypervolume.
        rng = random.Random(5)
        reference = (1.0, 1.0, 1.0, 1.0)
        points = [
            tuple(rng.random() for _ in range(4)) for _ in range(12)
        ]
        grown = 0.0
        for count in range(1, len(points) + 1):
            value = hypervolume(points[:count], reference)
            assert value >= grown - 1e-12
            grown = value

    def test_property_matches_hypervolume_2d(self):
        # On random 2-D inputs the n-D recursion must agree exactly with
        # the dedicated sweep implementation.
        rng = random.Random(17)
        for _ in range(200):
            count = rng.randrange(1, 12)
            points = [
                (rng.randrange(0, 20) / 2, rng.randrange(0, 20) / 2)
                for _ in range(count)
            ]
            reference = (10.0, 10.0)
            assert hypervolume(points, reference) == pytest.approx(
                hypervolume_2d(points, reference), abs=1e-9
            )

    def test_3d_agrees_with_monte_carlo(self):
        rng = random.Random(29)
        points = [tuple(rng.random() for _ in range(3)) for _ in range(6)]
        reference = (1.0, 1.0, 1.0)
        exact = hypervolume(points, reference)
        samples = 20000
        hits = 0
        for _ in range(samples):
            sample = tuple(rng.random() for _ in range(3))
            if any(
                all(p <= s for p, s in zip(point, sample)) for point in points
            ):
                hits += 1
        assert exact == pytest.approx(hits / samples, abs=0.02)


class TestReferencePoint:
    def test_worst_corner_plus_margin(self):
        reference = reference_point([(0, 10), (10, 0)], margin=0.1)
        assert reference == pytest.approx((11.0, 11.0))

    def test_zero_span_axis_still_pushed_out(self):
        reference = reference_point([(5, 1), (5, 2)], margin=0.1)
        assert reference[0] > 5.0
        assert reference[1] == pytest.approx(2.1)

    def test_zero_value_zero_span_axis(self):
        reference = reference_point([(0.0,)], margin=0.1)
        assert reference[0] > 0.0

    def test_every_vector_strictly_inside(self):
        rng = random.Random(3)
        vectors = [tuple(rng.uniform(-5, 5) for _ in range(4)) for _ in range(30)]
        reference = reference_point(vectors)
        for vector in vectors:
            assert all(value < bound for value, bound in zip(vector, reference))
            assert hypervolume([vector], reference) > 0.0

    def test_empty_and_negative_margin_rejected(self):
        with pytest.raises(ValueError):
            reference_point([])
        with pytest.raises(ValueError):
            reference_point([(1, 2)], margin=-0.5)


class TestKneePoint:
    def test_balanced_point_chosen(self):
        items = [(1, 10), (10, 1), (4, 4)]
        assert knee_point(items, key=lambda item: item) == (4, 4)

    def test_empty(self):
        assert knee_point([], key=lambda item: item) is None

    def test_single(self):
        assert knee_point([(2, 2)], key=lambda item: item) == (2, 2)

    def test_degenerate_dimension(self):
        # One objective has zero span; the knee is still well defined.
        items = [(1, 5), (2, 5), (3, 5)]
        assert knee_point(items, key=lambda item: item) == (1, 5)

    def test_all_dimensions_degenerate(self):
        # Every objective tied: all distances are zero, the first item wins.
        items = [(4, 4), (4, 4), (4, 4)]
        assert knee_point(items, key=lambda item: item) is items[0]

    def test_exact_tie_keeps_first(self):
        # Two symmetric extremes are equidistant from the ideal point; the
        # earlier one is returned deterministically.
        items = [(0, 10), (10, 0)]
        assert knee_point(items, key=lambda item: item) is items[0]


class TestIncrementalParetoFront:
    def test_accepts_non_dominated_and_rejects_dominated(self):
        front = IncrementalParetoFront()
        assert front.add("a", (2, 2)) is True
        assert front.add("b", (3, 3)) is False  # dominated by a
        assert front.add("c", (1, 3)) is True   # trade-off
        assert front.items() == ["a", "c"]

    def test_eviction_on_better_insert(self):
        front = IncrementalParetoFront()
        front.add("a", (3, 3))
        front.add("b", (2, 4))
        assert front.add("c", (1, 1)) is True  # dominates both
        assert front.items() == ["c"]

    def test_duplicates_are_both_kept(self):
        front = IncrementalParetoFront()
        assert front.add("a", (1, 1)) is True
        assert front.add("b", (1, 1)) is True
        assert front.items() == ["a", "b"]

    def test_empty_front(self):
        front = IncrementalParetoFront()
        assert len(front) == 0
        assert front.items() == []

    def test_key_function(self):
        front = IncrementalParetoFront(key=lambda item: item["v"])
        front.add({"v": (2, 2)})
        assert front.add({"v": (3, 3)}) is False

    def test_vector_required_without_key(self):
        with pytest.raises(ValueError):
            IncrementalParetoFront().add("a")

    def test_matches_batch_front_on_a_known_sequence(self):
        vectors = [(1, 4), (2, 2), (4, 1), (3, 3), (2, 5), (5, 2), (2, 2)]
        front = IncrementalParetoFront()
        for index, vector in enumerate(vectors):
            front.add(index, vector)
        assert front.items() == pareto_front_indices(vectors, key=lambda v: v)

    def test_randomized_equivalence_with_batch_front(self):
        """1000 random databases: incremental == batch, members and order.

        Small dimensions/values force plenty of exact ties and duplicated
        vectors — the cases where a naive online filter diverges from the
        batch semantics.
        """
        rng = random.Random(20060306)
        for _case in range(1000):
            dimensions = rng.randint(1, 4)
            count = rng.randint(0, 20)
            vectors = [
                tuple(rng.randint(0, 5) for _ in range(dimensions))
                for _ in range(count)
            ]
            front = IncrementalParetoFront()
            for index, vector in enumerate(vectors):
                front.add(index, vector)
            expected = pareto_front_indices(vectors, key=lambda v: v)
            assert front.items() == expected, f"diverged on {vectors}"
            assert front.vectors() == [vectors[i] for i in expected]
