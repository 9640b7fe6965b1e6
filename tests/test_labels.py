"""Membership semantics of graded labels."""

import numpy as np
import pytest

from labelgames.labels import (
    ConceptualSpace,
    Euclidean,
    Label,
    ThresholdDistribution,
    UniformThreshold,
    WeightedCityBlock,
    canonical_label,
    canonical_label_pair,
)


def half_width_label() -> Label:
    """1-d label with prototype 1 and a uniform threshold on (0, 0.5)."""
    return Label(
        prototype=(1.0,),
        metric=Euclidean(),
        threshold=UniformThreshold(0.5),
        space=ConceptualSpace(1),
    )


class TestConceptualSpace:
    def test_default_bounds_are_unit_intervals(self):
        space = ConceptualSpace(3)
        assert space.bounds == ((0.0, 1.0),) * 3

    def test_explicit_bounds_kept(self):
        space = ConceptualSpace(2, bounds=((0.0, 2.0), (-1.0, 1.0)))
        assert space.contains((1.5, 0.0))
        assert not space.contains((2.5, 0.0))

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            ConceptualSpace(0)

    def test_rejects_bound_count_mismatch(self):
        with pytest.raises(ValueError):
            ConceptualSpace(2, bounds=((0.0, 1.0),))

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            ConceptualSpace(1, bounds=((0.5, 0.5),))


class TestMetrics:
    def test_euclidean_one_dim_is_absolute_difference(self):
        assert Euclidean().distance((0.2,), (0.9,)) == pytest.approx(0.7)

    def test_euclidean_two_dim(self):
        assert Euclidean().distance((0.0, 0.0), (3.0, 4.0)) == pytest.approx(5.0)

    def test_euclidean_batch_matches_scalar(self):
        metric = Euclidean()
        xs = np.array([[0.1, 0.2], [0.9, 0.4], [0.5, 0.5]])
        got = metric.distances(xs, (0.5, 0.5))
        want = [metric.distance(tuple(row), (0.5, 0.5)) for row in xs]
        assert got == pytest.approx(want)

    def test_euclidean_flat_batch_for_one_dim(self):
        got = Euclidean().distances(np.array([0.0, 0.25, 1.0]), (1.0,))
        assert got == pytest.approx([1.0, 0.75, 0.0])

    def test_city_block_distance(self):
        metric = WeightedCityBlock((2.0, 0.5))
        assert metric.distance((0.0, 0.0), (1.0, 1.0)) == pytest.approx(2.5)

    def test_city_block_batch_matches_scalar(self):
        metric = WeightedCityBlock((2.0, 0.5))
        xs = np.array([[0.3, 0.8], [0.0, 0.0], [1.0, 0.1]])
        got = metric.distances(xs, (0.5, 0.5))
        want = [metric.distance(tuple(row), (0.5, 0.5)) for row in xs]
        assert got == pytest.approx(want)

    def test_city_block_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            WeightedCityBlock((1.0, 0.0))
        with pytest.raises(ValueError):
            WeightedCityBlock(())

    def test_city_block_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            WeightedCityBlock((1.0,)).distance((0.0, 0.0), (1.0, 1.0))


class TestThresholds:
    def test_uniform_survival_is_a_ramp(self):
        thr = UniformThreshold(0.5)
        assert thr.survival(0.0) == 1.0
        assert thr.survival(0.25) == pytest.approx(0.5)
        assert thr.survival(0.5) == 0.0
        assert thr.survival(2.0) == 0.0

    def test_uniform_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            UniformThreshold(0.0)
        with pytest.raises(ValueError):
            UniformThreshold(-1.0)

    def test_survival_must_start_at_one(self):
        with pytest.raises(ValueError):
            ThresholdDistribution(survival=lambda t: np.clip(0.5 - t, 0.0, 1.0))


class TestLabelMembership:
    def test_canonical_membership_examples(self):
        lab = canonical_label()
        assert lab.membership(0.3) == pytest.approx(0.3, abs=1e-15)
        assert lab.membership(1.0) == 1.0
        assert lab.membership(0.0) == 0.0

    def test_half_width_example(self):
        # distance 0.4 against a threshold uniform on (0, 0.5)
        assert half_width_label().membership(0.6) == pytest.approx(0.2, abs=1e-12)

    def test_half_width_vanishes_beyond_threshold_support(self):
        lab = half_width_label()
        assert lab.membership(0.5) == 0.0
        assert lab.membership(0.2) == 0.0

    def test_negated_membership_examples(self):
        lab = canonical_label()
        assert lab.negated_membership(0.25) == pytest.approx(0.75, abs=1e-15)
        assert lab.negated_membership(1.0) == 0.0
        assert lab.negated_membership(0.3) == pytest.approx(0.7, abs=1e-15)

    def test_membership_and_negation_sum_to_one(self):
        lab = half_width_label()
        for x in np.linspace(0.0, 1.0, 41):
            assert lab.membership(x) + lab.negated_membership(x) == pytest.approx(1.0, abs=1e-15)

    def test_membership_bounded_and_monotone_in_distance(self):
        lab = canonical_label()
        xs = np.linspace(0.0, 1.0, 101)
        mus = lab.membership_batch(xs)
        assert np.all(mus >= 0.0) and np.all(mus <= 1.0)
        # larger distance to the prototype at 1 means smaller membership
        assert np.all(np.diff(mus) >= 0.0)

    def test_identity_map_on_unit_interval(self):
        lab = canonical_label()
        xs = np.linspace(0.0, 1.0, 257)
        assert lab.membership_batch(xs) == pytest.approx(xs, abs=1e-15)

    def test_scalar_and_batch_agree(self):
        lab = half_width_label()
        xs = np.linspace(0.0, 1.0, 37)
        batch = lab.membership_batch(xs)
        scalars = np.array([lab.membership(float(x)) for x in xs])
        assert np.array_equal(batch, scalars)

    def test_two_dim_label_batch(self):
        lab = Label(
            prototype=(1.0, 1.0),
            metric=Euclidean(),
            threshold=UniformThreshold(2.0),
            space=ConceptualSpace(2),
        )
        xs = np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 0.0]])
        want = [lab.membership(tuple(row)) for row in xs]
        assert lab.membership_batch(xs) == pytest.approx(want)
        assert want[0] == 1.0
        assert want[1] == pytest.approx(1.0 - np.sqrt(2.0) / 2.0)

    def test_scaled_space(self):
        lab = canonical_label(space_width=0.5)
        assert lab.membership(0.25) == pytest.approx(0.5, abs=1e-15)
        assert lab.membership(0.5) == 1.0


class TestLabelValidation:
    def test_prototype_outside_space_rejected(self):
        with pytest.raises(ValueError):
            Label(
                prototype=(1.5,),
                metric=Euclidean(),
                threshold=UniformThreshold(),
                space=ConceptualSpace(1),
            )

    def test_prototype_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Label(
                prototype=(0.5, 0.5),
                metric=Euclidean(),
                threshold=UniformThreshold(),
                space=ConceptualSpace(1),
            )

    def test_point_outside_bounds_rejected(self):
        lab = canonical_label()
        with pytest.raises(ValueError):
            lab.membership(1.5)
        with pytest.raises(ValueError):
            lab.membership(-0.1)

    def test_point_dimension_mismatch_rejected(self):
        lab = canonical_label()
        with pytest.raises(ValueError):
            lab.membership((0.2, 0.3))

    def test_batch_bounds_rejected(self):
        lab = canonical_label()
        with pytest.raises(ValueError):
            lab.membership_batch(np.array([0.2, 1.2]))

    def test_batch_rejects_nan_as_the_scalar_call_does(self):
        lab = canonical_label()
        with pytest.raises(ValueError):
            lab.membership(float("nan"))
        for xs in ([0.2, float("nan")], [float("nan")] * 2):
            with pytest.raises(ValueError, match="outside the space bounds"):
                lab.membership_batch(np.array(xs))

    def test_batch_dimension_mismatch_rejected(self):
        lab = canonical_label()
        with pytest.raises(ValueError):
            lab.membership_batch(np.zeros((4, 2)))

    def test_scalar_prototype_normalised(self):
        lab = Label(
            prototype=1.0,
            metric=Euclidean(),
            threshold=UniformThreshold(),
            space=ConceptualSpace(1),
        )
        assert lab.prototype == (1.0,)


class TestCanonicalPair:
    def test_pair_shares_unit_square_semantics(self):
        first, second = canonical_label_pair()
        assert first.space.bounds == ((0.0, 1.0),)
        assert second.membership(0.75) == pytest.approx(0.75, abs=1e-15)

    def test_pair_members_equal(self):
        first, second = canonical_label_pair()
        assert first == second
