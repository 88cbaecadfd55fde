"""Closed-form predictors for weighted sums and maxima."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rank_extremes.errors import ParameterError
from rank_extremes.theory import (
    EQUAL_TAILS,
    FOLLOWERS_DOMINATE,
    MIN_RULE,
    PREFERENCE_DOMINATES,
    predict_equal_tails,
    predict_min_rule,
    predict_random_length,
)


class TestMinRule:
    def test_single_component_identity(self):
        pred = predict_min_rule([1], [2], [1], [0.5])
        assert (pred.k_of_z, pred.theta_of_z, pred.c_of_z) == (2.0, 0.5, 1.0)
        assert pred.regime == MIN_RULE

    def test_minimal_component_wins(self):
        pred = predict_min_rule([1, 1, 1], [1, 2, 3], [1, 1, 1], [0.3, 0.9, 0.9])
        assert pred.k_of_z == 1.0
        assert pred.theta_of_z == 0.3
        assert pred.c_of_z == 1.0

    def test_tied_minimum_rejected(self):
        with pytest.raises(ParameterError):
            predict_min_rule([1, 1, 1], [2, 2, 3], [1, 1, 1], [0.5, 0.5, 0.5])

    def test_ignores_non_minimal_fields(self):
        base = predict_min_rule([1, 1], [1, 4], [1, 1], [0.3, 0.9])
        perturbed = predict_min_rule([1, 17.0], [1, 4], [1, 42.0], [0.3, 0.1])
        assert base.k_of_z == perturbed.k_of_z
        assert base.theta_of_z == perturbed.theta_of_z
        assert base.c_of_z == perturbed.c_of_z


class TestEqualTails:
    def test_constant_theta_is_fixed_point(self):
        pred = predict_equal_tails([1, 5, 0.1], [2, 2, 2], [1, 3, 2], [0.7, 0.7, 0.7])
        assert pred.theta_of_z == pytest.approx(0.7)
        assert pred.regime == EQUAL_TAILS

    def test_hand_value_point_six(self):
        # k=1, c=(1,1), z=(1,2), theta=(0.2,0.8): (0.2 + 2*0.8)/3 = 0.6
        pred = predict_equal_tails([1, 2], [1, 1], [1, 1], [0.2, 0.8])
        assert pred.theta_of_z == pytest.approx(0.6)
        assert pred.c_of_z == pytest.approx(3.0)

    def test_hand_value_point_625(self):
        # k=2, c=(1,3), z=(1,1), theta=(1,0.5): (1 + 1.5)/4 = 0.625
        pred = predict_equal_tails([1, 1], [2, 2], [1, 3], [1.0, 0.5])
        assert pred.theta_of_z == pytest.approx(0.625)
        assert pred.c_of_z == pytest.approx(4.0)

    def test_unequal_indices_rejected(self):
        with pytest.raises(ParameterError):
            predict_equal_tails([1, 1], [1, 2], [1, 1], [0.5, 0.5])

    def test_convex_combination_bounds(self):
        pred = predict_equal_tails([1, 2, 3], [1.5, 1.5, 1.5], [1, 2, 1], [0.2, 0.9, 0.55])
        assert 0.2 <= pred.theta_of_z <= 0.9

    @settings(max_examples=50, deadline=None)
    @given(
        t=st.floats(0.001, 1000.0),
        z1=st.floats(0.1, 10.0),
        z2=st.floats(0.1, 10.0),
        k=st.floats(0.5, 5.0),
    )
    def test_weight_scale_invariance(self, t, z1, z2, k):
        a = predict_equal_tails([z1, z2], [k, k], [1, 2], [0.3, 0.8])
        b = predict_equal_tails([t * z1, t * z2], [k, k], [1, 2], [0.3, 0.8])
        assert a.theta_of_z == pytest.approx(b.theta_of_z, rel=1e-12)

    def test_average_of_ones_stays_in_range(self):
        # all-i.i.d. weightings: the dot product and the sum of the weights
        # round differently, so their quotient can land a few ulps above 1
        rng = np.random.default_rng(20260824)
        for _ in range(3000):
            m = int(rng.integers(2, 12))
            zs = np.round(rng.uniform(0.1, 3.0, m), 1)
            pred = predict_equal_tails(zs, [2.0] * m, [1.0] * m, [1.0] * m)
            assert pred.theta_of_z == pytest.approx(1.0, abs=1e-12)

    def test_negligible_weights_converge_to_dominant(self):
        pred = predict_equal_tails([1e-4, 1.0], [2, 2], [1, 1], [0.2, 0.85])
        assert abs(pred.theta_of_z - 0.85) < 1e-6


class TestRandomLength:
    def followers(self, m, z, k=1.0, c=1.0, thetas=None):
        """``z, k, c, theta`` of ``m`` followers of weight ``z``."""
        thetas = thetas or [1.0] * m
        return [z] * m, [k] * m, [c] * m, thetas[:m]

    def test_preference_branch(self):
        pred = predict_random_length(
            *self.followers(3, 0.5, k=3.0), alpha=2.0, beta=1.0, z_star=0.5,
        )
        assert pred.theta_of_z == pytest.approx(0.5)
        assert pred.k_of_z == 1.0  # min(3, 2, 1)
        assert pred.regime == PREFERENCE_DOMINATES

    def test_followers_branch_all_ones(self):
        pred = predict_random_length(
            *self.followers(5, 0.5, k=1.0), alpha=2.0, beta=3.0, z_star=0.5,
        )
        assert pred.theta_of_z == pytest.approx(1.0)
        assert pred.regime == FOLLOWERS_DOMINATE

    def test_followers_average_of_ones_stays_in_range(self):
        # the dot product and the partial sums round differently, so their
        # quotient can land a few ulps above 1 at most of these lengths
        for m in range(1, 200):
            for z in (0.5, 0.85):
                pred = predict_random_length(
                    *self.followers(m, z, k=1.2), alpha=2.0, beta=3.0, z_star=1 - z,
                )
                assert pred.theta_of_z == pytest.approx(1.0, abs=1e-12)

    def test_followers_branch_hand_value(self):
        # M=2, c=(1,1), z=(0.5,0.5), theta=(1,0.5): (0.5 + 0.25)/1 = 0.75
        pred = predict_random_length(
            *self.followers(2, 0.5, k=1.0, thetas=[1.0, 0.5]),
            alpha=2.0, beta=3.0, z_star=0.5,
        )
        assert pred.theta_of_z == pytest.approx(0.75)

    def test_boundary_k_equals_beta_is_preference(self):
        pred = predict_random_length(
            *self.followers(3, 0.5, k=2.0), alpha=5.0, beta=2.0, z_star=0.3,
        )
        assert pred.regime == PREFERENCE_DOMINATES
        assert pred.theta_of_z == pytest.approx(0.3**2)

    def test_theta_right_continuous_at_boundary(self):
        f = self.followers(3, 0.5, k=2.0, thetas=[0.5, 0.5, 0.5])
        at = predict_random_length(*f, 5.0, 2.0, 0.3).theta_of_z
        just_below = predict_random_length(*f, 5.0, 2.0 - 1e-9, 0.3).theta_of_z
        assert at == pytest.approx(just_below, abs=1e-6)

    def test_divergent_scale_series_flagged(self):
        # constant weights: partial sums grow linearly, never stabilize
        pred = predict_random_length(
            *self.followers(100, 0.5, k=1.0), alpha=2.0, beta=3.0, z_star=0.5,
        )
        assert not pred.scale_converged
        assert pred.c_of_z == pytest.approx(100 * 0.5)

    def test_tail_index_min_rule(self):
        f = self.followers(2, 0.5, k=1.2)
        assert predict_random_length(*f, 2.0, 3.0, 0.5).k_of_z == pytest.approx(1.2)
        assert predict_random_length(*f, 0.7, 3.0, 0.5).k_of_z == pytest.approx(0.7)

    def test_alpha_never_enters_theta(self):
        f = self.followers(4, 0.5, k=1.0, thetas=[1, 0.5, 1, 0.5])
        a = predict_random_length(*f, 0.3, 3.0, 0.5)
        b = predict_random_length(*f, 30.0, 3.0, 0.5)
        assert a.theta_of_z == b.theta_of_z

    def test_parameter_errors(self):
        f = self.followers(2, 0.5)
        with pytest.raises(ParameterError):
            predict_random_length(*f, -1.0, 1.0, 0.5)
        with pytest.raises(ParameterError):
            predict_random_length(*f, 1.0, 1.0, 1.5)


# each predictor with the component arrays it is given
PREDICTORS = {
    "min_rule": predict_min_rule,
    "equal_tails": predict_equal_tails,
    "random_length": lambda z, k, c, theta: predict_random_length(
        z, k, c, theta, alpha=2.0, beta=3.0, z_star=0.5),
}


class TestComponentValidation:
    """Every predictor refuses bad component arrays before any arithmetic."""

    def refuses(self, message, z, k, c, theta):
        for predict in PREDICTORS.values():
            with pytest.raises(ParameterError, match=message):
                predict(z, k, c, theta)

    def test_empty_spec_rejected(self):
        self.refuses("nonempty", [], [], [], [])

    def test_unequal_lengths_rejected(self):
        self.refuses("equal length", [1.0, 1.0], [1.0], [1.0, 1.0], [0.5, 0.5])
        self.refuses("equal length", [1.0], [1.0], [1.0], [[0.5]])

    def test_bad_theta_rejected(self):
        for theta in (0.0, 1.5, np.nan):
            self.refuses(r"extremal index must be in \(0, 1\], got", [1.0, 1.0],
                         [1.0, 1.0], [1.0, 1.0], [0.5, theta])

    def test_bad_weight_rejected(self):
        for z in (0.0, -1.0, np.inf, np.nan):
            self.refuses(f"weight z must be positive and finite, got {z}",
                         [1.0, z], [1.0, 1.0], [1.0, 1.0], [0.5, 0.5])

    def test_bad_tail_rejected(self):
        for bad in (0.0, -2.0, np.inf):
            self.refuses("tail index k must be positive and finite",
                         [1.0], [bad], [1.0], [0.5])
            self.refuses("scale c must be positive and finite", [1.0], [1.0], [bad], [0.5])

    def test_arrays_and_sequences_agree(self):
        z, k, c, theta = [1.0, 2.0], [1.5, 1.5], [3.0, 4.0], [0.5, 0.6]
        as_lists = predict_equal_tails(z, k, c, theta)
        as_arrays = predict_equal_tails(*(np.array(a) for a in (z, k, c, theta)))
        as_tuples = predict_equal_tails(*(tuple(a) for a in (z, k, c, theta)))
        assert as_lists == as_arrays == as_tuples
