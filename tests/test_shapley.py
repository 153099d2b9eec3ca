import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import ndtri

from hemptwin import shapley
from hemptwin.randomness import RngStream
from seed_matrix import seed_matrix_model
from hemptwin.shapley import (
    ShapleyResult,
    TooFewSamplesError,
    TooManyInputsError,
    _shapley_from_permutations,
    _shapley_from_subsets,
    _subset_costs,
    relative_contributions,
    shapley_exact,
    shapley_sampled,
)


def gaussian(u):
    return ndtri(np.clip(u, 1e-12, 1 - 1e-12))


@seed_matrix_model
def additive_two(u):
    z = gaussian(u)
    return z[:, 0] + z[:, 1]


@seed_matrix_model
def additive_with_dummy(u):
    z = gaussian(u)
    return z[:, 0] + z[:, 1] + 0.0 * z[:, 2]


def cost_of(model, n_inputs, indices, k_outer, i_inner, seed):
    """c(J) for the redrawn indices J, from a fresh estimator."""
    stream = RngStream(seed, ("shapley-cost", 0))
    costs = _subset_costs(model, n_inputs, k_outer, i_inner, stream)
    return costs[sum(1 << i for i in indices)]


class TestCostEstimator:
    def test_full_set_estimates_total_variance(self):
        # Var[Z1 + Z2] = 2 analytically
        c = cost_of(additive_two, 2, {0, 1}, 200, 200, seed=5)
        assert c == pytest.approx(2.0, abs=0.1)

    def test_empty_set_is_exactly_zero(self):
        assert cost_of(additive_two, 2, set(), 200, 200, seed=5) == 0.0

    def test_single_redrawn_input_gives_conditional_variance(self):
        # Var[Y | Z2] = Var[Z1] = 1 analytically
        c = cost_of(additive_two, 2, {0}, 200, 200, seed=5)
        assert c == pytest.approx(1.0, abs=0.1)

    def test_bounds_validated(self):
        with pytest.raises(TooFewSamplesError):
            cost_of(additive_two, 2, {0}, 0, 10, seed=1)
        with pytest.raises(TooFewSamplesError):
            cost_of(additive_two, 2, {0}, 10, 1, seed=1)


def brute_force_shapley(cost_by_mask, n):
    """Independent oracle: enumerate all orderings over exact cost values."""
    s = np.zeros(n)
    perms = list(itertools.permutations(range(n)))
    for perm in perms:
        mask = 0
        prev = 0.0
        for l in perm:
            mask |= 1 << l
            s[l] += cost_by_mask[mask] - prev
            prev = cost_by_mask[mask]
    return s / len(perms)


class TestShapleyExact:
    def test_additive_unit_variances(self):
        # oracle: with analytic costs c({1})=1, c({2})=1, c({1,2})=2 both
        # orderings give s = (1, 1)
        oracle = brute_force_shapley({0b01: 1.0, 0b10: 1.0, 0b11: 2.0}, 2)
        assert_allclose(oracle, [1.0, 1.0])
        results = [
            shapley_exact(additive_two, 2, 200, 200, seed=17, rep_index=j)
            for j in range(8)
        ]
        s = np.vstack([r.s for r in results])
        stderr = s.std(axis=0, ddof=1) / math.sqrt(len(results))
        assert np.all(np.abs(s.mean(axis=0) - oracle) <= 3 * stderr + 1e-9)

    def test_constant_output_gives_zeros(self):
        res = shapley_exact(seed_matrix_model(lambda u: np.zeros(len(u))), 3, 20, 10,
                            seed=3)
        assert_allclose(res.s, 0.0)
        assert res.total_variance == 0.0
        assert_allclose(res.rc, 0.0)

    def test_dummy_input_gets_zero(self):
        results = [
            shapley_exact(additive_with_dummy, 3, 100, 100, seed=23, rep_index=j)
            for j in range(8)
        ]
        s = np.vstack([r.s for r in results])
        stderr = s.std(axis=0, ddof=1) / math.sqrt(len(results)) + 1e-12
        assert abs(s.mean(axis=0)[2]) <= 3 * stderr[2]

    def test_symmetry_of_identical_inputs(self):
        results = [
            shapley_exact(additive_two, 2, 150, 150, seed=29, rep_index=j)
            for j in range(8)
        ]
        s = np.vstack([r.s for r in results])
        diff = s[:, 0] - s[:, 1]
        stderr = diff.std(ddof=1) / math.sqrt(len(results))
        assert abs(diff.mean()) <= 3 * stderr + 1e-9

    def test_telescoping_identity_is_exact(self):
        res = shapley_exact(additive_with_dummy, 3, 50, 40, seed=31)
        assert res.s.sum() == pytest.approx(res.total_variance, rel=1e-12, abs=1e-12)

    def test_too_many_inputs_rejected(self):
        with pytest.raises(TooManyInputsError):
            shapley_exact(additive_two, 9, 10, 10, seed=1)


def loop_shapley(costs, perms):
    """Reference: add the increments ordering by ordering, input by input."""
    s = np.zeros(len(perms[0]))
    for perm in perms:
        mask = 0
        prev = 0.0
        for l in perm:
            mask |= 1 << int(l)
            c = costs[mask]
            s[int(l)] += c - prev
            prev = c
    return s / len(perms)


def sum_of_squares(u):
    return (gaussian(u) ** 2).sum(axis=1)


class TestOrderingAccumulator:
    @pytest.mark.parametrize("n_inputs", [1, 3, 8])
    def test_exact_orderings_match_the_loop_bit_for_bit(self, n_inputs):
        costs = _subset_costs(seed_matrix_model(sum_of_squares), n_inputs, 6, 5,
                              RngStream(5, ("acc",)))
        perms = list(itertools.permutations(range(n_inputs)))
        assert np.array_equal(_shapley_from_permutations(costs, perms),
                              loop_shapley(costs, perms))

    def test_sampled_orderings_match_the_loop_bit_for_bit(self):
        costs = _subset_costs(seed_matrix_model(sum_of_squares), 7, 6, 5,
                              RngStream(8, ("acc",)))
        perms = RngStream(8, ("orderings",)).permutations(500, 7)
        assert np.array_equal(_shapley_from_permutations(costs, perms),
                              loop_shapley(costs, perms))

    def test_the_model_is_called_once_per_macro_replication(self):
        calls = []
        assembled = seed_matrix_model(sum_of_squares)

        def model(outer, inner):
            calls.append(inner.shape)
            return assembled(outer, inner)

        for j in range(3):
            shapley_exact(model, 4, 3, 3, seed=2, rep_index=j)
        shapley_sampled(model, 4, 5, 3, 3, seed=2)
        # outer rows enough for three blocks under the bound: still one call
        k_outer = 2 * shapley.block_rows(4, 3) + 1
        shapley_exact(model, 4, k_outer, 3, seed=2)
        assert calls == [(3, 3, 4)] * 4 + [(k_outer, 3, 4)]


def random_costs(n_inputs, seed):
    """Costs of every subset with c(empty) = 0 and, as for a true cost
    E[Var[Y | Z_-J]] <= Var[Y], none above c(full) = 1."""
    costs = np.random.default_rng(seed).random(1 << n_inputs)
    costs[0], costs[-1] = 0.0, 1.0
    return costs


class TestClosedForm:
    """The exact estimator weighs the subset costs in closed form; the L!
    ordering average over the same costs is the reference."""

    @staticmethod
    def check(s, costs, n_inputs):
        perms = list(itertools.permutations(range(n_inputs)))
        ref = _shapley_from_permutations(costs, perms)
        assert np.max(np.abs(s - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert abs(s.sum() - costs[-1]) <= 1e-15 * costs[-1]

    @pytest.mark.parametrize("n_inputs", range(1, 9))
    @pytest.mark.parametrize("seed", [3, 11, 19])
    def test_random_costs_match_the_ordering_average(self, n_inputs, seed):
        costs = random_costs(n_inputs, seed)
        self.check(_shapley_from_subsets(costs, n_inputs), costs, n_inputs)

    @pytest.mark.parametrize("n_inputs", range(1, 9))
    def test_shapley_exact_matches_the_ordering_average(self, n_inputs):
        model = seed_matrix_model(sum_of_squares)
        res = shapley_exact(model, n_inputs, 6, 5, seed=13, rep_index=2)
        costs = _subset_costs(model, n_inputs, 6, 5, RngStream(13, ("shapley", 2)))
        assert res.total_variance == costs[-1]
        self.check(res.s, costs, n_inputs)

    @pytest.mark.parametrize("n_inputs", [1, 4, 7])
    def test_exact_and_sampled_cost_the_same_subsets(self, n_inputs, monkeypatch):
        # the orderings are drawn after both blocks, so the two estimators of
        # one (seed, rep_index) share their costs: common random numbers
        costed = []

        def recording(*args):
            costed.append(_subset_costs(*args))
            return costed[-1]

        monkeypatch.setattr(shapley, "_subset_costs", recording)
        model = seed_matrix_model(sum_of_squares)
        exact = shapley_exact(model, n_inputs, 6, 5, seed=13, rep_index=2)
        sampled = shapley_sampled(model, n_inputs, 9, 6, 5, seed=13, rep_index=2)
        assert np.array_equal(costed[0], costed[1])
        assert exact.total_variance == sampled.total_variance
        stream = RngStream(13, ("shapley", 2))
        costs = _subset_costs(model, n_inputs, 6, 5, stream)
        perms = stream.permutations(9, n_inputs)
        assert np.array_equal(sampled.s, _shapley_from_permutations(costs, perms))


class TestShapleySampled:
    def test_all_permutations_with_shared_cache_equals_exact(self):
        # the sampled estimator walked over every distinct ordering must agree
        # with the exact estimator bit for bit when both share one cache
        stream = RngStream(77, ("equivalence",))
        costs = _subset_costs(additive_with_dummy, 3, 30, 30, stream)
        perms = list(itertools.permutations(range(3)))
        exact_s = _shapley_from_permutations(costs, perms)
        doubled = _shapley_from_permutations(costs, perms + perms)
        # identical cached costs, so agreement is exact up to float roundoff
        assert_allclose(doubled, exact_s, rtol=1e-12, atol=1e-15)

    def test_sampled_matches_exact_within_stderr(self):
        exact = [
            shapley_exact(additive_with_dummy, 3, 100, 100, seed=41, rep_index=j)
            for j in range(8)
        ]
        sampled = [
            shapley_sampled(additive_with_dummy, 3, 60, 100, 100, seed=43,
                            rep_index=j)
            for j in range(8)
        ]
        se = np.vstack([r.s for r in exact])
        ss = np.vstack([r.s for r in sampled])
        pooled_stderr = np.sqrt(
            se.var(axis=0, ddof=1) / 8 + ss.var(axis=0, ddof=1) / 8
        ) + 1e-12
        assert np.all(np.abs(se.mean(0) - ss.mean(0)) <= 3 * pooled_stderr)

    def test_telescoping_identity_holds_for_sampled(self):
        res = shapley_sampled(additive_two, 2, 7, 50, 50, seed=47)
        assert res.s.sum() == pytest.approx(res.total_variance, rel=1e-12)

    def test_too_many_inputs_rejected_before_the_model_is_called(self):
        def model(outer, inner):
            raise AssertionError("the model was called")

        with pytest.raises(TooManyInputsError):
            shapley_sampled(model, 9, 10, 10, 10, seed=1)

    def test_needs_at_least_one_permutation(self):
        with pytest.raises(TooFewSamplesError):
            shapley_sampled(additive_two, 2, 0, 10, 10, seed=1)


class TestRelativeContributions:
    def make(self, s, var):
        return ShapleyResult(("a", "b"), np.asarray(s, dtype=float), var, "exact")

    def test_identical_replications_zero_stderr(self):
        results = [self.make([0.6, 0.4], 1.0)] * 5
        mean, stderr = relative_contributions(results)
        assert_allclose(mean, [0.6, 0.4])
        assert_allclose(stderr, 0.0)

    def test_hand_average(self):
        # two replications with s1/Var of 0.6 and 0.8 -> mean 0.7
        results = [self.make([0.6, 0.4], 1.0), self.make([0.8, 0.2], 1.0)]
        mean, _ = relative_contributions(results)
        assert mean[0] == pytest.approx(0.7)

    def test_requires_two(self):
        with pytest.raises(TooFewSamplesError):
            relative_contributions([self.make([1.0, 0.0], 1.0)])
