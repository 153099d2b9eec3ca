import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import kstest, truncnorm

from hemptwin.config import default_config
from hemptwin.domain import FACTOR_NAMES, Stage
from hemptwin.randomness import RngStream, sample_growth_noise
from hemptwin.riskmodel import (
    CBD_FACTORS,
    THC_FACTORS,
    FinalProductModel,
    _truncated_normal_from_seed,
    collect_t_prime_samples,
    decompose_final_product,
)
from hemptwin import shapley
from hemptwin.shapley import _subset_costs
from hemptwin.simulation import SupplyChainSimulation
from seed_matrix import assembled_outputs


@pytest.fixture(scope="module")
def t_prime():
    return np.linspace(4.0, 16.0, 200)


def make_model(target, t_prime):
    return FinalProductModel(default_config(), target, t_prime)


def test_factor_lists():
    assert CBD_FACTORS == FACTOR_NAMES
    assert "q_u" not in THC_FACTORS
    assert len(CBD_FACTORS) == 7 and len(THC_FACTORS) == 6


def test_model_is_deterministic(t_prime):
    model = make_model("thc", t_prime)
    u = RngStream(5, ("det",)).random(6 * 64).reshape(64, 6)
    assert np.array_equal(model(u), model(u))


def test_twin_growth_noise_is_the_surrogates_map():
    # twin and surrogate turn a uniform into the same noise, over truncation
    # points b/sigma in [-10, 0); u near 1 is off the grid, where the
    # inverse is ill-conditioned
    uniforms = np.linspace(0.0, 0.999, 37)
    for sigma in np.geomspace(1e-4, 2.0, 9):
        for z in np.linspace(-10.0, -1e-3, 11):
            g, t = -z * sigma, 1.0  # b = -g*t = z*sigma
            lam = sigma / math.sqrt(g * t)
            surrogate = _truncated_normal_from_seed(uniforms, sigma, -g * t)
            for u, expected in zip(uniforms.tolist(), surrogate.tolist()):
                twin = sample_growth_noise(g, t, lam, u)
                assert abs(twin - expected) <= 1e-12 * sigma, (sigma, z, u)


def test_twin_growth_noise_is_the_truncated_normal():
    # the twin's noise against SciPy's truncated normal, not against the
    # surrogate that shares its map
    g, t, lam = 0.0018, 56.0, 0.5
    sigma = lam * math.sqrt(g * t)
    uniforms = RngStream(17, ("ks-twin",)).random(20_000).tolist()
    twin = np.array([sample_growth_noise(g, t, lam, u) for u in uniforms])
    assert twin.min() >= -g * t
    stat, pvalue = kstest(twin, truncnorm(-g * t / sigma, np.inf, scale=sigma).cdf)
    assert pvalue > 0.01


def test_outputs_positive_and_cbd_exceeds_thc(t_prime):
    u = RngStream(7, ("pos",)).random(7 * 256).reshape(256, 7)
    cbd = make_model("cbd", t_prime)(u)
    thc = make_model("thc", t_prime)(u[:, [0, 1, 2, 3, 4, 6]])
    assert np.all(cbd > 0) and np.all(thc > 0)
    assert np.all(cbd > thc)


def check_outputs_by_mask(model, k_outer, i_inner):
    n = model.n_inputs
    u = RngStream(9, ("masks", model.target)).random(k_outer * (1 + i_inner) * n)
    outer = u[: k_outer * n].reshape(k_outer, 1, n)
    inner = u[k_outer * n:].reshape(k_outer, i_inner, n)
    factored = np.concatenate(list(model.subset_outputs(outer, inner)), axis=1)
    assert factored.shape == (1 << n, k_outer, i_inner)
    for mask in range(1 << n):
        assert np.array_equal(factored[mask],
                              assembled_outputs(model, outer, inner, mask)), mask


@pytest.mark.parametrize("target", ["cbd", "thc"])
@pytest.mark.parametrize("k_outer,i_inner", [(1, 2), (3, 5), (10, 100)])
def test_outputs_by_mask_equal_the_assembled_seed_matrix(t_prime, target, k_outer,
                                                         i_inner):
    check_outputs_by_mask(make_model(target, t_prime), k_outer, i_inner)


@pytest.mark.parametrize("target,k_outer,i_inner",
                         [("thc", 3, 5), ("cbd", 10, 100), ("cbd", 200, 100)])
def test_subset_costs_equal_the_per_mask_variances(t_prime, target, k_outer, i_inner):
    # 2^14 outputs per block: a CBD row at I=100 is 128 x 100 outputs, so
    # each outer row is a block; three THC rows at I=5, 64 x 5 each, are one
    n_blocks = 1 if target == "thc" else k_outer
    model = make_model(target, t_prime)
    n = model.n_inputs
    calls, blocks = [], []

    def recording(outer, inner):
        calls.append((outer, inner))
        for block in model.subset_outputs(outer, inner):
            blocks.append(block.shape)
            yield block

    costs = _subset_costs(recording, n, k_outer, i_inner, RngStream(4, ("costs",)))
    [(outer, inner)] = calls
    assert inner.shape == (k_outer, i_inner, n)
    assert len(blocks) == n_blocks
    assert costs[0] == 0.0
    for mask in range(1, 1 << n):
        y = assembled_outputs(model, outer, inner, mask)
        assert costs[mask] == np.var(y, axis=1, ddof=1).mean(), mask


@pytest.mark.parametrize("target", ["cbd", "thc"])
@pytest.mark.parametrize("k_outer,i_inner,rows",
                         [(10, 100, 1), (10, 100, 4), (7, 100, 3), (10, 100, 10)])
def test_subset_costs_do_not_depend_on_the_block_bound(t_prime, monkeypatch, target,
                                                       k_outer, i_inner, rows):
    model = make_model(target, t_prime)
    n = model.n_inputs
    row = (1 << n) * i_inner

    def costs_and_blocks(bound):
        monkeypatch.setattr(shapley, "_BLOCK_FLOATS", bound)
        blocks = []

        def recording(outer, inner):
            for block in model.subset_outputs(outer, inner):
                blocks.append(block.shape)
                yield block

        costs = _subset_costs(recording, n, k_outer, i_inner, RngStream(4, ("bound",)))
        return costs, blocks

    default, _ = costs_and_blocks(shapley._BLOCK_FLOATS)
    # a bound of `rows` rows: blocks of `rows` rows, the last one short
    costs, blocks = costs_and_blocks(rows * row)
    assert np.array_equal(costs, default)
    assert blocks == [(1 << n, min(rows, k_outer - k), i_inner)
                      for k in range(0, k_outer, rows)]
    # a bound below one row: whole rows, one per block
    costs, blocks = costs_and_blocks(row - 1)
    assert np.array_equal(costs, default)
    assert blocks == [(1 << n, 1, i_inner)] * k_outer


def one_pass_model(target, t_prime):
    cfg = dataclasses.replace(default_config(), max_plc_passes=1)
    return FinalProductModel(cfg, target, t_prime)


@pytest.mark.parametrize("target", ["cbd", "thc"])
@pytest.mark.parametrize("k_outer,i_inner", [(3, 5), (10, 100)])
def test_one_pass_outputs_by_mask_equal_the_assembled_seed_matrix(t_prime, target,
                                                                  k_outer, i_inner):
    check_outputs_by_mask(one_pass_model(target, t_prime), k_outer, i_inner)


@pytest.mark.parametrize("target,factor", [("cbd", "q_u"), ("thc", "q_v")])
def test_a_one_pass_policy_never_purifies_twice(t_prime, target, factor):
    # one-pass THC is THC after the first pass; where it reaches the limit the
    # two-pass policy applies the removal fraction once more, and elsewhere
    # the two policies agree
    u_cbd = RngStream(12, ("one-pass",)).random((4096, 7))
    u_thc = u_cbd[:, [0, 1, 2, 3, 4, 6]]  # without q_u
    u = u_cbd if target == "cbd" else u_thc
    one, two = one_pass_model(target, t_prime), make_model(target, t_prime)
    y_one, y_two = one(u), two(u)
    again = two._transforms(two._columns(u))[factor]
    second = one_pass_model("thc", t_prime)(u_thc) >= two.cfg.thc_final_limit
    assert second.any() and not second.all()
    assert np.array_equal(y_two[second], y_one[second] * again[second])
    assert np.array_equal(y_two[~second], y_one[~second])


def test_high_growth_draws_get_second_purification_pass(t_prime):
    model = make_model("thc", t_prime)
    base = np.full((1, 6), 0.5)
    hot = base.copy()
    hot[0, 0] = 0.999  # far upper tail of the growth noise
    cold = base.copy()
    cold[0, 0] = 1e-9  # at the lower truncation bound
    y_hot = model(hot)[0]
    y_cold = model(cold)[0]
    assert y_hot > y_cold
    # the cold path passes in one purification round
    assert y_cold < model.cfg.thc_final_limit


def test_t_prime_resampled_within_observed_range(t_prime):
    model = make_model("thc", t_prime)
    u = np.zeros((2, 6))
    u[1, :] = 1.0 - 1e-12
    lo = model(u[:1])
    hi = model(u[1:])
    assert np.isfinite(lo).all() and np.isfinite(hi).all()


def test_collect_t_prime_uses_the_full_simulation():
    from hemptwin.config import RunConfig

    cfg = dataclasses.replace(
        default_config(),
        run=RunConfig(warmup_lots=0, run_length_lots=60, replications=1,
                      master_seed=21),
    )
    sample = collect_t_prime_samples(cfg, n_replications=1)
    assert len(sample) > 5
    assert sample.min() > 0


def test_decomposition_identity_on_synthetic_model(t_prime):
    from hemptwin.config import RunConfig

    cfg = dataclasses.replace(
        default_config(),
        run=RunConfig(warmup_lots=0, run_length_lots=60, replications=1,
                      master_seed=31),
    )
    decomp = decompose_final_product(
        cfg, "thc", estimator="exact", k_outer=5, i_inner=20,
        macro_replications=3, t_prime_sample=t_prime,
    )
    assert decomp.residual < 1e-9
    assert len(decomp.labels) == 6
    for res in decomp.results:
        assert res.s.sum() == pytest.approx(res.total_variance, rel=1e-10)


def test_unknown_target_rejected(t_prime):
    with pytest.raises(ValueError):
        make_model("terpenes", t_prime)


def test_output_replays_the_one_pass_lots_of_a_replication():
    # a finished lot with one purification pass and one t' leg went through
    # the model's arithmetic: its realized inputs, transformed as the model
    # transforms its seeds (eps -> g*t_c + eps, t' -> g*t'), give back the
    # lot's final state.  Lots with a second pass or a retest are left out.
    cfg = default_config()
    sim = SupplyChainSimulation(cfg, 0)
    sim.run()
    lots = [lot for lot in sim.measured if lot.stage is Stage.FINISHED
            and lot.plc_passes == 1 and len(lot.t_prime_legs) == 1]
    assert lots
    g = cfg.growth_rate
    x = {name: np.array([getattr(lot.inputs, name) for lot in lots])
         for name in FACTOR_NAMES}
    x["eps"] = g * np.array([lot.cultivation_days for lot in lots]) + x["eps"]
    x["t_prime"] = g * x["t_prime"]
    for target, final in (("cbd", [lot.state.cbd_pct for lot in lots]),
                          ("thc", [lot.state.thc_pct for lot in lots])):
        model = FinalProductModel(cfg, target, [1.0])
        np.testing.assert_allclose(model._output(x), final, rtol=1e-12, atol=0.0)
