import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hemptwin.config import (
    ChainConfig,
    ConfigError,
    ConfigValidationError,
    RunConfig,
    StageDuration,
    Topology,
    config_from_text,
    config_to_text,
    default_config,
    validate_config,
)


def test_default_config_is_accepted():
    cfg = validate_config(default_config())
    # baseline values used throughout the bundled experiments
    assert cfg.n_lots_per_season == 50
    assert cfg.growth_rate == 0.0018
    assert cfg.cbd_thc_ratio == 28.0
    assert cfg.lambda_var == 0.5
    assert cfg.thc_preharvest_limit == 0.003
    assert cfg.thc_final_limit == 0.0005
    assert (cfg.n_field_workers, cfg.n_lab_servers, cfg.n_dryers, cfg.n_processors) == (10, 10, 3, 2)
    assert cfg.chain.n_shards == 2
    assert cfg.chain.n_validators_per_shard == 4
    assert cfg.chain.n_regulators == 2
    assert cfg.chain.verification_mean_days == 0.1
    assert cfg.chain.confirmation_mean_days == 0.05
    assert cfg.chain.single_chain_mean_days == 0.15
    assert cfg.tamper_probability == 0.3
    assert cfg.run.warmup_lots == 200 and cfg.run.run_length_lots == 500
    assert cfg.run.replications == 100
    assert (cfg.extraction_lo, cfg.extraction_hi) == (0.6, 0.8)
    assert (cfg.winterization_lo, cfg.winterization_hi) == (0.95, 1.0)
    assert (cfg.plc_cbd_lo, cfg.plc_cbd_hi) == (0.9, 1.0)
    assert (cfg.plc_thc_lo, cfg.plc_thc_hi) == (0.3, 0.5)
    assert cfg.duration("germination") == StageDuration(5.0, 10.0)
    assert cfg.duration("cultivation") == StageDuration(50.0, 60.0)
    assert cfg.duration("preharvest_test") == StageDuration(2.0, 7.0)
    assert cfg.duration("plc") == StageDuration(1.0, 5.0)


def test_out_of_range_probability_reported():
    cfg = dataclasses.replace(default_config(), tamper_probability=1.3)
    with pytest.raises(ConfigValidationError) as err:
        validate_config(cfg)
    kinds = {kind for _, kind, _ in err.value.violations}
    assert kinds == {"invalid_probability"}


def test_zero_dryers_without_dynamic_sizing_rejected():
    cfg = dataclasses.replace(default_config(), n_dryers=0)
    with pytest.raises(ConfigValidationError) as err:
        validate_config(cfg)
    assert any(kind == "zero_resource" for _, kind, _ in err.value.violations)


def test_zero_dryers_allowed_with_dynamic_sizing():
    cfg = dataclasses.replace(default_config(), n_dryers=0, dynamic_dryers=True)
    validate_config(cfg)


def test_inverted_duration_bounds_rejected():
    cfg = default_config().with_durations(drying=StageDuration(3.0, 1.0))
    with pytest.raises(ConfigValidationError) as err:
        validate_config(cfg)
    assert any(kind == "invalid_range" for _, kind, _ in err.value.violations)


def test_final_limit_must_be_below_preharvest_limit():
    cfg = dataclasses.replace(default_config(), thc_final_limit=0.004)
    with pytest.raises(ConfigValidationError):
        validate_config(cfg)


@pytest.mark.parametrize("n", [0, -3])
def test_lot_count_must_be_positive(n):
    cfg = dataclasses.replace(default_config(), n_lots_per_season=n)
    with pytest.raises(ConfigValidationError) as err:
        validate_config(cfg)
    assert ("lots.n", "invalid_range") in {(key, kind) for key, kind, _ in err.value.violations}


def test_multi_validator_panels_rejected():
    cfg = dataclasses.replace(
        default_config(), chain=dataclasses.replace(default_config().chain, panel_size=3)
    )
    with pytest.raises(ConfigValidationError) as err:
        validate_config(cfg)
    assert any(kind == "unsupported" for _, kind, _ in err.value.violations)


def test_every_violation_is_reported_at_once():
    cfg = dataclasses.replace(
        default_config(), tamper_probability=2.0, n_dryers=0, growth_rate=-1.0
    )
    with pytest.raises(ConfigValidationError) as err:
        validate_config(cfg)
    assert len(err.value.violations) >= 3


def test_round_trip_default_config_is_identity():
    cfg = default_config()
    assert config_from_text(config_to_text(cfg)) == cfg


def test_round_trip_nondefault_config_is_identity():
    cfg = dataclasses.replace(
        default_config(),
        n_lots_per_season=73,
        growth_rate=0.00213,
        dynamic_dryers=True,
        chain=ChainConfig(topology=Topology.SINGLE_CHAIN, n_shards=5,
                          verification_mean_days=0.37),
        run=RunConfig(warmup_lots=11, run_length_lots=97, replications=4,
                      master_seed=987654321),
    ).with_durations(plc=StageDuration(0.5, 9.25))
    assert config_from_text(config_to_text(cfg)) == cfg


def test_comments_and_blank_lines_ignored():
    text = config_to_text(default_config()) + "\n# a comment\n\n"
    assert config_from_text(text) == default_config()


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        config_from_text("growth.gg = 1\n")


def test_garbled_line_rejected():
    with pytest.raises(ConfigError):
        config_from_text("growth.g 0.0018\n")


def test_unknown_topology_rejected():
    with pytest.raises(ConfigError):
        config_from_text("chain.topology = TripleLayer\n")


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=500),
    g=st.floats(min_value=1e-6, max_value=0.1, allow_nan=False),
    lam=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**63 - 1),
    p2=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    topo=st.sampled_from(list(Topology)),
)
def test_round_trip_property(n, g, lam, seed, p2, topo):
    cfg = dataclasses.replace(
        default_config(),
        n_lots_per_season=n,
        growth_rate=g,
        lambda_var=lam,
        tamper_probability=p2,
        chain=dataclasses.replace(default_config().chain, topology=topo),
        run=dataclasses.replace(default_config().run, master_seed=seed),
    )
    assert config_from_text(config_to_text(cfg)) == cfg
