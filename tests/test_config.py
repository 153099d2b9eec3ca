import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hemptwin.config import (
    DURATION_STAGES,
    FILE_KEYS,
    ChainConfig,
    ConfigError,
    ConfigValidationError,
    RunConfig,
    StageDuration,
    Topology,
    config_from_text,
    config_to_text,
    default_config,
    load_config,
    validate_config,
)
from stage_order import with_durations


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
    cfg = with_durations(default_config(), drying=StageDuration(3.0, 1.0))
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


@pytest.mark.parametrize(
    "key, overrides",
    [
        ("growth.g", {"growth_rate": math.nan}),
        ("limits.Ld", {"dry_wait_limit": math.nan}),
        ("run.seed", {"run": RunConfig(master_seed=-1)}),
        ("lots.season_interval", {"season_interval_days": -1.0}),
        ("chain.mu_v", {"chain": ChainConfig(verification_mean_days=math.inf)}),
        ("growth.g", {"growth_rate": math.inf}),
        ("policy.max_plc_passes", {"max_plc_passes": 0}),
        ("policy.max_plc_passes", {"max_plc_passes": -1}),
        ("run.reps", {"run": RunConfig(replications=0)}),
    ],
)
def test_configs_that_cannot_run_are_rejected(key, overrides):
    cfg = dataclasses.replace(default_config(), **overrides)
    with pytest.raises(ConfigValidationError) as err:
        validate_config(cfg)
    assert (key, "invalid_range") in {(k, kind) for k, kind, _ in err.value.violations}


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
    cfg = with_durations(dataclasses.replace(
        default_config(),
        n_lots_per_season=73,
        growth_rate=0.00213,
        dynamic_dryers=True,
        chain=ChainConfig(topology=Topology.SINGLE_CHAIN, n_shards=5,
                          verification_mean_days=0.37),
        run=RunConfig(warmup_lots=11, run_length_lots=97, replications=4,
                      master_seed=987654321),
    ), plc=StageDuration(0.5, 9.25))
    assert config_from_text(config_to_text(cfg)) == cfg


def test_comments_and_blank_lines_ignored():
    text = config_to_text(default_config()) + "\n# a comment\n\n"
    assert config_from_text(text) == default_config()


# Unicode line boundaries that are not "\n"; text pasted from a PDF can carry them
NON_NEWLINE_BREAKS = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c"]


@pytest.mark.parametrize("brk", NON_NEWLINE_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
def test_comment_holding_a_unicode_line_boundary_is_one_comment(brk):
    assert config_from_text(f"# pasted{brk}text\n") == default_config()
    # line numbers count "\n" lines: the second lots.n is on line 2
    text = f"lots.n = 50  # pasted{brk}text\nlots.n = 50\n"
    with pytest.raises(ConfigError, match="^line 2: duplicate key 'lots.n'$"):
        config_from_text(text)


@pytest.mark.parametrize("text", [
    pytest.param("lots.n = 50  # pasted\rtext\nlots.n = 50\n", id="lone-CR"),
    pytest.param("lots.n = 50  # a comment\r\nlots.n = 50\r\n", id="CRLF"),
])
def test_a_config_file_reads_as_its_text(tmp_path, text):
    # a file is read without newline translation: a lone "\r" stays in its
    # comment, where a text-mode read used to start line 2 with "text"
    path = tmp_path / "scenario.cfg"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(ConfigError, match="^line 2: duplicate key 'lots.n'$"):
        config_from_text(text)
    with pytest.raises(ConfigError, match="^line 2: duplicate key 'lots.n'$"):
        load_config(path)
    first_line = text.split("\n", 1)[0] + "\n"
    path.write_bytes(first_line.encode("utf-8"))
    assert load_config(path) == config_from_text(first_line) == default_config()


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        config_from_text("growth.gg = 1\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="^line 2: duplicate key 'lots.n'$"):
        config_from_text("lots.n = 5\nlots.n = 7\n")


def test_garbled_line_rejected():
    with pytest.raises(ConfigError):
        config_from_text("growth.g 0.0018\n")


def test_unknown_topology_rejected():
    with pytest.raises(ConfigError):
        config_from_text("chain.topology = TripleLayer\n")


def _with(cfg, path, value):
    """`cfg` with the field at dotted `path` set to `value`."""
    head, _, rest = path.partition(".")
    if rest:
        value = _with(getattr(cfg, head), rest, value)
    return dataclasses.replace(cfg, **{head: value})


def _leaf_paths(obj, prefix=""):
    """Dotted path of every field under dataclass `obj` that is not itself a
    dataclass."""
    paths = []
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            paths += _leaf_paths(value, f"{prefix}{f.name}.")
        else:
            paths.append(prefix + f.name)
    return paths


def test_every_field_has_a_file_key():
    paths = [path for path, _, _ in FILE_KEYS.values()]
    assert sorted(paths) == sorted(_leaf_paths(default_config()))
    durations = [key.split(".")[1] for key in FILE_KEYS if key.startswith("durations.")]
    assert durations == [stage for stage in DURATION_STAGES for _ in ("lo", "hi")]


def test_round_trip_keeps_fields_the_old_format_dropped():
    cfg = dataclasses.replace(
        default_config(), extraction_lo=0.5, max_plc_passes=7, season_interval_days=200.0
    )
    assert config_from_text(config_to_text(cfg)) == cfg


@pytest.mark.parametrize("line", ["lots.n = abc", "lots.n = 1.5",
                                  "resources.dynamic_dryers = maybe"])
def test_unparsable_value_names_line_and_key(line):
    with pytest.raises(ConfigError, match=rf"line 2: {line.split()[0]}"):
        config_from_text("growth.g = 0.002\n" + line + "\n")


def _violations(cfg):
    try:
        validate_config(cfg)
    except ConfigValidationError as err:
        return err.violations
    return []


def _violation_keys(cfg):
    return {key for key, _, _ in _violations(cfg)}


def test_validation_reports_only_file_keys():
    reported = set()
    for topology in Topology:
        for bad in ({int: -1, float: -1.0}, {int: 0, float: math.nan}):
            cfg = dataclasses.replace(
                default_config(), chain=ChainConfig(topology=topology))
            for path, parse, _ in FILE_KEYS.values():
                if parse in bad:
                    cfg = _with(cfg, path, bad[parse])
            reported |= _violation_keys(cfg)
    assert len(reported) > 30
    for key in reported:
        assert key in FILE_KEYS or any(k.startswith(key + ".") for k in FILE_KEYS), key


def _strategy(key, parse):
    if key == "chain.topology":
        return st.sampled_from(list(Topology))
    if key == "resources.dynamic_dryers":
        return st.booleans()
    if parse is int:
        return st.integers(min_value=-(2**63), max_value=2**63 - 1)
    assert parse is float, key
    return st.floats(allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(st.fixed_dictionaries(
    {key: _strategy(key, parse) for key, (_, parse, _) in FILE_KEYS.items()}))
def test_round_trip_property(values):
    cfg = default_config()
    for key, value in values.items():
        cfg = _with(cfg, FILE_KEYS[key][0], value)
    assert config_from_text(config_to_text(cfg)) == cfg


NUMERIC_KEYS = [key for key, (_, parse, _) in FILE_KEYS.items() if parse in (int, float)]
CHAIN_COUNTS = ("chain.n_shards", "chain.n_s", "chain.n_r")


def _named(cfg, key):
    """The (key, kind) violations of `cfg` that name exactly `key`."""
    return [(k, kind) for k, kind, _ in _violations(cfg) if k == key]


def _ends(domain, parse):
    """(inside, outside) value pairs at each end of `domain`."""
    def step(value, direction):
        if parse is int:
            return value + direction
        return math.nextafter(value, direction * math.inf)

    if domain.open_low:
        ends = [(step(domain.low, 1), domain.low)]
    else:
        ends = [(domain.low, step(domain.low, -1))]
    if domain.high < math.inf:
        ends.append((domain.high, step(domain.high, 1)))
    return [(parse(inside), parse(outside)) for inside, outside in ends]


@pytest.mark.parametrize("key", NUMERIC_KEYS)
def test_numeric_key_boundary_accepted_and_just_outside_rejected(key):
    path, parse, domain = FILE_KEYS[key]
    # dynamic dryer sizing lets resources.n_d sit at its boundary, zero
    base = dataclasses.replace(default_config(), dynamic_dryers=True)
    if key in CHAIN_COUNTS:
        # the two-layer chain needs at least one of each; with no ledger only
        # the domain applies
        assert _named(_with(base, path, 1), key) == []
        assert _named(_with(base, path, 0), key) == [(key, "zero_resource")]
        base = _with(base, "chain.topology", Topology.NONE)
    for inside, outside in _ends(domain, parse):
        assert _named(_with(base, path, inside), key) == [], inside
        assert _named(_with(base, path, outside), key) == [(key, domain.kind)], outside


@pytest.mark.parametrize("topology", list(Topology))
def test_each_key_reports_at_most_one_violation(topology):
    base = dataclasses.replace(default_config(), chain=ChainConfig(topology=topology))
    for key in NUMERIC_KEYS:
        path, parse, _ = FILE_KEYS[key]
        values = (-1, 0, 2, 10**12) if parse is int else (-1.0, 0.0, 1.5, 2e9, math.nan,
                                                         math.inf, -math.inf)
        for value in values:
            assert len(_named(_with(base, path, value), key)) <= 1, (key, value)
    for key in ("run.reps", "run.length"):
        cfg = _with(base, FILE_KEYS[key][0], -1)
        assert _named(cfg, key) == [(key, "invalid_range")]


@pytest.mark.parametrize("key", [k for k, (_, parse, _) in FILE_KEYS.items() if parse is int])
def test_a_trillion_is_a_seed_but_no_count(key):
    cfg = config_from_text(f"{key} = {10**12}\n")
    assert [k for k, _, _ in _violations(cfg)] == ([] if key == "run.seed" else [key])
