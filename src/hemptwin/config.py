"""Scenario configuration: every tunable, file round-tripping, validation.

The external format is a flat, human-readable ``key = value`` file with dotted
section names (``growth.g = 0.0018``).  Writing a config and parsing it back
is an identity.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

__all__ = [
    "Topology",
    "ChainConfig",
    "RunConfig",
    "StageDuration",
    "ScenarioConfig",
    "ConfigError",
    "ConfigValidationError",
    "validate_config",
    "default_config",
    "config_to_text",
    "config_from_text",
    "load_config",
    "save_config",
    "DURATION_STAGES",
    "FILE_KEYS",
]


class Topology(enum.Enum):
    TWO_LAYER = "TwoLayer"
    SINGLE_CHAIN = "SingleChain"
    NONE = "None"


class ConfigError(ValueError):
    """Malformed config file or unknown key."""


class ConfigValidationError(ValueError):
    """One or more invariant violations; `.violations` lists all of them."""

    def __init__(self, violations: list[tuple[str, str, str]]):
        self.violations = violations
        lines = "; ".join(f"{kind}: {key}: {msg}" for key, kind, msg in violations)
        super().__init__(lines)


@dataclass(frozen=True)
class StageDuration:
    lo: float
    hi: float


@dataclass(frozen=True)
class ChainConfig:
    topology: Topology = Topology.TWO_LAYER
    n_shards: int = 2
    n_validators_per_shard: int = 4  # on-site verifiers per shard
    n_regulators: int = 2  # root-chain confirmers; also the single-chain pool size
    verification_mean_days: float = 0.1
    confirmation_mean_days: float = 0.05
    single_chain_mean_days: float = 0.15
    miss_probability: float = 0.0  # verification miss chance; detection is perfect by default


@dataclass(frozen=True)
class RunConfig:
    warmup_lots: int = 200
    run_length_lots: int = 500
    replications: int = 100
    master_seed: int = 20210


# Stage keys that carry a uniform duration range in the config file.
DURATION_STAGES = (
    "germination",
    "soil_prep",
    "transplant",
    "cultivation",
    "preharvest_test",
    "harvest",
    "drying",
    "extraction",
    "winterization",
    "plc",
    "final_coa",
)

_DEFAULT_DURATIONS = {
    "germination": StageDuration(5.0, 10.0),
    "soil_prep": StageDuration(1.0, 2.0),
    "transplant": StageDuration(1.0, 2.0),
    "cultivation": StageDuration(50.0, 60.0),
    "preharvest_test": StageDuration(2.0, 7.0),
    "harvest": StageDuration(1.0, 2.0),
    "drying": StageDuration(1.0, 2.0),
    "extraction": StageDuration(1.0, 2.0),
    "winterization": StageDuration(1.0, 3.0),
    "plc": StageDuration(1.0, 5.0),
    "final_coa": StageDuration(0.0, 0.0),
}


@dataclass(frozen=True)
class ScenarioConfig:
    n_lots_per_season: int = 50
    growth_rate: float = 0.0018  # total cannabinoid fraction gained per day
    cbd_thc_ratio: float = 28.0
    lambda_var: float = 0.5
    thc_preharvest_limit: float = 0.003
    thc_final_limit: float = 0.0005
    harvest_deadline_days: float = 15.0
    seedling_wait_limit: float = 2.0
    dry_wait_limit: float = 2.0
    harvest_delay_days: float = 0.0
    n_field_workers: int = 10
    n_lab_servers: int = 10
    n_dryers: int = 3
    n_processors: int = 2
    dynamic_dryers: bool = False
    chain: ChainConfig = field(default_factory=ChainConfig)
    tamper_probability: float = 0.3
    run: RunConfig = field(default_factory=RunConfig)
    extraction_lo: float = 0.6
    extraction_hi: float = 0.8
    winterization_lo: float = 0.95
    winterization_hi: float = 1.0
    plc_cbd_lo: float = 0.9
    plc_cbd_hi: float = 1.0
    plc_thc_lo: float = 0.3
    plc_thc_hi: float = 0.5
    max_plc_passes: int = 2
    season_interval_days: float = 365.0
    stage_durations: tuple = tuple(sorted(_DEFAULT_DURATIONS.items()))

    def duration(self, stage: str) -> StageDuration:
        return dict(self.stage_durations)[stage]


def default_config() -> ScenarioConfig:
    """The baseline scenario used throughout the bundled experiments."""
    return ScenarioConfig()


def validate_config(cfg: ScenarioConfig) -> ScenarioConfig:
    """Return `cfg` if every invariant holds, else raise with all violations."""
    bad: list[tuple[str, str, str]] = []

    def prob(key: str, value: float) -> None:
        if not (0.0 <= value <= 1.0):
            bad.append((key, "invalid_probability", f"{value} outside [0, 1]"))

    prob("adversary.p2", cfg.tamper_probability)
    prob("chain.miss_probability", cfg.chain.miss_probability)
    if cfg.n_lots_per_season < 1:
        bad.append(("lots.n", "invalid_range", "need at least one lot per season"))
    if cfg.cbd_thc_ratio <= 0:
        bad.append(("growth.r", "invalid_range", "ratio must be positive"))
    if cfg.thc_final_limit >= cfg.thc_preharvest_limit:
        bad.append(
            ("limits.gamma", "invalid_range",
             "final limit must be below the pre-harvest limit")
        )
    for key, count in (
        ("resources.n_f", cfg.n_field_workers),
        ("resources.n_l", cfg.n_lab_servers),
        ("resources.n_p", cfg.n_processors),
    ):
        if count < 1:
            bad.append((key, "zero_resource", "stage requires at least one server"))
    if cfg.n_dryers < 1 and not cfg.dynamic_dryers:
        bad.append(
            ("resources.n_d", "zero_resource",
             "no dryers and dynamic sizing disabled")
        )
    if cfg.n_dryers < 0:
        bad.append(("resources.n_d", "invalid_range", "negative dryer count"))
    ch = cfg.chain
    if ch.topology is Topology.TWO_LAYER:
        if ch.n_shards < 1:
            bad.append(("chain.n_shards", "zero_resource", "need at least one shard"))
        if ch.n_validators_per_shard < 1:
            bad.append(("chain.n_s", "zero_resource", "need validators per shard"))
        if ch.n_regulators < 1:
            bad.append(("chain.n_r", "zero_resource", "need root regulators"))
    if ch.topology is Topology.SINGLE_CHAIN and ch.n_regulators < 1:
        bad.append(("chain.n_r", "zero_resource", "need verification servers"))
    for key, mean in (
        ("chain.mu_v", ch.verification_mean_days),
        ("chain.mu_c", ch.confirmation_mean_days),
        ("chain.mu_s", ch.single_chain_mean_days),
    ):
        if mean <= 0:
            bad.append((key, "invalid_range", "service mean must be positive"))
    if cfg.run.run_length_lots < 1:
        bad.append(("run.length", "invalid_range", "need a measured window"))
    if cfg.run.replications < 1:
        bad.append(("run.reps", "invalid_range", "need at least one replication"))
    if cfg.max_plc_passes < 1:
        bad.append(("policy.max_plc_passes", "invalid_range",
                    "the final test follows at least one purification pass"))
    for stage, dur in cfg.stage_durations:
        if dur.lo > dur.hi:
            bad.append(
                (f"durations.{stage}", "invalid_range", f"lo {dur.lo} > hi {dur.hi}")
            )
        if dur.lo < 0:
            bad.append((f"durations.{stage}", "invalid_range", "negative duration"))
    for key, lo, hi in (
        ("extraction", cfg.extraction_lo, cfg.extraction_hi),
        ("winterization", cfg.winterization_lo, cfg.winterization_hi),
        ("plc_cbd", cfg.plc_cbd_lo, cfg.plc_cbd_hi),
        ("plc_thc", cfg.plc_thc_lo, cfg.plc_thc_hi),
    ):
        if not (0.0 <= lo <= hi <= 1.0):
            bad.append((f"fractions.{key}", "invalid_range",
                        f"bounds ({lo}, {hi}) must satisfy 0 <= lo <= hi <= 1"))
    for key, value in (
        ("growth.g", cfg.growth_rate),
        ("growth.lambda", cfg.lambda_var),
        ("limits.gamma_v", cfg.thc_preharvest_limit),
        ("limits.gamma", cfg.thc_final_limit),
        ("limits.harvest_deadline", cfg.harvest_deadline_days),
        ("limits.Lt", cfg.seedling_wait_limit),
        ("limits.Ld", cfg.dry_wait_limit),
        ("policy.harvest_delay", cfg.harvest_delay_days),
        ("lots.season_interval", cfg.season_interval_days),
        ("run.warmup", cfg.run.warmup_lots),
        ("run.length", cfg.run.run_length_lots),
        ("run.reps", cfg.run.replications),
        ("run.seed", cfg.run.master_seed),
    ):
        if value < 0:
            bad.append((key, "invalid_range", f"{value} is negative"))
    for key, value in _flatten(cfg).items():
        if isinstance(value, float) and not math.isfinite(value):
            bad.append((key, "invalid_range", f"{value} is not finite"))

    if bad:
        raise ConfigValidationError(bad)
    return cfg


# ---------------------------------------------------------------------------
# external key-value format


def _parse_bool(s: str) -> bool:
    low = s.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_topology(s: str) -> Topology:
    for topology in Topology:
        if topology.value.lower() == s.lower():
            return topology
    raise ValueError(f"unknown topology {s!r}, expected one of "
                     f"{[t.value for t in Topology]}")


# Every file key, mapped to its dotted field path in ScenarioConfig and to the
# parser for its value.  Writing, reading and validation all read this table;
# a path step into `stage_durations` names the stage.
FILE_KEYS: dict[str, tuple[str, Callable[[str], object]]] = {
    "lots.n": ("n_lots_per_season", int),
    "lots.season_interval": ("season_interval_days", float),
    "growth.g": ("growth_rate", float),
    "growth.r": ("cbd_thc_ratio", float),
    "growth.lambda": ("lambda_var", float),
    "limits.gamma_v": ("thc_preharvest_limit", float),
    "limits.gamma": ("thc_final_limit", float),
    "limits.harvest_deadline": ("harvest_deadline_days", float),
    "limits.Lt": ("seedling_wait_limit", float),
    "limits.Ld": ("dry_wait_limit", float),
    "policy.harvest_delay": ("harvest_delay_days", float),
    "policy.max_plc_passes": ("max_plc_passes", int),
    "resources.n_f": ("n_field_workers", int),
    "resources.n_l": ("n_lab_servers", int),
    "resources.n_d": ("n_dryers", int),
    "resources.n_p": ("n_processors", int),
    "resources.dynamic_dryers": ("dynamic_dryers", _parse_bool),
    "chain.topology": ("chain.topology", _parse_topology),
    "chain.n_shards": ("chain.n_shards", int),
    "chain.n_s": ("chain.n_validators_per_shard", int),
    "chain.n_r": ("chain.n_regulators", int),
    "chain.mu_v": ("chain.verification_mean_days", float),
    "chain.mu_c": ("chain.confirmation_mean_days", float),
    "chain.mu_s": ("chain.single_chain_mean_days", float),
    "chain.miss_probability": ("chain.miss_probability", float),
    "adversary.p2": ("tamper_probability", float),
    "run.warmup": ("run.warmup_lots", int),
    "run.length": ("run.run_length_lots", int),
    "run.reps": ("run.replications", int),
    "run.seed": ("run.master_seed", int),
    "fractions.extraction.lo": ("extraction_lo", float),
    "fractions.extraction.hi": ("extraction_hi", float),
    "fractions.winterization.lo": ("winterization_lo", float),
    "fractions.winterization.hi": ("winterization_hi", float),
    "fractions.plc_cbd.lo": ("plc_cbd_lo", float),
    "fractions.plc_cbd.hi": ("plc_cbd_hi", float),
    "fractions.plc_thc.lo": ("plc_thc_lo", float),
    "fractions.plc_thc.hi": ("plc_thc_hi", float),
    **{
        f"durations.{stage}.{end}": (f"stage_durations.{stage}.{end}", float)
        for stage in DURATION_STAGES
        for end in ("lo", "hi")
    },
}


def _get(obj, path: str):
    for name in path.split("."):
        obj = dict(obj)[name] if isinstance(obj, tuple) else getattr(obj, name)
    return obj


def _set(obj, names: list[str], value):
    head, *rest = names
    if isinstance(obj, tuple):
        merged = dict(obj)
        merged[head] = _set(merged[head], rest, value)
        return tuple(sorted(merged.items()))
    if rest:
        value = _set(getattr(obj, head), rest, value)
    return replace(obj, **{head: value})


def _flatten(cfg: ScenarioConfig) -> dict[str, object]:
    return {key: _get(cfg, path) for key, (path, _) in FILE_KEYS.items()}


def config_to_text(cfg: ScenarioConfig) -> str:
    lines = [f"{key} = {_format_value(v)}" for key, v in _flatten(cfg).items()]
    return "\n".join(lines) + "\n"


def _format_value(v: object) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, enum.Enum):
        return v.value
    return repr(v) if isinstance(v, float) else str(v)


def config_from_text(text: str) -> ScenarioConfig:
    cfg = default_config()
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in FILE_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            # a later value would silently override the earlier one
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        path, parse = FILE_KEYS[key]
        try:
            value = parse(val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}") from None
        cfg = _set(cfg, path.split("."), value)
    return cfg


def save_config(cfg: ScenarioConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(config_to_text(cfg))


def load_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_text(fh.read())
