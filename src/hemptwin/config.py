"""Scenario configuration: every tunable, file round-tripping, validation.

The external format is a flat, human-readable ``key = value`` file with dotted
section names (``growth.g = 0.0018``).  Writing a config and parsing it back
is an identity.  `FILE_KEYS` is the one schema of that format: each key's
field path in `ScenarioConfig`, the parser of its value and the domain the
value must lie in.  Writing, reading and validation all read it.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter

from .domain import IdentityEnum

__all__ = [
    "Topology",
    "ChainConfig",
    "RunConfig",
    "StageDuration",
    "StageDurations",
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
    "MAX_COUNT",
]


class Topology(IdentityEnum):
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


@dataclass(frozen=True)
class StageDurations:
    """Uniform duration range, in days, of each timed stage."""

    germination: StageDuration = StageDuration(5.0, 10.0)
    soil_prep: StageDuration = StageDuration(1.0, 2.0)
    transplant: StageDuration = StageDuration(1.0, 2.0)
    cultivation: StageDuration = StageDuration(50.0, 60.0)
    preharvest_test: StageDuration = StageDuration(2.0, 7.0)
    harvest: StageDuration = StageDuration(1.0, 2.0)
    drying: StageDuration = StageDuration(1.0, 2.0)
    extraction: StageDuration = StageDuration(1.0, 2.0)
    winterization: StageDuration = StageDuration(1.0, 3.0)
    plc: StageDuration = StageDuration(1.0, 5.0)
    final_coa: StageDuration = StageDuration(0.0, 0.0)


DURATION_STAGES = tuple(f.name for f in fields(StageDurations))


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
    stage_durations: StageDurations = field(default_factory=StageDurations)

    def duration(self, stage: str) -> StageDuration:
        return getattr(self.stage_durations, stage)


def default_config() -> ScenarioConfig:
    """The baseline scenario used throughout the bundled experiments."""
    return ScenarioConfig()


def validate_config(cfg: ScenarioConfig) -> ScenarioConfig:
    """Return `cfg` if every invariant holds, else raise with all violations.

    Each key's value must be finite and in the key's domain (`FILE_KEYS`),
    and each `.lo` at most its `.hi`; then the rules that tie keys together
    run for the keys still in their domain, so a key reports at most one
    violation.
    """
    values = _flatten(cfg)
    bad: list[tuple[str, str, str]] = []
    for key, (_, _, domain) in FILE_KEYS.items():
        value = values[key]
        if isinstance(value, float) and not math.isfinite(value):
            bad.append((key, "invalid_range", f"{value} is not finite"))
        elif domain is not None and value not in domain:
            bad.append((key, domain.kind, f"{value} outside {domain}"))
    for key, lo in values.items():
        if key.endswith(".lo") and lo > (hi := values[key[:-3] + ".hi"]):
            bad.append((key[:-3], "invalid_range", f"lo {lo} > hi {hi}"))

    reported = {key for key, _, _ in bad}

    def tie(key: str, broken: bool, kind: str, msg: str) -> None:
        if broken and key not in reported:
            bad.append((key, kind, msg))

    tie("limits.gamma", cfg.thc_final_limit >= cfg.thc_preharvest_limit,
        "invalid_range", "final limit must be below the pre-harvest limit")
    tie("resources.n_d", cfg.n_dryers < 1 and not cfg.dynamic_dryers,
        "zero_resource", "no dryers and dynamic sizing disabled")
    for key in _TOPOLOGY_COUNTS.get(cfg.chain.topology, ()):
        tie(key, values[key] < 1, "zero_resource",
            f"{cfg.chain.topology.value} needs at least one")

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


@dataclass(frozen=True)
class _Domain:
    """The values a key may take, from `low` (excluded when `open_low`) to
    `high`; a value outside is a violation of `kind`."""

    low: float
    high: float = math.inf
    kind: str = "invalid_range"
    open_low: bool = False

    def __contains__(self, value) -> bool:
        above = value > self.low if self.open_low else value >= self.low
        return above and value <= self.high

    def __str__(self) -> str:
        return (f"{'(' if self.open_low else '['}{self.low:g}, {self.high:g}"
                f"{']' if self.high < math.inf else ')'}")


# Every count is at most MAX_COUNT, 100 times the largest that the tests and
# demos use.  Lots, replications, shards and servers are held in memory,
# and each lot keeps its two rows of 32 uniforms (about 2 kB) from its
# season's block, so an unbounded count would pass validation and then
# exhaust memory before the run got far.
MAX_COUNT = 100_000

_NONNEG = _Domain(0.0)
_POSITIVE = _Domain(0.0, open_low=True)
_SIZE = _Domain(0, MAX_COUNT)
_COUNT = _Domain(1, MAX_COUNT)
_SERVERS = _Domain(1, MAX_COUNT, kind="zero_resource")
_PROB = _Domain(0.0, 1.0, kind="invalid_probability")
_FRACTION = _Domain(0.0, 1.0)

# Every file key, mapped to its dotted field path in ScenarioConfig, the
# parser for its value and the domain of that value.  Writing, reading and
# validation all read this table.  The domain is None for the booleans and
# the topology.  A chain count may be 0 on a topology that does not use it;
# `_TOPOLOGY_COUNTS` asks for at least one where it does.
FILE_KEYS: dict[str, tuple[str, Callable[[str], object], _Domain | None]] = {
    "lots.n": ("n_lots_per_season", int, _COUNT),
    "lots.season_interval": ("season_interval_days", float, _NONNEG),
    "growth.g": ("growth_rate", float, _NONNEG),
    "growth.r": ("cbd_thc_ratio", float, _POSITIVE),
    "growth.lambda": ("lambda_var", float, _NONNEG),
    "limits.gamma_v": ("thc_preharvest_limit", float, _NONNEG),
    "limits.gamma": ("thc_final_limit", float, _NONNEG),
    "limits.harvest_deadline": ("harvest_deadline_days", float, _NONNEG),
    "limits.Lt": ("seedling_wait_limit", float, _NONNEG),
    "limits.Ld": ("dry_wait_limit", float, _NONNEG),
    "policy.harvest_delay": ("harvest_delay_days", float, _NONNEG),
    "policy.max_plc_passes": ("max_plc_passes", int, _COUNT),
    "resources.n_f": ("n_field_workers", int, _SERVERS),
    "resources.n_l": ("n_lab_servers", int, _SERVERS),
    "resources.n_d": ("n_dryers", int, _SIZE),
    "resources.n_p": ("n_processors", int, _SERVERS),
    "resources.dynamic_dryers": ("dynamic_dryers", _parse_bool, None),
    "chain.topology": ("chain.topology", _parse_topology, None),
    "chain.n_shards": ("chain.n_shards", int, _SIZE),
    "chain.n_s": ("chain.n_validators_per_shard", int, _SIZE),
    "chain.n_r": ("chain.n_regulators", int, _SIZE),
    "chain.mu_v": ("chain.verification_mean_days", float, _POSITIVE),
    "chain.mu_c": ("chain.confirmation_mean_days", float, _POSITIVE),
    "chain.mu_s": ("chain.single_chain_mean_days", float, _POSITIVE),
    "chain.miss_probability": ("chain.miss_probability", float, _PROB),
    "adversary.p2": ("tamper_probability", float, _PROB),
    "run.warmup": ("run.warmup_lots", int, _SIZE),
    "run.length": ("run.run_length_lots", int, _COUNT),
    "run.reps": ("run.replications", int, _COUNT),
    "run.seed": ("run.master_seed", int, _NONNEG),
    "fractions.extraction.lo": ("extraction_lo", float, _FRACTION),
    "fractions.extraction.hi": ("extraction_hi", float, _FRACTION),
    "fractions.winterization.lo": ("winterization_lo", float, _FRACTION),
    "fractions.winterization.hi": ("winterization_hi", float, _FRACTION),
    "fractions.plc_cbd.lo": ("plc_cbd_lo", float, _FRACTION),
    "fractions.plc_cbd.hi": ("plc_cbd_hi", float, _FRACTION),
    "fractions.plc_thc.lo": ("plc_thc_lo", float, _FRACTION),
    "fractions.plc_thc.hi": ("plc_thc_hi", float, _FRACTION),
    **{
        f"durations.{stage}.{end}": (f"stage_durations.{stage}.{end}", float, _NONNEG)
        for stage in DURATION_STAGES
        for end in ("lo", "hi")
    },
}

# The chain counts each topology serves with: each must be at least one.
_TOPOLOGY_COUNTS = {
    Topology.TWO_LAYER: ("chain.n_shards", "chain.n_s", "chain.n_r"),
    Topology.SINGLE_CHAIN: ("chain.n_r",),
}


def _set(obj, names: list[str], value):
    head, *rest = names
    if rest:
        value = _set(getattr(obj, head), rest, value)
    return replace(obj, **{head: value})


def _flatten(cfg: ScenarioConfig) -> dict[str, object]:
    return {key: attrgetter(path)(cfg) for key, (path, _, _) in FILE_KEYS.items()}


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
    # lines end at "\n" only: `str.splitlines` would also break a comment at
    # U+2028, U+0085, \x0c and the other Unicode line boundaries
    for lineno, raw in enumerate(text.split("\n"), start=1):
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
        path, parse, _ = FILE_KEYS[key]
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
    # newline="": lines end at "\n" only, so a lone "\r" stays in its line
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return config_from_text(fh.read())
