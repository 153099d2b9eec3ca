"""Shared domain types: lots, cannabinoid state, run statistics."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .kernel import PoolRequest
    from .randomness import LotDraws

__all__ = [
    "IdentityEnum",
    "Stage",
    "DropReason",
    "CannabinoidState",
    "RandomInputs",
    "Lot",
    "LotOutput",
    "ReplicationStats",
]


class IdentityEnum(enum.Enum):
    """Base of the package's enums: members hash by identity.

    `enum.Enum.__hash__` hashes the member's name in Python code, and a
    replication looks members up in dicts tens of thousands of times.  A
    member equals only itself, so identity hashing finds the same entries and
    leaves every dict's order as it was."""

    __hash__ = object.__hash__


class Stage(IdentityEnum):
    GERMINATION = "germination"
    SOIL_PREP = "soil_prep"
    TRANSPLANT = "transplant"
    CULTIVATION = "cultivation"
    PREHARVEST_TEST = "preharvest_test"
    HARVEST = "harvest"
    DRY_WAIT = "dry_wait"
    DRYING = "drying"
    EXTRACT_WAIT = "extract_wait"
    EXTRACTION = "extraction"
    WINTERIZATION = "winterization"
    PLC = "plc"
    FINAL_COA = "final_coa"
    FINISHED = "finished"
    DROPPED = "dropped"
    DESTROYED = "destroyed"


class DropReason(IdentityEnum):
    SEEDLING_WAIT_EXCEEDED = "seedling_wait_exceeded"
    DRY_WAIT_EXCEEDED = "dry_wait_exceeded"
    PREHARVEST_FAIL = "preharvest_fail"
    FINAL_COA_FAIL = "final_coa_fail"


@dataclass(frozen=True)
class CannabinoidState:
    """CBD and THC as fractions of dry mass (0.097 means 9.7%)."""

    cbd_pct: float
    thc_pct: float

    def __post_init__(self) -> None:
        if self.cbd_pct < 0 or self.thc_pct < 0:
            raise ValueError(
                f"cannabinoid fractions must be non-negative, got "
                f"({self.cbd_pct}, {self.thc_pct})"
            )

    def scaled(self, cbd_factor: float, thc_factor: float) -> "CannabinoidState":
        return CannabinoidState(self.cbd_pct * cbd_factor, self.thc_pct * thc_factor)


@dataclass
class RandomInputs:
    """Realized random input factors for one lot (first purification pass for
    the per-pass removal fractions)."""

    eps: float = 0.0
    t_prime: float = 0.0
    eps_prime: float = 0.0
    q_extract: float = 0.0
    w_winter: float = 0.0
    q_u: float = 0.0
    q_v: float = 0.0


FACTOR_NAMES = tuple(f.name for f in fields(RandomInputs))


@dataclass
class Lot:
    """A unit of product flowing through the chain.

    `trace` is the lot's path: an append-only list of (time, stage) pairs in
    simulated days, one per stage entered, revisits included.  A stage's span
    runs to the next entry, so a queue wait between process steps counts
    toward the stage the lot last entered.  `state` is its current
    cannabinoid content."""

    id: str
    season_index: int
    index_in_season: int
    arrival_time: float
    stage: Stage = Stage.GERMINATION
    trace: list = field(default_factory=list)
    drop_reason: DropReason | None = None
    inputs: RandomInputs = field(default_factory=RandomInputs)

    # lifecycle bookkeeping used by the simulation
    state: CannabinoidState = field(
        default_factory=lambda: CannabinoidState(0.0, 0.0)
    )
    t_prime_legs: list = field(default_factory=list)
    plc_passes: int = 0
    false_pass_preharvest: bool = False
    false_pass_harvest: bool = False
    fake_qualified: bool = False
    terminated: bool = False

    # process state owned by the simulation
    life: LotDraws | None = None  # stage durations, growth noise, fractions
    tamper: LotDraws | None = None  # falsification draws
    cultivation_days: float = 0.0
    harvest_end: float = 0.0
    dry_episode: int = 0  # harvests completed; stale dry-wait timeouts compare it
    dry_active: bool = False  # wet biomass waiting for or entering a dryer
    dryer_request: PoolRequest | None = None

    def enter_stage(self, stage: Stage, now: float) -> None:
        if self.terminated:
            raise RuntimeError(f"lot {self.id} already terminated")
        self.stage = stage
        self.trace.append((now, stage))


@dataclass
class LotOutput:
    """Per-lot outcome row for the measured window."""

    lot_id: str
    season: int
    outcome: str
    drop_reason: str | None
    final_cbd: float | None
    final_thc: float | None
    cycle_days: float | None
    t_prime: float | None
    false_pass_preharvest: bool
    false_pass_harvest: bool
    fake_qualified: bool


@dataclass
class ReplicationStats:
    """Counters and output samples for one replication's measured window."""

    replication_index: int
    lots_observed: int = 0
    finished_count: int = 0
    dry_drop_count: int = 0
    seedling_drop_count: int = 0
    destroyed_preharvest_count: int = 0
    destroyed_final_count: int = 0
    false_pass_preharvest: int = 0
    false_pass_harvest: int = 0
    fake_qualified: int = 0
    verification_mean: float = 0.0
    verification_sd: float = 0.0
    confirmation_mean: float = 0.0
    lot_outputs: list = field(default_factory=list)
    t_prime_samples: list = field(default_factory=list)

    @property
    def destroyed_count(self) -> int:
        return self.destroyed_preharvest_count + self.destroyed_final_count

    @property
    def dropped_count(self) -> int:
        return self.dry_drop_count + self.seedling_drop_count

    def rate(self, count: int) -> float:
        return count / self.lots_observed if self.lots_observed else 0.0
