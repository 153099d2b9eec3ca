"""hemptwin: stochastic digital twin of a ledger-backed hemp supply chain.

The package simulates lots moving from seed to finished CBD oil through a
queueing network of field, lab, drying, and processing resources, records
every hand-off on a simulated proof-of-authority ledger (two-layer sharded,
single-chain, or disabled), and decomposes the variance of final-product
quality across the random inputs with Shapley values.
"""

from .config import (
    ChainConfig,
    ConfigError,
    ConfigValidationError,
    RunConfig,
    ScenarioConfig,
    StageDuration,
    Topology,
    default_config,
    load_config,
    save_config,
    validate_config,
)
from .domain import (
    CannabinoidState,
    DropReason,
    Lot,
    LotOutput,
    RandomInputs,
    ReplicationStats,
    Stage,
)
from .kernel import EventCalendar, ResourcePool, TimeInPastError
from .ledger import (
    AuditResult,
    ChainState,
    DataRecord,
    LedgerSystem,
    ParticipantRole,
    RecordKind,
    RootBlock,
    ShardBlock,
    audit_chain,
    export_chain,
    parse_chain,
)
from .randomness import RngStream, sample_growth_noise
from .simulation import SupplyChainSimulation, run_replication

__version__ = "0.1.0"
