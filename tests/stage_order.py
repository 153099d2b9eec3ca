"""Test helpers: the stage-order oracle that every simulated lot's stage log
must satisfy, and a config builder that overrides stage durations."""

from dataclasses import replace

from hemptwin.config import ScenarioConfig, StageDuration
from hemptwin.domain import Stage

# The linear backbone every finished lot walks through, in order.  Germination
# and soil preparation run in parallel ahead of transplant; retest loops send a
# lot from HARVEST back to PREHARVEST_TEST; repeat purification loops PLC ->
# FINAL_COA -> PLC.
MANDATORY_PATH = (
    Stage.GERMINATION,
    Stage.TRANSPLANT,
    Stage.CULTIVATION,
    Stage.PREHARVEST_TEST,
    Stage.HARVEST,
    Stage.DRY_WAIT,
    Stage.DRYING,
    Stage.EXTRACT_WAIT,
    Stage.EXTRACTION,
    Stage.WINTERIZATION,
    Stage.PLC,
    Stage.FINAL_COA,
    Stage.FINISHED,
)

_SUCCESSORS: dict[Stage, frozenset[Stage]] = {
    Stage.GERMINATION: frozenset({Stage.TRANSPLANT, Stage.DROPPED}),
    Stage.SOIL_PREP: frozenset({Stage.TRANSPLANT, Stage.DROPPED}),
    Stage.TRANSPLANT: frozenset({Stage.CULTIVATION}),
    Stage.CULTIVATION: frozenset({Stage.PREHARVEST_TEST}),
    Stage.PREHARVEST_TEST: frozenset({Stage.HARVEST, Stage.DESTROYED}),
    Stage.HARVEST: frozenset({Stage.DRY_WAIT, Stage.PREHARVEST_TEST}),
    Stage.DRY_WAIT: frozenset({Stage.DRYING, Stage.DROPPED}),
    Stage.DRYING: frozenset({Stage.EXTRACT_WAIT}),
    Stage.EXTRACT_WAIT: frozenset({Stage.EXTRACTION}),
    Stage.EXTRACTION: frozenset({Stage.WINTERIZATION}),
    Stage.WINTERIZATION: frozenset({Stage.PLC}),
    Stage.PLC: frozenset({Stage.FINAL_COA}),
    Stage.FINAL_COA: frozenset({Stage.FINISHED, Stage.PLC, Stage.DESTROYED}),
    Stage.FINISHED: frozenset(),
    Stage.DROPPED: frozenset(),
    Stage.DESTROYED: frozenset(),
}


def allowed_successors(stage: Stage) -> frozenset[Stage]:
    return _SUCCESSORS[stage]


def validate_stage_trace(trace: list[Stage]) -> bool:
    """True iff `trace` follows the stage partial order without skipping a
    mandatory stage.  The trace is the sequence of entered stages; germination
    and soil preparation form an unordered prefix, and transplant requires
    both."""
    if not trace:
        return False
    pre = {Stage.GERMINATION, Stage.SOIL_PREP}
    seen_pre: set[Stage] = set()
    i = 0
    while i < len(trace) and trace[i] in pre:
        if trace[i] in seen_pre:
            return False
        seen_pre.add(trace[i])
        i += 1
    if Stage.GERMINATION not in seen_pre:
        return False
    rest = trace[i:]
    if not rest:
        return True  # still in preparation
    if rest[0] is Stage.TRANSPLANT and seen_pre != pre:
        return False
    if rest[0] not in _SUCCESSORS[Stage.GERMINATION]:
        return False
    terminal = {Stage.FINISHED, Stage.DROPPED, Stage.DESTROYED}
    current = rest[0]
    for nxt in rest[1:]:
        if current in terminal or nxt in pre:
            return False
        if nxt not in _SUCCESSORS[current]:
            return False
        current = nxt
    return True


def with_durations(cfg: ScenarioConfig, **overrides: StageDuration) -> ScenarioConfig:
    """`cfg` with the duration ranges of the named stages replaced."""
    return replace(cfg, stage_durations=replace(cfg.stage_durations, **overrides))
