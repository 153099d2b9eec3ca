import enum
import importlib
import pkgutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hemptwin
from hemptwin.domain import CannabinoidState, Lot, Stage
from stage_order import MANDATORY_PATH, allowed_successors, validate_stage_trace


class TestCannabinoidState:
    def test_negative_fractions_rejected(self):
        with pytest.raises(ValueError):
            CannabinoidState(-0.01, 0.0)
        with pytest.raises(ValueError):
            CannabinoidState(0.0, -0.01)


class TestStageTraceValidator:
    def test_full_happy_path_is_valid(self):
        trace = [Stage.GERMINATION, Stage.SOIL_PREP] + list(MANDATORY_PATH[1:])
        assert validate_stage_trace(trace)

    def test_retest_loop_is_valid(self):
        trace = [
            Stage.GERMINATION, Stage.SOIL_PREP, Stage.TRANSPLANT,
            Stage.CULTIVATION, Stage.PREHARVEST_TEST, Stage.HARVEST,
            Stage.PREHARVEST_TEST, Stage.HARVEST, Stage.DRY_WAIT,
            Stage.DROPPED,
        ]
        assert validate_stage_trace(trace)

    def test_repeat_purification_loop_is_valid(self):
        trace = [
            Stage.GERMINATION, Stage.SOIL_PREP, Stage.TRANSPLANT,
            Stage.CULTIVATION, Stage.PREHARVEST_TEST, Stage.HARVEST,
            Stage.DRY_WAIT, Stage.DRYING, Stage.EXTRACT_WAIT, Stage.EXTRACTION,
            Stage.WINTERIZATION, Stage.PLC, Stage.FINAL_COA, Stage.PLC,
            Stage.FINAL_COA, Stage.FINISHED,
        ]
        assert validate_stage_trace(trace)

    def test_empty_trace_invalid(self):
        assert not validate_stage_trace([])

    def test_transplant_requires_both_preparations(self):
        assert not validate_stage_trace(
            [Stage.GERMINATION, Stage.TRANSPLANT, Stage.CULTIVATION]
        )

    @pytest.mark.parametrize("skip_index", range(2, len(MANDATORY_PATH) - 1))
    def test_skipping_any_mandatory_stage_is_rejected(self, skip_index):
        path = [Stage.GERMINATION, Stage.SOIL_PREP] + list(MANDATORY_PATH[1:])
        skipped = [s for s in path if s is not MANDATORY_PATH[skip_index]]
        assert not validate_stage_trace(skipped)

    def test_no_stage_after_terminal(self):
        trace = [Stage.GERMINATION, Stage.SOIL_PREP, Stage.DROPPED,
                 Stage.TRANSPLANT]
        assert not validate_stage_trace(trace)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_random_walks_over_successor_map_are_valid(self, data):
        trace = [Stage.GERMINATION, Stage.SOIL_PREP]
        current = Stage.TRANSPLANT
        trace.append(current)
        for _ in range(data.draw(st.integers(min_value=0, max_value=24))):
            nxt = allowed_successors(current)
            if not nxt:
                break
            current = data.draw(st.sampled_from(sorted(nxt, key=lambda s: s.value)))
            trace.append(current)
        assert validate_stage_trace(trace)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_illegal_jump_is_rejected(self, data):
        prefix = [Stage.GERMINATION, Stage.SOIL_PREP, Stage.TRANSPLANT,
                  Stage.CULTIVATION]
        current = prefix[-1]
        illegal = sorted(
            set(Stage) - allowed_successors(current) - {current},
            key=lambda s: s.value,
        )
        jump = data.draw(st.sampled_from(illegal))
        assert not validate_stage_trace(prefix + [jump])


class TestLot:
    def test_enter_stage_closes_previous(self):
        lot = Lot(id="x", season_index=0, index_in_season=0, arrival_time=0.0)
        lot.timestamps[Stage.GERMINATION] = (0.0, None)
        lot.enter_stage(Stage.TRANSPLANT, 7.0)
        assert lot.timestamps[Stage.GERMINATION] == (0.0, 7.0)
        lot.enter_stage(Stage.CULTIVATION, 9.0)
        assert lot.timestamps[Stage.TRANSPLANT] == (7.0, 9.0)

    def test_terminated_lot_cannot_move(self):
        lot = Lot(id="x", season_index=0, index_in_season=0, arrival_time=0.0)
        lot.terminated = True
        with pytest.raises(RuntimeError):
            lot.enter_stage(Stage.TRANSPLANT, 1.0)

    def test_history_is_append_only_record(self):
        lot = Lot(id="x", season_index=0, index_in_season=0, arrival_time=0.0)
        s1 = CannabinoidState(0.09, 0.003)
        s2 = CannabinoidState(0.07, 0.002)
        lot.record_state(Stage.CULTIVATION, s1)
        lot.record_state(Stage.EXTRACTION, s2)
        assert lot.cannabinoid_history == [
            (Stage.CULTIVATION, s1), (Stage.EXTRACTION, s2)
        ]
        assert lot.state == s2


def test_every_enum_of_the_package_hashes_by_identity():
    # enum.Enum.__hash__ runs in Python; a new enum that falls back to it
    # slows every dict lookup keyed by its members
    found = {}
    for info in pkgutil.iter_modules(hemptwin.__path__):
        module = importlib.import_module(f"hemptwin.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and issubclass(obj, enum.Enum)
                    and obj.__module__ == module.__name__):
                found[obj.__name__] = obj
    assert {"Stage", "DropReason", "RecordKind", "ParticipantRole", "Topology",
            "GateDecision"} <= found.keys()
    for name, cls in found.items():
        assert cls.__hash__ is object.__hash__, name
        for member in cls:
            assert hash(member) == object.__hash__(member), member


def test_every_name_in_a_module_all_resolves():
    # a stale entry breaks `from hemptwin.<module> import *`
    for info in pkgutil.iter_modules(hemptwin.__path__):
        module = importlib.import_module(f"hemptwin.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
