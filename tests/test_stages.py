import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hemptwin.domain import CannabinoidState
from hemptwin.stages import (
    GateDecision,
    NegativeCannabinoidError,
    cultivation_growth,
    extraction_step,
    final_coa_gate,
    harvest_deadline_gate,
    harvest_increment,
    plc_step,
    preharvest_gate,
    winterization_step,
)


class TestCultivationGrowth:
    def test_reference_point_six_decimals(self):
        # direct evaluation: total = 0.0018*56 = 0.1008,
        # cbd = 0.1008*28/29, thc = 0.1008/29
        state = cultivation_growth(g=0.0018, t=56.0, r=28.0, eps=0.0)
        assert abs(state.cbd_pct - 0.097324) < 1e-6
        assert abs(state.thc_pct - 0.0034758) < 1e-6
        assert state.cbd_pct == pytest.approx(0.1008 * 28 / 29, rel=1e-12)
        assert state.thc_pct == pytest.approx(0.1008 / 29, rel=1e-12)

    def test_zero_time_zero_state(self):
        state = cultivation_growth(0.0018, 0.0, 28.0, 0.0)
        assert state.cbd_pct == 0.0 and state.thc_pct == 0.0

    def test_truncation_boundary_gives_zero(self):
        state = cultivation_growth(0.0018, 56.0, 28.0, eps=-0.0018 * 56)
        assert state.cbd_pct == 0.0 and state.thc_pct == 0.0

    def test_negative_total_rejected(self):
        with pytest.raises(NegativeCannabinoidError):
            cultivation_growth(0.0018, 56.0, 28.0, eps=-0.2)

    def test_ratio_is_exactly_r(self):
        state = cultivation_growth(0.0018, 56.0, 28.0, 0.01)
        assert state.cbd_pct / state.thc_pct == pytest.approx(28.0, rel=1e-12)


class TestHarvestIncrement:
    def test_reference_point(self):
        # direct evaluation: increment 0.0018*10 = 0.018 split 28:1
        start = CannabinoidState(0.097324, 0.0034758)
        state = harvest_increment(start, g=0.0018, t_prime=10.0, r=28.0, eps_prime=0.0)
        assert state.cbd_pct == pytest.approx(0.114703, abs=1e-6)
        assert state.thc_pct == pytest.approx(0.0040965, abs=1e-6)

    def test_zero_window_is_identity(self):
        start = CannabinoidState(0.08, 0.003)
        state = harvest_increment(start, 0.0018, 0.0, 28.0, 0.0)
        assert state == start

    def test_monotone_nondecreasing(self):
        start = CannabinoidState(0.08, 0.003)
        state = harvest_increment(start, 0.0018, 5.0, 28.0, 0.002)
        assert state.cbd_pct >= start.cbd_pct
        assert state.thc_pct >= start.thc_pct


class TestPreharvestGate:
    def test_below_threshold_proceeds(self):
        res = preharvest_gate(CannabinoidState(0.08, 0.0029), 0.003, falsify=lambda: False)
        assert res.decision is GateDecision.PROCEED
        assert res.reported == 0.0029 and not res.tampered

    def test_above_threshold_destroyed(self):
        res = preharvest_gate(CannabinoidState(0.097, 0.0035), 0.003, falsify=lambda: False)
        assert res.decision is GateDecision.DESTROY

    def test_tampered_failure_proceeds_with_passing_report(self):
        res = preharvest_gate(CannabinoidState(0.097, 0.0035), 0.003, falsify=lambda: True)
        assert res.decision is GateDecision.PROCEED
        assert res.reported <= 0.003
        assert res.tampered


class TestHarvestDeadlineGate:
    def test_within_limit(self):
        res = harvest_deadline_gate(12.0, 15.0, falsify=lambda: False)
        assert res.decision is GateDecision.PROCEED and res.reported == 12.0

    def test_late_honest_retests(self):
        res = harvest_deadline_gate(16.0, 15.0, falsify=lambda: False)
        assert res.decision is GateDecision.RETEST

    def test_late_tampered_reports_limit(self):
        res = harvest_deadline_gate(16.0, 15.0, falsify=lambda: True)
        assert res.decision is GateDecision.PROCEED
        assert res.reported <= 15.0 and res.tampered


class TestMultiplicativeSteps:
    def test_extraction_values(self):
        state = extraction_step(CannabinoidState(0.10, 0.004), 0.7)
        assert state.cbd_pct == pytest.approx(0.07)
        assert state.thc_pct == pytest.approx(0.0028)

    def test_extraction_identity(self):
        s = CannabinoidState(0.1, 0.004)
        assert extraction_step(s, 1.0) == s

    def test_winterization_values(self):
        state = winterization_step(CannabinoidState(0.07, 0.0028), 0.95)
        assert state.cbd_pct == pytest.approx(0.0665)
        assert state.thc_pct == pytest.approx(0.00266)

    def test_plc_values(self):
        state = plc_step(CannabinoidState(0.0665, 0.00266), 0.95, 0.4)
        assert state.cbd_pct == pytest.approx(0.063175)
        assert state.thc_pct == pytest.approx(0.001064)

    def test_two_plc_passes_compose(self):
        s = CannabinoidState(0.06, 0.002)
        out = plc_step(plc_step(s, 1.0, 0.5), 1.0, 0.5)
        assert out.thc_pct == pytest.approx(0.0005)  # 25% of the original

    def test_fraction_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            extraction_step(CannabinoidState(0.1, 0.004), 1.2)


class TestFinalCoaGate:
    def test_accepts_below_limit(self):
        res = final_coa_gate(CannabinoidState(0.06, 0.0004), 0.0005, 1, 2,
                             falsify=lambda: False)
        assert res.decision is GateDecision.ACCEPT

    def test_first_failure_repeats_purification(self):
        res = final_coa_gate(CannabinoidState(0.06, 0.0008), 0.0005, 1, 2,
                             falsify=lambda: False)
        assert res.decision is GateDecision.REPEAT_PLC

    def test_exhausted_honest_failure_rejected(self):
        res = final_coa_gate(CannabinoidState(0.06, 0.0008), 0.0005, 2, 2,
                             falsify=lambda: False)
        assert res.decision is GateDecision.REJECT

    def test_exhausted_tampered_accepts_with_false_report(self):
        res = final_coa_gate(CannabinoidState(0.06, 0.0008), 0.0005, 2, 2,
                             falsify=lambda: True)
        assert res.decision is GateDecision.ACCEPT
        assert res.reported < 0.0005 and res.tampered


class _Falsifier:
    """A `falsify` callable that answers `verdict` and counts its calls."""

    def __init__(self, verdict: bool) -> None:
        self.verdict = verdict
        self.calls = 0

    def __call__(self) -> bool:
        self.calls += 1
        return self.verdict


@settings(max_examples=300, deadline=None)
@given(
    gate=st.sampled_from(["preharvest", "harvest", "final"]),
    value=st.floats(min_value=0.0, max_value=1.0),
    limit=st.floats(min_value=1e-6, max_value=1.0),
    passes=st.integers(min_value=1, max_value=4),
    max_passes=st.integers(min_value=1, max_value=4),
    verdict=st.booleans(),
)
@example(gate="preharvest", value=0.5, limit=0.5, passes=1, max_passes=1, verdict=True)
@example(gate="final", value=0.5, limit=0.5, passes=2, max_passes=2, verdict=False)
def test_gates_ask_for_falsification_only_on_their_failing_path(
    gate, value, limit, passes, max_passes, verdict
):
    # the rule table each gate followed when its caller decided `tampered`
    # itself: asked only beyond the limit (the certificate: with passes used
    # up), a falsified report passes with a forged value, an honest one fails
    falsify = _Falsifier(verdict)
    state = CannabinoidState(0.05, value)
    if gate == "preharvest":
        res = preharvest_gate(state, limit, falsify)
        beyond = value > limit
        passing, failing, forged = GateDecision.PROCEED, GateDecision.DESTROY, limit * 0.95
    elif gate == "harvest":
        res = harvest_deadline_gate(value, limit, falsify)
        beyond = value > limit
        passing, failing, forged = GateDecision.PROCEED, GateDecision.RETEST, limit
    else:
        res = final_coa_gate(state, limit, passes, max_passes, falsify)
        beyond = value >= limit and passes >= max_passes
        passing, failing, forged = GateDecision.ACCEPT, GateDecision.REJECT, limit * 0.9
    assert falsify.calls == int(beyond)
    outcome = (res.decision, res.reported, res.tampered)
    if beyond and verdict:
        assert outcome == (passing, forged, True)
    elif beyond:
        assert outcome == (failing, value, False)
    elif gate == "final" and value >= limit:
        assert outcome == (GateDecision.REPEAT_PLC, value, False)
    else:
        assert outcome == (passing, value, False)


# ---------------------------------------------------------------------------
# laws


@settings(max_examples=200, deadline=None)
@given(
    eps=st.floats(min_value=-0.1, max_value=0.4),
    q=st.floats(min_value=1e-6, max_value=1.0),
    w=st.floats(min_value=1e-6, max_value=1.0),
)
def test_ratio_law_through_winterization(eps, q, w):
    # retention fractions bounded away from the subnormal-float regime, where
    # the quotient itself loses precision
    state = cultivation_growth(0.0018, 56.0, 28.0, max(eps, -0.1008))
    state = winterization_step(extraction_step(state, q), w)
    if state.thc_pct > 0:
        assert state.cbd_pct / state.thc_pct == pytest.approx(28.0, rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    q_u=st.floats(min_value=0.5, max_value=1.0),
    q_v=st.floats(min_value=0.0, max_value=0.5),
)
def test_purification_only_raises_ratio(q_u, q_v):
    state = CannabinoidState(0.0665, 0.00266)
    out = plc_step(state, q_u, q_v)
    if out.thc_pct > 0 and q_u > q_v:
        assert out.cbd_pct / out.thc_pct > state.cbd_pct / state.thc_pct


@settings(max_examples=200, deadline=None)
@given(
    q=st.floats(min_value=0.0, max_value=1.0),
    w=st.floats(min_value=0.0, max_value=1.0),
    q_v=st.floats(min_value=0.0, max_value=1.0),
)
def test_thc_never_increases_after_harvest(q, w, q_v):
    state = CannabinoidState(0.1147, 0.0041)
    levels = [state.thc_pct]
    state = extraction_step(state, q)
    levels.append(state.thc_pct)
    state = winterization_step(state, w)
    levels.append(state.thc_pct)
    state = plc_step(state, 1.0, q_v)
    levels.append(state.thc_pct)
    assert all(a >= b for a, b in zip(levels, levels[1:]))
