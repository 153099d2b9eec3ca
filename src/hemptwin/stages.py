"""Cannabinoid evolution and the regulatory gates applied along the chain.

All quantities are fractions of dry mass.  Growth is linear in time with a
fixed CBD:THC split ratio r: a growth increment `delta` adds delta*r/(r+1)
CBD and delta/(r+1) THC, so the ratio stays exactly r until purification.
Downstream steps are multiplicative, and only purification may change the
ratio (it removes THC faster than CBD).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .domain import CannabinoidState, IdentityEnum

__all__ = [
    "GateDecision",
    "GateResult",
    "NegativeCannabinoidError",
    "cultivation_growth",
    "harvest_increment",
    "preharvest_gate",
    "harvest_deadline_gate",
    "extraction_step",
    "winterization_step",
    "plc_step",
    "final_coa_gate",
]


class NegativeCannabinoidError(ValueError):
    """Total cannabinoid would be negative: the noise truncation contract was
    violated upstream."""


class GateDecision(IdentityEnum):
    PROCEED = "proceed"
    DESTROY = "destroy"
    RETEST = "retest"
    ACCEPT = "accept"
    REPEAT_PLC = "repeat_plc"
    REJECT = "reject"


@dataclass(frozen=True)
class GateResult:
    """A gate's decision, the value reported on the record (THC, or the
    harvest window) and whether that report is falsified."""

    decision: GateDecision
    reported: float
    tampered: bool


def _split_increment(total: float, r: float) -> tuple[float, float]:
    return total * r / (r + 1.0), total / (r + 1.0)


def cultivation_growth(g: float, t: float, r: float, eps: float) -> CannabinoidState:
    """CBD/THC after cultivation: total g*t + eps split in ratio r."""
    if g < 0 or t < 0:
        raise ValueError(f"g and t must be non-negative, got g={g}, t={t}")
    if r <= 0:
        raise ValueError(f"ratio must be positive, got {r}")
    total = g * t + eps
    if total < 0:
        raise NegativeCannabinoidError(f"g*t + eps = {total} < 0")
    cbd, thc = _split_increment(total, r)
    return CannabinoidState(cbd, thc)


def harvest_increment(
    state: CannabinoidState, g: float, t_prime: float, r: float, eps_prime: float
) -> CannabinoidState:
    """Additional growth over the sampling-to-harvest window, same split."""
    if t_prime < 0:
        raise ValueError(f"t_prime must be non-negative, got {t_prime}")
    total = g * t_prime + eps_prime
    if total < 0:
        raise NegativeCannabinoidError(f"g*t' + eps' = {total} < 0")
    d_cbd, d_thc = _split_increment(total, r)
    return CannabinoidState(state.cbd_pct + d_cbd, state.thc_pct + d_thc)


def preharvest_gate(
    true_state: CannabinoidState, gamma_v: float, falsify: Callable[[], bool]
) -> GateResult:
    """Destroy the lot when sampled THC exceeds gamma_v, unless `falsify()`,
    asked only then, says the result is falsified; a falsified pass reports a
    value just under the limit."""
    if gamma_v <= 0:
        raise ValueError("gamma_v must be positive")
    thc = true_state.thc_pct
    if thc <= gamma_v:
        return GateResult(GateDecision.PROCEED, thc, False)
    if falsify():
        return GateResult(GateDecision.PROCEED, gamma_v * 0.95, True)
    return GateResult(GateDecision.DESTROY, thc, False)


def harvest_deadline_gate(
    t_prime: float, limit: float, falsify: Callable[[], bool]
) -> GateResult:
    """Harvest must complete within `limit` days of sampling.  Late lots are
    rescheduled for another test, unless `falsify()`, asked only then, says
    the completion date is falsified; that reports the limit itself as the
    window."""
    if t_prime < 0:
        raise ValueError(f"t_prime must be non-negative, got {t_prime}")
    if t_prime <= limit:
        return GateResult(GateDecision.PROCEED, t_prime, False)
    if falsify():
        return GateResult(GateDecision.PROCEED, limit, True)
    return GateResult(GateDecision.RETEST, t_prime, False)


def extraction_step(state: CannabinoidState, q: float) -> CannabinoidState:
    """Extraction keeps fraction q of both cannabinoids; ratio preserved."""
    _check_fraction("q", q)
    return state.scaled(q, q)


def winterization_step(state: CannabinoidState, w: float) -> CannabinoidState:
    """Winterization keeps fraction w of both cannabinoids."""
    _check_fraction("w", w)
    return state.scaled(w, w)


def plc_step(state: CannabinoidState, q_u: float, q_v: float) -> CannabinoidState:
    """One purification pass: keeps q_u of CBD and q_v of THC; with q_u > q_v
    the CBD:THC ratio strictly increases."""
    _check_fraction("q_u", q_u)
    _check_fraction("q_v", q_v)
    return state.scaled(q_u, q_v)


def final_coa_gate(
    state: CannabinoidState,
    gamma: float,
    plc_passes_used: int,
    max_passes: int,
    falsify: Callable[[], bool],
) -> GateResult:
    """Final certificate: THC below gamma is accepted; a first failure earns
    another purification pass; a failure with passes exhausted is rejected
    unless `falsify()`, asked only then, says the certificate is falsified."""
    if plc_passes_used < 1:
        raise ValueError("at least one purification pass must precede the test")
    thc = state.thc_pct
    if thc < gamma:
        return GateResult(GateDecision.ACCEPT, thc, False)
    if plc_passes_used < max_passes:
        return GateResult(GateDecision.REPEAT_PLC, thc, False)
    if falsify():
        return GateResult(GateDecision.ACCEPT, gamma * 0.9, True)
    return GateResult(GateDecision.REJECT, thc, False)


def _check_fraction(name: str, value: float) -> None:
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
