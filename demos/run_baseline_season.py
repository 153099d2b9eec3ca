"""
Walk one replication of the baseline scenario
=============================================

Fifty lots of hemp arrive together each season and flow through
germination, transplant, cultivation, the pre-harvest THC gate, harvest,
drying, extraction, winterization, purification, and the final
certificate.  Every hand-off is verified on a two-layer authority ledger.
This script runs a single replication and prints what happened to the
measured lots, then follows one finished lot through its whole journey.
"""

import collections
import dataclasses

from hemptwin import default_config
from hemptwin.config import RunConfig
from hemptwin.domain import Stage
from hemptwin.simulation import SupplyChainSimulation

# a shortened run so the demo finishes in about a second
cfg = dataclasses.replace(
    default_config(),
    run=RunConfig(warmup_lots=50, run_length_lots=200, replications=1,
                  master_seed=2024),
)

sim = SupplyChainSimulation(cfg, replication_index=0)
stats = sim.run()

print(f"measured lots: {stats.lots_observed}")
endings = collections.Counter(
    (out.outcome, out.drop_reason or "-") for out in stats.lot_outputs
)
for (outcome, reason), count in endings.most_common():
    print(f"  {outcome:12s} {reason:24s} {count:4d}")

print(f"\nmean ledger verification time: {stats.verification_mean:.3f} days")
print(f"mean ledger confirmation time: {stats.confirmation_mean:.3f} days")

# pick a finished lot and narrate its life
lot = next(l for l in sim.measured if l.stage is Stage.FINISHED)
print(f"\njourney of {lot.id}:")
for stage, (enter, exit_) in sorted(lot.timestamps.items(), key=lambda kv: kv[1][0]):
    span = "" if exit_ is None else f" -> day {exit_:7.2f}"
    print(f"  {stage.value:16s} day {enter:7.2f}{span}")
print("\ncannabinoid trail (fractions of dry mass):")
for stage, state in lot.cannabinoid_history:
    print(f"  after {stage.value:14s} CBD {state.cbd_pct:.5f}  THC {state.thc_pct:.6f}")
print(f"\nfinal product: CBD {lot.state.cbd_pct*100:.2f}%  "
      f"THC {lot.state.thc_pct*100:.4f}%  "
      f"(limit {cfg.thc_final_limit*100:.2f}%)")
