"""End-to-end supply chain replication: seasons of lots flowing through
germination, transplant, cultivation, testing, harvest, drying, extraction,
winterization, purification, and final certification, with every hand-off
recorded on the configured ledger.

One replication is one single-threaded deterministic run: seasons of n lots
arrive 365 days apart until `run.warmup + run.length` lots have terminated,
and the event that ends the last of them halts the calendar; statistics
cover the post-warmup terminations only.  Replications are independent and
may execute in parallel processes.

Timing couplings that drive the headline comparisons:
  * gate records (pre-harvest result, harvest data, final certificate) block
    the next stage until the ledger resolves them, so verification and
    confirmation delays consume real schedule budget;
  * harvested biomass must start drying within the dry-wait limit measured
    from harvest completion -- ledger delay plus dryer queueing past that
    limit loses the lot;
  * the sampling-to-harvest window t' is emergent (test queue, test time,
    ledger resolution, harvest queue, harvest time) and drives both the
    15-day deadline gate and the growth accrued between sample and harvest.
"""

from __future__ import annotations

import gc
import math

import numpy as np

from .config import DURATION_STAGES, ScenarioConfig, validate_config
from .domain import DropReason, Lot, LotOutput, ReplicationStats, Stage
from .kernel import EventCalendar, PoolRequest, ResourcePool
from .ledger import LedgerSystem, ParticipantRole, RecordKind
from .randomness import ROW_SLOTS, LotDraws, RngStream, sample_growth_noise
from . import stages

__all__ = ["SupplyChainSimulation", "run_replication"]


# How each drop reason (None: finished) ends a lot: the terminal stage and the
# ReplicationStats counter.
_ENDINGS = {
    None: (Stage.FINISHED, "finished_count"),
    DropReason.SEEDLING_WAIT_EXCEEDED: (Stage.DROPPED, "seedling_drop_count"),
    DropReason.DRY_WAIT_EXCEEDED: (Stage.DROPPED, "dry_drop_count"),
    DropReason.PREHARVEST_FAIL: (Stage.DESTROYED, "destroyed_preharvest_count"),
    DropReason.FINAL_COA_FAIL: (Stage.DESTROYED, "destroyed_final_count"),
}


def _sd(values: list[float]) -> float:
    return float(np.std(values, ddof=1)) if len(values) > 1 else 0.0


class SupplyChainSimulation:
    """One replication of the configured scenario."""

    def __init__(
        self, cfg: ScenarioConfig, replication_index: int, keep_chain: bool = False
    ) -> None:
        validate_config(cfg)
        self.cfg = cfg
        self.rep = replication_index
        # (lo, hi) of each timed stage, read once: a replication draws
        # thousands of durations
        self._durations = {stage: (cfg.duration(stage).lo, cfg.duration(stage).hi)
                           for stage in DURATION_STAGES}
        self.calendar = EventCalendar()
        self.base = RngStream(cfg.run.master_seed, ("rep", replication_index))
        self.ledger = LedgerSystem(
            self.calendar, cfg.chain, self.base.child("ledger"), keep_chain=keep_chain
        )
        cal = self.calendar
        self.field_pool = ResourcePool(cal, "field-workers", cfg.n_field_workers)
        self.lab_pool = ResourcePool(cal, "test-lab", cfg.n_lab_servers)
        # stabilizers that see the shared schedule size dryers to demand: a
        # lot that asks for one is never kept waiting, so n_d does not bind
        self.dryer_pool = ResourcePool(
            cal, "dryers", math.inf if cfg.dynamic_dryers else cfg.n_dryers
        )
        self.processor_pool = ResourcePool(cal, "processors", cfg.n_processors)

        target = cfg.run.warmup_lots + cfg.run.run_length_lots
        self._target = target
        self._max_seasons = -(-target // cfg.n_lots_per_season) + 2
        self._terminations = 0
        self.measured: list[Lot] = []

    # ------------------------------------------------------------------ run

    def run(self) -> ReplicationStats:
        self.calendar.schedule(0.0, lambda: self._season_start(0))
        # The cyclic collector is paused while the calendar runs.  Lots,
        # events and records are freed by reference counting; a replication
        # makes almost no reference cycles, so a collection during it would
        # scan objects still in use and free next to nothing.  The few cycles
        # it leaves are collected after it.
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.calendar.run()
        finally:
            if collecting:
                gc.enable()
        if not self.calendar.halted:
            raise RuntimeError(
                f"replication ended after {self._terminations} terminations, "
                f"needed {self._target}"
            )
        return self._collect_stats()

    # -------------------------------------------------------------- arrivals

    def _season_start(self, season: int) -> None:
        now = self.calendar.now
        if season + 1 < self._max_seasons:
            self.calendar.schedule(
                now + self.cfg.season_interval_days,
                lambda: self._season_start(season + 1),
            )
        # one block of uniforms for the season: lot i reads row 2i for its
        # `life` draws and row 2i+1 for its `tamper` draws, so switching
        # tampering on or off leaves every lot's `life` draws where they were
        base = self.base
        n = self.cfg.n_lots_per_season
        rows = base.child("season", season).random((2 * n, ROW_SLOTS)).tolist()
        for i in range(n):
            lot = Lot(
                id=f"lot-{season}-{i}",
                season_index=season,
                index_in_season=i,
                arrival_time=now,
                life=LotDraws(rows[2 * i], base, ("lot", season, i, "life")),
                tamper=LotDraws(rows[2 * i + 1], base, ("lot", season, i, "tamper")),
            )
            self._submit(lot, RecordKind.SEED_SOURCE, ParticipantRole.BREEDER,
                         {"variety": "special-sauce", "seed_lot": lot.id})
            self._submit(lot, RecordKind.FIELD_INFO, ParticipantRole.GROWER,
                         {"field": f"field-{i}", "grower": f"grower-{i}"})
            # germination and soil preparation run side by side from arrival;
            # the seedlings are ready for transplant when the later one ends
            germ = self._dur(lot, "germination")
            soil = self._dur(lot, "soil_prep")
            lot.trace += [(now, Stage.GERMINATION), (now, Stage.SOIL_PREP)]
            self.calendar.schedule(now + max(germ, soil),
                                   lambda lot=lot: self._ready_for_transplant(lot))

    def _ready_for_transplant(self, lot: Lot) -> None:
        req = self._step(lot, self.field_pool, Stage.TRANSPLANT, "transplant",
                         self._transplant_done)
        if req is not None:  # no field worker free: the seedlings wait, up to a limit
            self.calendar.schedule_in(
                self.cfg.seedling_wait_limit, lambda: self._seedling_timeout(lot, req)
            )

    def _seedling_timeout(self, lot, req) -> None:
        if req.granted or lot.terminated:
            return
        req.cancel()
        self._end(lot, DropReason.SEEDLING_WAIT_EXCEEDED)

    # ----------------------------------------------------- field operations

    def _transplant_done(self, lot: Lot) -> None:
        lot.enter_stage(Stage.CULTIVATION, self.calendar.now)
        t_c = self._dur(lot, "cultivation")
        lot.cultivation_days = t_c
        self.calendar.schedule_in(t_c, lambda: self._cultivation_done(lot))

    def _cultivation_done(self, lot: Lot) -> None:
        cfg = self.cfg
        eps = sample_growth_noise(
            cfg.growth_rate, lot.cultivation_days, cfg.lambda_var, lot.life.uniform()
        )
        lot.inputs.eps = eps
        lot.state = stages.cultivation_growth(
            cfg.growth_rate, lot.cultivation_days, cfg.cbd_thc_ratio, eps
        )
        self._submit(lot, RecordKind.CULTIVATION_DATA, ParticipantRole.GROWER,
                     {"cultivation_days": lot.cultivation_days})
        self._submit(lot, RecordKind.PREHARVEST_REQUEST, ParticipantRole.GROWER,
                     {"requested_at": self.calendar.now})
        self._enter_test_queue(lot)

    # ------------------------------------------------------ pre-harvest test

    def _enter_test_queue(self, lot: Lot) -> None:
        lot.enter_stage(Stage.PREHARVEST_TEST, self.calendar.now)
        self._step(lot, self.lab_pool, None, "preharvest_test", self._test_done)

    def _test_done(self, lot: Lot) -> None:
        cfg = self.cfg
        # the lab holds no stage of its own: the lot's last entry is still
        # PREHARVEST_TEST, entered when the sample was taken
        sampled_at = lot.trace[-1][0]
        result = stages.preharvest_gate(
            lot.state, cfg.thc_preharvest_limit,
            lambda: lot.tamper.bernoulli(cfg.tamper_probability),
        )
        if result.decision is stages.GateDecision.DESTROY:
            self._end(lot, DropReason.PREHARVEST_FAIL)
            on_resolved = None
        else:
            on_resolved = lambda ok, lot=lot, tampered=result.tampered: (
                self._preharvest_resolved(lot, ok, tampered))
        self._submit(
            lot, RecordKind.PREHARVEST_RESULT, ParticipantRole.LAB,
            {"cbd": lot.state.cbd_pct, "thc": result.reported,
             "sampled_at": sampled_at},
            tampered=result.tampered,
            on_resolved=on_resolved,
        )

    def _preharvest_resolved(self, lot: Lot, accepted: bool, tampered: bool) -> None:
        if lot.terminated:
            return
        if not accepted:
            # on-site validation exposed the falsified result; the true values
            # re-trigger the destruction the falsifier tried to dodge
            self._end(lot, DropReason.PREHARVEST_FAIL)
            return
        if tampered:
            lot.false_pass_preharvest = True
        delay = self.cfg.harvest_delay_days
        if delay > 0:
            self.calendar.schedule_in(delay, lambda: self._request_harvest(lot))
        else:
            self._request_harvest(lot)

    def _request_harvest(self, lot: Lot) -> None:
        if lot.terminated:
            return
        self._step(lot, self.field_pool, Stage.HARVEST, "harvest", self._harvest_done)

    def _harvest_done(self, lot: Lot) -> None:
        cfg = self.cfg
        now = self.calendar.now
        # the sample was taken at the PREHARVEST_TEST entry, which HARVEST follows
        t_prime = now - lot.trace[-2][0]
        eps_prime = sample_growth_noise(
            cfg.growth_rate, t_prime, cfg.lambda_var, lot.life.uniform()
        )
        lot.inputs.t_prime = t_prime
        lot.inputs.eps_prime = eps_prime
        lot.t_prime_legs.append(t_prime)
        lot.state = stages.harvest_increment(
            lot.state, cfg.growth_rate, t_prime, cfg.cbd_thc_ratio, eps_prime
        )

        result = stages.harvest_deadline_gate(
            t_prime, cfg.harvest_deadline_days,
            lambda: lot.tamper.bernoulli(cfg.tamper_probability),
        )
        if result.decision is stages.GateDecision.RETEST:
            self._enter_test_queue(lot)
            return
        # proceed: the biomass is wet from this moment; ledger resolution and
        # dryer queueing both burn the dry-wait budget
        lot.harvest_end = now
        lot.dry_episode += 1
        lot.dry_active = True
        lot.dryer_request = None
        self._submit(
            lot, RecordKind.HARVEST_DATA, ParticipantRole.GROWER,
            {"harvest_window_days": result.reported, "completed_at": now},
            tampered=result.tampered,
            on_resolved=lambda ok, lot=lot, tampered=result.tampered: (
                self._harvest_record_resolved(lot, ok, tampered)),
        )
        self.calendar.schedule(
            now + cfg.dry_wait_limit,
            lambda token=lot.dry_episode: self._dry_timeout(lot, token),
        )

    def _harvest_record_resolved(self, lot: Lot, accepted: bool, tampered: bool) -> None:
        if lot.terminated or not lot.dry_active:
            return
        if not accepted:
            # regulator uncovered the falsified completion date: back to testing
            lot.dry_active = False
            self._enter_test_queue(lot)
            return
        if tampered:
            lot.false_pass_harvest = True
        lot.enter_stage(Stage.DRY_WAIT, lot.harvest_end)
        lot.dryer_request = self.dryer_pool.request(
            lambda: self._drying_start(lot), lambda: self._drying_done(lot)
        )

    def _dry_timeout(self, lot: Lot, token: int) -> None:
        if lot.terminated or lot.dry_episode != token or not lot.dry_active:
            return
        if lot.dryer_request is not None:
            lot.dryer_request.cancel()
        lot.dry_active = False
        if lot.stage is not Stage.DRY_WAIT:
            # record still pending resolution; the biomass spoiled regardless
            lot.enter_stage(Stage.DRY_WAIT, lot.harvest_end)
        self._end(lot, DropReason.DRY_WAIT_EXCEEDED)

    # ------------------------------------------------------- stabilization

    def _drying_start(self, lot: Lot) -> float:
        # the lot is still dry-active: the dry-wait timeout cancels a queued
        # request, and an immediate grant comes from the accepted harvest record
        lot.dry_active = False
        self._submit(lot, RecordKind.TRANSPORT_DATA, ParticipantRole.TRANSPORTER,
                     {"from": f"grower-{lot.index_in_season}", "to": "dryer",
                      "shipped_at": self.calendar.now})
        lot.enter_stage(Stage.DRYING, self.calendar.now)
        return self._dur(lot, "drying")

    def _drying_done(self, lot: Lot) -> None:
        # drying removes moisture only; cannabinoid content is unchanged.
        # DRYING is the lot's last entry
        self._submit(lot, RecordKind.DRYING_DATA, ParticipantRole.DRYER,
                     {"drying_days": self.calendar.now - lot.trace[-1][0]})
        self._submit(lot, RecordKind.POST_STABILIZATION_TEST, ParticipantRole.DRYER,
                     {"cbd": lot.state.cbd_pct, "thc": lot.state.thc_pct})
        self._submit(lot, RecordKind.TRANSPORT_DATA, ParticipantRole.TRANSPORTER,
                     {"from": "dryer", "to": "processor",
                      "shipped_at": self.calendar.now})
        lot.enter_stage(Stage.EXTRACT_WAIT, self.calendar.now)
        self._step(lot, self.processor_pool, Stage.EXTRACTION, "extraction",
                   self._extraction_done)

    # -------------------------------------------------------- manufacturing

    def _extraction_done(self, lot: Lot) -> None:
        q = lot.life.uniform(self.cfg.extraction_lo, self.cfg.extraction_hi)
        lot.inputs.q_extract = q
        lot.state = stages.extraction_step(lot.state, q)
        self._submit(lot, RecordKind.EXTRACTION_DATA, ParticipantRole.PROCESSOR,
                     {"retained_fraction": q})
        self._step(lot, self.processor_pool, Stage.WINTERIZATION, "winterization",
                   self._winterization_done)

    def _winterization_done(self, lot: Lot) -> None:
        w = lot.life.uniform(self.cfg.winterization_lo, self.cfg.winterization_hi)
        lot.inputs.w_winter = w
        lot.state = stages.winterization_step(lot.state, w)
        self._submit(lot, RecordKind.WINTERIZATION_DATA, ParticipantRole.PROCESSOR,
                     {"retained_fraction": w})
        self._step(lot, self.processor_pool, Stage.PLC, "plc", self._plc_done)

    def _plc_done(self, lot: Lot) -> None:
        q_u = lot.life.uniform(self.cfg.plc_cbd_lo, self.cfg.plc_cbd_hi)
        q_v = lot.life.uniform(self.cfg.plc_thc_lo, self.cfg.plc_thc_hi)
        if lot.plc_passes == 0:
            lot.inputs.q_u = q_u
            lot.inputs.q_v = q_v
        lot.plc_passes += 1
        lot.state = stages.plc_step(lot.state, q_u, q_v)
        self._submit(lot, RecordKind.PLC_DATA, ParticipantRole.PROCESSOR,
                     {"pass": lot.plc_passes, "cbd_retained": q_u,
                      "thc_retained": q_v})
        lot.enter_stage(Stage.FINAL_COA, self.calendar.now)
        coa = self._dur(lot, "final_coa")
        if coa > 0:
            self.calendar.schedule_in(coa, lambda: self._coa_done(lot))
        else:
            self._coa_done(lot)

    def _coa_done(self, lot: Lot) -> None:
        cfg = self.cfg
        result = stages.final_coa_gate(
            lot.state, cfg.thc_final_limit, lot.plc_passes, cfg.max_plc_passes,
            lambda: lot.tamper.bernoulli(cfg.tamper_probability),
        )
        if result.decision is stages.GateDecision.REJECT:
            self._end(lot, DropReason.FINAL_COA_FAIL)
            return
        if result.decision is stages.GateDecision.REPEAT_PLC:
            self._step(lot, self.processor_pool, Stage.PLC, "plc", self._plc_done)
            return
        self._submit(
            lot, RecordKind.FINAL_COA, ParticipantRole.PROCESSOR,
            {"cbd": lot.state.cbd_pct, "thc": result.reported},
            tampered=result.tampered,
            on_resolved=lambda ok, lot=lot, tampered=result.tampered: (
                self._coa_resolved(lot, ok, tampered)),
        )

    def _coa_resolved(self, lot: Lot, accepted: bool, tampered: bool) -> None:
        if lot.terminated:
            return
        if not accepted:
            self._end(lot, DropReason.FINAL_COA_FAIL)
            return
        if tampered:
            lot.fake_qualified = True
        self._end(lot, None)

    # ----------------------------------------------------------- accounting

    def _step(self, lot: Lot, pool: ResourcePool, stage: Stage | None,
              duration_key: str, then) -> PoolRequest | None:
        """Serve `lot` at one server of `pool`.  On the grant it enters
        `stage` (None: entered at queue time) and holds the server for a
        `duration_key` draw; then the server is released and `then(lot)`
        runs.  Returns the request's handle if it had to queue, None if a
        server was free."""

        def hold() -> float:
            if stage is not None:
                lot.enter_stage(stage, self.calendar.now)
            return self._dur(lot, duration_key)

        return pool.request(hold, lambda: then(lot))

    def _end(self, lot: Lot, reason: DropReason | None) -> None:
        """Terminate `lot`: finished when `reason` is None, else dropped or
        destroyed for `reason`."""
        lot.enter_stage(_ENDINGS[reason][0], self.calendar.now)
        lot.drop_reason = reason
        lot.terminated = True
        self._terminations += 1
        cfgrun = self.cfg.run
        if cfgrun.warmup_lots < self._terminations <= self._target:
            self.measured.append(lot)
        if self._terminations >= self._target:
            self.calendar.halt()

    def _dur(self, lot: Lot, stage_key: str) -> float:
        lo, hi = self._durations[stage_key]
        return lot.life.uniform(lo, hi)

    def _submit(
        self,
        lot: Lot,
        kind: RecordKind,
        role: ParticipantRole,
        payload: dict,
        tampered: bool = False,
        on_resolved=None,
    ) -> None:
        if not self.ledger.shard_pools:  # no ledger: no record, face-value data
            if on_resolved is not None:
                on_resolved(True)
            return
        self.ledger.submit(lot.id, on_resolved, kind, role, lot.index_in_season,
                           payload, tampered)

    def _collect_stats(self) -> ReplicationStats:
        stats = ReplicationStats(replication_index=self.rep)
        measured_ids = {lot.id for lot in self.measured}
        stats.lots_observed = len(self.measured)
        for lot in self.measured:
            finished = lot.stage is Stage.FINISHED
            _, counter = _ENDINGS[lot.drop_reason]
            setattr(stats, counter, getattr(stats, counter) + 1)
            stats.false_pass_preharvest += lot.false_pass_preharvest
            stats.false_pass_harvest += lot.false_pass_harvest
            stats.fake_qualified += lot.fake_qualified
            stats.t_prime_samples.extend(lot.t_prime_legs)
            stats.lot_outputs.append(
                LotOutput(
                    lot_id=lot.id,
                    season=lot.season_index,
                    outcome=lot.stage.value,
                    drop_reason=lot.drop_reason.value if lot.drop_reason else None,
                    final_cbd=lot.state.cbd_pct if finished else None,
                    final_thc=lot.state.thc_pct if finished else None,
                    cycle_days=(lot.trace[-1][0] - lot.arrival_time)
                    if finished
                    else None,
                    t_prime=lot.t_prime_legs[-1] if lot.t_prime_legs else None,
                    false_pass_preharvest=lot.false_pass_preharvest,
                    false_pass_harvest=lot.false_pass_harvest,
                    fake_qualified=lot.fake_qualified,
                )
            )
        verifications, confirmations = [], []
        for lot_id, _, v, c in self.ledger.latencies:
            if lot_id in measured_ids:
                verifications.append(v)
                if c is not None:
                    confirmations.append(c)
        if verifications:
            stats.verification_mean = float(np.mean(verifications))
            stats.verification_sd = _sd(verifications)
        if confirmations:
            stats.confirmation_mean = float(np.mean(confirmations))
        return stats


def run_replication(
    cfg: ScenarioConfig, replication_index: int, keep_chain: bool = False
):
    """Run one replication; returns ReplicationStats, or (stats, simulation)
    when the chain is kept for export or audit."""
    sim = SupplyChainSimulation(cfg, replication_index, keep_chain=keep_chain)
    stats = sim.run()
    if keep_chain:
        return stats, sim
    return stats
