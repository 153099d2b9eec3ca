import ast
import dataclasses
import gc
import heapq
from pathlib import Path

import pytest

from hemptwin import ledger, simulation
from hemptwin.config import RunConfig, Topology, default_config
from hemptwin.domain import DropReason, Lot, ReplicationStats, Stage
from hemptwin.ledger import LedgerSystem, ParticipantRole, RecordKind
from hemptwin.randomness import ROW_SLOTS, LotDraws, RngStream
from hemptwin.simulation import _ENDINGS, SupplyChainSimulation, run_replication
from stage_order import CannabinoidTrail, entered, validate_stage_trace, with_durations


def small_cfg(**overrides):
    cfg = default_config()
    run = RunConfig(warmup_lots=0, run_length_lots=100, replications=1,
                    master_seed=4242)
    cfg = dataclasses.replace(cfg, run=run)
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def with_topology(cfg, topology):
    return dataclasses.replace(
        cfg, chain=dataclasses.replace(cfg.chain, topology=topology)
    )


@pytest.fixture(scope="module")
def baseline_stats():
    return run_replication(small_cfg(), 0)


def test_same_seed_same_statistics(baseline_stats):
    again = run_replication(small_cfg(), 0)
    assert again == baseline_stats


def test_different_replication_indices_differ(baseline_stats):
    other = run_replication(small_cfg(), 1)
    assert other != baseline_stats


def test_lot_conservation(baseline_stats):
    s = baseline_stats
    total = (
        s.finished_count
        + s.seedling_drop_count
        + s.dry_drop_count
        + s.destroyed_preharvest_count
        + s.destroyed_final_count
    )
    assert total == s.lots_observed == 100


def test_zero_warmup_single_season_window():
    cfg = small_cfg()
    cfg = dataclasses.replace(
        cfg, run=RunConfig(warmup_lots=0, run_length_lots=50, replications=1,
                           master_seed=7)
    )
    stats = run_replication(cfg, 0)
    assert stats.lots_observed == 50
    seasons = {out.season for out in stats.lot_outputs}
    assert seasons == {0}


def test_ledger_blocks_all_false_passes(baseline_stats):
    # on-site verification catches every falsified gate record
    assert baseline_stats.false_pass_preharvest == 0
    assert baseline_stats.false_pass_harvest == 0
    assert baseline_stats.fake_qualified == 0


@pytest.fixture()
def records_built(monkeypatch):
    """The `DataRecord`s the ledger builds from here on."""
    built = []
    record = ledger.DataRecord

    def counted(*args, **kwargs):
        built.append(record(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(ledger, "DataRecord", counted)
    return built


def test_disabled_ledger_lets_false_passes_through(records_built):
    # with no ledger the twin builds no record and logs no latency
    sim = SupplyChainSimulation(with_topology(small_cfg(), Topology.NONE), 0)
    stats = sim.run()
    assert records_built == [] and sim.ledger.latencies == []
    assert stats.false_pass_preharvest > 0
    assert stats.fake_qualified >= 0  # at least possible; preharvest must leak
    assert stats.verification_mean == stats.verification_sd == 0.0
    assert stats.confirmation_mean == 0.0


def test_disabled_ledger_accepts_instantly_and_never_detects():
    sim = SupplyChainSimulation(with_topology(small_cfg(), Topology.NONE), 0)
    lot = Lot(id="lot-0-0", season_index=0, index_in_season=0, arrival_time=0.0,
              life=None, tamper=None)
    resolutions = []
    sim._submit(lot, RecordKind.HARVEST_DATA, ParticipantRole.GROWER, {},
                tampered=True, on_resolved=resolutions.append)
    assert resolutions == [True]
    assert sim.calendar.now == 0.0 and len(sim.calendar) == 0
    assert sim.ledger.latencies == []


def test_ledger_puts_on_the_calendar_only_ends_a_lot_waits_for(monkeypatch):
    # every calendar event the ledger schedules ends a layer of a record
    # whose submitter waits for it; the other records still resolve
    from hemptwin.kernel import EventCalendar

    ledger_events = []
    schedule = EventCalendar.schedule

    def logged(calendar, at_time, action):
        if action.__module__ == "hemptwin.ledger":
            cells = dict(zip(action.__code__.co_freevars,
                             (cell.cell_contents for cell in action.__closure__)))
            ledger_events.append(cells["ticket"])
        schedule(calendar, at_time, action)

    monkeypatch.setattr(EventCalendar, "schedule", logged)
    sim = SupplyChainSimulation(with_topology(small_cfg(), Topology.TWO_LAYER), 0)
    sim.run()
    assert ledger_events
    assert all(ticket.on_resolved is not None for ticket in ledger_events)
    gates = {RecordKind.PREHARVEST_RESULT, RecordKind.HARVEST_DATA, RecordKind.FINAL_COA}
    assert {ticket.record_kind for ticket in ledger_events} <= gates
    assert {kind for _, kind, _, _ in sim.ledger.latencies} == set(RecordKind)


@pytest.mark.parametrize("topology", [Topology.TWO_LAYER, Topology.SINGLE_CHAIN],
                         ids=lambda t: t.value)
def test_a_ledger_builds_records_only_for_the_chain_it_keeps(records_built, topology):
    # a replication that keeps no chain builds no `DataRecord`, yet logs a
    # latency per record; one that keeps it builds exactly its chain's records
    cfg = with_topology(small_cfg(), topology)
    sim = SupplyChainSimulation(cfg, 0)
    sim.run()
    assert records_built == [] and sim.ledger.latencies
    _, kept = run_replication(cfg, 0, keep_chain=True)
    assert records_built == list(kept.ledger.chain.records.values())


@pytest.mark.parametrize("p2", [0.3, 0.9])
@pytest.mark.parametrize("seed", [4242, 97])
@pytest.mark.parametrize("topology", list(Topology), ids=lambda t: t.value)
def test_keeping_the_chain_changes_no_statistic(topology, seed, p2):
    # a ledger that keeps no chain resolves the records nobody awaits ahead
    # of their last end; the replication reads as one that keeps its chain
    cfg = with_topology(small_cfg(tamper_probability=p2), topology)
    cfg = dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, master_seed=seed))
    for j in (0, 1):
        kept, _ = run_replication(cfg, j, keep_chain=True)
        assert repr(run_replication(cfg, j)) == repr(kept)


def test_a_no_chain_single_chain_replication_tickets_only_gate_records(monkeypatch):
    # a record nobody awaits resolves at submission: it gets no ticket, and
    # nothing goes onto the ledger's heap of unawaited ends
    tickets, pushed = [], []
    ticket = ledger.RecordTicket
    monkeypatch.setattr(ledger, "RecordTicket",
                        lambda *args: tickets.append(ticket(*args)) or tickets[-1])
    sim = SupplyChainSimulation(with_topology(small_cfg(), Topology.SINGLE_CHAIN), 0)
    pending, heappush = sim.ledger._pending, heapq.heappush

    def logged(heap, item):
        if heap is pending:
            pushed.append(item)
        heappush(heap, item)

    monkeypatch.setattr(heapq, "heappush", logged)
    sim.run()
    assert pushed == []
    gates = {RecordKind.PREHARVEST_RESULT, RecordKind.HARVEST_DATA, RecordKind.FINAL_COA}
    assert tickets and all(t.on_resolved is not None for t in tickets)
    assert {t.record_kind for t in tickets} <= gates
    assert len(sim.ledger.latencies) > 2 * len(tickets)


def test_a_lots_preparation_is_one_event_at_its_later_end(monkeypatch):
    # germination and soil preparation run side by side from the lot's
    # arrival, each for its own draw; the transplant is requested when the
    # later one ends, by the one event a season start schedules per lot
    from hemptwin.kernel import EventCalendar

    cfg = small_cfg()
    draws, ready, per_start, starting = {}, {}, [], []
    dur, transplant = SupplyChainSimulation._dur, SupplyChainSimulation._ready_for_transplant
    season_start, schedule = SupplyChainSimulation._season_start, EventCalendar.schedule

    def logged_dur(sim, lot, key):
        draws[lot.id, key] = value = dur(sim, lot, key)
        return value

    def logged_ready(sim, lot):
        ready[lot.id] = sim.calendar.now
        transplant(sim, lot)

    def counted_start(sim, season):
        starting.append(0)
        season_start(sim, season)
        per_start.append(starting.pop())

    def counted_schedule(calendar, at_time, action):
        if starting:
            starting[-1] += 1
        schedule(calendar, at_time, action)

    monkeypatch.setattr(SupplyChainSimulation, "_dur", logged_dur)
    monkeypatch.setattr(SupplyChainSimulation, "_ready_for_transplant", logged_ready)
    monkeypatch.setattr(SupplyChainSimulation, "_season_start", counted_start)
    monkeypatch.setattr(EventCalendar, "schedule", counted_schedule)
    sim = SupplyChainSimulation(cfg, 0)
    sim.run()
    assert len(per_start) > 1
    assert per_start == [cfg.n_lots_per_season + 1] * len(per_start)
    assert sim.measured
    for lot in sim.measured:
        arrival = lot.arrival_time
        germ, soil = draws[lot.id, "germination"], draws[lot.id, "soil_prep"]
        assert lot.trace[:2] == [(arrival, Stage.GERMINATION), (arrival, Stage.SOIL_PREP)]
        assert ready[lot.id] == max(arrival + germ, arrival + soil)
        assert lot.trace[2][0] >= ready[lot.id]


def test_kept_record_ids_number_the_twins_submissions(monkeypatch):
    # each kept record is named `r` and its six-digit place in the order the
    # twin submitted records; rejected records leave their numbers unused
    submitted = []
    submit = LedgerSystem.submit

    def logged(system, lot_id, on_resolved, kind, *rest):
        submitted.append((lot_id, kind, system.calendar.now))
        submit(system, lot_id, on_resolved, kind, *rest)

    monkeypatch.setattr(LedgerSystem, "submit", logged)
    _, sim = run_replication(small_cfg(), 0, keep_chain=True)
    records = sim.ledger.chain.records
    assert 0 < len(records) < len(submitted)
    for rid, rec in records.items():
        number = int(rid[1:])
        assert rid == f"r{number:06d}"
        assert submitted[number - 1] == (rec.lot_id, rec.record_kind, rec.submitted_at)


def _recorded_run(monkeypatch, cfg, rep, slots=ROW_SLOTS):
    """Run replication `rep` with `slots` uniforms per lot row; returns the
    simulation, the labels of the streams derived with `child`, and every
    lot's draws, which keep their row, the row slots they read and whether
    they ran past the row."""
    built, draws = [], []
    child = RngStream.child

    def recording_child(stream, *extra):
        built.append(stream.label + extra)
        return child(stream, *extra)

    class RecordingDraws(LotDraws):
        def __init__(self, row, parent, suffix):
            super().__init__(row, parent, suffix)
            self.row, self.suffix, self.read, self.overflowed = row, suffix, [], False
            take = self._next

            def recorded():
                u = take()
                self.read.append(u)
                return u

            self._next = recorded
            draws.append(self)

        def _overflow(self):
            self.overflowed = True
            return super()._overflow()

    monkeypatch.setattr(RngStream, "child", recording_child)
    monkeypatch.setattr(simulation, "LotDraws", RecordingDraws)
    monkeypatch.setattr(simulation, "ROW_SLOTS", slots)
    sim = SupplyChainSimulation(cfg, rep)
    sim.run()
    monkeypatch.undo()
    return sim, built, draws


def test_a_season_draws_its_lots_randomness_in_one_block(monkeypatch):
    # one ("season", s) stream per started season; lot i's `life` draws are
    # row 2i of its block, its `tamper` draws row 2i+1, and no lot derives
    # a stream of its own while its rows last
    cfg = small_cfg()
    n = cfg.n_lots_per_season
    sim, built, draws = _recorded_run(monkeypatch, cfg, 5)
    seasons = [label[3] for label in built if label[2] == "season"]
    assert seasons == sorted({d.suffix[1] for d in draws}) == list(range(len(seasons)))
    assert len(seasons) < sim._max_seasons
    assert not any(d.overflowed for d in draws)
    assert [label for label in built if label[2] == "lot"] == []
    blocks = [RngStream(cfg.run.master_seed, ("rep", 5, "season", s))
              .random((2 * n, ROW_SLOTS)).tolist() for s in seasons]
    assert len(sim.measured) == 100
    for lot in sim.measured:
        s, i = lot.season_index, lot.index_in_season
        assert lot.life.suffix == ("lot", s, i, "life")
        assert lot.tamper.suffix == ("lot", s, i, "tamper")
        assert len(lot.life.read) >= 2  # germination and soil preparation
        assert lot.life.read == blocks[s][2 * i][:len(lot.life.read)]
        assert lot.tamper.read == blocks[s][2 * i + 1][:len(lot.tamper.read)]
    assert max(len(lot.life.read) for lot in sim.measured) >= 10


def test_a_lot_past_its_row_derives_its_own_stream(monkeypatch):
    # rows of 4 slots: every finished lot runs past its `life` row, and only
    # the rows that ran out derive the stream of their lot's label; the
    # replication still completes
    cfg = small_cfg()
    sim, built, draws = _recorded_run(monkeypatch, cfg, 5, slots=4)
    overflowed = [d for d in draws if d.overflowed]
    finished = [lot for lot in sim.measured if lot.stage is Stage.FINISHED]
    assert finished and all(lot.life.overflowed for lot in finished)
    assert ({label for label in built if label[2] == "lot"}
            == {("rep", 5) + d.suffix for d in overflowed})
    assert all(len(d.read) == 4 for d in overflowed)
    assert len(sim.measured) == 100


def test_tampering_leaves_every_lots_life_row_in_place(monkeypatch):
    # `life` and `tamper` draws come from separate rows, so the falsification
    # draws a tampering run makes shift none of a lot's `life` draws
    runs = []
    for p in (0.0, 0.9):
        cfg = dataclasses.replace(small_cfg(), tamper_probability=p)
        _, _, draws = _recorded_run(monkeypatch, cfg, 1)
        runs.append({d.suffix: d for d in draws})
    honest, tampering = runs
    assert honest.keys() & tampering.keys()
    assert any(tampering[k].read for k in tampering if k[3] == "tamper")
    for suffix in honest.keys() & tampering.keys():
        if suffix[3] == "life":
            a, b = honest[suffix], tampering[suffix]
            assert a.row == b.row
            common = min(len(a.read), len(b.read))
            assert a.read[:common] == b.read[:common]


def test_stats_read_the_latency_log_once(monkeypatch):
    reads = []
    latencies = LedgerSystem.latencies

    def counted(system):
        reads.append(system)
        return latencies.fget(system)

    sim = SupplyChainSimulation(small_cfg(), 0)
    sim.run()
    monkeypatch.setattr(LedgerSystem, "latencies", property(counted))
    sim._collect_stats()
    assert reads == [sim.ledger]


class _ThresholdFlags(SupplyChainSimulation):
    """Records, per lot, the flags that comparing the gate thresholds at
    each accepted gate record would set."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.by_threshold = {}

    def _flag(self, lot, name, beyond):
        if beyond:
            self.by_threshold.setdefault(lot.id, set()).add(name)

    def _preharvest_resolved(self, lot, accepted, tampered):
        if accepted and not lot.terminated:
            self._flag(lot, "false_pass_preharvest",
                       lot.state.thc_pct > self.cfg.thc_preharvest_limit)
        super()._preharvest_resolved(lot, accepted, tampered)

    def _harvest_record_resolved(self, lot, accepted, tampered):
        if accepted and not lot.terminated and lot.dry_active:
            self._flag(lot, "false_pass_harvest",
                       lot.t_prime_legs[-1] > self.cfg.harvest_deadline_days)
        super()._harvest_record_resolved(lot, accepted, tampered)

    def _coa_resolved(self, lot, accepted, tampered):
        if accepted and not lot.terminated:
            self._flag(lot, "fake_qualified",
                       lot.state.thc_pct >= self.cfg.thc_final_limit)
        super()._coa_resolved(lot, accepted, tampered)


def test_false_pass_flags_equal_the_gate_threshold_comparison():
    # a flag is set when the ledger accepts a falsified gate record; that is
    # the only way past a gate with a value beyond its threshold.  Scarce
    # field workers and lab servers make late harvests, so every flag occurs.
    cfg = with_topology(small_cfg(n_field_workers=5, n_lab_servers=3), Topology.TWO_LAYER)
    cfg = dataclasses.replace(
        cfg, chain=dataclasses.replace(cfg.chain, miss_probability=0.5),
        run=dataclasses.replace(cfg.run, run_length_lots=400))
    sim = _ThresholdFlags(cfg, 0)
    sim.run()
    flags = ("false_pass_preharvest", "false_pass_harvest", "fake_qualified")
    for name in flags:
        assert any(getattr(lot, name) for lot in sim.measured), name
    for lot in sim.measured:
        set_flags = {name for name in flags if getattr(lot, name)}
        assert set_flags == sim.by_threshold.get(lot.id, set()), lot.id


def test_gate_soundness_with_no_tampering():
    # with tampering off, no lot over the pre-harvest limit may reach drying
    # and no lot at/over the final limit may finish
    cfg = dataclasses.replace(
        with_topology(small_cfg(), Topology.NONE), tamper_probability=0.0
    )
    cfg = dataclasses.replace(
        cfg, run=RunConfig(warmup_lots=0, run_length_lots=400, replications=1,
                           master_seed=99)
    )
    sim = CannabinoidTrail(cfg, 0)
    sim.run()
    for lot in sim.measured:
        trail = sim.trail.get(lot.id, [])
        assert not trail or trail[-1][1] == lot.state, lot.id
        states = dict(trail)
        if entered(lot, Stage.DRYING):
            assert states[Stage.CULTIVATION].thc_pct <= cfg.thc_preharvest_limit
        if lot.stage is Stage.FINISHED:
            assert lot.state.thc_pct < cfg.thc_final_limit
        assert not (lot.false_pass_preharvest or lot.false_pass_harvest
                    or lot.fake_qualified)


def test_stage_traces_follow_partial_order(baseline_stats):
    sim = SupplyChainSimulation(small_cfg(), 0)
    sim.run()
    for lot in sim.measured:
        stages_entered = [s for _, s in lot.trace]
        assert validate_stage_trace(stages_entered), stages_entered


def test_lots_carry_only_declared_fields():
    sim = SupplyChainSimulation(small_cfg(), 0)
    sim.run()
    declared = {f.name for f in dataclasses.fields(Lot)}
    for lot in sim.measured:
        assert set(vars(lot)) == declared, lot.id


def test_every_record_kind_and_role_is_emitted():
    sim = SupplyChainSimulation(small_cfg(), 0, keep_chain=True)
    sim.run()
    records = sim.ledger.chain.records.values()
    assert {r.record_kind for r in records} == set(RecordKind)
    assert {r.role for r in records} == set(ParticipantRole)


@pytest.mark.parametrize("topology", list(Topology), ids=lambda t: t.value)
def test_trace_invariants(topology):
    # a lot's trace is its whole path: it starts with the arrival pair, never
    # runs back in time, ends in the lot's terminal stage, and shows every
    # revisit; a finished lot's cycle time is read from its last entry
    sim = SupplyChainSimulation(with_topology(small_cfg(), topology), 0)
    stats = sim.run()
    terminal = {Stage.FINISHED, Stage.DROPPED, Stage.DESTROYED}
    cycles = {out.lot_id: out.cycle_days for out in stats.lot_outputs}
    assert sim.measured
    for lot in sim.measured:
        trace = lot.trace
        times = [t for t, _ in trace]
        assert times == sorted(times), lot.id
        assert trace[:2] == [(lot.arrival_time, Stage.GERMINATION),
                             (lot.arrival_time, Stage.SOIL_PREP)], lot.id
        assert trace[-1][1] is lot.stage and lot.stage in terminal, lot.id
        stages_entered = [s for _, s in trace]
        assert stages_entered.count(Stage.HARVEST) == len(lot.t_prime_legs), lot.id
        assert stages_entered.count(Stage.PLC) == lot.plc_passes, lot.id
        if lot.stage is Stage.FINISHED:
            assert cycles[lot.id] == trace[-1][0] - lot.arrival_time, lot.id
        else:
            assert cycles[lot.id] is None, lot.id


def test_drying_days_are_the_drying_span_of_the_trace():
    # the DRYING_DATA payload is read off the trace: the time from the lot's
    # DRYING entry to its EXTRACT_WAIT entry, bit for bit
    sim = SupplyChainSimulation(small_cfg(), 0, keep_chain=True)
    sim.run()
    lots = {lot.id: lot for lot in sim.measured}
    checked = 0
    for record in sim.ledger.chain.records.values():
        lot = lots.get(record.lot_id)
        if record.record_kind is not RecordKind.DRYING_DATA or lot is None:
            continue
        entries = {s: t for t, s in lot.trace}
        span = entries[Stage.EXTRACT_WAIT] - entries[Stage.DRYING]
        assert record.payload["drying_days"] == span, lot.id
        checked += 1
    assert checked > 10


def test_destroyed_preharvest_lots_exceeded_limit():
    sim = SupplyChainSimulation(small_cfg(), 0)
    sim.run()
    destroyed = [
        lot for lot in sim.measured
        if lot.drop_reason is not None
        and lot.drop_reason.value == "preharvest_fail"
    ]
    assert destroyed
    for lot in destroyed:
        assert lot.state.thc_pct > small_cfg().thc_preharvest_limit


def test_common_random_numbers_align_through_preharvest_gate():
    # with tampering off, ledger latency only delays lots; the cultivation
    # states and the pre-harvest destroy decisions match the no-ledger run
    base = dataclasses.replace(small_cfg(), tamper_probability=0.0)
    ledger_sim = CannabinoidTrail(base, 0)
    ledger_sim.run()
    plain_sim = CannabinoidTrail(with_topology(base, Topology.NONE), 0)
    plain_sim.run()

    def first_states(sim):
        by_id = {}
        for lot in sim.measured:
            cultivation = [s for st, s in sim.trail.get(lot.id, [])
                           if st is Stage.CULTIVATION]
            if cultivation:
                by_id[lot.id] = cultivation[0]
        return by_id

    a, b = first_states(ledger_sim), first_states(plain_sim)
    shared = set(a) & set(b)
    assert len(shared) > 50
    for lot_id in shared:
        assert a[lot_id] == b[lot_id]

    destroyed_a = {l.id for l in ledger_sim.measured
                   if l.drop_reason and l.drop_reason.value == "preharvest_fail"}
    destroyed_b = {l.id for l in plain_sim.measured
                   if l.drop_reason and l.drop_reason.value == "preharvest_fail"}
    assert destroyed_a & set(b) == destroyed_b & set(a)


def test_verification_outcomes_all_verified_when_honest():
    cfg = dataclasses.replace(small_cfg(), tamper_probability=0.0)
    sim = SupplyChainSimulation(cfg, 0, keep_chain=True)
    sim.run()
    chain = sim.ledger.chain
    assert len(chain.records) > 500


def test_dynamic_dryers_never_slower_than_fixed():
    fixed = run_replication(small_cfg(), 3)
    dynamic = run_replication(dataclasses.replace(small_cfg(), dynamic_dryers=True), 3)
    assert dynamic.dry_drop_count <= fixed.dry_drop_count
    assert dynamic.finished_count >= fixed.finished_count


def test_dry_drops_emerge_under_dryer_scarcity_and_dynamic_policy_removes_them():
    # stress the stabilization stage: one slow dryer for full seasons
    from hemptwin.config import StageDuration

    scarce = with_durations(
        dataclasses.replace(small_cfg(), n_dryers=1), drying=StageDuration(2.0, 4.0)
    )
    fixed = run_replication(scarce, 0)
    assert fixed.dry_drop_count > 5
    dynamic = run_replication(
        dataclasses.replace(scarce, dynamic_dryers=True), 0
    )
    # demand-sized dryers remove nearly all of the loss
    assert dynamic.dry_drop_count <= fixed.dry_drop_count / 5
    assert dynamic.finished_count > fixed.finished_count


@pytest.mark.parametrize("topology", list(Topology))
def test_dynamic_dryers_never_queue_and_ignore_n_d(topology):
    # demand-sized dryers are an unbounded pool: with drying slow enough to
    # queue lots behind one fixed dryer, no lot waits for a dryer and the
    # dryer count changes nothing, down to the exported chain
    from hemptwin.config import StageDuration
    from hemptwin.ledger import export_chain

    base = with_durations(
        with_topology(small_cfg(dynamic_dryers=True), topology),
        drying=StageDuration(2.0, 4.0),
    )
    runs = []
    for n_dryers in (0, 3):
        stats, sim = run_replication(
            dataclasses.replace(base, n_dryers=n_dryers), 0, keep_chain=True
        )
        assert all(lot.dryer_request is None for lot in sim.measured)
        assert any(entered(lot, Stage.DRYING) for lot in sim.measured)
        runs.append((stats, export_chain(sim.ledger.chain)))
    assert runs[0] == runs[1]


def test_gate_records_block_stage_progression():
    # a lot may not start drying until its harvest record has cleared both
    # ledger layers: the gap between harvest completion and drying start must
    # cover that record's verification + confirmation time
    sim = SupplyChainSimulation(small_cfg(), 0)
    sim.run()
    harvest_latency = {}
    for lot_id, kind, verif, conf in sim.ledger.latencies:
        if kind is RecordKind.HARVEST_DATA and verif is not None and conf is not None:
            harvest_latency[lot_id] = verif + conf
    checked = 0
    for lot in sim.measured:
        drying = [t for t, s in lot.trace if s is Stage.DRYING]
        latency = harvest_latency.get(lot.id)
        if not drying or latency is None:
            continue
        assert drying[0] - lot.harvest_end >= latency - 1e-9, lot.id
        checked += 1
    assert checked > 10


def test_stage_outcomes_recorded_at_decision_points():
    # scarce field workers and one slow dryer: every drop reason occurs
    from hemptwin.config import StageDuration

    cfg = with_durations(dataclasses.replace(
        small_cfg(), n_field_workers=5, n_dryers=1,
        run=RunConfig(warmup_lots=0, run_length_lots=200, replications=1,
                      master_seed=4242),
    ), drying=StageDuration(2.0, 4.0))
    sim = SupplyChainSimulation(cfg, 0)
    sim.run()
    # reason -> (terminal stage, stages the lot can end from)
    ending = {
        None: (Stage.FINISHED, {Stage.FINAL_COA}),
        "seedling_wait_exceeded":
            (Stage.DROPPED, {Stage.GERMINATION, Stage.SOIL_PREP}),
        "dry_wait_exceeded": (Stage.DROPPED, {Stage.DRY_WAIT}),
        "preharvest_fail": (Stage.DESTROYED, {Stage.PREHARVEST_TEST}),
        "final_coa_fail": (Stage.DESTROYED, {Stage.FINAL_COA}),
    }
    seen_reasons = set()
    seen_steps = set()
    for lot in sim.measured:
        reason = lot.drop_reason.value if lot.drop_reason else None
        seen_reasons.add(reason)
        terminal, ended_from = ending[reason]
        stages_entered = [s for _, s in lot.trace]
        assert lot.stage is terminal and stages_entered[-1] is terminal, lot.id
        assert stages_entered[-2] in ended_from, lot.id
        seen_steps.update(zip(stages_entered, stages_entered[1:]))
    assert seen_reasons == set(ending)
    assert (Stage.PREHARVEST_TEST, Stage.HARVEST) in seen_steps


def test_every_ending_has_one_row():
    # a DropReason without a row would first fail at a lot's termination
    assert set(_ENDINGS) == set(DropReason) | {None}
    counters = {f.name for f in dataclasses.fields(ReplicationStats)
                if f.type in (int, "int")}
    for terminal, counter in _ENDINGS.values():
        assert terminal in (Stage.FINISHED, Stage.DROPPED, Stage.DESTROYED)
        assert counter in counters
    assert len({counter for _, counter in _ENDINGS.values()}) == len(_ENDINGS)


@pytest.mark.parametrize("enabled", [True, False])
def test_run_pauses_the_collector_and_restores_it(monkeypatch, enabled):
    sim = SupplyChainSimulation(small_cfg(), 0)
    seen = []

    def failing_run():
        seen.append(gc.isenabled())
        raise ValueError("calendar failed")

    monkeypatch.setattr(sim.calendar, "run", failing_run)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(ValueError):
            sim.run()
        assert seen == [False]
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_stage_durations_within_configured_bounds():
    # each held stage is measured at its own end event, `_<stage>_done`, from
    # the entry that began it; the trace would also count a queue wait after
    # EXTRACTION or WINTERIZATION toward that stage
    held = (Stage.TRANSPLANT, Stage.CULTIVATION, Stage.DRYING, Stage.EXTRACTION,
            Stage.WINTERIZATION)
    spans = []

    def measured_at_end(stage):
        done = getattr(SupplyChainSimulation, f"_{stage.value}_done")

        def handler(self, lot):
            since, last = lot.trace[-1]
            assert last is stage, lot.id
            spans.append((lot.id, stage, self.calendar.now - since))
            done(self, lot)
        return handler

    timed = type("Timed", (SupplyChainSimulation,),
                 {f"_{stage.value}_done": measured_at_end(stage) for stage in held})
    cfg = small_cfg()
    sim = timed(cfg, 0)
    sim.run()
    measured = {lot.id for lot in sim.measured}
    checked = 0
    for lot_id, stage, elapsed in spans:
        if lot_id not in measured:
            continue
        dur = cfg.duration(stage.value)
        assert dur.lo - 1e-9 <= elapsed <= dur.hi + 1e-9, (lot_id, stage)
        checked += 1
    assert checked > 100


def test_run_length_window_excludes_warmup():
    cfg = dataclasses.replace(
        small_cfg(),
        run=RunConfig(warmup_lots=50, run_length_lots=50, replications=1,
                      master_seed=11),
    )
    stats = run_replication(cfg, 0)
    assert stats.lots_observed == 50
    # warmup discards the first full season here, so season 0 cannot appear
    assert {out.season for out in stats.lot_outputs} == {1}


def test_gate_limits_are_compared_only_in_stages():
    # the simulation hands each gate limit to `stages`, which alone decides
    # pass or fail and when a falsification is drawn
    tree = ast.parse(Path(simulation.__file__).read_text())
    limits = {"thc_preharvest_limit", "thc_final_limit", "harvest_deadline_days",
              "max_plc_passes"}
    read = [
        (compare.lineno, node.attr)
        for compare in ast.walk(tree) if isinstance(compare, ast.Compare)
        for node in ast.walk(compare)
        if isinstance(node, ast.Attribute) and node.attr in limits
    ]
    assert read == []
