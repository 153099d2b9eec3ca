"""Acceptance suite: one test per criterion, at the stated tolerances.

The scenario comparisons run the baseline configuration at J=100
replications; the expensive replication packs are shared across criteria
through module-scoped fixtures.  Each test prints a one-line PASS summary;
pytest's own report gives the per-criterion pass/fail lines.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.special import ndtri

from hemptwin.cli import main
from hemptwin.config import RunConfig, Topology, default_config
from hemptwin.domain import Stage
from hemptwin.kernel import EventCalendar, ResourcePool
from hemptwin.ledger import audit_chain, export_chain, parse_chain
from hemptwin.randomness import RngStream
from hemptwin.reporting import run_replications
from hemptwin.riskmodel import collect_t_prime_samples, decompose_final_product
from hemptwin.shapley import shapley_exact, shapley_sampled
from hemptwin.simulation import run_replication
from hemptwin.stages import cultivation_growth
from seed_matrix import seed_matrix_model
from stage_order import CannabinoidTrail, entered

J_REPS = 100


def _with_topology(cfg, topology):
    return dataclasses.replace(
        cfg, chain=dataclasses.replace(cfg.chain, topology=topology)
    )


@pytest.fixture(scope="module")
def base_cfg():
    return default_config()


@pytest.fixture(scope="module")
def two_layer_runs(base_cfg):
    return run_replications(base_cfg, replications=J_REPS, parallel=2)


@pytest.fixture(scope="module")
def no_ledger_runs(base_cfg):
    return run_replications(
        _with_topology(base_cfg, Topology.NONE), replications=J_REPS, parallel=2
    )


@pytest.fixture(scope="module")
def single_chain_runs(base_cfg):
    return run_replications(
        _with_topology(base_cfg, Topology.SINGLE_CHAIN), replications=J_REPS,
        parallel=2,
    )


@pytest.fixture(scope="module")
def dynamic_dryer_runs(base_cfg):
    return run_replications(
        dataclasses.replace(base_cfg, dynamic_dryers=True), replications=J_REPS,
        parallel=2,
    )


@pytest.fixture(scope="module")
def risk_results(base_cfg):
    t_prime = collect_t_prime_samples(base_cfg, n_replications=2)
    cbd = decompose_final_product(
        base_cfg, "cbd", estimator="sampled", m_permutations=3000,
        k_outer=10, i_inner=100, macro_replications=10, t_prime_sample=t_prime,
    )
    thc = decompose_final_product(
        base_cfg, "thc", estimator="exact",
        k_outer=10, i_inner=100, macro_replications=10, t_prime_sample=t_prime,
    )
    return cbd, thc


def _rates(stats):
    return (
        100.0 * stats.rate(stats.false_pass_preharvest),
        100.0 * stats.rate(stats.false_pass_harvest),
        100.0 * stats.rate(stats.fake_qualified),
    )


def test_criterion_01_growth_model_unit_check():
    # g=0.0018/day over t=56 days at split ratio 28 with zero noise
    state = cultivation_growth(g=0.0018, t=56.0, r=28.0, eps=0.0)
    assert abs(state.cbd_pct - 0.097324) < 1e-6
    assert abs(state.thc_pct - 0.0034758) < 1e-6
    print("CRITERION 1 PASS: cbd=%.6f thc=%.7f" % (state.cbd_pct, state.thc_pct))


def test_criterion_02a_ledger_blocks_every_false_pass(two_layer_runs):
    for stats in two_layer_runs:
        assert stats.false_pass_preharvest == 0
        assert stats.false_pass_harvest == 0
        assert stats.fake_qualified == 0
    print(f"CRITERION 2a PASS: all three false-pass rates are exactly 0 in "
          f"every one of {len(two_layer_runs)} ledger-enabled replications")


def test_criterion_02b_no_ledger_rates_strictly_positive(no_ledger_runs):
    rates = np.array([_rates(s) for s in no_ledger_runs])
    means = rates.mean(axis=0)
    assert np.all(means > 0.0), means
    print(f"CRITERION 2b PASS: without the ledger the mean rates are "
          f"{means.round(2)} % (all strictly positive)")


def test_criterion_02c_no_ledger_rates_overlap_reported_intervals(no_ledger_runs):
    # reported mean +- sd intervals: (2.03 +- 1.23, 2.98 +- 2.28, 0.68 +- 0.69)
    reported = [(2.03, 1.23), (2.98, 2.28), (0.68, 0.69)]
    rates = np.array([_rates(s) for s in no_ledger_runs])
    failures = []
    for idx, (label, (rm, rs)) in enumerate(
        zip(("pre-harvest", "harvest", "final-quality"), reported)
    ):
        mean = rates[:, idx].mean()
        sd = rates[:, idx].std(ddof=1)
        lo, hi = mean - sd, mean + sd
        if hi < rm - rs or lo > rm + rs:
            failures.append(
                f"{label}: ours {mean:.2f}+-{sd:.2f} vs reported {rm}+-{rs}"
            )
    assert not failures, (
        "no-overlap on: " + "; ".join(failures) + " -- the configured growth "
        "parameters put the mean lot's pre-harvest THC above the destruction "
        "limit, so falsification opportunities occur at several times the "
        "reported frequency; see README, 'Two acceptance checks are expected "
        "to fail'"
    )
    print("CRITERION 2c PASS: all three intervals overlap")


def test_criterion_03_two_layer_beats_single_chain(
    two_layer_runs, single_chain_runs
):
    wins = sum(
        a.verification_mean < b.verification_mean
        for a, b in zip(two_layer_runs, single_chain_runs)
    )
    assert wins >= 95, f"two-layer faster in only {wins}/100 replications"
    fin_two = np.mean([s.finished_count for s in two_layer_runs])
    fin_one = np.mean([s.finished_count for s in single_chain_runs])
    dry_two = np.mean([s.dry_drop_count for s in two_layer_runs])
    dry_one = np.mean([s.dry_drop_count for s in single_chain_runs])
    assert fin_two > fin_one, (fin_two, fin_one)
    assert dry_two < dry_one, (dry_two, dry_one)
    print(f"CRITERION 3 PASS: verification faster in {wins}/100; finished "
          f"{fin_two:.1f} > {fin_one:.1f}; dry drops {dry_two:.2f} < {dry_one:.2f}")


def test_criterion_04_dynamic_dryers_cut_dry_drops(
    two_layer_runs, dynamic_dryer_runs
):
    dry_fixed = np.mean([s.dry_drop_count for s in two_layer_runs])
    dry_dynamic = np.mean([s.dry_drop_count for s in dynamic_dryer_runs])
    fin_fixed = np.mean([s.finished_count for s in two_layer_runs])
    fin_dynamic = np.mean([s.finished_count for s in dynamic_dryer_runs])
    assert dry_fixed >= 5.0 * dry_dynamic and dry_fixed > 0.0, (
        f"fixed-dryer dry drops {dry_fixed:.2f} vs dynamic {dry_dynamic:.2f}: "
        "the configured growth parameters destroy most lots before harvest, "
        "so the drying stage never saturates at the baseline arrival rate; "
        "see README, 'Two acceptance checks are expected to fail'"
    )
    assert fin_dynamic > fin_fixed, (fin_dynamic, fin_fixed)
    print(f"CRITERION 4 PASS: dry drops {dry_fixed:.2f} -> {dry_dynamic:.2f}; "
          f"finished {fin_fixed:.1f} -> {fin_dynamic:.1f}")


def test_criterion_05_decomposition_identity(risk_results):
    for decomp in risk_results:
        for res in decomp.results:
            assert res.s.sum() == pytest.approx(
                res.total_variance, rel=1e-9, abs=1e-18
            )
            if res.total_variance > 0:
                assert abs(float(np.sum(res.rc)) - 1.0) <= 0.05
    print("CRITERION 5 PASS: sum(s) equals the same-sample variance exactly "
          "and RC sums to 1 within 0.05 in every macro-replication")


def test_criterion_06_shapley_oracle():
    @seed_matrix_model
    def model(u):
        z = ndtri(np.clip(u, 1e-12, 1 - 1e-12))
        return z[:, 0] + z[:, 1] + 0.0 * z[:, 2]

    macro = 10
    exact = [
        shapley_exact(model, 3, 200, 200, seed=606, rep_index=j)
        for j in range(macro)
    ]
    se = np.vstack([r.s for r in exact])
    exact_mean = se.mean(axis=0)
    exact_err = se.std(axis=0, ddof=1) / math.sqrt(macro) + 1e-12
    target = np.array([1.0, 1.0, 0.0])
    assert np.all(np.abs(exact_mean - target) <= 3 * exact_err), (
        exact_mean, exact_err
    )
    sampled = [
        shapley_sampled(model, 3, 60, 200, 200, seed=607, rep_index=j)
        for j in range(macro)
    ]
    ss = np.vstack([r.s for r in sampled])
    pooled = np.sqrt(
        se.var(axis=0, ddof=1) / macro + ss.var(axis=0, ddof=1) / macro
    ) + 1e-12
    assert np.all(np.abs(ss.mean(axis=0) - exact_mean) <= 3 * pooled)
    print(f"CRITERION 6 PASS: exact s = {exact_mean.round(3)}; sampled m=60 "
          "agrees within 3 standard errors")


def test_criterion_07_risk_ranking_and_brackets(risk_results):
    cbd, thc = risk_results
    cbd_rc = dict(zip(cbd.labels, cbd.rc_mean))
    thc_rc = dict(zip(thc.labels, thc.rc_mean))
    assert max(cbd_rc, key=cbd_rc.get) == "eps"
    assert max(thc_rc, key=thc_rc.get) == "eps"
    assert 0.55 <= cbd_rc["eps"] <= 0.85, cbd_rc
    assert 0.45 <= thc_rc["eps"] <= 0.75, thc_rc
    ranked = sorted(thc_rc, key=thc_rc.get, reverse=True)
    assert set(ranked[1:3]) == {"q_v", "eps_prime"}, ranked
    print(f"CRITERION 7 PASS: eps leads with CBD {100*cbd_rc['eps']:.1f}% / "
          f"THC {100*thc_rc['eps']:.1f}%; THC runners-up {ranked[1:3]}")


def test_criterion_08_audit_detects_any_mutation(base_cfg):
    _, sim = run_replication(base_cfg, 0, keep_chain=True)
    chain = sim.ledger.chain
    assert audit_chain(chain).ok
    lines = export_chain(chain).splitlines()

    # single-byte payload mutation
    target_block = chain.shards[1][5]
    victim = target_block.records[0]
    mutated = []
    for line in lines:
        obj = json.loads(line)
        if obj.get("kind") == "record" and obj["record_id"] == victim:
            key = sorted(obj["payload"])[0]
            value = obj["payload"][key]
            obj["payload"][key] = (
                value + 1 if isinstance(value, (int, float)) else "X" + str(value)[1:]
            )
            mutated.append(json.dumps(obj, sort_keys=True, separators=(",", ":")))
        else:
            mutated.append(line)
    result = audit_chain(parse_chain("\n".join(mutated)))
    assert not result.ok
    assert (result.shard_id, result.height) == (1, 5)

    # block deletion
    kept = [
        line for line in lines
        if not (
            json.loads(line).get("kind") == "shard_block"
            and json.loads(line)["shard_id"] == 0
            and json.loads(line)["height"] == 3
        )
    ]
    result = audit_chain(parse_chain("\n".join(kept)))
    assert not result.ok
    assert result.height == 4 and "prev_hash" in result.reason
    print("CRITERION 8 PASS: clean export audits Ok; mutation and deletion "
          "located at their exact heights")


def test_criterion_09_byte_identical_reports(tmp_path):
    cfg_path = tmp_path / "det.cfg"
    cfg = dataclasses.replace(
        default_config(),
        run=RunConfig(warmup_lots=200, run_length_lots=500, replications=2,
                      master_seed=314159),
    )
    from hemptwin.config import save_config

    save_config(cfg, cfg_path)
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out),
                     "--format", "csv,json"]) == 0
        outputs.append(out)
    for fname in ("simulate.csv", "simulate.json", "simulate_lots.csv",
                  "chain_export.txt"):
        a = (outputs[0] / fname).read_bytes()
        b = (outputs[1] / fname).read_bytes()
        assert a == b, f"{fname} differs between identical runs"
    print("CRITERION 9 PASS: identical seeds give byte-identical reports and "
          "chain exports")


def test_criterion_10_property_suites():
    # ratio law + THC monotonicity + gate soundness + conservation over
    # ten thousand simulated lots with tampering disabled
    cfg = dataclasses.replace(
        _with_topology(default_config(), Topology.NONE),
        tamper_probability=0.0,
        run=RunConfig(warmup_lots=0, run_length_lots=1000, replications=1,
                      master_seed=1010),
    )
    checked = 0
    post_harvest = (Stage.EXTRACTION, Stage.WINTERIZATION, Stage.PLC)
    for rep in range(10):
        sim = CannabinoidTrail(cfg, rep)
        sim.run()
        finished = dropped = destroyed = 0
        for lot in sim.measured:
            checked += 1
            states = dict()
            thc_series = []
            harvest_seen = False
            for stage, state in sim.trail.get(lot.id, []):
                states.setdefault(stage, state)
                if stage is Stage.HARVEST:
                    # a retested lot harvests again; monotonicity starts at
                    # the final harvest
                    thc_series = [state.thc_pct]
                    harvest_seen = True
                elif harvest_seen and stage in post_harvest:
                    thc_series.append(state.thc_pct)
            for stage in (Stage.CULTIVATION, Stage.HARVEST, Stage.EXTRACTION,
                          Stage.WINTERIZATION):
                state = states.get(stage)
                if state is not None and state.thc_pct > 0:
                    assert state.cbd_pct / state.thc_pct == pytest.approx(
                        28.0, rel=1e-9
                    )
            assert all(a >= b - 1e-15 for a, b in zip(thc_series, thc_series[1:]))
            if entered(lot, Stage.DRYING):
                assert states[Stage.CULTIVATION].thc_pct <= cfg.thc_preharvest_limit
            if lot.stage is Stage.FINISHED:
                finished += 1
                assert lot.state.thc_pct < cfg.thc_final_limit
            elif lot.stage is Stage.DROPPED:
                dropped += 1
            else:
                destroyed += 1
        assert finished + dropped + destroyed == len(sim.measured) == 1000
    assert checked == 10_000

    # FIFO queue discipline
    cal = EventCalendar()
    pool = ResourcePool(cal, "fifo", capacity=2)
    order = []

    for name in range(20):
        pool.request(lambda name=name: order.append(name) or 1.0, lambda: None)
    cal.run()
    assert order == list(range(20))

    # stream reproducibility
    a = RngStream(777, ("check", 1))
    b = RngStream(777, ("check", 1))
    assert [a.uniform() for _ in range(100)] == [b.uniform() for _ in range(100)]
    print(f"CRITERION 10 PASS: property suites hold over {checked} lots")
