"""The benchmark's three workloads.

Each workload is a closed loop with one caller: the benchmark runs a round,
waits for it, checks its outputs and starts the next.  The workload seed
becomes ``run.master_seed``; the program sees only the generated config.
Every round repeats the same inputs, so its outputs (and their digest) must
repeat exactly within a run.

A workload object is built by its set-up (imports, config build and
validation, and for shapley-decompose the t' collection) and exposes:

* ``round()`` -> ``RoundResult``: timings of the program calls only, the
  operations attempted and failed, a digest of the outputs, and simulated
  statistics;
* ``op_parts`` and ``op_scale``: the timed calls that make up one operation;
  their medians, summed and scaled, give the cost of one operation;
* ``close()`` to remove its scratch files.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import heapq
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

# Program calls are timed in CPU time of this process: on a shared host the
# time a runnable process waits for a CPU (or its virtual CPU waits for the
# host) swings wall-clock timings by tens of percent from run to run, and CPU
# time leaves that wait out.  Neighbours on the same core still slow the CPU
# itself, by up to half, in phases of seconds to minutes; so each timed call
# is also divided by the CPU time of a fixed reference loop run just before
# and just after it, which those phases slow alike.  The program runs in this
# one thread (replications serially, BLAS pinned to one thread by run.py).
clock = time.process_time
REFERENCE_EVENTS = 3000


class _RefEvent:
    __slots__ = ("t", "kind", "lot")

    def __init__(self, t: float, kind: int, lot: str) -> None:
        self.t = t
        self.kind = kind
        self.lot = lot


def reference_loop() -> dict:
    """A fixed workload in the program's style, about 7 ms on a 2-vCPU Xeon
    VM: an event heap of small objects, numpy scalar draws, dict updates and
    float arithmetic.  It never changes, so the ratio of a program call to it
    moves only with the program."""
    import numpy as np

    rng = np.random.default_rng(1)
    heap: list = []
    totals: dict = {}
    for i in range(REFERENCE_EVENTS):
        ev = _RefEvent(i * 0.5, i % 7, f"L{i % 50}")
        heapq.heappush(heap, (float(rng.random()) * 100.0, i, ev))
    while heap:
        t, i, ev = heapq.heappop(heap)
        totals[ev.kind] = totals.get(ev.kind, 0.0) + t * 0.5 + ev.t
        if i % 3 == 0 and t < 50.0:
            later = _RefEvent(t, (ev.kind + 1) % 7, ev.lot)
            heapq.heappush(heap, (t + 60.0, i + 100_000, later))
    return totals


def _reference_time() -> float:
    t0 = clock()
    reference_loop()
    return clock() - t0


@dataclass
class RoundResult:
    timings: dict = field(default_factory=dict)  # sample kind -> [CPU seconds, ...]
    ratios: dict = field(default_factory=dict)  # sample kind -> [call / reference loop, ...]
    reference: list = field(default_factory=list)  # CPU seconds of each reference loop
    busy: float = 0.0  # CPU seconds spent inside the program's calls
    failed: set = field(default_factory=set)  # keys of operations that failed a check
    reasons: list = field(default_factory=list)
    digest: str = ""
    stats: dict = field(default_factory=dict)  # simulated statistics and exact counts

    def fail(self, key, reason: str) -> None:
        self.failed.add(key)
        self.reasons.append(f"{key}: {reason}")

    def time(self, kind: str, fn, *args, **kwargs):
        """Call fn between two reference loops; record its CPU time and its
        ratio to the mean of the two loops.  Returns fn's result and its time."""
        before = _reference_time()
        t0 = clock()
        out = fn(*args, **kwargs)
        dt = clock() - t0
        after = _reference_time()
        self.busy += dt
        self.timings.setdefault(kind, []).append(dt)
        self.ratios.setdefault(kind, []).append(2.0 * dt / (before + after))
        self.reference += [before, after]
        return out, dt


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode("utf-8"))
    return h.hexdigest()


def _config(seed: int, tiny: bool, **run):
    """The default scenario with the workload seed as master seed; `run`
    overrides the run sizes, and tiny inputs shrink everything."""
    from hemptwin import config

    cfg = config.default_config()
    if tiny:
        cfg = dataclasses.replace(cfg, n_lots_per_season=10)
        run = dict(warmup_lots=10, run_length_lots=20)
    run = dataclasses.replace(cfg.run, master_seed=seed, **run)
    return config.validate_config(dataclasses.replace(cfg, run=run))


class _DigestMemory:
    """First digest seen per key; later rounds must reproduce it."""

    def __init__(self) -> None:
        self.first: dict = {}

    def check(self, res: RoundResult, key, digest: str) -> None:
        expected = self.first.setdefault(key, digest)
        if digest != expected:
            res.fail(key, "output digest differs from the first round")


class ComparePack:
    """``reporting.run_replications(parallel=1)`` over one fixed block of
    replication indices for TwoLayer, SingleChain and None (common random
    numbers), then ``reporting.build_table``: what ``hemptwin compare``
    computes, without the file writes.  One operation is one replication; its
    time is the mean over the three topologies."""

    name = "compare-pack"
    op_kind = "rep"
    rate_name = "reps_per_s"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        from hemptwin import config, reporting

        self._reporting = reporting
        base = _config(seed, tiny)
        self.run_length = base.run.run_length_lots
        self.block = 1  # one replication per sample: short, so many samples a run
        self.variants = []
        for topology in config.Topology:
            cfg = dataclasses.replace(
                base, chain=dataclasses.replace(base.chain, topology=topology)
            )
            self.variants.append((topology.value, config.validate_config(cfg)))
        self.ops_per_round = len(self.variants) * self.block
        self.op_parts = tuple(f"rep.{label}" for label, _ in self.variants)
        self.op_scale = 1.0 / len(self.variants)
        self._memory = _DigestMemory()

    def round(self) -> RoundResult:
        rp = self._reporting
        res = RoundResult(timings={"rep": []})
        variant_reps = []
        for label, cfg in self.variants:
            reps, dt = res.time(f"rep.{label}", rp.run_replications, cfg, self.block, parallel=1)
            res.timings["rep"].append(dt)
            variant_reps.append((label, reps))
        t0 = clock()
        table = rp.build_table("compare", rp.ALL_METRICS, variant_reps)
        dt = clock() - t0
        res.busy += dt
        res.timings["build_table"] = [dt]

        all_reps = []
        for label, reps in variant_reps:
            if len(reps) != self.block:
                res.fail((label, "block"), f"{len(reps)} replications returned, expected {self.block}")
            for stats in reps:
                key = (label, stats.replication_index)
                all_reps.append(stats)
                if stats.lots_observed != self.run_length:
                    res.fail(key, f"{stats.lots_observed} lots measured, run.length is "
                                  f"{self.run_length}")
                outcomes = stats.finished_count + stats.dropped_count + stats.destroyed_count
                if outcomes != stats.lots_observed:
                    res.fail(key, f"outcome counts sum to {outcomes}, "
                                  f"lots_observed is {stats.lots_observed}")
                self._memory.check(res, key, _sha(stats))
        res.digest = _sha(all_reps, table.to_csv())
        res.stats = {
            "finished": sum(r.finished_count for r in all_reps),
            "dropped": sum(r.dropped_count for r in all_reps),
            "destroyed": sum(r.destroyed_count for r in all_reps),
            "verification_mean_days": _mean(r.verification_mean for r in all_reps),
            "confirmation_mean_days": _mean(r.confirmation_mean for r in all_reps),
        }
        return res

    def close(self) -> None:
        pass


class SimulateAudit:
    """In-process ``hemptwin simulate --reps 1`` (which keeps and exports the
    chain), then ``hemptwin audit`` on the clean export and on a copy with one
    record's payload altered.  One operation is one such cycle."""

    name = "simulate-audit"
    op_kind = "cycle"
    rate_name = "cycles_per_s"
    ops_per_round = 1
    op_parts = ("simulate", "audit", "audit_altered")
    op_scale = 1.0

    def __init__(self, seed: int, work: Path, tiny: bool = False) -> None:
        from hemptwin import cli, config

        self._cli = cli
        cfg = _config(seed, tiny, warmup_lots=100, run_length_lots=200)
        self.run_length = cfg.run.run_length_lots
        self.work = work
        work.mkdir(parents=True, exist_ok=False)
        self.config_path = work / "scenario.cfg"
        config.save_config(cfg, self.config_path)
        self.out = work / "simulate"
        self.altered = work / "chain_altered.txt"
        self._memory = _DigestMemory()

    def _cli_main(self, argv) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = self._cli.main([str(a) for a in argv])
        return rc, buf.getvalue()

    def round(self) -> RoundResult:
        res = RoundResult()
        shutil.rmtree(self.out, ignore_errors=True)  # no stale report can pass the checks
        (rc_sim, sim_text), t_sim = res.time(
            "simulate", self._cli_main,
            ["simulate", "--config", self.config_path, "--reps", "1", "--out", self.out],
        )
        chain = self.out / "chain_export.txt"
        if rc_sim != 0 or not chain.is_file():
            res.fail("cycle", f"simulate exit {rc_sim}: {sim_text.strip()[-200:]}")
            return res
        self.altered.write_text(alter_one_payload(chain.read_text(encoding="utf-8")),
                                encoding="utf-8")
        (rc_clean, clean_text), _ = res.time("audit", self._cli_main, ["audit", "--chain", chain])
        (rc_alt, alt_text), _ = res.time("audit_altered", self._cli_main,
                                         ["audit", "--chain", self.altered])
        res.timings["cycle"] = [res.busy]

        if rc_clean != 0 or clean_text.strip() != "Ok":
            res.fail("cycle", f"audit of the clean export: exit {rc_clean}, {clean_text.strip()!r}")
        if rc_alt != 1:
            res.fail("cycle", f"audit of the altered copy: exit {rc_alt}, {alt_text.strip()!r}")
        table = read_simulate_table(self.out / "simulate.csv")
        lot_rows = (self.out / "simulate_lots.csv").read_text(encoding="utf-8").count("\n") - 1
        counts = ["finished_count", "dry_drop_count", "seedling_drop_count",
                  "destroyed_preharvest_count", "destroyed_final_count"]
        if lot_rows != self.run_length:
            res.fail("cycle", f"{lot_rows} lots measured, run.length is {self.run_length}")
        if sum(table[c] for c in counts) != self.run_length:
            res.fail("cycle", "outcome counts do not sum to the lots measured")
        files = [self.out / n for n in ("simulate.csv", "simulate_lots.csv", "chain_export.txt")]
        res.digest = _sha(*(p.read_bytes() for p in files), clean_text, alt_text)
        self._memory.check(res, "cycle", res.digest)
        res.stats = {
            "finished": table["finished_count"],
            "dropped": table["dry_drop_count"] + table["seedling_drop_count"],
            "destroyed": table["destroyed_preharvest_count"] + table["destroyed_final_count"],
            "verification_mean_days": table["mean_verification_time"],
            "confirmation_mean_days": table["mean_confirmation_time"],
            "export_bytes": chain.stat().st_size,
        }
        return res

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


class ShapleyDecompose:
    """``riskmodel.decompose_final_product`` for THC exact, CBD exact and CBD
    sampled (m=3000), each with K=10, I=100 and 10 macro-replications; the t'
    sample is collected once during set-up.  One operation is the set of
    three decompositions."""

    name = "shapley-decompose"
    op_kind = "round"
    rate_name = "sets_per_s"
    ops_per_round = 1
    KINDS = (("thc", "exact"), ("cbd", "exact"), ("cbd", "sampled"))
    op_parts = tuple(f"shapley_{target}_{estimator}" for target, estimator in KINDS)
    op_scale = 1.0

    def __init__(self, seed: int, tiny: bool = False) -> None:
        from hemptwin import riskmodel

        self._riskmodel = riskmodel
        self.cfg = _config(seed, tiny)
        if tiny:
            self.params = dict(m_permutations=10, k_outer=3, i_inner=4, macro_replications=2)
        else:
            self.params = dict(m_permutations=3000, k_outer=10, i_inner=100,
                               macro_replications=10)
        self.t_prime = riskmodel.collect_t_prime_samples(self.cfg)
        self.rows_per_model_call = self.params["k_outer"] * self.params["i_inner"]
        self._memory = _DigestMemory()

    def round(self) -> RoundResult:
        rm = self._riskmodel
        res = RoundResult()
        decomps = []
        for target, estimator in self.KINDS:
            kind = f"shapley_{target}_{estimator}"
            d, _ = res.time(kind, rm.decompose_final_product, self.cfg, target, estimator,
                            t_prime_sample=self.t_prime, **self.params)
            decomps.append((kind, d))
        res.timings["round"] = [res.busy]

        orderings = 0
        parts = []
        for kind, d in decomps:
            if not (_all_finite(d.rc_mean) and all(_all_finite(r.rc) for r in d.results)):
                res.fail("round", f"{kind}: non-finite relative contribution")
            elif not d.residual < 1e-9:
                res.fail("round", f"{kind}: |sum RC - 1| = {d.residual:.3e}")
            parts.append((kind, d.rc_mean.tolist(), d.rc_stderr.tolist(), d.s_mean.tolist(),
                          d.variance_mean))
            per_rep = (self.params["m_permutations"] if kind.endswith("sampled")
                       else math.factorial(len(d.labels)))
            orderings += per_rep * d.macro_replications
        res.digest = _sha(parts)
        self._memory.check(res, "round", res.digest)
        res.stats = {"orderings": orderings}
        return res

    def close(self) -> None:
        pass


NAMES = ("compare-pack", "simulate-audit", "shapley-decompose")


def make(name: str, seed: int, work: Path, tiny: bool = False):
    """Set up the named workload."""
    if name == ComparePack.name:
        return ComparePack(seed, tiny)
    if name == SimulateAudit.name:
        return SimulateAudit(seed, work, tiny)
    if name == ShapleyDecompose.name:
        return ShapleyDecompose(seed, tiny)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------- helpers


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _all_finite(arr) -> bool:
    return all(math.isfinite(float(x)) for x in arr)


def alter_one_payload(text: str) -> str:
    """Change one value in the payload of the middle record line of a chain
    export, keeping the line's canonical JSON form."""
    lines = text.split("\n")
    records = [i for i, line in enumerate(lines) if line.startswith('{"kind":"record"')]
    if not records:
        raise ValueError("chain export holds no record")
    i = records[len(records) // 2]
    obj = json.loads(lines[i])
    payload = obj["payload"]
    key = sorted(payload)[0]
    value = payload[key]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        payload[key] = value + 1
    else:
        payload[key] = f"{value}~"
    lines[i] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return "\n".join(lines)


def read_simulate_table(path: Path) -> dict:
    """metric -> mean from the single-variant simulate.csv report."""
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        if line.startswith("#"):
            continue
        metric, mean, _sd = line.split(",")
        out[metric] = float(mean)
    return out
