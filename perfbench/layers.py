"""Self-time arithmetic over recorded spans and the per-layer metrics.

``fold`` turns one slice of a span-mode tracer into per-name totals; the
metric functions below read those totals.  Self time of a span is its
duration minus its direct children's durations, so summed over any subtree
it telescopes to the subtree root's duration.
"""

from __future__ import annotations

import numpy as np

from tracer import CALLBACK, DRAW_METHODS, FIRST, LAYERS

STEP = "kernel.EventCalendar.step"
REQUEST = "kernel.ResourcePool.request"
RELEASE = "kernel.ResourcePool.release"
CHILD = "randomness.RngStream.child"
SUBMIT = "ledger.LedgerSystem.submit"
HASHES = ("ledger.record_hash", "ledger.merkle_root", "ledger.shard_header_hash",
          "ledger.root_header_hash")
REPLICATION = "simulation.run_replication"
MODEL = "riskmodel.FinalProductModel.__call__"
SHAPLEY_ENTRY = ("shapley.shapley_exact", "shapley.shapley_sampled")
DRAWS = tuple(f"randomness.RngStream.{m}" for m in DRAW_METHODS)

# exact-count sheet: name -> traced names whose call counts it sums
SHEET_COUNTS = {
    "events": (STEP,),
    "pool_requests": (REQUEST,),
    "streams": (CHILD,),
    "draws": DRAWS + tuple(d + FIRST for d in DRAWS),
    "records": (SUBMIT,),
    "hash_calls": HASHES,
    "cost_evals": (MODEL,),
}


def sheet(call_counts: dict, export_bytes: int, digest: str) -> dict:
    """The exact-count sheet of one round from per-name call counts."""
    out = {k: sum(call_counts.get(n, 0) for n in names) for k, names in SHEET_COUNTS.items()}
    out["export_bytes"] = export_bytes
    out["digest"] = digest
    return out


class Fold:
    """Per-name counts, inclusive and self times of the spans [lo, hi)."""

    def __init__(self, names, layers, start, end, name, parent, stop, lo=0) -> None:
        self.names = list(names)
        self.layers = list(layers)
        n_names = len(self.names)
        self.start = np.asarray(start, dtype=float)
        self.dur = np.asarray(end, dtype=float) - self.start
        self.name = np.asarray(name, dtype=np.int64)
        self.parent = np.asarray(parent, dtype=np.int64) - lo
        self.parent[self.parent < 0] = -1
        self.stop = np.asarray(stop, dtype=np.int64) - lo
        has_parent = self.parent >= 0
        child_dur = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                                minlength=len(self.dur))
        self.self_time = self.dur - child_dur
        self.count = np.bincount(self.name, minlength=n_names)
        self.incl = np.bincount(self.name, weights=self.dur, minlength=n_names)
        self.self_by_name = np.bincount(self.name, weights=self.self_time, minlength=n_names)
        self._ids = {n: i for i, n in enumerate(self.names)}

    @classmethod
    def of(cls, tracer, lo: int, hi: int) -> "Fold":
        return cls(tracer.names, tracer.layers, tracer.start[lo:hi], tracer.end[lo:hi],
                   tracer.name[lo:hi], tracer.parent[lo:hi], tracer.stop[lo:hi], lo)

    def _id(self, name: str) -> int:
        return self._ids.get(name, -1)

    def calls(self, *names: str) -> int:
        return int(sum(self.count[i] for i in map(self._id, names) if i >= 0))

    def inclusive(self, *names: str) -> float:
        return float(sum(self.incl[i] for i in map(self._id, names) if i >= 0))

    def self_of(self, *names: str) -> float:
        return float(sum(self.self_by_name[i] for i in map(self._id, names) if i >= 0))

    def call_counts(self) -> dict:
        """Calls per traced name, callbacks excluded (count mode has none)."""
        return {n: int(c) for n, c in zip(self.names, self.count)
                if c and not n.endswith(CALLBACK)}

    def layer_self(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for i, layer in enumerate(self.layers):
            out[layer] = out.get(layer, 0.0) + float(self.self_by_name[i])
        return out

    def _mask(self, *names: str) -> np.ndarray:
        ids = [i for i in map(self._id, names) if i >= 0]
        return np.isin(self.name, ids)

    def under(self, child: str, *parents: str) -> float:
        """Total duration of `child` spans whose direct parent is one of `parents`."""
        mask = self._mask(child) & (self.parent >= 0)
        idx = np.flatnonzero(mask)
        return float(self.dur[idx[self._mask(*parents)[self.parent[idx]]]].sum())

    def calls_under(self, child: str, *parents: str) -> int:
        mask = self._mask(child) & (self.parent >= 0)
        idx = np.flatnonzero(mask)
        return int(self._mask(*parents)[self.parent[idx]].sum())

    def descendants(self, child: str, root: str) -> int:
        """Number of `child` spans anywhere inside `root` spans."""
        inside = self._mask(child)
        return int(sum(inside[r:self.stop[r]].sum() for r in np.flatnonzero(self._mask(root))))

    def remainder(self, root: str) -> float:
        """Duration of the `root` spans minus the self time of every span in
        their subtrees: zero up to rounding when the self times close."""
        csum = np.concatenate(([0.0], np.cumsum(self.self_time)))
        roots = np.flatnonzero(self._mask(root))
        return float(self.dur[roots].sum() - (csum[self.stop[roots]] - csum[roots]).sum())


def _per(total: float, n: int, scale: float = 1e6) -> float:
    return total / n * scale if n else 0.0


def round_metrics(f: Fold, peak_calendar: int) -> dict:
    """Per-layer metrics of one traced round (times in s per round unless the
    name ends in _us, which is microseconds per unit)."""
    events = f.calls(STEP)
    requests = f.calls(REQUEST)
    first_draws = tuple(d + FIRST for d in DRAWS)
    draws = f.calls(*DRAWS)
    n_first = f.calls(*first_draws)
    records = f.calls(SUBMIT)
    layer_self = f.layer_self()
    total_self = sum(layer_self.values())
    stage_names = [n for n, layer in zip(f.names, f.layers) if layer == "stages"]
    domain_names = [n for n, layer in zip(f.names, f.layers) if layer == "domain"]
    validate = "config.validate_config"
    model_calls = f.calls(MODEL)
    m = {
        "kernel.events": events,
        "kernel.peak_calendar": peak_calendar,
        "kernel.step_self_us": _per(f.self_of(STEP), events),
        "kernel.pool_requests": requests,
        "kernel.pool_request_self_us": _per(f.self_of(REQUEST), requests),
        "kernel.pool_release_self_us": _per(f.self_of(RELEASE), f.calls(RELEASE)),
        "randomness.streams": f.calls(CHILD),
        "randomness.draws": draws + n_first,
        "randomness.first_draw_us": _per(f.inclusive(*first_draws), n_first),
        "randomness.draw_us": _per(f.inclusive(*DRAWS), draws),
        "randomness.self_share": _per(layer_self["randomness"], total_self, 100.0),
        "ledger.records": records,
        "ledger.submit_self_us": _per(f.self_of(SUBMIT), records),
        "ledger.hash_calls": f.calls(*HASHES),
        "ledger.hash_self_s": f.self_of(*HASHES),
        "ledger.export_s": f.inclusive("ledger.export_chain"),
        "ledger.parse_s": f.inclusive("ledger.parse_chain"),
        "ledger.audit_s": f.inclusive("ledger.audit_chain"),
        "simulation.handler_self_us": _per(f.self_of(f"simulation.{CALLBACK}"), events),
        "stages.calls": f.calls(*stage_names),
        "stages.self_us": _per(layer_self["stages"], f.calls(*stage_names)),
        "domain.self_us": _per(layer_self["domain"], f.calls(*domain_names)),
        "config.validate_calls": f.calls(validate),
        "config.validate_us": _per(f.inclusive(validate), f.calls(validate)),
        "reporting.overhead_s": f.inclusive("reporting.run_replications")
        - f.under(REPLICATION, "reporting.run_replications"),
        "reporting.build_table_s": f.inclusive("reporting.build_table"),
        "reporting.write_lot_dump_s": f.inclusive("reporting.write_lot_dump"),
        "cli.simulate.replications": _per(f.descendants(REPLICATION, "cli.cmd_simulate"),
                                          f.calls("cli.cmd_simulate"), 1.0),
        "cli.simulate.keep_chain_s": f.under(REPLICATION, "cli.cmd_simulate"),
        "cli.audit.read_parse_s": f.inclusive("cli.cmd_audit")
        - f.under("ledger.audit_chain", "cli.cmd_audit"),
        "shapley.cost_evals": f.calls_under(MODEL, *SHAPLEY_ENTRY),
        "shapley.self_s": f.inclusive(*SHAPLEY_ENTRY) - f.under(MODEL, *SHAPLEY_ENTRY),
        "riskmodel.model_calls": model_calls,
        "riskmodel.model_s": f.inclusive(MODEL),
        "trace.spans": len(f.dur),
        "trace.remainder_s": f.remainder(REPLICATION),
    }
    for layer in LAYERS:
        m[f"{layer}.layer_self_s"] = layer_self[layer]
    return m
