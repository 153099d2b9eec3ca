"""Replicated experiments, aggregation into comparison tables, and writers.

Tables follow one shape: metric rows, one (mean, sd) column pair per variant,
where the plus-minus values are across-replication sample standard
deviations.  CSV and JSON renderings carry the same content; with a fixed
seed the bytes are reproducible.
"""

from __future__ import annotations

import dataclasses
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .config import ScenarioConfig, Topology, validate_config
from .domain import LotOutput, ReplicationStats
from .simulation import run_replication

if TYPE_CHECKING:
    from .riskmodel import RiskDecomposition

__all__ = [
    "ComparisonTable",
    "run_replications",
    "aggregate_metrics",
    "build_table",
    "security_variants",
    "scalability_variants",
    "resource_variants",
    "shapley_table",
    "write_lot_dump",
    "write_reports",
    "SD_FOOTNOTE",
]

SD_FOOTNOTE = "plus-minus values are across-replication sample standard deviations"


def _run_one(args) -> ReplicationStats:
    cfg, index = args
    return run_replication(cfg, index)


def run_replications(
    cfg: ScenarioConfig,
    replications: int | None = None,
    parallel: int = 1,
    first: int = 0,
) -> list[ReplicationStats]:
    """Replications `first` .. n-1, where n is `replications` or, when that
    is None, the configured count, on at most `parallel` worker processes and
    never more than there are replications or CPUs: a process pool starts all
    its workers at the first submit."""
    validate_config(cfg)
    n = cfg.run.replications if replications is None else replications
    jobs = [(cfg, j) for j in range(first, n)]
    workers = min(parallel, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_one, jobs))
    return [_run_one(job) for job in jobs]


# metric name -> extractor over ReplicationStats
_METRIC_FNS = {
    "false_pass_preharvest_pct": lambda r: 100.0 * r.rate(r.false_pass_preharvest),
    "false_pass_harvest_pct": lambda r: 100.0 * r.rate(r.false_pass_harvest),
    "fake_qualified_pct": lambda r: 100.0 * r.rate(r.fake_qualified),
    "mean_verification_time": lambda r: r.verification_mean,
    "sd_verification_time": lambda r: r.verification_sd,
    "mean_confirmation_time": lambda r: r.confirmation_mean,
    "finished_count": lambda r: float(r.finished_count),
    "dry_drop_count": lambda r: float(r.dry_drop_count),
    "seedling_drop_count": lambda r: float(r.seedling_drop_count),
    "destroyed_preharvest_count": lambda r: float(r.destroyed_preharvest_count),
    "destroyed_final_count": lambda r: float(r.destroyed_final_count),
}

SECURITY_METRICS = (
    "false_pass_preharvest_pct",
    "false_pass_harvest_pct",
    "fake_qualified_pct",
)
SCALABILITY_METRICS = (
    "mean_verification_time",
    "sd_verification_time",
    "finished_count",
    "dry_drop_count",
)
RESOURCE_METRICS = ("finished_count", "dry_drop_count")
ALL_METRICS = tuple(_METRIC_FNS)


def aggregate_metrics(
    reps: list[ReplicationStats], metrics: tuple
) -> dict[str, tuple[float, float]]:
    out = {}
    for name in metrics:
        fn = _METRIC_FNS[name]
        values = [fn(r) for r in reps]
        sd = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
        out[name] = (float(np.mean(values)), sd)
    return out


@dataclass
class ComparisonTable:
    title: str
    metrics: tuple
    variants: list  # labels in column order
    cells: dict  # (metric, variant) -> (mean, sd)
    replications: int

    def to_csv(self) -> str:
        header = ["metric"]
        for label in self.variants:
            header += [f"{label}_mean", f"{label}_sd"]
        lines = [",".join(header)]
        for metric in self.metrics:
            row = [metric]
            for label in self.variants:
                mean, sd = self.cells[(metric, label)]
                row += [repr(mean), repr(sd)]
            lines.append(",".join(row))
        lines.append(f"# replications={self.replications}; {SD_FOOTNOTE}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "title": self.title,
            "replications": self.replications,
            "footnote": SD_FOOTNOTE,
            "variants": list(self.variants),
            "metrics": {
                metric: {
                    label: {
                        "mean": self.cells[(metric, label)][0],
                        "sd": self.cells[(metric, label)][1],
                    }
                    for label in self.variants
                }
                for metric in self.metrics
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def build_table(
    title: str,
    metrics: tuple,
    variant_reps: list,  # [(label, [ReplicationStats, ...]), ...]
) -> ComparisonTable:
    cells = {}
    replications = 0
    for label, reps in variant_reps:
        replications = len(reps)
        agg = aggregate_metrics(reps, metrics)
        for metric, pair in agg.items():
            cells[(metric, label)] = pair
    return ComparisonTable(
        title=title,
        metrics=metrics,
        variants=[label for label, _ in variant_reps],
        cells=cells,
        replications=replications,
    )


def _cell(value) -> str:
    """One lot-dump cell: None is empty, a bool 0 or 1, a float its repr."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_lot_dump(path: Path, variant_reps: list) -> None:
    """Per-lot raw rows for every measured lot of every replication: one
    column per `LotOutput` field after the variant and replication."""
    names = [f.name for f in dataclasses.fields(LotOutput)]
    cells = attrgetter(*names)
    lines = [",".join(["variant", "replication", *names])]
    for label, reps in variant_reps:
        for stats in reps:
            prefix = f"{label},{stats.replication_index},"
            lines += [prefix + ",".join(map(_cell, cells(lot))) for lot in stats.lot_outputs]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_reports(out_dir: Path, table: ComparisonTable, variant_reps: list,
                  formats: tuple) -> dict:
    """Write `table` in each of `formats` ("csv", "json") and the per-lot
    dump of `variant_reps` to `out_dir`, each file named after the table's
    title; returns the paths by format, the dump under "lots"."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for fmt, render in (("csv", table.to_csv), ("json", table.to_json)):
        if fmt in formats:
            paths[fmt] = out_dir / f"{table.title}.{fmt}"
            paths[fmt].write_text(render(), encoding="utf-8")
    paths["lots"] = out_dir / f"{table.title}_lots.csv"
    write_lot_dump(paths["lots"], variant_reps)
    return paths


# ---------------------------------------------------------------------------
# scenario builders


def _with_topology(cfg: ScenarioConfig, topology: Topology) -> ScenarioConfig:
    return dataclasses.replace(
        cfg, chain=dataclasses.replace(cfg.chain, topology=topology)
    )


def security_variants(base: ScenarioConfig) -> list:
    """Ledger on (two-layer) versus ledger off."""
    return [
        ("with_ledger", _with_topology(base, Topology.TWO_LAYER)),
        ("without_ledger", _with_topology(base, Topology.NONE)),
    ]


def scalability_variants(base: ScenarioConfig) -> list:
    """Two-layer sharded chain versus the single-chain baseline."""
    return [
        ("two_layer", _with_topology(base, Topology.TWO_LAYER)),
        ("single_chain", _with_topology(base, Topology.SINGLE_CHAIN)),
    ]


def resource_variants(base: ScenarioConfig) -> list:
    """Fixed dryer count versus demand-sized dryers: an unbounded dryer
    pool, so no harvested lot waits for a dryer (needs the shared schedule
    visibility the ledger provides)."""
    return [
        ("fixed_dryers", dataclasses.replace(base, dynamic_dryers=False)),
        ("dynamic_dryers", dataclasses.replace(base, dynamic_dryers=True)),
    ]


SCENARIOS = {
    "security": (security_variants, SECURITY_METRICS),
    "scalability": (scalability_variants, SCALABILITY_METRICS),
    "resource": (resource_variants, RESOURCE_METRICS),
}


# ---------------------------------------------------------------------------
# risk decomposition table


def shapley_table(decomp: RiskDecomposition, formats: tuple, out_dir: Path) -> dict:
    """Write the relative-contribution table (one row per input) plus the
    decomposition-identity residual in the footer."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    name = f"risk_{decomp.target}"
    if "csv" in formats:
        lines = ["input,rc_mean,rc_stderr"]
        for label, mean, err in zip(decomp.labels, decomp.rc_mean, decomp.rc_stderr):
            lines.append(f"{label},{mean!r},{err!r}")
        lines.append(
            f"# estimator={decomp.estimator_kind}; macro_replications="
            f"{decomp.macro_replications}; abs_rc_sum_residual={decomp.residual!r}"
        )
        p = out_dir / f"{name}.csv"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths["csv"] = p
    if "json" in formats:
        payload = {
            "target": decomp.target,
            "estimator": decomp.estimator_kind,
            "macro_replications": decomp.macro_replications,
            "variance_mean": decomp.variance_mean,
            "abs_rc_sum_residual": decomp.residual,
            "inputs": [
                {"name": label, "rc_mean": float(mean), "rc_stderr": float(err)}
                for label, mean, err in zip(
                    decomp.labels, decomp.rc_mean, decomp.rc_stderr
                )
            ],
        }
        p = out_dir / f"{name}.json"
        p.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                     encoding="utf-8")
        paths["json"] = p
    return paths
