"""Command-line front end: simulate, compare, shapley, audit."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .config import (
    ConfigError,
    ConfigValidationError,
    ScenarioConfig,
    default_config,
    load_config,
    validate_config,
)
from .ledger import ChainParseError, audit_chain, export_chain, parse_chain
from .reporting import (
    ALL_METRICS,
    SCENARIOS,
    build_table,
    run_replications,
    shapley_table,
    write_reports,
)
from .shapley import TooFewSamplesError, TooManyInputsError
from .simulation import run_replication


def _add_common(parser: argparse.ArgumentParser, replications: bool = True) -> None:
    """The shared flags; `--reps` and `--parallel` only where a command runs
    a replication pack."""
    parser.add_argument("--config", type=Path, default=None,
                        help="scenario config file (defaults are built in)")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--out", type=Path, default=Path("out"),
                        help="output directory")
    parser.add_argument("--format", default="csv", choices=["csv", "json", "csv,json"],
                        help="report formats")
    if replications:
        parser.add_argument("--reps", type=int, default=None,
                            help="replication count override")
        parser.add_argument("--parallel", type=int, default=1,
                            help="worker processes for replications, at least 1")


def _load(args) -> ScenarioConfig:
    cfg = load_config(args.config) if args.config else default_config()
    run = cfg.run
    if args.seed is not None:
        run = dataclasses.replace(run, master_seed=args.seed)
    if getattr(args, "reps", None) is not None:
        run = dataclasses.replace(run, replications=args.reps)
    cfg = dataclasses.replace(cfg, run=run)
    return validate_config(cfg)


def _formats(args) -> tuple:
    return tuple(args.format.split(","))


def cmd_simulate(args) -> int:
    cfg = _load(args)
    # replication 0 keeps its chain for the export; the others do not, and
    # its simulation is dropped before they run
    stats, sim = run_replication(cfg, 0, keep_chain=True)
    chain_text = export_chain(sim.ledger.chain)
    del sim
    reps = [stats] + run_replications(cfg, parallel=args.parallel, first=1)
    variant_reps = [("baseline", reps)]
    table = build_table("simulate", ALL_METRICS, variant_reps)
    write_reports(args.out, table, variant_reps, _formats(args))
    (args.out / "chain_export.txt").write_text(chain_text, encoding="utf-8")
    for metric in ALL_METRICS:
        mean, sd = table.cells[(metric, "baseline")]
        print(f"{metric:32s} {mean:10.4f} +- {sd:.4f}")
    print(f"reports written to {args.out}")
    return 0


def cmd_compare(args) -> int:
    cfg = _load(args)
    builder, metrics = SCENARIOS[args.scenario]
    variant_reps = [(label, run_replications(variant, parallel=args.parallel))
                    for label, variant in builder(cfg)]
    table = build_table(args.scenario, metrics, variant_reps)
    paths = write_reports(args.out, table, variant_reps, _formats(args))
    labels = table.variants
    print(f"{'metric':32s} " + " ".join(f"{label:>24s}" for label in labels))
    for metric in table.metrics:
        row = " ".join(
            f"{table.cells[(metric, label)][0]:14.4f}+-"
            f"{table.cells[(metric, label)][1]:8.4f}"
            for label in labels
        )
        print(f"{metric:32s} {row}")
    print(f"reports written to {paths['csv' if 'csv' in paths else 'json']}")
    return 0


def cmd_shapley(args) -> int:
    # the one command that needs SciPy, so the others start without it
    from .riskmodel import decompose_final_product

    cfg = _load(args)
    decomp = decompose_final_product(
        cfg,
        target=args.target,
        estimator=args.estimator,
        m_permutations=args.perms,
        k_outer=args.outer_k,
        i_inner=args.inner_i,
        macro_replications=args.macro_reps,
    )
    paths = shapley_table(decomp, _formats(args), args.out)
    print(f"{args.target} variance decomposition ({decomp.estimator_kind}, "
          f"J={decomp.macro_replications}):")
    for label, mean, err in zip(decomp.labels, decomp.rc_mean, decomp.rc_stderr):
        print(f"  {label:12s} {100 * mean:7.2f}% +- {100 * err:.2f}")
    print(f"  |sum RC - 1| = {decomp.residual:.3e}")
    print(f"reports written to {sorted(p.name for p in paths.values())}")
    return 0


def cmd_audit(args) -> int:
    try:
        # decoded from bytes: a text-mode read would take a lone "\r" for a
        # line end, and the export's lines end at "\n" only
        text = Path(args.chain).read_bytes().decode("utf-8")
        chain = parse_chain(text)
    except (OSError, UnicodeDecodeError, ChainParseError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    result = audit_chain(chain)
    print(result.describe())
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hemptwin",
        description="Supply chain digital twin: replicated experiments, "
        "ledger audit, and variance-based risk decomposition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one scenario and report all metrics")
    _add_common(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("compare", help="run a two-variant comparison scenario")
    p.add_argument("--scenario", choices=sorted(SCENARIOS), required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("shapley", help="decompose final-product variance by input")
    p.add_argument("--target", choices=["cbd", "thc"], default="thc")
    p.add_argument("--estimator", choices=["exact", "sampled"], default="sampled")
    p.add_argument("--perms", type=int, default=3000,
                   help="sampled permutation count")
    p.add_argument("--outer-k", type=int, default=10)
    p.add_argument("--inner-i", type=int, default=100)
    p.add_argument("--macro-reps", type=int, default=10)
    _add_common(p, replications=False)
    p.set_defaults(fn=cmd_shapley)

    p = sub.add_parser("audit", help="verify the hash links of a chain export")
    p.add_argument("--chain", type=Path, required=True)
    p.set_defaults(fn=cmd_audit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "parallel", 1) < 1:
        print(f"error: --parallel must be at least 1, got {args.parallel}",
              file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except (ConfigError, ConfigValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (TooFewSamplesError, TooManyInputsError) as exc:
        # shapley counts that cannot run; shapley.py owns the bounds
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
