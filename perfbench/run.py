"""hemptwin benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 perfbench/run.py --workload compare-pack --seed 20210 --seconds 35 --trace 0

Workloads: compare-pack, simulate-audit, shapley-decompose (``all`` runs each
in turn in its own process).  The workload seed becomes the program's master
seed; DEFAULT_SEED is the default and HELDOUT_SEED is kept back to confirm a
claimed gain on inputs it was not tuned on.

``--trace 0`` measures the end-to-end metrics with nothing patched: each
program call in CPU time and as a ratio to a fixed reference loop run around
it (see workloads.py), with wall-clock figures stored beside them;
``--trace 1`` alternates untraced and traced rounds and reports the per-layer
metrics (see tracer.py and layers.py).  Both runs first play one warm-up round
under call counters to fill caches and produce the exact-count sheet; the
traced rounds must reproduce it and every round's outputs exactly.

The last stdout line is the result object; results, a run manifest and (for
traced runs) the spans are written to perfbench/results/.
"""

import time

T0 = time.perf_counter()  # start of set-up for --setup-only
T0_CPU = time.process_time()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
DEFAULT_SEED = 20210
HELDOUT_SEED = 8191
SETUP_SAMPLES = 7  # fresh-process set-ups per run; setup_s is their median
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples beyond it

import workloads  # noqa: E402  (stdlib only at import time)

clock = time.perf_counter  # wall clock: run deadlines and stored wall figures
cpu_clock = time.process_time
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """One BLAS thread, set before numpy loads: idle or spinning pool threads
    would add CPU time that is not the program's work."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import hemptwin from this checkout's src/, and only from there."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import hemptwin

    if Path(hemptwin.__file__).resolve().parent != (src / "hemptwin").resolve():
        raise ImportError(f"hemptwin imported from {hemptwin.__file__}, not {src}")
    return hemptwin


def declared_metrics() -> tuple[dict, dict]:
    """name -> unit for the end-to-end and per-layer metrics of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def summarize(samples: list) -> dict:
    """Minimum, median and the highest percentile with TAIL_BEYOND samples
    beyond it.  Below 2 * TAIL_BEYOND + 1 samples that percentile is not above
    the median, so the tail is unresolved and reads as the median."""
    s = sorted(samples)
    n = len(s)
    k = n - TAIL_BEYOND - 1
    p50 = statistics.median(s)
    if 2 * k < n - 1:
        return {"min": s[0], "p50": p50, "tail": p50, "tail_pct": 50.0, "n": n}
    return {"min": s[0], "p50": p50, "tail": s[k], "tail_pct": round(100.0 * (k + 1) / n, 1),
            "n": n}


# ------------------------------------------------------------------ rounds


class Tally:
    """Operations attempted and failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def play(self, wl, tracer=None):
        """One round, optionally under an installed tracer; a round that
        raises fails all its operations.  Every round starts from a fresh
        garbage-collector state, so the collections inside it (which stay in
        its time) fall at the same points each round."""
        self.attempted += wl.ops_per_round
        gc.collect()
        try:
            if tracer is None:
                res = wl.round()
            else:
                with tracer:
                    res = wl.round()
        except Exception:  # the benchmark must report the failure and go on
            self.failed += wl.ops_per_round
            self.reasons.append(traceback.format_exc(limit=3))
            return None
        self.failed += min(len(res.failed), wl.ops_per_round)
        self.reasons += res.reasons
        return res

    def fail(self, reason: str) -> None:
        """A check that fails an operation already attempted."""
        self.failed = min(self.failed + 1, self.attempted)
        self.reasons.append(reason)


def warm_up(wl, tally: Tally):
    """Untimed first round under call counters: fills caches and gives the
    exact-count sheet.  Each workload checks later rounds' outputs against
    this round's."""
    from tracer import Tracer
    import layers

    counter = Tracer("count")
    res = tally.play(wl, counter)
    if res is None:
        return None, {}, {}
    counts = counter.call_counts()
    return res, counts, layers.sheet(counts, res.stats.get("export_bytes", 0), res.digest)


# -------------------------------------------------------------- measuring


def setup_sample(args) -> tuple[float, float]:
    """Set up the workload in a fresh process, which reports its own CPU and
    wall time."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170,
                          check=True)
    reported = json.loads(proc.stdout.strip().splitlines()[-1])
    return reported["setup_s"], reported["setup_wall_s"]


def measure_untraced(wl, args, tally: Tally) -> tuple[dict, dict]:
    """Timed rounds until the deadline.  The fresh-process set-ups are spread
    over the run, between rounds, so that their median sees the same host as
    the rounds do rather than one short stretch of it."""
    _, _, sheet = warm_up(wl, tally)
    timings: dict = {}
    ratios: dict = {}
    reference: list = []
    setup, setup_wall = [], []
    in_setup = 0.0  # wall time spent on the set-up processes
    busy = 0.0
    ops = 0
    start = clock()
    end = start + args.seconds
    while True:
        res = tally.play(wl)
        if res is not None:
            for kind, values in res.timings.items():
                timings.setdefault(kind, []).extend(values)
            for kind, values in res.ratios.items():
                ratios.setdefault(kind, []).extend(values)
            reference += res.reference
            busy += res.busy
            ops += wl.ops_per_round
        now = clock()
        due = SETUP_SAMPLES if now >= end else int((now - start) / args.seconds * SETUP_SAMPLES)
        while len(setup) < due:
            cpu, wall = setup_sample(args)
            setup.append(cpu)
            setup_wall.append(wall)
        in_setup += clock() - now
        if now >= end:
            break
    wall = clock() - start - in_setup
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail = {kind: summarize(v) for kind, v in sorted(timings.items())}
    op = detail.get(wl.op_kind, {"p50": 0.0, "tail": 0.0})
    measured = all(part in ratios for part in wl.op_parts)
    metrics = {
        "setup_s": statistics.median(setup),
        "op_ref.p50": wl.op_scale * sum(statistics.median(ratios[part])
                                        for part in wl.op_parts) if measured else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    # the workload's own names for its timings, printed and stored beside the
    # metrics; the CPU and wall-clock times, which the host's load phases move
    # by tens of percent from run to run, are not bounded
    named = {
        "op_cpu_s.min": {"value": wl.op_scale * sum(detail[part]["min"] for part in wl.op_parts)
                         if measured else 0.0, "unit": "s"},
        "op_cpu_s.p50": {"value": op["p50"], "unit": "s"},
        "op_cpu_s.tail": {"value": op["tail"], "unit": "s"},
        f"{wl.rate_name}_cpu": {"value": ops / busy if busy else 0.0, "unit": "1/s"},
    }
    for kind, t in detail.items():
        named[f"{kind}_cpu_s.min"] = {"value": t["min"], "unit": "s", "n": t["n"]}
        named[f"{kind}_cpu_s.p50"] = {"value": t["p50"], "unit": "s", "n": t["n"]}
        named[f"{kind}_cpu_s.tail"] = {"value": t["tail"], "unit": "s", "pct": t["tail_pct"]}
    named["reference_cpu_s.min"] = {"value": min(reference), "unit": "s", "n": len(reference)}
    named["reference_cpu_s.p50"] = {"value": statistics.median(reference), "unit": "s"}
    named[f"{wl.rate_name}_wall"] = {"value": ops / wall, "unit": "1/s"}
    named["setup_wall_s"] = {"value": statistics.median(setup_wall), "unit": "s"}
    return metrics, {"named": named, "samples": timings, "ratios": ratios,
                     "reference_samples": reference, "setup_samples": setup,
                     "setup_wall_samples": setup_wall, "sheet": sheet}


def measure_traced(wl, setup_tracer, args, tally: Tally) -> tuple[dict, dict]:
    import numpy as np

    import layers
    from tracer import Tracer

    setup_fold = layers.Fold.of(setup_tracer, 0, len(setup_tracer))
    reference, counts, sheet = warm_up(wl, tally)
    tracer = Tracer("span")
    per_round: list[dict] = []
    bare: dict = {}
    overhead = []
    kept = None  # span range of the first traced round, written out at the end
    end = clock() + args.seconds
    while True:
        res = tally.play(wl)
        if res is not None:
            for kind, values in res.timings.items():
                bare.setdefault(kind, []).extend(values)
        lo = len(tracer)
        tracer.peak_calendar = 0
        traced = tally.play(wl, tracer)
        if traced is not None:
            fold = layers.Fold.of(tracer, lo, len(tracer))
            if fold.call_counts() != counts:
                tally.fail("traced call counts differ from the untraced sheet")
            per_round.append(layers.round_metrics(fold, tracer.peak_calendar))
            if res is not None:
                overhead.append(traced.busy - res.busy)
        if kept is None and traced is not None:
            kept = (lo, len(tracer))
        else:
            tracer.truncate(lo)
        if clock() >= end:
            break

    stats = reference.stats if reference is not None else {}
    metrics = {k: float(np.median([m[k] for m in per_round])) for k in per_round[0]} \
        if per_round else {}
    metrics.update({
        "ledger.export_bytes": stats.get("export_bytes", 0),
        "shapley.orderings": stats.get("orderings", 0),
        "riskmodel.rows": metrics.get("riskmodel.model_calls", 0)
        * getattr(wl, "rows_per_model_call", 0),
        "riskmodel.tprime_collect_s": setup_fold.inclusive(
            "riskmodel.collect_t_prime_samples"),
        "simulation.stats_digest": int(reference.digest[:12], 16) if reference else 0,
        "trace.overhead_s": statistics.median(overhead) if overhead else 0.0,
    })
    for key in ("finished", "dropped", "destroyed", "verification_mean_days",
                "confirmation_mean_days"):
        metrics[f"simulation.{key}"] = stats.get(key, 0)
    for label in ("TwoLayer", "SingleChain", "None"):
        samples = bare.get(f"rep.{label}")
        metrics[f"simulation.rep_s.{label}"] = statistics.median(samples) if samples else 0.0
    spans = {"setup": (setup_tracer, 0, len(setup_tracer))}
    if kept is not None:
        spans["round"] = (tracer, *kept)
    return metrics, {"sheet": sheet, "traced_rounds": len(per_round), "spans": spans}


# ----------------------------------------------------------------- output


def read_git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def host_probe() -> float:
    """Fastest of five timings of a fixed pure-Python loop: a slow reading at
    the start or end of a run flags a host under outside load."""
    best = float("inf")
    for _ in range(5):
        t0 = clock()
        x = 0
        for i in range(200_000):
            x += i * i
        best = min(best, clock() - t0)
    return best


def manifest(args, host_start) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "default_seed": DEFAULT_SEED, "heldout_seed": HELDOUT_SEED,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "git_commit": read_git_commit(),
        "loadavg_start": host_start[0], "loadavg_end": list(os.getloadavg()),
        "host_probe_s_start": host_start[1], "host_probe_s_end": host_probe(),
    }


def write_spans(path: Path, spans: dict) -> None:
    """Spans of the traced set-up and first traced round.  `op` is the
    operation id: spans inside one replication, CLI command or decomposition
    share it (-1 outside any)."""
    import numpy as np

    roots = {"simulation.run_replication", "cli.main", "riskmodel.decompose_final_product"}
    arrays = {}
    for label, (tracer, lo, hi) in spans.items():
        name = np.asarray(tracer.name[lo:hi], dtype=np.int32)
        stop = np.asarray(tracer.stop[lo:hi], dtype=np.int64) - lo
        op = np.full(hi - lo, -1, dtype=np.int32)
        root_ids = [i for i, n in enumerate(tracer.names) if n in roots]
        next_op = 0
        for r in np.flatnonzero(np.isin(name, root_ids)):
            if op[r] < 0:  # outermost root: its subtree is one operation
                op[r:stop[r]] = next_op
                next_op += 1
        arrays.update({
            f"{label}_start": np.asarray(tracer.start[lo:hi]),
            f"{label}_end": np.asarray(tracer.end[lo:hi]),
            f"{label}_name": name,
            f"{label}_parent": np.asarray(tracer.parent[lo:hi], dtype=np.int64) - lo,
            f"{label}_op": op,
            f"{label}_names": np.asarray(tracer.names),
            f"{label}_layers": np.asarray(tracer.layers),
        })
    np.savez_compressed(path, **arrays)


def emit(args, metrics: dict, units: dict, tally: Tally, detail: dict, host_start) -> None:
    missing = sorted(set(units) - set(metrics))
    if missing:
        tally.fail(f"metrics not measured: {missing}")
    result = {
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = detail.pop("spans", None)
    if spans:
        write_spans(RESULTS / f"{args.workload}-seed{args.seed}-spans.npz", spans)
    fail_ratio = tally.failed / max(tally.attempted, 1)
    record = {"result": result, "fail_ratio": fail_ratio, "failures": tally.reasons[:50],
              **detail}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    (RESULTS / f"{stem}.manifest.json").write_text(
        json.dumps(manifest(args, host_start), indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for reason in tally.reasons[:10]:
        print(f"FAILED: {reason.strip()}", file=sys.stderr)
    print(f"{'fail_ratio':34s} {fail_ratio:14.6g} ratio ({tally.failed}/{tally.attempted})")
    for name, m in result["metrics"].items():
        print(f"{name:34s} {m['value']:14.6g} {m['unit']}")
    for name, m in detail.get("named", {}).items():
        note = f"  n={m['n']}" if "n" in m else f"  p{m['pct']:g}" if "pct" in m else ""
        print(f"{name:34s} {m['value']:14.6g} {m['unit']}{note}")
    print(json.dumps(result))


# -------------------------------------------------------------------- main


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs, for the benchmark's own smoke tests")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run_all(args) -> int:
    rc = 0
    for name in workloads.NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        rc |= subprocess.run(cmd + (["--tiny"] if args.tiny else []), cwd=ROOT).returncode
    return rc


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    host_start = (list(os.getloadavg()), host_probe()) if not args.setup_only else None
    import_program()
    work = RESULTS / f"work-{os.getpid()}"
    if args.setup_only:
        wl = workloads.make(args.workload, args.seed, work, args.tiny)
        cpu, wall = cpu_clock() - T0_CPU, clock() - T0
        wl.close()
        print(json.dumps({"setup_s": cpu, "setup_wall_s": wall}))
        return 0

    e2e_units, layer_units = declared_metrics()
    tally = Tally()
    from tracer import Tracer

    setup_tracer = Tracer("span") if args.trace else contextlib.nullcontext()
    with setup_tracer:
        wl = workloads.make(args.workload, args.seed, work, args.tiny)
    try:
        if args.trace:
            metrics, detail = measure_traced(wl, setup_tracer, args, tally)
        else:
            metrics, detail = measure_untraced(wl, args, tally)
    finally:
        wl.close()
    emit(args, metrics, layer_units if args.trace else e2e_units, tally, detail, host_start)
    return 0


if __name__ == "__main__":
    pin_blas_threads()
    sys.exit(main())
