import ast
import dataclasses
import inspect
import json
import os
import pickle
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest

from hemptwin import cli, reporting, riskmodel
from hemptwin.cli import main
from hemptwin.config import RunConfig, Topology, default_config, save_config
from hemptwin.ledger import audit_chain, export_chain, parse_chain
from hemptwin.reporting import (
    RESOURCE_METRICS,
    SECURITY_METRICS,
    build_table,
    run_replications,
    security_variants,
    write_reports,
)
from hemptwin.simulation import run_replication


def tiny_cfg(seed=1234, topology=Topology.TWO_LAYER):
    cfg = default_config()
    return dataclasses.replace(
        cfg,
        chain=dataclasses.replace(cfg.chain, topology=topology),
        run=RunConfig(warmup_lots=5, run_length_lots=50, replications=2,
                      master_seed=seed),
    )


def child_env():
    """The environment for a child interpreter that imports hemptwin from src."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src)


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "tiny.cfg"
    save_config(tiny_cfg(), path)
    return path


def test_table_shape_and_formats(tmp_path):
    cfg = tiny_cfg()
    variant_reps = [(label, run_replications(variant))
                    for label, variant in security_variants(cfg)]
    table = build_table("security", SECURITY_METRICS, variant_reps)
    paths = write_reports(tmp_path, table, variant_reps, ("csv", "json"))
    csv_text = paths["csv"].read_text()
    lines = csv_text.strip().splitlines()
    assert lines[0] == (
        "metric,with_ledger_mean,with_ledger_sd,"
        "without_ledger_mean,without_ledger_sd"
    )
    assert len(lines) == 1 + len(SECURITY_METRICS) + 1  # header + rows + footer
    assert lines[-1].startswith("#")
    payload = json.loads(paths["json"].read_text())
    assert set(payload["metrics"]) == set(SECURITY_METRICS)
    assert payload["replications"] == 2
    # the ledger suppresses falsified gate passes entirely
    assert table.cells[("false_pass_preharvest_pct", "with_ledger")][0] == 0.0
    assert table.cells[("false_pass_preharvest_pct", "without_ledger")][0] > 0.0
    lots = paths["lots"].read_text().strip().splitlines()
    assert len(lots) == 1 + 2 * 2 * 50  # header + variants * reps * lots


def test_every_cell_covers_exactly_j_replications():
    cfg = tiny_cfg()
    reps = run_replications(cfg, replications=3)
    table = build_table("t", RESOURCE_METRICS, [("only", reps)])
    assert table.replications == 3


def test_cli_simulate_and_audit_round_trip(tmp_path, cfg_file, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_file), "--out", str(out)]) == 0
    chain = out / "chain_export.txt"
    assert chain.exists()
    assert main(["audit", "--chain", str(chain)]) == 0
    assert "Ok" in capsys.readouterr().out


def test_cli_audit_detects_corruption(tmp_path, cfg_file, capsys):
    out = tmp_path / "out"
    main(["simulate", "--config", str(cfg_file), "--out", str(out)])
    chain = out / "chain_export.txt"
    lines = chain.read_text().splitlines()
    for i, line in enumerate(lines):
        obj = json.loads(line)
        if obj.get("kind") == "record":
            key = sorted(obj["payload"])[0]
            obj["payload"][key] = "corrupted"
            lines[i] = json.dumps(obj, sort_keys=True, separators=(",", ":"))
            break
    chain.write_text("\n".join(lines) + "\n")
    assert main(["audit", "--chain", str(chain)]) == 1
    assert "Violation" in capsys.readouterr().out


def test_cli_audit_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("garbage\n")
    assert main(["audit", "--chain", str(bad)]) == 2


META = '{"kind":"meta","n_shards":1,"topology":"TwoLayer"}'
RECORD = {"kind": "record", "record_id": "r0", "lot_id": "lot-0-0", "role": "grower",
          "record_kind": "field_info", "location": 0, "payload": {}, "submitted_at": 0.0}


@pytest.mark.parametrize("lines", [
    pytest.param([META, json.dumps({k: v for k, v in RECORD.items() if k != "lot_id"})],
                 id="missing-field"),
    pytest.param([META, "[1, 2, 3]"], id="non-object-line"),
    pytest.param(['{"kind":"meta","n_shards":1,"topology":"TripleLayer"}'],
                 id="unknown-topology"),
    pytest.param([META, json.dumps({**RECORD, "role": "wizard"})], id="unknown-role"),
    pytest.param([META, json.dumps({**RECORD, "location": "0"})], id="wrong-type"),
    pytest.param([META, json.dumps({**RECORD, "submitted_at": 10**400})],
                 id="number-too-large-for-a-float"),
    pytest.param([META, json.dumps({**RECORD, "payload": {"forged": True}}),
                  json.dumps(RECORD)], id="duplicate-record"),
])
def test_cli_audit_malformed_json_is_a_parse_error(tmp_path, capsys, lines):
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["audit", "--chain", str(bad)]) == 2
    assert f"line {len(lines)}:" in capsys.readouterr().err


def test_cli_audit_undecodable_bytes_are_a_parse_error(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe\x00garbage\n")
    assert main(["audit", "--chain", str(bad)]) == 2


@pytest.fixture(scope="module")
def clean_export():
    _, sim = run_replication(tiny_cfg(), 0, keep_chain=True)
    return export_chain(sim.ledger.chain)


def test_cli_audit_keeps_a_lone_carriage_return_in_its_line(tmp_path, capsys,
                                                            clean_export):
    # JSON reads "\r" as whitespace, so the re-spaced record line parses, but
    # its text is not the text its block hashed.  A text-mode read used to end
    # line 2 at the "\r", a parse error (exit 2).
    lines = clean_export.split("\n")
    assert '"kind":"record"' in lines[1]
    lines[1] = lines[1].replace(",", ",\r", 1)
    text = "\n".join(lines)
    verdict = audit_chain(parse_chain(text)).describe()
    assert verdict.endswith("merkle root mismatch")
    chain = tmp_path / "chain.txt"
    chain.write_bytes(text.encode("utf-8"))
    assert main(["audit", "--chain", str(chain)]) == 1
    assert capsys.readouterr().out == verdict + "\n"


def test_cli_audit_of_a_crlf_joined_export_is_ok(tmp_path, capsys, clean_export):
    chain = tmp_path / "chain.txt"
    chain.write_bytes(clean_export.replace("\n", "\r\n").encode("utf-8"))
    assert main(["audit", "--chain", str(chain)]) == 0
    assert capsys.readouterr().out == "Ok\n"


def test_cli_annotations_name_imported_types():
    # an annotation naming a type that cli does not import raises NameError
    for fn in vars(cli).values():
        if inspect.isfunction(fn) and fn.__module__ == cli.__name__:
            typing.get_type_hints(fn)


def test_cli_rejects_invalid_config(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("adversary.p2 = 1.5\n")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2


def test_cli_rejects_unparsable_config_value(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("lots.n = abc\n")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "line 1: lots.n" in capsys.readouterr().err


def test_cli_rejects_duplicate_config_key(tmp_path, capsys):
    path = tmp_path / "dup.cfg"
    path.write_text("lots.n = 5\nlots.n = 7\n")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "line 2: duplicate key 'lots.n'" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_rejects_parallel_below_one(tmp_path, cfg_file, capsys, workers):
    argv = ["simulate", "--config", str(cfg_file), "--parallel", workers,
            "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --parallel") and err.count("\n") == 1
    assert not (tmp_path / "simulate.csv").exists()


def test_cli_rejects_negative_seed(tmp_path, cfg_file):
    argv = ["simulate", "--config", str(cfg_file), "--seed", "-1", "--out", str(tmp_path)]
    assert main(argv) == 2


def test_cli_rejects_zero_reps(tmp_path, cfg_file, capsys):
    argv = ["simulate", "--config", str(cfg_file), "--reps", "0", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert "run.reps" in capsys.readouterr().err


def test_cli_byte_identical_reports_for_identical_seeds(tmp_path, cfg_file):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["simulate", "--config", str(cfg_file), "--out", str(out),
                     "--format", "csv,json"]) == 0
    for name in ("simulate.csv", "simulate.json", "simulate_lots.csv",
                 "chain_export.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_cli_seed_override_changes_reports(tmp_path, cfg_file):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    main(["simulate", "--config", str(cfg_file), "--out", str(out_a)])
    main(["simulate", "--config", str(cfg_file), "--out", str(out_b),
          "--seed", "999"])
    assert (out_a / "simulate.csv").read_text() != (out_b / "simulate.csv").read_text()


def test_cli_compare_resource_scenario(tmp_path, cfg_file):
    out = tmp_path / "cmp"
    assert main(["compare", "--scenario", "resource", "--config", str(cfg_file),
                 "--out", str(out), "--format", "csv"]) == 0
    text = (out / "resource.csv").read_text()
    assert "fixed_dryers_mean" in text and "dynamic_dryers_mean" in text


def test_cli_compare_rejects_an_invalid_variant(tmp_path, capsys):
    # the base config runs without a ledger, but its ledger variant has no shards
    cfg = tiny_cfg()
    cfg = dataclasses.replace(cfg, chain=dataclasses.replace(
        cfg.chain, topology=Topology.NONE, n_shards=0))
    path = tmp_path / "no_shards.cfg"
    save_config(cfg, path)
    out = tmp_path / "cmp"
    assert main(["compare", "--scenario", "security", "--config", str(path),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "chain.n_shards" in err
    assert not out.exists()


def test_cli_shapley_smoke(tmp_path, cfg_file):
    out = tmp_path / "risk"
    assert main([
        "shapley", "--config", str(cfg_file), "--target", "thc",
        "--estimator", "exact", "--outer-k", "4", "--inner-i", "10",
        "--macro-reps", "2", "--out", str(out), "--format", "csv,json",
    ]) == 0
    rows = (out / "risk_thc.csv").read_text().strip().splitlines()
    assert rows[0] == "input,rc_mean,rc_stderr"
    assert len(rows) == 1 + 6 + 1
    payload = json.loads((out / "risk_thc.json").read_text())
    assert len(payload["inputs"]) == 6


# Only `shapley` needs SciPy: the other commands run without importing it.
STARTUP_WITHOUT_SCIPY = """
import sys
from hemptwin.cli import main
cfg, out = sys.argv[1:]
scipy_modules = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert main(["simulate", "--config", cfg, "--reps", "1", "--out", out + "/sim"]) == 0
assert main(["compare", "--scenario", "security", "--config", cfg, "--reps", "2",
             "--out", out + "/cmp"]) == 0
assert main(["audit", "--chain", out + "/sim/chain_export.txt"]) == 0
assert not scipy_modules(), scipy_modules()[:3]
assert main(["shapley", "--config", cfg, "--estimator", "exact", "--outer-k", "4",
             "--inner-i", "10", "--macro-reps", "2", "--out", out + "/risk"]) == 0
assert "scipy.special" in sys.modules
"""

# A stream seeds its generator at its first draw, so `audit`, which draws
# nothing, never imports numpy.random.
AUDIT_WITHOUT_NUMPY_RANDOM = """
import sys
from hemptwin.cli import main
assert main(["audit", "--chain", sys.argv[1]]) == 0
assert "numpy.random" not in sys.modules
"""


def test_every_module_parses_at_the_declared_python_floor():
    """Each source module parses as Python at the floor `requires-python`
    declares.  This checks syntax only: a name the floor's standard library
    lacks, such as `operator.call`, is not caught here."""
    root = Path(__file__).resolve().parent.parent
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$',
                      (root / "pyproject.toml").read_text(), re.M)
    assert floor, "pyproject.toml declares no requires-python floor"
    version = tuple(map(int, floor.groups()))
    modules = sorted((root / "src" / "hemptwin").glob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)


def test_only_shapley_imports_scipy(tmp_path, cfg_file):
    done = subprocess.run([sys.executable, "-c", STARTUP_WITHOUT_SCIPY, str(cfg_file),
                           str(tmp_path)], env=child_env(), capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]


def test_audit_never_imports_numpy_random(tmp_path, cfg_file):
    assert main(["simulate", "--config", str(cfg_file), "--reps", "1",
                 "--out", str(tmp_path)]) == 0
    done = subprocess.run([sys.executable, "-c", AUDIT_WITHOUT_NUMPY_RANDOM,
                           str(tmp_path / "chain_export.txt")], env=child_env(),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]


def test_cli_shapley_cbd_has_seven_inputs(tmp_path, cfg_file):
    out = tmp_path / "risk"
    assert main([
        "shapley", "--config", str(cfg_file), "--target", "cbd",
        "--estimator", "sampled", "--perms", "40", "--outer-k", "4",
        "--inner-i", "10", "--macro-reps", "2", "--out", str(out),
    ]) == 0
    rows = (out / "risk_cbd.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 7 + 1
    assert rows[-1].startswith("#") and "residual" in rows[-1]


@pytest.mark.parametrize("flag", [("--macro-reps", "1"), ("--inner-i", "1"),
                                  ("--perms", "0"), ("--outer-k", "0")],
                         ids=lambda f: f[0])
def test_cli_shapley_rejects_counts_that_cannot_run(tmp_path, cfg_file, capsys, flag,
                                                    monkeypatch):
    def no_replications(*args, **kwargs):
        raise AssertionError("t' collected before the counts were checked")

    # collect_t_prime_samples runs its replications through this name
    monkeypatch.setattr(riskmodel, "run_replication", no_replications)
    argv = ["shapley", "--config", str(cfg_file), "--estimator", "sampled",
            "--perms", "20", "--outer-k", "2", "--inner-i", "5", "--macro-reps", "2",
            "--out", str(tmp_path), *flag]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flag", [("--reps", "3"), ("--parallel", "2")],
                         ids=lambda f: f[0])
def test_cli_shapley_has_no_replication_flags(tmp_path, cfg_file, capsys, flag):
    # the decomposition runs no replication pack, so these flags are unknown
    argv = ["shapley", "--config", str(cfg_file), "--out", str(tmp_path), *flag]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not list(tmp_path.glob("risk_*"))


@pytest.mark.parametrize("topology", list(Topology), ids=lambda t: t.value)
def test_parallel_replications_match_serial(topology):
    cfg = tiny_cfg(topology=topology)
    serial = run_replications(cfg, replications=2, parallel=1)
    parallel = run_replications(cfg, replications=2, parallel=2)
    assert serial == parallel


REPLICATION_3 = """
import pickle, sys
from hemptwin.simulation import run_replication
cfg = pickle.loads(sys.stdin.buffer.read())
sys.stdout.buffer.write(pickle.dumps(run_replication(cfg, 3)))
"""


@pytest.mark.parametrize("topology", list(Topology), ids=lambda t: t.value)
def test_a_replication_alone_in_a_fresh_process_equals_it_run_after_others(topology):
    # a replication depends on its config and index only, not on what the
    # process ran before it: no cache or counter a run leaves behind (the
    # cached hashes of string label parts) changes a later run
    cfg = tiny_cfg(topology=topology)
    after_others = [run_replication(cfg, j) for j in range(4)][3]
    done = subprocess.run([sys.executable, "-c", REPLICATION_3], input=pickle.dumps(cfg),
                          env=child_env(), capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert pickle.loads(done.stdout) == after_others


class _RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records its worker count and maps
    in this process, so no worker is ever started."""

    made = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


def _record_workers(monkeypatch, cpus, parallel, reps, first):
    """Run replications `first`..`reps`-1 on a recording executor while
    `os.cpu_count()` reads `cpus`; returns the worker counts it was built
    with."""
    monkeypatch.setattr(_RecordingExecutor, "made", [])
    monkeypatch.setattr(reporting, "ProcessPoolExecutor", _RecordingExecutor)
    monkeypatch.setattr(reporting, "_run_one", lambda job: job[1])
    monkeypatch.setattr(reporting.os, "cpu_count", lambda: cpus)
    out = run_replications(tiny_cfg(), replications=reps, parallel=parallel, first=first)
    assert out == list(range(first, reps))
    return _RecordingExecutor.made


@pytest.mark.parametrize("parallel, reps, first, workers", [
    (8, 3, 0, [3]),  # capped at the replication count
    (2, 3, 1, [2]),  # simulate runs replications 1.. after replication 0
    (2, 2, 1, []),  # one job runs serially
    (4, 1, 0, []),
])
def test_worker_count_never_exceeds_jobs(monkeypatch, parallel, reps, first, workers):
    assert _record_workers(monkeypatch, 64, parallel, reps, first) == workers


@pytest.mark.parametrize("cpus, workers", [
    (2, [2]),  # 100 000 asked for, two CPUs: two workers
    (None, []),  # CPU count unknown: one, so the jobs run serially
])
def test_worker_count_never_exceeds_cpus(monkeypatch, cpus, workers):
    assert _record_workers(monkeypatch, cpus, 100_000, 6, 0) == workers
