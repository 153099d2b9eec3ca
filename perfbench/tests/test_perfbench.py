"""The benchmark's own tests: tiny smoke runs, planted failures, self-time
arithmetic and the tracer's clean removal."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from layers import Fold  # noqa: E402
from tracer import Tracer  # noqa: E402

run.import_program()
WORKLOAD_CLASSES = (workloads.ComparePack, workloads.SimulateAudit, workloads.ShapleyDecompose)


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_reports_every_declared_metric(workload, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    e2e, per_layer = run.declared_metrics()
    sheets = []
    for trace, declared in ((0, e2e), (1, per_layer)):
        argv = ["--workload", workload, "--seed", "11", "--seconds", "0.1",
                "--trace", str(trace), "--tiny"]
        assert run.main(argv) == 0
        result = _result(capsys)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        record = json.loads((tmp_path / f"{workload}-seed11-trace{trace}.json").read_text())
        sheets.append(record["sheet"])
        if trace == 0:
            cls = next(c for c in WORKLOAD_CLASSES if c.name == workload)
            for name in (f"{cls.rate_name}_cpu", f"{cls.rate_name}_wall",
                         f"{cls.op_kind}_cpu_s.p50", f"{cls.op_kind}_cpu_s.tail",
                         "setup_wall_s", "op_cpu_s.p50", "op_cpu_s.min",
                         "reference_cpu_s.min"):
                assert record["named"][name]["unit"] in ("s", "1/s")
        assert (tmp_path / f"{workload}-seed11-trace{trace}.manifest.json").is_file()
    # tracing does not perturb the model: same exact counts and output digest
    assert sheets[0] == sheets[1]


def test_planted_audit_pass_counts_as_failure(tmp_path, monkeypatch):
    from hemptwin import cli, ledger

    wl = workloads.SimulateAudit(5, tmp_path / "work", tiny=True)
    try:
        tally = run.Tally()
        tally.play(wl)
        assert (tally.attempted, tally.failed) == (1, 0)
        monkeypatch.setattr(cli, "audit_chain", lambda chain: ledger.AuditResult(True))
        tally.play(wl)
        assert (tally.attempted, tally.failed) == (2, 1)
        assert any("altered copy" in r for r in tally.reasons)
    finally:
        wl.close()


def test_planted_digest_mismatch_counts_as_failure(monkeypatch):
    from hemptwin import reporting

    wl = workloads.ComparePack(5, tiny=True)
    tally = run.Tally()
    tally.play(wl)
    assert tally.failed == 0
    original = reporting.run_replications

    def drifting(*args, **kwargs):
        reps = original(*args, **kwargs)
        reps[0].verification_mean += 1e-9
        return reps

    monkeypatch.setattr(reporting, "run_replications", drifting)
    tally.play(wl)
    assert tally.failed == len(wl.variants)  # one replication per topology drifted
    assert tally.failed / tally.attempted > 0


def test_altered_payload_changes_exactly_one_line():
    text = "\n".join([
        '{"kind":"meta","n_shards":1,"topology":"SingleChain"}',
        '{"kind":"record","payload":{"a":1.5},"record_id":"r1"}',
        '{"kind":"record","payload":{"b":"x"},"record_id":"r2"}',
    ]) + "\n"
    out = workloads.alter_one_payload(text).split("\n")
    assert out[:2] == text.split("\n")[:2]
    assert json.loads(out[2])["payload"] == {"b": "x~"}


def test_self_time_arithmetic_on_a_synthetic_nest():
    names = ["simulation.run_replication", "kernel.EventCalendar.step",
             "randomness.RngStream.uniform", "simulation.<callback>"]
    layers = ["simulation", "kernel", "randomness", "simulation"]
    # root [0,10] > step [1,6] > uniform [2,3];  root > callback [7,9];  lone step [11,12]
    start = [0.0, 1.0, 2.0, 7.0, 11.0]
    end = [10.0, 6.0, 3.0, 9.0, 12.0]
    name = [0, 1, 2, 3, 1]
    parent = [-1, 0, 1, 0, -1]
    stop = [4, 3, 3, 4, 5]
    f = Fold(names, layers, start, end, name, parent, stop)
    assert f.self_time.tolist() == [3.0, 4.0, 1.0, 2.0, 1.0]
    assert f.calls("kernel.EventCalendar.step") == 2
    assert f.self_of("kernel.EventCalendar.step") == 5.0
    assert f.inclusive("kernel.EventCalendar.step") == 6.0
    layer_self = f.layer_self()
    assert (layer_self["simulation"], layer_self["kernel"], layer_self["randomness"]) == (
        5.0, 5.0, 1.0)
    assert sum(layer_self.values()) == 11.0  # the two top-level spans
    assert f.remainder("simulation.run_replication") == 0.0
    assert f.under("kernel.EventCalendar.step", "simulation.run_replication") == 5.0
    assert f.descendants("randomness.RngStream.uniform", "simulation.run_replication") == 1


def test_tracer_restores_the_package():
    import hemptwin
    from hemptwin import kernel, reporting, simulation

    before = (kernel.EventCalendar.step, simulation.run_replication,
              reporting.run_replication, hemptwin.run_replication)
    tracer = Tracer("span")
    with tracer:
        assert reporting.run_replication is not before[2]
        assert reporting.run_replication is simulation.run_replication
        cal = kernel.EventCalendar()
        cal.schedule(1.0, lambda: None)
        cal.run()
    assert (kernel.EventCalendar.step, simulation.run_replication,
            reporting.run_replication, hemptwin.run_replication) == before
    counts = Fold.of(tracer, 0, len(tracer)).call_counts()
    assert counts["kernel.EventCalendar.step"] == 1
    assert counts["kernel.EventCalendar.schedule"] == 1
    assert tracer.names[tracer.name[-1]] == "other.<callback>"  # defined in this test


def test_fails_without_the_program(tmp_path):
    root = HERE.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "compare-pack", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
