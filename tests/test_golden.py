"""Cross-commit golden digests: SHA-256 of the reports, chain exports and
decomposition arrays that small fixed-seed runs write.  A change that must
not move output passes this test without touching `golden/digests.json`; a
change that means to move output regenerates it with

    PYTHONPATH=src python tests/golden/regenerate.py

and says why in CHANGES.md.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from hemptwin.cli import main
from hemptwin.config import (
    FILE_KEYS,
    ChainConfig,
    ConfigError,
    ConfigValidationError,
    RunConfig,
    StageDuration,
    Topology,
    config_from_text,
    default_config,
    save_config,
    validate_config,
)
from hemptwin.kernel import EventCalendar
from hemptwin.ledger import (
    ChainParseError,
    LedgerSystem,
    ParticipantRole,
    RecordKind,
    audit_chain,
    export_chain,
    parse_chain,
)
from hemptwin.randomness import RngStream
from hemptwin.riskmodel import collect_t_prime_samples, decompose_final_product
from stage_order import with_durations

DIGESTS = Path(__file__).parent / "golden" / "digests.json"


def golden_config(topology=Topology.TWO_LAYER):
    cfg = dataclasses.replace(
        default_config(),
        n_lots_per_season=20,
        run=RunConfig(warmup_lots=5, run_length_lots=30, replications=2,
                      master_seed=20210),
    )
    return dataclasses.replace(
        cfg, chain=dataclasses.replace(cfg.chain, topology=topology)
    )


def stress_config(topology=Topology.TWO_LAYER):
    """Scarce field workers, lab servers and dryers: every drop reason, the
    harvest retest and the repeat purification pass all occur."""
    cfg = dataclasses.replace(
        golden_config(topology),
        n_lots_per_season=50,
        n_field_workers=5,
        n_lab_servers=3,
        n_dryers=1,
        run=RunConfig(warmup_lots=5, run_length_lots=200, replications=2,
                      master_seed=4242),
    )
    return with_durations(cfg, drying=StageDuration(2.0, 4.0))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli_files(work: Path, name: str, cfg, argv: list) -> dict:
    out = work / name
    cfg_path = work / f"{name}.cfg"
    save_config(cfg, cfg_path)
    rc = main(argv + ["--config", str(cfg_path), "--out", str(out),
                      "--format", "csv,json"])
    assert rc == 0, name
    return {f"{name}/{p.name}": _sha(p.read_bytes()) for p in sorted(out.iterdir())}


def _floats(values) -> bytes:
    return " ".join(float(v).hex() for v in values).encode("ascii")


def config_verdicts() -> bytes:
    """One line per probe: each numeric file key set alone, on each topology,
    to -1, 0, 1.5 (2 for an integer key), 2e9, 10^12, nan and inf, with the
    verdict of parsing and validating that file."""
    lines = []
    for topology in Topology:
        for key, row in FILE_KEYS.items():
            parse = row[1]
            if parse not in (int, float):
                continue
            for text in ("-1", "0", "1.5" if parse is float else "2", "2e9",
                         str(10**12), "nan", "inf"):
                try:
                    validate_config(config_from_text(
                        f"chain.topology = {topology.value}\n{key} = {text}\n"))
                    verdict = "accept"
                except ConfigError:
                    verdict = "parse-error"
                except ConfigValidationError:
                    verdict = "reject"
                lines.append(f"{topology.value} {key} = {text}: {verdict}\n")
    return "".join(lines).encode("ascii")


def small_export() -> list:
    """The lines of a TwoLayer export of six records, one per kind, on two
    shards; the payloads hold non-ASCII text, quotes and a nested list."""
    calendar = EventCalendar()
    ledger = LedgerSystem(calendar, ChainConfig(n_shards=2),
                          RngStream(20210, ("audit-verdicts",)), keep_chain=True)
    for i, kind in enumerate(list(RecordKind)[:6]):
        payload = {"value": 0.1 * i, "note": f"Hanf \"{i}\" \u00e9t\u00e9",
                   "tags": ["a", i]}
        calendar.schedule(0.25 * i, lambda i=i, kind=kind, payload=payload: (
            ledger.submit(f"lot-{i % 2}", None, kind, list(ParticipantRole)[i], i,
                          payload)))
    calendar.run()
    return export_chain(ledger.chain).splitlines()


# every field of every line is set in turn to each of these
_PROBE_VALUES = (None, True, False, 0, 1, -1, 2.5, -0.0, 1e16, float("nan"),
                 float("inf"), float("-inf"), 10**20, "", "x", "TwoLayer", "record",
                 "\u00e9\"\n", [], [0, 1, "x"], {}, {"\u00e9": [1.5]})


def audit_verdicts() -> bytes:
    """One line per damaged copy of `small_export`, with the audit verdict of
    that copy or the class of the error that parsing it raised.  The damage:
    each field of each line dropped or set to each of `_PROBE_VALUES`; each
    payload key dropped or set to each value, and a new payload key set to
    each value; each line deleted; each pair of adjacent lines swapped."""
    lines = small_export()
    copies = []

    def damaged(i, label, obj):
        text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        copies.append((f"line {i + 1} {label}", lines[:i] + [text] + lines[i + 1:]))

    for i, line in enumerate(lines):
        obj = json.loads(line)
        for key in sorted(obj):
            damaged(i, f"drop {key}", {k: v for k, v in obj.items() if k != key})
            for value in _PROBE_VALUES:
                damaged(i, f"{key} = {json.dumps(value)}", obj | {key: value})
        if obj["kind"] == "record":
            payload = obj["payload"]
            for key in sorted(payload):
                damaged(i, f"drop payload.{key}",
                        obj | {"payload": {k: v for k, v in payload.items() if k != key}})
            for key in sorted(payload) + ["added"]:
                for value in _PROBE_VALUES:
                    damaged(i, f"payload.{key} = {json.dumps(value)}",
                            obj | {"payload": payload | {key: value}})
        copies.append((f"delete line {i + 1}", lines[:i] + lines[i + 1:]))
        if i + 1 < len(lines):
            swapped = lines[:i] + [lines[i + 1], line] + lines[i + 2:]
            copies.append((f"swap lines {i + 1} and {i + 2}", swapped))
    verdicts = []
    for label, copy in copies:
        try:
            verdict = audit_chain(parse_chain("\n".join(copy))).describe()
        except ChainParseError as exc:
            verdict = type(exc).__name__
        verdicts.append(f"{label}: {verdict}\n")
    return "".join(verdicts).encode("utf-8")


def compute_digests(work: Path) -> dict:
    """Run every golden case under `work`; returns {case: sha256 hex}."""
    digests = {"config-verdicts": _sha(config_verdicts()),
               "audit-verdicts": _sha(audit_verdicts())}
    for topology in Topology:
        for name, make in (("simulate", golden_config), ("stress", stress_config)):
            digests |= _cli_files(work, f"{name}-{topology.value}",
                                  make(topology), ["simulate"])
    digests |= _cli_files(work, "compare-security", golden_config(),
                          ["compare", "--scenario", "security"])
    digests |= _cli_files(work, "compare-resource", stress_config(),
                          ["compare", "--scenario", "resource"])
    cfg = golden_config()
    t_prime = collect_t_prime_samples(cfg)
    for target, estimator in (("thc", "exact"), ("cbd", "exact"), ("cbd", "sampled")):
        decomp = decompose_final_product(
            cfg, target, estimator, m_permutations=40, k_outer=4, i_inner=5,
            macro_replications=2, t_prime_sample=t_prime,
        )
        name = f"shapley-{target}-{estimator}"
        for j, result in enumerate(decomp.results):
            digests[f"{name}/s[{j}]"] = _sha(_floats(result.s))
        digests[f"{name}/rc_mean"] = _sha(_floats(decomp.rc_mean))
    return digests


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return compute_digests(tmp_path_factory.mktemp("golden"))


# empty when the file is missing, so the case-list test fails and the
# regenerate script can still import this module
GOLDEN = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}


def test_every_golden_case_is_computed(digests):
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_output_matches_golden_digest(digests, case):
    assert digests.get(case) == GOLDEN[case], f"{case} moved"
