import collections
import dataclasses
import enum
import functools
import hashlib
import itertools
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hemptwin.config import MAX_COUNT, ChainConfig, RunConfig, Topology, default_config
from hemptwin.kernel import EventCalendar, ResourcePool
from hemptwin.ledger import (
    ChainParseError,
    LedgerSystem,
    ParticipantRole,
    RecordKind,
    _LINES,
    _Line,
    _ReviewQueue,
    assign_shard,
    audit_chain,
    export_chain,
    merkle_root,
    parse_chain,
    sha256,
)
from hemptwin.randomness import RngStream
from hemptwin.simulation import run_replication


def submit_record(system, i=0, on_resolved=None, kind=RecordKind.CULTIVATION_DATA,
                  location=0, tampered=False, payload=None):
    """Submit to `system`, now, a grower's record at `location` whose payload
    holds the value `i`."""
    system.submit(f"lot-0-{location}", on_resolved, kind, ParticipantRole.GROWER,
                  location, {"value": float(i)} if payload is None else payload,
                  tampered)


def record_id(i):
    """The id the ledger gives the record submitted `i`-th, counted from 0."""
    return f"r{i + 1:06d}"


def two_layer_cfg(**kw):
    return ChainConfig(topology=Topology.TWO_LAYER, **kw)


def build_system(cfg, keep_chain=True):
    cal = EventCalendar()
    stream = RngStream(555, ("ledger-test",))
    return cal, LedgerSystem(cal, cfg, stream, keep_chain=keep_chain)


class TestAssignShard:
    def test_single_shard_takes_everything(self):
        assert all(assign_shard(loc, 1) == 0 for loc in range(10))

    def test_modular_routing_balances(self):
        shards = [assign_shard(loc, 2) for loc in range(10)]
        assert shards == [0, 1] * 5

    def test_same_participant_same_shard(self):
        assert assign_shard(7, 3) == assign_shard(7, 3)


class TestSubmission:
    def test_disabled_ledger_takes_no_records(self):
        # the twin accepts its data without a record (see test_simulation)
        cal, system = build_system(ChainConfig(topology=Topology.NONE))
        assert system.shard_pools == [] and system.root_pool is None
        with pytest.raises(ValueError):
            submit_record(system, 0, lambda ok: None, RecordKind.HARVEST_DATA,
                          tampered=True)
        assert system.latencies == [] and len(cal) == 0

    def test_two_layer_idle_latency_is_one_verification_plus_confirmation(self):
        # mean latency over idle submissions must approach mu_v + mu_c
        cfg = two_layer_cfg(n_shards=1, n_validators_per_shard=1,
                            n_regulators=1)
        cal, system = build_system(cfg, keep_chain=False)
        done = []
        for i in range(4000):
            # spaced far apart so queues are always empty
            cal.schedule(
                i * 50.0,
                lambda i=i: submit_record(system, i, done.append),
            )
        cal.run()
        verif = np.array([v for _, _, v, _ in system.latencies])
        conf = np.array([c for _, _, _, c in system.latencies])
        assert abs(verif.mean() - 0.1) < 0.01
        assert abs(conf.mean() - 0.05) < 0.005

    def test_records_to_different_shards_process_concurrently(self):
        cfg = two_layer_cfg(n_shards=2, n_validators_per_shard=1, n_regulators=2)
        cal, system = build_system(cfg)
        done = {}
        submit_record(system, 0, lambda ok: done.setdefault(0, cal.now), location=0)
        submit_record(system, 1, lambda ok: done.setdefault(1, cal.now), location=1)
        cal.run()
        assert len(done) == 2
        # with one validator per shard and no cross-shard queueing, each
        # verification time equals its own service draw: no added waiting
        verif_times = [v for _, _, v, _ in system.latencies]
        assert max(verif_times) < sum(verif_times)

    def test_single_chain_has_no_confirmation_stage(self):
        cfg = ChainConfig(topology=Topology.SINGLE_CHAIN, n_regulators=2)
        cal, system = build_system(cfg)
        submit_record(system, 0)
        cal.run()
        (_, _, verif, conf), = system.latencies
        assert verif > 0 and conf is None
        assert len(system.chain.roots) == 0


class TestVerification:
    def test_honest_record_verified_and_blocked(self):
        cal, system = build_system(two_layer_cfg(n_shards=1))
        verdicts = []
        submit_record(system, 0, verdicts.append)
        cal.run()
        assert verdicts == [True]
        assert len(system.chain.shards[0]) == 1
        assert system.chain.shards[0][0].height == 0

    def test_tampered_record_rejected_and_not_blocked(self):
        cal, system = build_system(two_layer_cfg(n_shards=1))
        verdicts = []
        submit_record(system, 0, verdicts.append, RecordKind.PREHARVEST_RESULT,
                      tampered=True)
        cal.run()
        assert verdicts == [False]
        assert len(system.chain.shards.get(0, [])) == 0

    def test_detection_rate_is_total(self):
        cal, system = build_system(two_layer_cfg(), keep_chain=False)
        verdicts = []
        for i in range(1000):
            cal.schedule(
                float(i),
                lambda i=i: submit_record(system, i, verdicts.append,
                                          RecordKind.HARVEST_DATA, location=i % 2,
                                          tampered=True),
            )
        cal.run()
        assert verdicts == [False] * 1000

    def test_miss_probability_knob_lets_some_tampering_through(self):
        cal, system = build_system(
            two_layer_cfg(miss_probability=0.25), keep_chain=False
        )
        verdicts = []
        for i in range(2000):
            cal.schedule(
                float(i),
                lambda i=i: submit_record(system, i, verdicts.append,
                                          RecordKind.HARVEST_DATA, location=i % 2,
                                          tampered=True),
            )
        cal.run()
        missed = sum(verdicts)
        assert 0.20 < missed / len(verdicts) < 0.30


class TestChainStructure:
    def run_traffic(self, n=40, cfg=None):
        cfg = cfg or two_layer_cfg()
        cal, system = build_system(cfg)
        for i in range(n):
            cal.schedule(
                i * 0.6,
                lambda i=i: submit_record(system, i, location=i % 5),
            )
        cal.run()
        return system

    def test_fresh_chain_audits_ok(self):
        system = self.run_traffic()
        chain = system.chain
        assert audit_chain(chain).ok

    def test_every_verified_record_in_exactly_one_block(self):
        system = self.run_traffic()
        chain = system.chain
        seen = []
        for blocks in chain.shards.values():
            for block in blocks:
                seen.extend(block.records)
        assert sorted(seen) == sorted(chain.records)
        assert len(seen) == len(set(seen))

    def test_every_shard_header_in_exactly_one_root(self):
        system = self.run_traffic()
        chain = system.chain
        refs = [(sid, h) for root in chain.roots for sid, h, _ in root.headers]
        blocks = [(b.shard_id, b.height) for bs in chain.shards.values() for b in bs]
        assert sorted(refs) == sorted(blocks)

    def test_root_chain_commits_each_shard_in_height_order(self):
        # 40 records queued at once on one shard: four validators hand their
        # headers to two regulators, whose reviews finish out of height order
        cfg = two_layer_cfg(n_shards=1, n_validators_per_shard=4, n_regulators=2)
        cal, system = build_system(cfg)
        for i in range(40):
            submit_record(system, i)
        cal.run()
        committed = {}
        for root in system.chain.roots:
            for sid, height, _ in root.headers:
                committed.setdefault(sid, []).append(height)
        assert committed == {0: list(range(40))}

    def test_chain_mid_run_holds_exactly_the_confirmed_records(self):
        # stepped, not run to the end: a slow root layer leaves verified
        # records waiting for their commit, and those stay off the chain
        cfg = two_layer_cfg(n_shards=2, n_validators_per_shard=2, n_regulators=1,
                            confirmation_mean_days=0.3)
        cal, system = build_system(cfg)
        confirmed = []
        for i in range(40):
            cal.schedule(i * 0.05, lambda i=i: submit_record(
                system, i, lambda ok: ok and confirmed.append(record_id(i)),
                location=i % 2, tampered=i % 7 == 3))
        in_flight = 0  # steps that left a verified record waiting for its commit
        while cal.step():
            chain = system.chain
            assert audit_chain(chain).ok
            assert sorted(chain.records) == sorted(confirmed)
            for blocks in chain.shards.values():
                assert [b.height for b in blocks] == list(range(len(blocks)))
            in_flight += any(at > cal.now for at in system._commit_at)
        assert in_flight > 0
        # the tampered records are rejected; every other one is confirmed
        assert len(confirmed) == 40 - len(range(3, 40, 7))

    def test_heights_contiguous_per_shard(self):
        system = self.run_traffic()
        for blocks in system.chain.shards.values():
            assert [b.height for b in blocks] == list(range(len(blocks)))

    def test_export_parse_round_trip_and_determinism(self):
        system = self.run_traffic()
        text = export_chain(system.chain)
        reparsed = parse_chain(text)
        assert export_chain(reparsed) == text
        assert audit_chain(reparsed).ok

    def test_integer_time_survives_export_and_parse(self):
        # a float field holding an integer is written as one; parsing used to
        # read it back as a float, whose hash differs
        cal, system = build_system(two_layer_cfg())
        cal.schedule(3, lambda: submit_record(system, 0))
        cal.run()
        text = export_chain(system.chain)
        assert '"submitted_at":3}' in text
        reparsed = parse_chain(text)
        assert export_chain(reparsed) == text
        assert audit_chain(reparsed).ok

    def test_merkle_root_single_leaf_is_identity(self):
        h = sha256("line")
        assert merkle_root([h]) == h
        assert merkle_root([h, h]) != h


class TestAudit:
    def export_lines(self):
        system = TestChainStructure().run_traffic()
        return export_chain(system.chain).splitlines()

    def test_payload_byte_flip_detected_at_correct_height(self):
        lines = self.export_lines()
        chain_ok = parse_chain("\n".join(lines))
        # corrupt the first record of shard 0's height-2 block
        target = next(
            b for b in chain_ok.shards[0] if b.height == 2
        )
        victim = target.records[0]
        mutated = []
        for line in lines:
            obj = json.loads(line)
            if obj.get("kind") == "record" and obj["record_id"] == victim:
                obj["payload"]["value"] = obj["payload"]["value"] + 1.0
                mutated.append(json.dumps(obj, sort_keys=True, separators=(",", ":")))
            else:
                mutated.append(line)
        result = audit_chain(parse_chain("\n".join(mutated)))
        assert not result.ok
        assert result.shard_id == 0 and result.height == 2
        assert "merkle" in result.reason

    def test_deleted_middle_block_detected_at_successor(self):
        lines = self.export_lines()
        kept = []
        for line in lines:
            obj = json.loads(line)
            if obj.get("kind") == "shard_block" and obj["shard_id"] == 0 and obj["height"] == 1:
                continue
            kept.append(line)
        result = audit_chain(parse_chain("\n".join(kept)))
        assert not result.ok
        assert result.height == 2
        assert "prev_hash" in result.reason

    def test_empty_export_is_vacuously_ok(self):
        assert audit_chain(parse_chain("")).ok

    def test_garbage_line_raises_parse_error(self):
        with pytest.raises(ChainParseError):
            parse_chain("not json at all\n")

    def test_second_meta_line_raises_parse_error(self):
        lines = list(small_export_lines())
        with pytest.raises(ChainParseError, match=f"line {len(lines) + 1}: second meta"):
            parse_chain("\n".join(lines + [lines[0]]))

    def test_forged_duplicate_record_line_raises_parse_error(self):
        # a forged copy inserted before the genuine line used to be replaced
        # by it on parse, so the export audited Ok
        lines = list(small_export_lines())
        i = next(i for i, line in enumerate(lines) if '"kind":"record"' in line)
        forged = json.loads(lines[i])
        forged["payload"] = {"forged": True}
        lines.insert(i, json.dumps(forged, sort_keys=True, separators=(",", ":")))
        with pytest.raises(ChainParseError,
                           match=f"line {i + 2}: duplicate record '{forged['record_id']}'"):
            parse_chain("\n".join(lines))

    @pytest.mark.parametrize("kind", sorted(_LINES))
    @pytest.mark.parametrize("key, value", [("tampered", True),
                                            ("true_values", {"thc": 0.0035}),
                                            ("\u00e9", None)])
    def test_undeclared_key_raises_parse_error(self, kind, key, value):
        # the parser used to drop it, so a line carrying, say, the off-chain
        # tamper flag audited Ok
        lines = list(small_export_lines())
        i = next(i for i, line in enumerate(lines) if f'"kind":"{kind}"' in line)
        lines[i] = json.dumps(json.loads(lines[i]) | {key: value})
        with pytest.raises(ChainParseError,
                           match=f"line {i + 1}: undeclared field {key!r}$"):
            parse_chain("\n".join(lines))

    def test_duplicate_root_reference_detected(self):
        system = TestChainStructure().run_traffic(n=6)
        chain = system.chain
        chain.roots.append(chain.roots[-1])
        result = audit_chain(chain)
        assert not result.ok


@functools.cache
def small_export_lines() -> tuple:
    system = TestChainStructure().run_traffic(n=6)
    return tuple(export_chain(system.chain).splitlines())


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6),
                                                                inner, max_size=3),
    max_leaves=6,
)


@st.composite
def damaged_exports(draw):
    """A valid export with a few lines damaged: a field dropped or replaced
    by any JSON value, a line replaced by any JSON value or by any text."""
    original = small_export_lines()
    lines = list(original)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        action = draw(st.sampled_from(["drop", "replace", "json", "text"]))
        if action == "json":
            lines[i] = json.dumps(draw(json_values))
        elif action == "text":
            lines[i] = draw(st.text(max_size=40))
        else:
            obj = json.loads(original[i])
            key = draw(st.sampled_from(sorted(obj)))
            if action == "drop":
                del obj[key]
            else:
                obj[key] = draw(json_values)
            lines[i] = json.dumps(obj)
    return "\n".join(lines)


def parses_or_raises_parse_error(text):
    try:
        chain = parse_chain(text)
    except ChainParseError:
        return
    # a chain that parses must also audit to a verdict
    assert isinstance(audit_chain(chain).ok, bool)


@settings(max_examples=300, deadline=None)
@given(text=damaged_exports())
def test_damaged_export_parses_or_raises_parse_error(text):
    parses_or_raises_parse_error(text)


@settings(max_examples=200, deadline=None)
@given(text=st.text())
def test_any_text_parses_or_raises_parse_error(text):
    parses_or_raises_parse_error(text)


def test_raw_lone_surrogate_parses_or_raises_parse_error():
    # no UTF-8 text decodes to a lone surrogate, so only an in-process call
    # can pass one; its line hashes rather than raising UnicodeEncodeError
    lines = list(small_export_lines())
    i = next(i for i, line in enumerate(lines) if '"kind":"record"' in line)
    lines[i] = lines[i].replace('"payload":{', '"payload":{"note":"\ud800",', 1)
    assert "\ud800" in lines[i]
    text = "\n".join(lines)
    parses_or_raises_parse_error(text)
    assert audit_chain(parse_chain(text)).reason == "merkle root mismatch"


def line_hash(text: str) -> str:
    """The hash rule stated for the chain export, as a verifier without the
    twin computes it: SHA-256 of the line's text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# strings with escapes: quotes, backslashes, control, non-ASCII and lone
# surrogate characters
texts = st.text(st.characters(exclude_categories=()), max_size=8) | st.text(
    '"\\\x00\x1f\x7f \u00e9\u20ac\u2028\ud800\U0001f33f', max_size=8)
json_payloads = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | texts,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(texts, inner, max_size=3),
    max_leaves=8,
)


def field_values(typ):
    """Values for a field of declared type `typ`: values of that type, the
    edge cases of its writer, and (but for an enum) any JSON value."""
    if isinstance(typ, enum.EnumMeta):
        return st.sampled_from(list(typ))
    if typ is str:
        values = texts
    elif typ is int:
        values = st.integers() | st.booleans()
    elif typ is float:
        values = st.floats() | st.integers() | st.sampled_from(
            [float("nan"), float("inf"), float("-inf"), -0.0, 1e16])
    elif typ is dict:
        values = st.dictionaries(texts, json_payloads, max_size=4)
    else:
        (item,) = typing.get_args(typ)
        shape = typing.get_args(item)
        values = st.lists(st.tuples(*map(field_values, shape)) if shape else texts, max_size=3)
    return values | json_payloads


@pytest.mark.parametrize("kind", list(_LINES))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_line_templates_write_the_canonical_json_of_the_line_dict(kind, data):
    # the export line as a dict: each line field's value (an enum's member
    # value) under its name, and the `kind` tag
    cls = _LINES[kind].cls
    hints = typing.get_type_hints(cls)
    line = {"kind": kind}
    attrs = {}
    for key in _LINES[kind].keys:
        attrs[key] = data.draw(field_values(hints[key]), label=key)
        line[key] = attrs[key].value if isinstance(hints[key], enum.EnumMeta) else attrs[key]
    obj = cls(**attrs)
    text = _LINES[kind].write(obj)
    assert text == json.dumps(line, sort_keys=True, separators=(",", ":"))
    assert sha256(text) == line_hash(text)


# Python 3.10 has no operator.call, and the ledger must not need it.  The
# ledger writes the record, block and root lines as records resolve, so the
# child also runs the ledger that wrote `small_export_lines`.
WITHOUT_OPERATOR_CALL = """
import operator, sys
del operator.call
from hemptwin import ledger
chain = ledger.parse_chain(sys.stdin.read())
print(ledger.audit_chain(chain).describe())
sys.stdout.write(ledger.export_chain(chain))
sys.path.insert(0, sys.argv[1])
import test_ledger
sys.stdout.write("\\n".join(test_ledger.small_export_lines()) + "\\n")
"""


def test_export_and_audit_without_operator_call():
    text = "\n".join(small_export_lines()) + "\n"
    tests = Path(__file__).resolve().parent
    src = str(tests.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src)
    done = subprocess.run([sys.executable, "-c", WITHOUT_OPERATOR_CALL, str(tests)],
                          input=text, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert audit_chain(parse_chain(text)).ok
    assert done.stdout == "Ok\n" + text + text


@pytest.mark.parametrize("brk", ["\u2028", "\u2029", "\x85"], ids=lambda c: f"U+{ord(c):04X}")
def test_payload_string_holding_a_raw_unicode_line_boundary_parses(brk):
    # the export escapes these characters; JSON allows them raw in a string
    cal, system = build_system(two_layer_cfg())
    for i in range(6):
        payload = {"value": float(i), "note": f"pasted{brk}text"}
        cal.schedule(i * 0.6, lambda i=i, payload=payload: submit_record(
            system, i, location=i % 5, payload=payload))
    cal.run()
    escaped = export_chain(system.chain)
    raw = escaped.replace(json.dumps(brk)[1:-1], brk)
    assert raw != escaped
    chain = parse_chain(raw)
    # each raw line is one line, and exports as it was read
    assert len(chain.records) == 6
    assert export_chain(chain) == raw
    # its text is not the text its block hashed, so the first block in audit
    # order fails, while the escaped export audits Ok
    assert audit_chain(chain).describe() == (
        f"Violation at shard {min(chain.shards)} height 0: merkle root mismatch")
    assert audit_chain(parse_chain(escaped)).ok
    # line numbers count "\n" lines
    n = escaped.count("\n") + 1
    with pytest.raises(ChainParseError, match=f"^line {n}: "):
        parse_chain(raw + "not json\n")


def test_re_spaced_record_line_is_a_merkle_root_mismatch():
    # audit hashes the text it read: json.dumps' default spacing keeps every
    # value of the line, yet its hash no longer matches its block's root
    lines = list(small_export_lines())
    i = max(i for i, line in enumerate(lines) if '"kind":"record"' in line)
    obj = json.loads(lines[i])
    lines[i] = json.dumps(obj, sort_keys=True)
    assert json.loads(lines[i]) == obj and lines[i] != small_export_lines()[i]
    chain = parse_chain("\n".join(lines))
    sid, height = next((sid, block.height) for sid, blocks in chain.shards.items()
                       for block in blocks if obj["record_id"] in block.records)
    assert audit_chain(chain).describe() == (
        f"Violation at shard {sid} height {height}: merkle root mismatch")


def test_crlf_joined_export_audits_ok():
    # parsing strips each line, so a trailing carriage return is not hashed
    lines = small_export_lines()
    chain = parse_chain("\r\n".join(lines) + "\r\n")
    assert audit_chain(chain).ok
    assert export_chain(chain) == "\n".join(lines) + "\n"


def test_each_line_is_written_once(monkeypatch):
    # a record, shard-block or root-block line is written when its record
    # resolves, the meta line at export, and nothing in parse or audit
    cfg = dataclasses.replace(
        default_config(),
        run=RunConfig(warmup_lots=2, run_length_lots=10, replications=1, master_seed=80),
    )
    writes = collections.Counter()
    phase = ["simulate"]
    write = _Line.write

    def counted(line, obj):
        writes[phase[0]] += 1
        return write(line, obj)

    monkeypatch.setattr(_Line, "write", counted)
    _, sim = run_replication(cfg, 0, keep_chain=True)
    phase[0] = "export"
    text = export_chain(sim.ledger.chain)
    phase[0] = "parse"
    chain = parse_chain(text)
    phase[0] = "audit"
    assert audit_chain(chain).ok and audit_chain(sim.ledger.chain).ok
    phase[0] = "export parsed"
    assert export_chain(chain) == text
    n_lines = len(chain.records) + sum(map(len, chain.shards.values())) + len(chain.roots)
    assert n_lines == len(text.splitlines()) - 1 > 0
    assert writes == {"simulate": n_lines, "export": 1, "export parsed": 1}


@pytest.mark.parametrize("topology", list(Topology), ids=lambda t: t.value)
def test_every_hash_is_the_hash_of_its_export_line(topology):
    cfg = dataclasses.replace(
        default_config(),
        chain=dataclasses.replace(default_config().chain, topology=topology),
        run=RunConfig(warmup_lots=5, run_length_lots=30, replications=1, master_seed=77),
    )
    _, sim = run_replication(cfg, 0, keep_chain=True)
    chain = sim.ledger.chain
    lines = export_chain(chain).splitlines()
    blocks = [block for sid in sorted(chain.shards) for block in chain.shards[sid]]
    kept = ([(chain.records[rid], "record") for rid in sorted(chain.records)]
            + [(block, "shard_block") for block in blocks]
            + [(root, "root_block") for root in chain.roots])
    # export joins the kept lines, and audit hashes them without writing any
    # object again: this is the check that each object and its text agree
    assert [obj.line for obj, _ in kept] == lines[1:]
    assert all(obj.line == _LINES[kind].write(obj) for obj, kind in kept)
    assert bool(chain.records) == (topology is not Topology.NONE)
    assert bool(chain.roots) == (topology is Topology.TWO_LAYER)
    # each hash is the hash of the exported line it names, as a verifier
    # without the twin computes it: a one-record block's merkle root that of
    # its record's line, a prev_hash that of the line before, and a root
    # header that of the shard block's line
    line_of = {}
    for line in lines[1:]:
        obj = json.loads(line)
        if obj["kind"] == "record":
            line_of[obj["record_id"]] = line
        elif obj["kind"] == "shard_block":
            line_of[obj["shard_id"], obj["height"]] = line
    for block in blocks:
        (rid,) = block.records
        assert block.merkle_root == line_hash(line_of[rid])
        if block.height:
            assert block.prev_hash == line_hash(line_of[block.shard_id, block.height - 1])
    for before, root in zip(chain.roots, chain.roots[1:]):
        assert root.prev_hash == line_hash(before.line)
    for root in chain.roots:
        for sid, height, header in root.headers:
            assert header == line_hash(line_of[sid, height])


def test_chain_and_latency_log_describe_the_same_confirmations():
    # a confirmed record's verification latency is its block's date minus its
    # submission, and its confirmation latency its root block's date minus
    # its block's date, float for float
    cfg = dataclasses.replace(
        default_config(),
        run=RunConfig(warmup_lots=5, run_length_lots=30, replications=1, master_seed=79),
    )
    assert cfg.chain.topology is Topology.TWO_LAYER
    _, sim = run_replication(cfg, 0, keep_chain=True)
    chain = sim.ledger.chain
    block_at = {(b.shard_id, b.height): b for blocks in chain.shards.values() for b in blocks}
    from_chain = collections.Counter()
    for root in chain.roots:
        for sid, height, _ in root.headers:
            block = block_at[sid, height]
            (rid,) = block.records
            rec = chain.records[rid]
            from_chain[rec.lot_id, rec.record_kind, block.created_at - rec.submitted_at,
                       root.created_at - block.created_at] += 1
    from_log = collections.Counter(entry for entry in sim.ledger.latencies
                                   if entry[3] is not None)
    assert len(chain.roots) == len(block_at) == len(chain.records) > 0
    assert from_chain == from_log


@pytest.mark.parametrize("topology, pools", [(Topology.TWO_LAYER, 3),
                                             (Topology.SINGLE_CHAIN, 1),
                                             (Topology.NONE, 0)],
                         ids=lambda v: v.value if isinstance(v, Topology) else None)
def test_meta_n_shards_is_the_number_of_verification_pools(topology, pools):
    cfg = dataclasses.replace(
        default_config(),
        chain=dataclasses.replace(default_config().chain, topology=topology, n_shards=3),
        run=RunConfig(warmup_lots=5, run_length_lots=30, replications=1, master_seed=78),
    )
    _, sim = run_replication(cfg, 0, keep_chain=True)
    assert len(sim.ledger.shard_pools) == pools
    lines = [json.loads(line)
             for line in export_chain(sim.ledger.chain).splitlines()]
    assert lines[0] == {"kind": "meta", "n_shards": pools, "topology": topology.value}
    shard_ids = {o["shard_id"] for o in lines if o["kind"] == "shard_block"}
    assert all(0 <= sid < pools for sid in shard_ids)
    assert len(shard_ids) == pools


# ---------------------------------------------------------------------------
# authority review queues


class CountedHolds:
    """Hands out `holds` in turn, counting the draws taken."""

    def __init__(self, holds):
        self.holds = iter(holds)
        self.taken = 0

    def __iter__(self):
        return self

    def __next__(self):
        self.taken += 1
        return next(self.holds)


# a coarse grid makes arrivals meet free times exactly and arrive together
grid_times = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 3.0)


@settings(max_examples=300, deadline=None)
@given(servers=st.integers(1, 4), gaps=st.lists(grid_times, min_size=1, max_size=30),
       data=st.data())
def test_review_queue_ends_reviews_where_the_kernel_pool_does(servers, gaps, data):
    holds = data.draw(st.lists(grid_times, min_size=len(gaps), max_size=len(gaps)))
    arrivals = list(itertools.accumulate(gaps))
    # the oracle: one seize-hold-release per arrival through the kernel pool
    cal = EventCalendar()
    pool = ResourcePool(cal, "oracle", servers)
    oracle_holds = iter(holds)
    drawn_by, ends = [], [None] * len(arrivals)

    def arrive(i):
        def hold():
            drawn_by.append(i)
            return next(oracle_holds)

        pool.request(hold, lambda: ends.__setitem__(i, cal.now))

    for i, at in enumerate(arrivals):
        cal.schedule(at, lambda i=i: arrive(i))
    cal.run()
    queue_holds = CountedHolds(holds)
    queue = _ReviewQueue(servers, queue_holds)
    admitted = []
    for at in arrivals:
        admitted.append(queue.admit(at))
        # one draw per arrival, taken as it arrives
        assert queue_holds.taken == len(admitted)
    # the kernel hands the k-th draw to the k-th arrival too
    assert drawn_by == list(range(len(arrivals)))
    assert [end.hex() for end in admitted] == [end.hex() for end in ends]


def test_review_queues_hold_no_more_than_the_records_in_flight():
    cfg = two_layer_cfg(n_shards=2, n_validators_per_shard=MAX_COUNT,
                        n_regulators=MAX_COUNT)
    cal, system = build_system(cfg, keep_chain=False)
    submitted = []
    for i in range(300):
        cal.schedule(i * 0.02, lambda i=i: (
            submitted.append(i),
            submit_record(system, i, location=i % 2),
        ))
    queues = system.shard_pools + [system.root_pool]
    peak = 0  # the most records submitted and not yet resolved at once
    while cal.step():
        peak = max(peak, len(submitted) - len(system.latencies))
        assert max(len(queue._free) for queue in queues) <= peak
    assert len(system.latencies) == 300
    assert 1 < peak < 300


# ---------------------------------------------------------------------------
# layer ends nobody awaits


def run_schedule(cfg, items, await_all, stop_at=None, later=True):
    """Submit `items`, each (time, location, gate, tampered), to a ledger
    that keeps its chain.  Gate records get an `on_resolved` that logs
    (time, item index, verdict); with `await_all` every other record gets a
    no-op one, so that each of its layer ends is a calendar event.  The
    calendar runs dry, or a sentinel event at `stop_at` halts it, with a
    `later` event still pending, as the twin's next season start is,
    or with nothing but awaited ends left.  Returns the latency log, the
    chain export and the verdicts."""
    cal = EventCalendar()
    ledger = LedgerSystem(cal, cfg, RngStream(31, ("oracle",)), keep_chain=True)
    verdicts = []

    def submit(i, location, gate, tampered):
        if gate:
            on_resolved = lambda ok: verdicts.append((cal.now, i, ok))
        else:
            on_resolved = (lambda ok: None) if await_all else None
        submit_record(ledger, i, on_resolved,
                      RecordKind.HARVEST_DATA if gate else RecordKind.DRYING_DATA,
                      location, tampered)

    for i, item in enumerate(items):
        cal.schedule(item[0], lambda i=i, item=item: submit(i, *item[1:]))
    if stop_at is not None:
        cal.schedule(stop_at, cal.halt)
        if later:
            cal.schedule(stop_at + 100.0, lambda: None)
    cal.run()
    return ledger.latencies, export_chain(ledger.chain), verdicts


coarse_times = st.sampled_from([0.0, 0.05, 0.1, 0.2]) | st.floats(0.0, 2.0)


@settings(max_examples=200, deadline=None)
@given(
    items=st.lists(st.tuples(coarse_times, st.integers(0, 3), st.booleans(), st.booleans()),
                   min_size=1, max_size=40),
    topology=st.sampled_from([Topology.TWO_LAYER, Topology.SINGLE_CHAIN]),
    n_shards=st.integers(1, 3),
    validators=st.integers(1, 3),
    regulators=st.integers(1, 3),
    miss=st.sampled_from([0.0, 0.3, 0.8]) | st.floats(0.01, 0.99),
    stop_at=st.none() | coarse_times,
    later=st.booleans(),
)
def test_unawaited_ends_off_the_calendar_change_no_outcome(
        items, topology, n_shards, validators, regulators, miss, stop_at, later):
    # the ledger's own heap runs the ends nobody awaits in the calendar's
    # order: a run where every record is awaited, so every end is an event,
    # logs the same latencies, exports the same chain and hands the gate
    # records the same verdicts at the same times, in the same order
    cfg = ChainConfig(topology=topology, n_shards=n_shards,
                      n_validators_per_shard=validators, n_regulators=regulators,
                      miss_probability=miss)
    assert (run_schedule(cfg, items, await_all=False, stop_at=stop_at, later=later)
            == run_schedule(cfg, items, await_all=True, stop_at=stop_at, later=later))


@pytest.mark.parametrize("later", [False, True], ids=["nothing-left", "event-left"])
def test_a_halted_run_runs_no_unawaited_end_after_its_halt(later):
    # five records nobody awaits, then a sentinel that halts the run before
    # any of them is verified: none has resolved, also when the halt left
    # nothing on the calendar
    latencies, export, _ = run_schedule(
        two_layer_cfg(), [(0.0, i, False, False) for i in range(5)],
        await_all=False, stop_at=0.001, later=later)
    assert latencies == [] and parse_chain(export).records == {}


@pytest.mark.parametrize("stop_at", [None, 1.5], ids=["dry", "halted"])
def test_unawaited_ends_keep_clamped_commits_in_order(stop_at):
    # one shard, several validators and regulators: headers reach the root
    # layer out of height order, so commits clamp to the shard's previous
    # commit and tie with it; every third record is a gate record, and
    # tampered records are missed half the time
    cfg = two_layer_cfg(n_shards=1, n_validators_per_shard=4, n_regulators=3,
                        miss_probability=0.5)
    items = [(0.01 * (i // 4), 0, i % 3 == 0, i % 5 == 2) for i in range(120)]
    unawaited = run_schedule(cfg, items, await_all=False, stop_at=stop_at)
    assert unawaited == run_schedule(cfg, items, await_all=True, stop_at=stop_at)
    chain = parse_chain(unawaited[1])
    assert any(a.created_at == b.created_at for a, b in zip(chain.roots, chain.roots[1:]))
    # submitted in item order: the times never decrease, and ties fire FIFO
    tampered = {record_id(i) for i, item in enumerate(items) if item[3]}
    assert 0 < len(tampered & set(chain.records)) < len(tampered)
