"""Two-layer authority-verified ledger: routing, queues, blocks, and audit.

Records are routed by the submitter's location to a shard, verified on-site
by that shard's local authority pool (slow), appended to the shard chain, and
then confirmed online by the root-chain regulator pool (fast).  A record only
becomes authoritative once its shard block header is embedded in a root
block.  The single-chain baseline runs one verification pool and no
confirmation layer; a disabled ledger takes no records: the twin accepts
its data at face value with zero delay, and falsification is never caught.

Nothing cancels an authority pool's reviews, so a record's review end is
known when it arrives: each pool computes it in closed form.  Only a record
a submitter waits on gets calendar events; the others' layer ends wait on
the ledger's own heap until a later event or a read needs them.  A ledger
that keeps no chain skips even that once such a record's outcome is fixed:
it logs the record's latencies then, keyed where its last end would have
stood in the calendar's order, and lists them once a read reaches that key.

Chains are hash-linked: each block carries the header hash of its
predecessor and a merkle root over its records, so any post-hoc mutation is
detectable by `audit_chain`.  Every hash is the SHA-256 of the object's
export line, which the object keeps: the ledger writes it once, when the
record resolves, parsing keeps the text it read, export joins the kept
lines and audit hashes them, so audit checks the bytes a verifier hashes.
A line is its kind's template, built from its class's fields, filled by
one writer for every value, which writes a value's canonical JSON.
The ledger's chain holds only confirmed work: a record and its block join
it when the record is confirmed.

Submitters hand the ledger a record's fields, not a record: the ledger
numbers records in submission order and, only when it keeps the chain,
builds each accepted `DataRecord` as it resolves, named `r` and its
six-digit number (`r000001`, ...).  A ledger that keeps no chain builds no
record and names none.
"""

from __future__ import annotations

import enum
import hashlib
import heapq
import json
import math
import typing
from dataclasses import KW_ONLY, dataclass, field, fields
from json.encoder import c_make_encoder, encode_basestring_ascii as _escape
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

from .config import ChainConfig, Topology
from .domain import IdentityEnum

if TYPE_CHECKING:
    from .kernel import EventCalendar
    from .randomness import RngStream

__all__ = [
    "ParticipantRole",
    "RecordKind",
    "DataRecord",
    "ShardBlock",
    "RootBlock",
    "ChainState",
    "AuditResult",
    "ChainParseError",
    "GENESIS_HASH",
    "sha256",
    "merkle_root",
    "assign_shard",
    "audit_chain",
    "export_chain",
    "parse_chain",
    "LedgerSystem",
]

GENESIS_HASH = "0" * 64


class ChainParseError(ValueError):
    """Unreadable chain export."""


class ParticipantRole(IdentityEnum):
    BREEDER = "breeder"
    GROWER = "grower"
    DRYER = "dryer"
    PROCESSOR = "processor"
    TRANSPORTER = "transporter"
    LAB = "lab"


class RecordKind(IdentityEnum):
    SEED_SOURCE = "seed_source"
    FIELD_INFO = "field_info"
    CULTIVATION_DATA = "cultivation_data"
    PREHARVEST_REQUEST = "preharvest_request"
    PREHARVEST_RESULT = "preharvest_result"
    HARVEST_DATA = "harvest_data"
    DRYING_DATA = "drying_data"
    POST_STABILIZATION_TEST = "post_stabilization_test"
    EXTRACTION_DATA = "extraction_data"
    WINTERIZATION_DATA = "winterization_data"
    PLC_DATA = "plc_data"
    FINAL_COA = "final_coa"
    TRANSPORT_DATA = "transport_data"


@dataclass(slots=True)
class DataRecord:
    """One accepted data record.  `payload` is the as-reported (on-chain)
    view.  `line`, as on the blocks, is the export line the object is hashed
    as, empty until it is written."""

    record_id: str
    lot_id: str
    role: ParticipantRole
    record_kind: RecordKind
    location: int
    payload: dict
    submitted_at: float
    _: KW_ONLY
    line: str = ""


@dataclass(slots=True)
class ShardBlock:
    shard_id: int
    height: int
    prev_hash: str
    merkle_root: str
    validator: str
    created_at: float
    records: list[str]  # the ids of its records
    nonce: int = 0  # vestigial under proof-of-authority; kept constant
    _: KW_ONLY
    line: str = ""


@dataclass(slots=True)
class RootBlock:
    height: int
    prev_hash: str
    headers: list[tuple[int, int, str]]  # [(shard_id, height, header_hash), ...]
    regulator: str
    created_at: float
    nonce: int = 0
    _: KW_ONLY
    line: str = ""


@dataclass(slots=True)
class ChainState:
    """Everything a chain export contains: confirmed records and blocks."""

    topology: Topology
    n_shards: int  # verification pools: 0 with the ledger disabled
    _: KW_ONLY
    records: dict = field(default_factory=dict)  # record_id -> DataRecord
    shards: dict = field(default_factory=dict)  # shard_id -> [ShardBlock]
    roots: list = field(default_factory=list)

    def shard_blocks(self, shard_id: int) -> list:
        return self.shards.setdefault(shard_id, [])


# ---------------------------------------------------------------------------
# chain export schema: the classes above.  Each export line is one JSON
# object tagged by `kind`: the fields of its class before `KW_ONLY`, each
# under its attribute's name and of the type the class declares.

# Canonical JSON: sorted keys, no whitespace, non-ASCII escaped.  One C
# encoder, built once, serves every call; it skips the cycle check, as no chain
# object holds a cycle.
if c_make_encoder is not None:
    # markers, default, encoder, indent, key and item separators, sort_keys,
    # skipkeys, allow_nan
    _encode = c_make_encoder(None, json.JSONEncoder().default, _escape, None,
                             ":", ",", True, False, True)

    def _canonical(value) -> str:
        return "".join(_encode(value, 0))
else:  # the pure-Python json writes the same text
    _canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _value(value) -> str:
    """The canonical JSON of one chain value: a string is escaped and a
    finite int or float written as its repr, the text the encoder writes
    for them; anything else goes through the encoder."""
    typ = type(value)
    if typ is str:
        return _escape(value)
    if (typ is int or typ is float) and value - value == 0:
        return repr(value)
    return _canonical(value)


class _Line(NamedTuple):
    """One chain class's export line, compiled for writing and parsing."""

    cls: type
    keys: tuple  # export keys
    types: tuple  # their JSON types
    readers: tuple  # (index into keys, reader) for values converted on parse
    text: str  # %-template of the line, `kind` tag included, keys sorted
    get: Callable  # the values of the template's slots, in its order

    def write(self, obj) -> str:
        """The export line of `obj`."""
        # not tuple(map(...)): that allocates a 10-slot tuple and shrinks it,
        # the shrunk tuple is freed to another size's free list, and the
        # collector counts one more live object per call, so collects sooner
        return self.text % (*map(_value, self.get(obj)),)


def _reader(typ) -> Callable | None:
    """Conversion of a type-checked JSON value into the attribute value of a
    field of type `typ` (KeyError for an unknown enum value); None where the
    value is kept as it is."""
    if isinstance(typ, enum.EnumMeta):
        return {member.value: member for member in typ}.__getitem__
    if typing.get_origin(typ) is list:
        (item,) = typing.get_args(typ)
        shape = typing.get_args(item)

        def to_items(value):
            if shape:
                items = [tuple(v) for v in value
                         if type(v) is list and tuple(map(type, v)) == shape]
            else:
                items = [v for v in value if type(v) is item]
            if len(items) != len(value):
                raise ValueError(f"must be {typ}")
            return items

        return to_items
    return None


def _compile(kind: str, cls: type) -> _Line:
    """The line kind `kind` of the chain class `cls`.  Its fields give the
    template, which writes an enum as its member's value; the type hints
    drive parsing only: a float field also accepts a JSON integer and keeps
    it an integer, and a list type names its items (a tuple item is a fixed
    array).  Parsing builds the object from the values by position."""
    hints = typing.get_type_hints(cls)
    keys = [f.name for f in fields(cls) if not f.kw_only]
    types, paths, readers = [], {}, []
    for i, key in enumerate(keys):
        typ = hints[key]
        is_enum = isinstance(typ, enum.EnumMeta)
        types.append(str if is_enum else typing.get_origin(typ) or typ)
        paths[key] = key + "._value_" if is_enum else key
        read = _reader(typ)
        if read is not None:
            readers.append((i, read))
    # the template writes the keys sorted, the constant `kind` tag among them
    slots = dict.fromkeys(keys, "%s") | {"kind": _escape(kind)}
    text = ",".join(f"{_escape(key)}:{slots[key]}" for key in sorted(slots))
    get = attrgetter(*(paths[key] for key in sorted(paths)))
    return _Line(cls, tuple(keys), tuple(types), tuple(readers), "{" + text + "}", get)


_LINES = {kind: _compile(kind, cls) for kind, cls in [
    ("meta", ChainState), ("record", DataRecord),
    ("shard_block", ShardBlock), ("root_block", RootBlock)]}


def sha256(line: str) -> str:
    """The hash of a line's text: SHA-256 of its UTF-8 bytes, which for every
    line the ledger writes are its ASCII bytes.  A lone surrogate, which only
    a string passed to `parse_chain` in-process can hold, hashes as its
    surrogate code unit rather than raising."""
    return hashlib.sha256(line.encode("utf-8", "surrogatepass")).hexdigest()


def merkle_root(leaf_hashes: list[str]) -> str:
    """Binary merkle root; a single leaf is its own root, odd levels repeat
    their last element."""
    if not leaf_hashes:
        return GENESIS_HASH
    level = list(leaf_hashes)
    while len(level) > 1:
        if len(level) % 2 == 1:
            level.append(level[-1])
        level = [sha256(a + b) for a, b in zip(level[::2], level[1::2])]
    return level[0]


def assign_shard(location: int, n_shards: int) -> int:
    """Deterministic location-based routing, stable per participant."""
    if n_shards < 1:
        raise ValueError("need at least one shard")
    return location % n_shards


@dataclass(frozen=True)
class AuditResult:
    ok: bool
    shard_id: int | None = None
    height: int | None = None
    reason: str | None = None

    def describe(self) -> str:
        if self.ok:
            return "Ok"
        where = f"shard {self.shard_id} " if self.shard_id is not None else ""
        return f"Violation at {where}height {self.height}: {self.reason}"


def audit_chain(chain: ChainState) -> AuditResult:
    """Recompute every hash link, merkle root, and root-coverage relation
    from the objects' kept lines; report the first violation in
    deterministic order."""
    covered_records: set[str] = set()
    header_hashes: dict[tuple[int, int], str] = {}
    for shard_id in sorted(chain.shards):
        prev = GENESIS_HASH
        prev_height = -1
        for block in chain.shards[shard_id]:
            if block.height <= prev_height:
                return AuditResult(
                    False, shard_id, block.height, "height not strictly increasing"
                )
            if block.prev_hash != prev:
                return AuditResult(False, shard_id, block.height, "prev_hash mismatch")
            leaf_hashes = []
            for rid in block.records:
                rec = chain.records.get(rid)
                if rec is None:
                    return AuditResult(
                        False, shard_id, block.height, f"missing record {rid}"
                    )
                if rid in covered_records:
                    return AuditResult(
                        False, shard_id, block.height, f"record {rid} in two blocks"
                    )
                covered_records.add(rid)
                leaf_hashes.append(sha256(rec.line))
            if merkle_root(leaf_hashes) != block.merkle_root:
                return AuditResult(False, shard_id, block.height, "merkle root mismatch")
            prev = sha256(block.line)
            prev_height = block.height
            header_hashes[(shard_id, block.height)] = prev

    uncovered = set(chain.records) - covered_records
    if uncovered:
        rid = sorted(uncovered)[0]
        return AuditResult(False, None, None, f"record {rid} not in any block")

    referenced: set[tuple[int, int]] = set()
    prev = GENESIS_HASH
    prev_height = -1
    for root in chain.roots:
        if root.height <= prev_height:
            return AuditResult(
                False, None, root.height, "root height not strictly increasing"
            )
        if root.prev_hash != prev:
            return AuditResult(False, None, root.height, "root prev_hash mismatch")
        for shard_id, height, header in root.headers:
            key = (shard_id, height)
            if key in referenced:
                return AuditResult(
                    False, shard_id, root.height, "shard header confirmed twice"
                )
            referenced.add(key)
            actual = header_hashes.get(key)
            if actual is None:
                return AuditResult(
                    False, shard_id, root.height,
                    f"root references missing shard block at height {height}",
                )
            if actual != header:
                return AuditResult(
                    False, shard_id, root.height, "shard header hash mismatch"
                )
        prev = sha256(root.line)
        prev_height = root.height

    if chain.topology is Topology.TWO_LAYER:
        unconfirmed = set(header_hashes) - referenced
        if unconfirmed:
            shard_id, height = sorted(unconfirmed)[0]
            return AuditResult(False, shard_id, height, "shard block never confirmed")
    return AuditResult(True)


# ---------------------------------------------------------------------------
# export / parse


def export_chain(chain: ChainState) -> str:
    """Line-delimited export: the meta line, written here, then each object's
    kept line.  Bit-exact across runs with the same seed."""
    lines = [_LINES["meta"].write(chain)]
    lines += [chain.records[rid].line for rid in sorted(chain.records)]
    for shard_id in sorted(chain.shards):
        lines += [block.line for block in chain.shards[shard_id]]
    lines += [root.line for root in chain.roots]
    return "\n".join(lines) + "\n"


# one line's JSON value without json.loads' per-call wrapping; parse_chain
# rejects trailing data itself
_decode = json.JSONDecoder().raw_decode


def _check_fields(obj: dict, line: _Line) -> None:
    """Raise ValueError naming the first field of `line` that `obj` lacks or
    holds with the wrong JSON type (an integer passes as a number, if a float
    can hold it; it stays an integer)."""
    for key, typ in zip(line.keys, line.types):
        if key not in obj:
            raise ValueError(f"missing field {key!r}")
        got = type(obj[key])
        if typ is float and got is int:
            try:
                float(obj[key])
            except OverflowError as exc:
                raise ValueError(f"field {key!r}: {exc}") from None
        elif got is not typ:
            raise ValueError(f"field {key!r} must be {typ.__name__}, got {got.__name__}")


def _parse_line(obj, text: str, chain: ChainState | None) -> ChainState:
    """Add the export line `text`, decoded as `obj`, to `chain`; the meta
    line starts it."""
    if type(obj) is not dict:
        raise ValueError(f"expected an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if type(kind) is not str or kind not in _LINES:
        raise ValueError(f"unknown kind {kind!r}")
    if chain is None and kind != "meta":
        raise ValueError("content before meta line")
    if chain is not None and kind == "meta":
        # a later meta line would silently discard everything before it
        raise ValueError("second meta line")
    line = _LINES[kind]
    values = list(map(obj.get, line.keys))
    # one type comparison for the whole line; the field-by-field check only
    # runs when it fails
    if tuple(map(type, values)) != line.types:
        _check_fields(obj, line)
    # the type check found every declared key, so a key beyond them and
    # `kind` is undeclared
    if len(obj) != len(values) + 1:
        extra = next(key for key in obj if key != "kind" and key not in line.keys)
        raise ValueError(f"undeclared field {extra!r}")
    try:
        for i, read in line.readers:
            values[i] = read(values[i])
    except KeyError as exc:
        raise ValueError(f"field {line.keys[i]!r}: unknown value {exc}") from None
    except ValueError as exc:
        raise ValueError(f"field {line.keys[i]!r}: {exc}") from None
    item = line.cls(*values)
    if kind == "meta":
        return item
    item.line = text
    if kind == "record":
        # a second copy would silently replace the first, forged or genuine
        if item.record_id in chain.records:
            raise ValueError(f"duplicate record {item.record_id!r}")
        chain.records[item.record_id] = item
    elif kind == "shard_block":
        chain.shard_blocks(item.shard_id).append(item)
    else:
        chain.roots.append(item)
    return chain


def parse_chain(text: str) -> ChainState:
    """Rebuild a chain from `export_chain` text.  A line that is not a JSON
    object, a second meta line, a second record line with the same id, or a
    line missing a field of its kind, holding one of the wrong type, an
    unknown enum value or an integer no float can hold, or holding a key its
    kind does not declare raises ChainParseError naming the line.  Each
    object keeps its line's text, stripped, so it exports and hashes as it
    was read.  Lines end only at a line feed: JSON allows U+2028, U+2029 and
    U+0085 raw inside a string, and `str.splitlines` would break the line
    there."""
    chain: ChainState | None = None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj, end = _decode(line)
            if end != len(line):
                raise ValueError(f"extra data at column {end + 1}")
            chain = _parse_line(obj, line, chain)
        except (ValueError, RecursionError) as exc:
            raise ChainParseError(f"line {lineno}: {exc}") from exc
    if chain is None:
        # an empty export is a vacuously intact chain
        chain = ChainState(topology=Topology.NONE, n_shards=0)
    return chain


# ---------------------------------------------------------------------------
# simulated verification network


@dataclass(slots=True)
class RecordTicket:
    """One submitted record in flight: the fields the submitter gave, its
    shard and its waiter.  Its verification end is set as it is verified;
    its latencies, and its `DataRecord` and block when the chain is kept,
    are written only when it resolves."""

    seq: int  # its place in submission order, from 1: the record id's number
    lot_id: str
    record_kind: RecordKind
    role: ParticipantRole
    location: int
    payload: dict
    submitted_at: float
    tampered: bool
    on_resolved: Callable[[bool], None] | None
    shard: int
    verify_end: float | None = None


# Per topology: the number of verification pools, the servers per pool and
# the verification service mean.  The single chain is one pool with no root
# layer; with the ledger disabled there are no pools at all.
_ROUTES = {
    Topology.TWO_LAYER: lambda cfg: (
        cfg.n_shards, cfg.n_validators_per_shard, cfg.verification_mean_days
    ),
    Topology.SINGLE_CHAIN: lambda cfg: (1, cfg.n_regulators, cfg.single_chain_mean_days),
    Topology.NONE: lambda cfg: (0, 0, 0.0),
}


class _ReviewQueue:
    """A FIFO pool of `servers` authorities whose reviews take the durations
    `holds` yields, one per record.  `admit(now)` returns the review end of a
    record arriving at `now`: it starts at `now` if a server is idle, else
    when the first busy one frees (the Kiefer-Wolfowitz recursion).  That is
    the end `kernel.ResourcePool.request` reaches, float for float, as long
    as the k-th arrival takes the k-th hold and no review is cancelled.  The
    heap never outgrows the records in review at the busiest moment so far."""

    __slots__ = ("servers", "holds", "_free")

    def __init__(self, servers: int, holds: Iterator[float]) -> None:
        self.servers = servers
        self.holds = holds
        self._free: list[float] = []  # heap: when each server used so far frees

    def admit(self, now: float) -> float:
        free = self._free
        hold = next(self.holds)
        if free and (free[0] <= now or len(free) == self.servers):
            # reuse the server that frees first; it starts at once if idle
            start = free[0]
            end = (start if start > now else now) + hold
            heapq.heapreplace(free, end)
        else:
            end = now + hold
            heapq.heappush(free, end)
        return end


class LedgerSystem:
    """Verification and confirmation queues wired into an event calendar.

    The topology fixes the route when the ledger is built: the verification
    pools, their service mean and whether a root confirmation layer exists;
    a disabled ledger has no pools and takes no records.  Each layer is a
    `_ReviewQueue` per pool: a record gets its verification end from its
    shard's queue at submission and, on the two-layer chain, its review end
    from the root queue once verified; a header commits at the later of its
    review end and its shard's previous commit, so in height order.
    `submit` calls `on_resolved(accepted)` once the record is usable: at
    verification for the single chain, at root confirmation for the
    two-layer chain.  Only such awaited ends are calendar events; the others
    wait on the ledger's heap, numbered from the calendar's sequence, and
    run in its order before the next awaited end or a read of `chain` or
    `latencies`: all of them once the calendar has run dry, else those keyed
    before the event that fired last.  A record's outcome is written once,
    when it resolves: its latencies and, with `keep_chain` and an accepted
    verdict, its `DataRecord`, and the export lines of the record and its
    block, dated its verification end; both join `chain` then, so `chain`
    holds no in-flight work and audits clean at any moment of a run.

    Without `keep_chain` a record nobody awaits resolves as soon as its
    outcome is fixed: an untampered single-chain record at submission, as
    its verification end is its last layer and draws nothing, and a
    two-layer one at its verification end, dated the commit that the root
    queue fixes there.  Its row is keyed `(time, sequence)` where its last
    end's heap entry would have been, the sequence drawn from the calendar
    when that entry's would have been, and `latencies` lists it once a read
    passes that key.  `latencies` lists rows in submission order, so the
    log reads the same whenever its records resolved.
    """

    def __init__(
        self,
        calendar: EventCalendar,
        cfg: ChainConfig,
        stream: RngStream,
        keep_chain: bool = False,
    ) -> None:
        self.calendar = calendar
        self.cfg = cfg
        self.keep_chain = keep_chain
        # per record, in submission order: its latency row once resolved
        self._rows: list[tuple | None] = []
        # (time, calendar sequence, submission number) of each row resolved
        # ahead of its last end, until a read passes that key
        self._ahead: list[tuple[float, int, int]] = []
        n_pools, servers, verify_mean = _ROUTES[cfg.topology](cfg)
        self._chain = ChainState(topology=cfg.topology, n_shards=n_pools)
        self._miss_stream = stream.child("miss")
        self.shard_pools = [
            _ReviewQueue(servers, stream.child("shard", s).exponentials(verify_mean))
            for s in range(n_pools)
        ]
        self.root_pool = None
        if cfg.topology is Topology.TWO_LAYER:
            confirm = stream.child("root").exponentials(cfg.confirmation_mean_days)
            self.root_pool = _ReviewQueue(cfg.n_regulators, confirm)
        self._prev_hash = [GENESIS_HASH] * n_pools
        self._root_prev = GENESIS_HASH
        # per shard: the time of the last commit scheduled, which a later
        # header waits for
        self._commit_at = [0.0] * n_pools
        # layer ends nobody awaits: heap of (time, calendar sequence, ticket)
        self._pending: list[tuple[float, int, RecordTicket]] = []
        self._submitted = 0  # records submitted so far

    @property
    def chain(self) -> ChainState:
        self._catch_up(self._read_key())
        return self._chain

    @property
    def latencies(self) -> list[tuple[str, RecordKind, float, float | None]]:
        """(lot id, kind, verification latency, confirmation latency or None)
        of each record resolved so far, in submission order."""
        key = self._read_key()
        self._catch_up(key)
        # a row resolved ahead is listed once a read passes its key
        self._ahead = [item for item in self._ahead if not item[:2] < key]
        hidden = {seq for _, _, seq in self._ahead}
        return [row for seq, row in enumerate(self._rows, 1)
                if row is not None and seq not in hidden]

    # -- submission --------------------------------------------------------

    def submit(
        self,
        lot_id: str,
        on_resolved: Callable[[bool], None] | None,
        kind: RecordKind,
        role: ParticipantRole,
        location: int,
        payload: dict,
        tampered: bool = False,
    ) -> None:
        """Submit a record of `kind` on lot `lot_id`, reported now by the
        participant `role` at `location` (which routes it to a shard), with
        the on-chain `payload`; `tampered` marks falsified values, off-chain.
        `on_resolved(accepted)`, if given, runs once the record is usable.
        Records are numbered in submission order, from 1."""
        shard = assign_shard(location, len(self.shard_pools))
        self._submitted += 1
        self._rows.append(None)
        calendar = self.calendar
        now = calendar.now
        end = self.shard_pools[shard].admit(now)
        if (on_resolved is None and not tampered and self.root_pool is None
                and not self.keep_chain):
            # verification is its last layer and draws nothing: resolved now
            self._rows[-1] = (lot_id, kind, end - now, None)
            self._ahead.append((end, next(calendar.order), self._submitted))
            return
        self._due(RecordTicket(self._submitted, lot_id, kind, role, location, payload,
                               now, tampered, on_resolved, shard), end)

    def _due(self, ticket: RecordTicket, at: float) -> None:
        """The ticket's layer ends at `at`: an event if awaited, else a heap entry."""
        calendar = self.calendar
        if ticket.on_resolved is None:
            heapq.heappush(self._pending, (at, next(calendar.order), ticket))
        else:
            calendar.schedule(at, lambda: self._layer_ends(ticket, calendar.now))

    def _read_key(self) -> tuple:
        """The key a read runs the pending ends before: that of the event
        that fired last, or one past every end once the calendar has run dry."""
        calendar = self.calendar
        return ((calendar.now, calendar.fired) if len(calendar) or calendar.halted
                else (math.inf,))

    def _catch_up(self, key: tuple) -> None:
        """Run the pending ends keyed before `key`."""
        pending = self._pending
        while pending and pending[0] < key:
            at, _, ticket = heapq.heappop(pending)
            self._layer_ends(ticket, at)

    def _layer_ends(self, ticket: RecordTicket, now: float) -> None:
        """The ticket's layer in review ends at `now`: a committed record
        resolves; a verified one resolves or goes on to the root layer."""
        if ticket.on_resolved is not None:  # an event: the ends before it run first
            self._catch_up((now, self.calendar.fired))
        if ticket.verify_end is not None:
            self._resolve(ticket, True, now)
            return
        ticket.verify_end = now
        rejected = ticket.tampered and not (
            self.cfg.miss_probability > 0.0
            and self._miss_stream.bernoulli(self.cfg.miss_probability)
        )
        if rejected or self.root_pool is None:
            # verification is the record's last layer: on-site validation
            # caught its falsified values, or the chain has no root layer
            self._resolve(ticket, not rejected, now)
            return
        # the header commits in shard height order: not before its review
        # ends, nor before the shard's previous header commits
        shard = ticket.shard
        at = self.root_pool.admit(now)
        if at < self._commit_at[shard]:
            at = self._commit_at[shard]
        self._commit_at[shard] = at
        if ticket.on_resolved is None and not self.keep_chain:
            # the commit only logs its latencies: resolved now, dated it
            self._rows[ticket.seq - 1] = (
                ticket.lot_id, ticket.record_kind, now - ticket.submitted_at, at - now)
            self._ahead.append((at, next(self.calendar.order), ticket.seq))
            return
        self._due(ticket, at)

    def _resolve(self, ticket: RecordTicket, accepted: bool, now: float) -> None:
        """Write the record's outcome at `now`, its last layer's end: log its
        latencies in its submission-order slot; when the chain is kept, build
        an accepted record, named `r` and its six-digit submission number,
        write the export lines of it and its block, dated its verification
        end, hash them and put both on the chain, with a root block on the
        two-layer chain; then hand the verdict to its submitter.  Each
        shard's records resolve in verification order, so a block's height
        is its place in the shard's list.  The no-chain fast paths in
        `submit` and `_layer_ends` log the same row without coming here."""
        shard, verify_end = ticket.shard, ticket.verify_end
        committed = accepted and self.root_pool is not None
        self._rows[ticket.seq - 1] = (
            ticket.lot_id, ticket.record_kind, verify_end - ticket.submitted_at,
            now - verify_end if committed else None,
        )
        if accepted and self.keep_chain:
            chain = self._chain
            blocks = chain.shard_blocks(shard)
            record = DataRecord(
                record_id=f"r{ticket.seq:06d}",
                lot_id=ticket.lot_id,
                role=ticket.role,
                record_kind=ticket.record_kind,
                location=ticket.location,
                payload=ticket.payload,
                submitted_at=ticket.submitted_at,
            )
            record.line = _LINES["record"].write(record)
            block = ShardBlock(
                shard_id=shard,
                height=len(blocks),
                prev_hash=self._prev_hash[shard],
                merkle_root=merkle_root([sha256(record.line)]),
                validator=f"authority-s{shard}",
                created_at=verify_end,
                records=[record.record_id],
            )
            block.line = _LINES["shard_block"].write(block)
            header = self._prev_hash[shard] = sha256(block.line)
            chain.records[record.record_id] = record
            blocks.append(block)
            if committed:
                root = RootBlock(
                    height=len(chain.roots),
                    prev_hash=self._root_prev,
                    headers=[(shard, block.height, header)],
                    regulator="regulator-root",
                    created_at=now,
                )
                root.line = _LINES["root_block"].write(root)
                self._root_prev = sha256(root.line)
                chain.roots.append(root)
        if ticket.on_resolved is not None:
            ticket.on_resolved(accepted)
