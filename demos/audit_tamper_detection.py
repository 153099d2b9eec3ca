"""
Hash-linked ledger audit: catching a post-hoc edit
==================================================

Every verified record lands in a shard block whose header carries the
previous block's hash and a merkle root over its records; confirmed headers
are embedded in the hash-linked root chain.  This demo runs a replication,
exports the confirmed chain, then shows that (1) the untouched export
audits clean, (2) a root block's shard-header hash is the SHA-256 of the
exported shard block line, which anyone can check with `hashlib` alone,
(3) editing a single payload value is located at the exact block, and
(4) deleting a block breaks its successor's hash link.
"""

import dataclasses
import hashlib
import json

from hemptwin import default_config
from hemptwin.config import RunConfig
from hemptwin.ledger import audit_chain, export_chain, parse_chain
from hemptwin.simulation import run_replication

cfg = dataclasses.replace(
    default_config(),
    run=RunConfig(warmup_lots=0, run_length_lots=100, replications=1,
                  master_seed=99),
)

stats, sim = run_replication(cfg, 0, keep_chain=True)
chain = sim.ledger.chain
text = export_chain(chain)
n_blocks = sum(len(blocks) for blocks in chain.shards.values())
print(f"exported {len(chain.records)} records in {n_blocks} shard blocks "
      f"across {chain.n_shards} shards, {len(chain.roots)} root blocks")

print("\n1) untouched export:", audit_chain(parse_chain(text)).describe())

# 2) check a root block's first shard header against the export's own text
lines = text.splitlines()
objs = [json.loads(line) for line in lines]
root = next(obj for obj in objs if obj["kind"] == "root_block")
shard_id, height, header = root["headers"][0]
shard_line = next(
    line for line, obj in zip(lines, objs)
    if obj["kind"] == "shard_block" and (obj["shard_id"], obj["height"]) == (shard_id, height)
)
digest = hashlib.sha256(shard_line.encode("ascii")).hexdigest()
assert digest == header, "a root header must be the SHA-256 of its shard block's line"
print(f"\n2) root block {root['height']} confirms shard {shard_id} block height "
      f"{height} by header\n    {header},\n    the SHA-256 of that block's exported line")

# 3) edit one number in one record's payload
victim_block = chain.shards[0][7]
victim = victim_block.records[0]
lines = []
for line in text.splitlines():
    obj = json.loads(line)
    if obj.get("kind") == "record" and obj["record_id"] == victim:
        key = sorted(obj["payload"])[0]
        print(f"\n3) editing record {victim} (field {key!r}, "
              f"lives in shard 0 block height 7) ...")
        obj["payload"][key] = 12345.0
        line = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    lines.append(line)
print("   ", audit_chain(parse_chain("\n".join(lines))).describe())

# 4) remove a whole block from the middle of shard 1
print("\n4) deleting shard 1 block height 4 ...")
kept = [
    line for line in text.splitlines()
    if not (
        json.loads(line).get("kind") == "shard_block"
        and json.loads(line)["shard_id"] == 1
        and json.loads(line)["height"] == 4
    )
]
print("   ", audit_chain(parse_chain("\n".join(kept))).describe())
