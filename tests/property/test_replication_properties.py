"""Property tests: CDC replication vs a dict oracle (ISSUE 8).

No hypothesis in the toolchain, so this is a seeded ``random.Random``
harness with explicit shrinking (same shape as the write-back property
suite).  Each seed generates a random sequence of primary mutations and
hostile delivery events — dropped batches, duplicated batches, reordered
batches (gap injection), and standby crash/restores through the durable
checkpoint document — replayed through the real protocol objects
(:class:`ChangeCapture` → ``apply_ship`` on a :class:`StandbyEndpoint`).

Invariants:

- **exact convergence**: after a faultless final drain the standby's
  namespace equals the primary's, record for record;
- **at-most-once**: the standby's per-home applied counts equal the
  number of unique post-sync sequences — duplicates and replays after a
  crash/restore never re-apply;
- **floor monotonicity**: acks never regress, across crashes included.

On failure the op sequence is greedily shrunk to a minimal
still-failing subsequence before asserting.
"""

import json
import random

import pytest

from repro.core import checkpoint as core_checkpoint
from repro.core.cluster import GHBACluster
from repro.core.config import GHBAConfig
from repro.metadata.attributes import FileMetadata
from repro.replication import ChangeCapture, StandbyEndpoint
from repro.replication.audit import diff_states, snapshot_state
from repro.replication.cdc import entry_to_wire

from tests.property._shrink import shrink

SEEDS = range(20)

NUM_SERVERS = 4
SEED_PATHS = [f"/pr/d{i % 4}/f{i}" for i in range(40)]


def _build_primary(seed):
    config = GHBAConfig(
        max_group_size=4,
        expected_files_per_mds=200,
        lru_capacity=128,
        lru_filter_bits=1 << 10,
        seed=seed,
    )
    cluster = GHBACluster(NUM_SERVERS, config, seed=seed)
    cluster.populate(SEED_PATHS)
    cluster.synchronize_replicas(force=True)
    return cluster


def _generate_ops(seed, length=90):
    """A reproducible op list; any subsequence replays deterministically
    during shrinking (every op is self-contained)."""
    rng = random.Random(seed)
    ops = []
    serial = 0
    gen = 0
    for _ in range(length):
        roll = rng.random()
        if roll < 0.34:
            serial += 1
            ops.append(("create", serial, rng.randrange(1 << 30)))
        elif roll < 0.46:
            ops.append(("delete", rng.randrange(1 << 30), 0))
        elif roll < 0.52:
            gen += 1
            ops.append(("rename", rng.randrange(4), gen))
        elif roll < 0.70:
            ops.append(("ship", rng.randrange(1 << 30), "ok"))
        elif roll < 0.78:
            ops.append(("ship", rng.randrange(1 << 30), "drop"))
        elif roll < 0.86:
            ops.append(("ship", rng.randrange(1 << 30), "dup"))
        elif roll < 0.94:
            ops.append(("ship", rng.randrange(1 << 30), "reorder"))
        else:
            ops.append(("crash", 0, 0))
    return ops


def _ship_once(capture, standby, floors, home, mode):
    """Deliver one batch under ``mode``; returns a failure string or
    ``None``.  ``floors`` is the primary-side (shipper) ack map."""
    floor = floors.get(home, 0)
    entries = capture.pending(home, floor)[:16]
    if not entries:
        return None
    wire = [entry_to_wire(e) for e in entries]
    if mode == "drop":
        return None  # the batch never arrives; floor stays put
    if mode == "reorder" and len(wire) > 1:
        wire = wire[1:] + wire[:1]  # head arrives last: a gap
    deliveries = 2 if mode == "dup" else 1
    for _ in range(deliveries):
        reply = standby.apply_ship(
            {"home": home, "epoch": 1, "acked": floor, "entries": wire}
        )
        if reply.get("fenced"):
            return f"unexpected fencing on home {home}"
        new_floor = int(reply["acked"])
        if new_floor < floors.get(home, 0):
            return (
                f"ack regressed on home {home}: "
                f"{floors.get(home, 0)} -> {new_floor}"
            )
        if new_floor > floors.get(home, 0):
            floors[home] = new_floor
            capture.truncate(home, new_floor)
    return None


def _run(seed, ops):
    """Replay ``ops``; return a failure description or ``None``."""
    primary = _build_primary(seed)
    capture = ChangeCapture(keep_history=True)
    capture.attach(primary)
    standby = StandbyEndpoint(restore_seed=seed)
    base_seqs = {h: capture.last_seq(h) for h in capture.homes()}
    standby.apply_sync(
        {
            "epoch": 1,
            "checkpoint": json.dumps(core_checkpoint.snapshot(primary)),
            "base_seqs": base_seqs,
        }
    )
    floors = dict(base_seqs)
    dirs = {k: f"/pr/d{k}" for k in range(4)}

    for op, a, b in ops:
        if op == "create":
            primary.insert_file(
                FileMetadata(path=f"/pr/new/{seed}_{a}", inode=10_000 + a)
            )
        elif op == "delete":
            live = sorted(snapshot_state(primary))
            if live:
                primary.delete_file(live[a % len(live)])
        elif op == "rename":
            old = dirs[a]
            new = f"/pr/d{a}-g{b}"
            if primary.rename_subtree(old, new):
                dirs[a] = new
        elif op == "ship":
            homes = capture.homes()
            if not homes:
                continue
            failure = _ship_once(
                capture, standby, floors, homes[a % len(homes)], b
            )
            if failure:
                return failure
        elif op == "crash":
            # Durable round-trip through the checkpoint document: the
            # restored endpoint must dedup any replay that follows.
            document = json.loads(json.dumps(standby.checkpoint_doc()))
            standby = StandbyEndpoint.restore_doc(
                document, restore_seed=seed
            )

    # Faultless final drain: every pending entry ships in order.
    for _ in range(10_000):
        remaining = capture.pending_total(floors)
        if remaining == 0:
            break
        for home in capture.homes():
            failure = _ship_once(capture, standby, floors, home, "ok")
            if failure:
                return failure
    else:
        return "drain never converged"

    divergences = diff_states(
        snapshot_state(primary), snapshot_state(standby.cluster)
    )
    if divergences:
        return f"standby != primary after drain: {divergences[:3]}"
    # At-most-once: unique post-sync seqs, applied exactly once.  The
    # applied counter survives crashes (it rides the checkpoint doc).
    expected_applies = sum(
        capture.last_seq(h) - base_seqs.get(h, 0) for h in capture.homes()
    )
    if standby.applied_total != expected_applies:
        return (
            f"applied_total {standby.applied_total} != unique entries "
            f"{expected_applies} (double- or under-apply)"
        )
    return None


@pytest.mark.parametrize("seed", SEEDS)
def test_hostile_delivery_converges_exactly_once(seed):
    ops = _generate_ops(seed)
    failure = _run(seed, ops)
    if failure is not None:
        minimal = shrink(ops, lambda c: _run(seed, c) is not None)
        pytest.fail(
            f"seed {seed}: {failure}\nminimal failing sequence "
            f"({len(minimal)} ops): {minimal}"
        )


def test_oracle_is_not_vacuous():
    """A standby that skips an apply must be caught by the checker:
    replay a run but lie about one home's floor (mimicking an ack for
    an entry that was never applied)."""
    primary = _build_primary(3)
    capture = ChangeCapture(keep_history=True)
    capture.attach(primary)
    standby = StandbyEndpoint(restore_seed=3)
    standby.apply_sync(
        {
            "epoch": 1,
            "checkpoint": json.dumps(core_checkpoint.snapshot(primary)),
            "base_seqs": {h: capture.last_seq(h) for h in capture.homes()},
        }
    )
    home = primary.insert_file(FileMetadata(path="/pr/skipped", inode=1))
    # Never ship it; the states must now differ and diff_states says so.
    divergences = diff_states(
        snapshot_state(primary), snapshot_state(standby.cluster)
    )
    assert any("/pr/skipped" in d for d in divergences)
