"""Deterministic consensus reference workload for the golden-trace test.

The failover golden (``tests/golden/failover_trace.json``) pins
ordained standby promotion; this one pins the *consensus* tier: a fixed
workload runs against quorum-replicated metadata groups while

* the leader of slot 1 crashes, its data follower wins an election,
  and the dead machine restarts late enough that it rejoins as the
  new data follower by snapshot, and
* the leader of slot 0 is partitioned away from everyone, its lease
  lapses, the follower wins an election, and the deposed zombie is
  demoted into the group's new data follower at heal time;
* the leader of slot 2 crashes and restarts inside the election
  timer, so it resumes leading under a bumped term.

The digest covers the full checker result — every client-visible
acknowledgement with exact simulated timestamps, the verdict, the
election/restart bookkeeping — plus every surviving member's
``term_positions`` (leader log, data follower, witness), so any change
to AppendEntries, vote, snapshot-resync or log-base handling shows up
as a digest mismatch.

``tests/golden/election_trace.json`` is committed; regenerate (only
when a change deliberately alters simulated behaviour) with::

    PYTHONPATH=src python -m tests.golden_election_workload
"""

import hashlib
import json
from contextlib import contextmanager

from repro.check import runner
from repro.storage.consensus import term_positions

ELECTION_GOLDEN_PATH = "tests/golden/election_trace.json"

_DIRS = ["/d0", "/d1", "/d2"]
_OP_PLAN = (
    # (client, kind, path, delay_us) — two clients, ops spread across
    # the crash (t=2500), its election (~t=8000-12000), the restart
    # (t=16000) and the leader partition (t=20000 for 12 ms), so acks
    # land before, during and after both elections.
    (0, "create", "/d0/a0.dat", 120.0),
    (1, "create", "/d1/b0.dat", 140.0),
    (0, "mkdir", "/d0/sub0", 260.0),
    (1, "getattr", "/d1/b0.dat", 300.0),
    (0, "create", "/d1/a1.dat", 420.0),
    (1, "create", "/d2/b1.dat", 380.0),
    (0, "getattr", "/d0/a0.dat", 1500.0),
    (1, "unlink", "/d1/b0.dat", 1800.0),
    (0, "create", "/d2/a2.dat", 2400.0),
    (1, "readdir", "/d1", 2600.0),
    (0, "getattr", "/d1/a1.dat", 3000.0),
    (1, "create", "/d0/b2.dat", 3400.0),
    (0, "unlink", "/d2/a2.dat", 4200.0),
    (1, "getattr", "/d2/b1.dat", 4000.0),
    (0, "create", "/d0/a3.dat", 4800.0),
    (1, "mkdir", "/d2/sub1", 5200.0),
    (0, "readdir", "/d0", 3600.0),
    (1, "create", "/d1/b3.dat", 3000.0),
    (0, "getattr", "/d0/a3.dat", 2800.0),
    (1, "unlink", "/d0/b2.dat", 2400.0),
    (0, "create", "/d1/a4.dat", 2600.0),
    (1, "create", "/d2/b4.dat", 3000.0),
    (0, "readdir", "/d2", 2200.0),
    (1, "getattr", "/d1/a4.dat", 2000.0),
)


def build_election_schedule():
    """The fixed crash/elect/rejoin, leader-partition and fast-restart
    schedule."""
    ops = []
    for op_id, (client, kind, path, delay) in enumerate(_OP_PLAN):
        ops.append({"id": op_id, "client": client, "kind": kind,
                    "path": path, "delay_us": delay})
    return {
        "version": 1,
        "seed": "golden-election",
        "config": {
            "num_mnodes": 3,
            "num_storage": 2,
            "num_clients": 2,
            "replication": True,
            "consensus": True,
            "rpc_timeout_us": 400.0,
            "op_deadline_us": 30000.0,
            "retry_jitter": 0.25,
            "ship_retry_us": 1200.0,
            "budget_us": 300000.0,
            "quiesce_budget_us": 200000.0,
        },
        "preload_dirs": _DIRS,
        "ops": ops,
        "nemeses": [
            {"group": 0, "kind": "crash", "at_us": 2500.0, "index": 1},
            # Past the worst-case election timer draw (2T = 8 ms) plus
            # the claim round: the follower is elected first, and the
            # restarted machine rejoins as the new data follower.
            {"group": 0, "kind": "restart", "at_us": 16000.0,
             "index": 1},
            # Long enough for the lease to lapse and the follower's
            # election timer to fire; the zombie is demoted at heal.
            {"group": 1, "kind": "leader_partition", "at_us": 20000.0,
             "index": 0, "duration_us": 12000.0},
            # Fast restart, inside the election timer: slot 2 resumes
            # leading from its redo log under a bumped term, its log
            # re-based at the durable end.
            {"group": 2, "kind": "crash", "at_us": 36000.0, "index": 2},
            {"group": 2, "kind": "restart", "at_us": 36900.0,
             "index": 2},
        ],
    }


@contextmanager
def _capture_cluster():
    """Record the cluster :func:`run_schedule` builds, so the digest can
    read every group member's log positions after the run."""
    built = []
    original = runner.FalconCluster

    def factory(config):
        cluster = original(config)
        built.append(cluster)
        return cluster

    runner.FalconCluster = factory
    try:
        yield built
    finally:
        runner.FalconCluster = original


def _group_positions(cluster):
    """``[[slot, member, {lsn: term}], ...]`` for every live member."""
    out = []
    for index, mnode in enumerate(cluster.mnodes):
        follower = cluster.standbys[index]
        witness = cluster.witnesses[index]
        members = [(mnode.name, mnode.shipper), (witness.name, witness)]
        if follower is not None:
            members.insert(1, (follower.name, follower))
        for name, member in members:
            positions = term_positions(member)
            out.append([index, name,
                        [[lsn, positions[lsn]] for lsn in sorted(positions)]])
    return out


def run_election_golden():
    """Run the reference election schedule; return its digest dict."""
    with _capture_cluster() as built:
        result = runner.run_schedule(build_election_schedule())
    positions = _group_positions(built[0])
    stats = result["stats"]
    canonical = json.dumps(result, sort_keys=True)
    digest = {
        "result_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "history_sha256": hashlib.sha256(
            json.dumps(result["history"], sort_keys=True).encode()
        ).hexdigest(),
        "positions_sha256": hashlib.sha256(
            json.dumps(positions).encode()).hexdigest(),
        "violations": len(result["violations"]),
        "ops_ok": stats["ops_ok"],
        "ops_failed": stats["ops_failed"],
        "errors": stats["errors"],
        "elections": stats["elections"],
        "promotions": stats["promotions"],
        "restarts": stats["restarts"],
        "quiesced": stats["quiesced"],
        "final_now_us": stats["final_now_us"],
        "final_paths": stats["final_paths"],
        "term_positions": positions,
    }
    # The schedule must actually exercise the path it pins down.
    assert digest["violations"] == 0, result["violations"]
    assert digest["elections"] == 2, stats
    assert digest["promotions"] == 0, stats
    return digest


def main():
    digest = run_election_golden()
    with open(ELECTION_GOLDEN_PATH, "w") as handle:
        json.dump(digest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(digest, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
