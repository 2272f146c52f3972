"""Golden-trace determinism and zero-overhead tracing guarantees.

The fast-path kernel work (slotted events, ``schedule_timeout``,
flattened ``Process._resume``, lazy trace attrs) is only admissible if
it changes *nothing* the simulation computes.  These tests pin that
down:

* the reference workload's digest — event ordering, JSONL trace, op
  counts, final clock — must match ``tests/golden/sim_trace.json``,
  generated before the optimization;
* the digest must be bit-identical across two runs in one process
  (seed-determinism, independent of warm caches);
* an untraced run must never enter the tracer and must allocate no
  trace objects (the "no garbage" contract that makes ``NULL_TRACER``
  free).
"""

import json
import tracemalloc

import pytest

from tests.golden_election_workload import (
    ELECTION_GOLDEN_PATH,
    run_election_golden,
)
from tests.golden_failover_workload import (
    FAILOVER_GOLDEN_PATH,
    run_failover_golden,
)
from tests.golden_workload import GOLDEN_PATH, run_golden


#: What the reference workload *simulates*, pinned here as well as in
#: the golden file.  The file also pins the kernel's bookkeeping
#: (``event_pushes``, ``event_order_sha256``), which a change that only
#: drops heap entries nobody waits on may regenerate; these outcome
#: fields must survive such a regeneration untouched.
GOLDEN_OUTCOME = {
    "errors": 0,
    "final_now": 730.72288,
    "loaded_inodes": 42,
    "messages": 120,
    "ops": 120,
    "responses": 120,
    "trace_sha256":
        "eda3dacf3240060fba68ef5f214b85e4fa1c4035e0b1d4b97fcf638681a51d17",
    "trace_spans": 1060,
}


@pytest.fixture(scope="module")
def golden_digest():
    return run_golden()


@pytest.fixture(scope="module")
def failover_digest():
    return run_failover_golden()


@pytest.fixture(scope="module")
def election_digest():
    return run_election_golden()


def test_golden_digest_matches_committed(golden_digest):
    with open(GOLDEN_PATH) as handle:
        want = json.load(handle)
    mismatched = {
        key: (golden_digest[key], value)
        for key, value in want.items()
        if golden_digest[key] != value
    }
    assert not mismatched, (
        "simulated outcome diverged from the pre-optimization golden "
        "trace: {}".format(mismatched)
    )


def test_golden_outcome_fields_are_pinned(golden_digest):
    with open(GOLDEN_PATH) as handle:
        committed = json.load(handle)
    assert {key: committed[key] for key in GOLDEN_OUTCOME} == GOLDEN_OUTCOME
    assert ({key: golden_digest[key] for key in GOLDEN_OUTCOME}
            == GOLDEN_OUTCOME)


def test_same_seed_is_bit_identical_across_runs(golden_digest):
    assert run_golden() == golden_digest


def test_failover_digest_matches_committed(failover_digest):
    """The crash -> promote -> rejoin-as-standby reference run must
    reproduce its committed digest — every ack timestamp, the verdict,
    and the recovery bookkeeping."""
    with open(FAILOVER_GOLDEN_PATH) as handle:
        want = json.load(handle)
    mismatched = {
        key: (failover_digest[key], value)
        for key, value in want.items()
        if failover_digest[key] != value
    }
    assert not mismatched, (
        "failover outcome diverged from the committed golden trace: {}"
        .format(mismatched)
    )


def test_failover_digest_is_bit_identical_across_runs(failover_digest):
    assert run_failover_golden() == failover_digest


def test_election_digest_matches_committed(election_digest):
    """The consensus reference run (crash -> election -> rejoin by
    snapshot, leader partition, fast restart) must reproduce its
    committed digest — every ack timestamp, the verdict, and every
    group member's log positions."""
    with open(ELECTION_GOLDEN_PATH) as handle:
        want = json.load(handle)
    mismatched = {
        key: (election_digest[key], value)
        for key, value in want.items()
        if election_digest[key] != value
    }
    assert not mismatched, (
        "election outcome diverged from the committed golden trace: {}"
        .format(mismatched)
    )


def test_election_digest_is_bit_identical_across_runs(election_digest):
    assert run_election_golden() == election_digest


def _untraced_workload():
    from repro.experiments.common import build_cluster
    from repro.workloads.driver import run_closed_loop
    from repro.workloads.trees import private_dirs_tree

    cluster = build_cluster("falconfs", num_mnodes=2, num_storage=2, seed=3)
    client = cluster.add_client(mode="libfs")
    tree = private_dirs_tree(4, files_per_dir=2)
    cluster.bulk_load(tree)
    thunks = [
        lambda p="{}/f{}.dat".format(tree.dirs[1 + i % 4], i):
            client.create(p)
        for i in range(24)
    ]
    result = run_closed_loop(cluster, thunks, num_threads=4)
    assert result.ops == 24 and result.errors == 0


def test_untraced_run_never_enters_the_tracer(monkeypatch):
    from repro.obs.tracer import NullTracer

    def boom(*_args, **_kwargs):
        raise AssertionError("NullTracer invoked on the untraced hot path")

    monkeypatch.setattr(NullTracer, "start", boom)
    monkeypatch.setattr(NullTracer, "record", boom)
    _untraced_workload()


def test_untraced_run_allocates_no_trace_objects():
    from repro.obs import tracer as tracer_mod

    _untraced_workload()  # warm module/global caches first
    trace_filter = tracemalloc.Filter(True, tracer_mod.__file__)
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        _untraced_workload()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    allocations = after.filter_traces([trace_filter]).compare_to(
        before.filter_traces([trace_filter]), "lineno"
    )
    grew = [stat for stat in allocations if stat.size_diff > 0]
    assert not grew, "tracer allocated on an untraced run: {}".format(grew)
