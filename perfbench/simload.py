"""The two simulated-cluster workloads: ``meta_mix`` and ``dl_traverse``.

Both drive a FalconFS cluster on the discrete-event clock from one
process.  A sim "thread" is a DES coroutine in a closed loop: it issues
its next operation only when the previous one returned.  Each round
builds a fresh cluster at the same seed, so every round of one run is
the same simulation and must produce bit-identical simulated numbers.
"""

import random
import time

from common import OutputError, calibrate
from repro.experiments.common import build_cluster
from repro.net.rpc import RpcFailure
from repro.vfs.attrs import DENTRY_CACHE_COST_BYTES
from repro.workloads.trees import private_dirs_tree, uniform_tree

#: Share of a ``meta_mix`` thread's operations per kind (the rest of the
#: unit interval, 10 %, is unlink).  Create-heavy: the write path.
META_MIX = (("create", 0.40), ("getattr", 0.35), ("open", 0.15))

#: Completions per wall-rate sample.
CHUNK = 1000


class SimRound:
    """Per-op bookkeeping for one closed-loop run on the DES clock."""

    def __init__(self, env):
        self.env = env
        self.sim_lat_us = []
        self.wall_lat_ms = []
        self.failed = 0
        #: ``(host seconds, ops, calibration seconds, in-flight ms)``
        #: per CHUNK completions.  The calibration loop runs between
        #: chunks, so each chunk is paired with the host's speed right
        #: after it.
        self.chunks = []
        self._chunk_start = None
        self._chunk_first = 0
        #: Host seconds spent in the calibration loop so far.  Ops in
        #: flight while it runs are stalled by it, so it is taken out of
        #: their wall latency.
        self._calibrating_s = 0.0

    def timed(self, op, gen):
        """Generator: run ``gen`` as one operation, recording its
        simulated latency and the host time it was in flight."""
        start_sim = self.env.now
        start_wall = time.perf_counter()
        start_calibrating = self._calibrating_s
        try:
            result = yield from gen
        except RpcFailure:
            self.failed += 1
            return None
        end_wall = time.perf_counter()
        stalled = self._calibrating_s - start_calibrating
        self.wall_lat_ms.append((end_wall - start_wall - stalled) * 1e3)
        self.sim_lat_us.append(self.env.now - start_sim)
        if len(self.sim_lat_us) % CHUNK == 0:
            self._close_chunk(end_wall)
        return result

    def _close_chunk(self, end_wall):
        first, self._chunk_first = self._chunk_first, len(self.wall_lat_ms)
        chunk_s = end_wall - self._chunk_start
        calibrating = time.perf_counter()
        calibration = calibrate()
        self._chunk_start = time.perf_counter()
        self._calibrating_s += self._chunk_start - calibrating
        self.chunks.append((chunk_s, self._chunk_first - first, calibration,
                            self.wall_lat_ms[first:]))

    def drive(self, workers):
        """Run every worker coroutine to completion; returns the round's
        raw numbers."""
        env = self.env
        events_before = env.events_scheduled
        sim_start = env.now
        wall_start = self._chunk_start = time.perf_counter()
        procs = [env.process(w) for w in workers]
        env.run(until=env.all_of(procs))
        if not self.chunks:
            self._close_chunk(time.perf_counter())
        sim_s = (env.now - sim_start) / 1e6
        return {
            "wall_s": time.perf_counter() - wall_start,
            "sim_s": sim_s,
            "sim_ops_per_s": len(self.sim_lat_us) / sim_s,
            "events": env.events_scheduled - events_before,
            "ops": len(self.sim_lat_us) + self.failed,
            "failed": self.failed,
            "sim_ops": len(self.sim_lat_us),
            "sim_lat_us": self.sim_lat_us,
            "chunks": self.chunks,
        }


class MetaMix:
    """Write-heavy metadata mix on 4 MNodes through a ``libfs`` client.

    Each of ``threads`` closed-loop sim threads owns a private
    directory and runs a seeded create/getattr/open/unlink mix over its
    own live files, so every operation's answer is known in advance.
    """

    name = "meta_mix"
    exact = True
    blocks = 1
    client_mode = "libfs"

    def __init__(self, seed, ops=16000, threads=64):
        self.seed = seed
        self.threads = threads
        self.tree = private_dirs_tree(threads, files_per_dir=0)
        self.plans = [self._plan(t, ops // threads) for t in range(threads)]

    def _plan(self, thread, count):
        rng = random.Random("meta_mix:{}:{}".format(self.seed, thread))
        directory = self.tree.dirs[1 + thread]
        live = []
        plan = []
        serial = 0
        for _ in range(count):
            roll = rng.random()
            if roll < META_MIX[0][1] or not live:
                path = "{}/m{:07d}".format(directory, serial)
                serial += 1
                live.append(path)
                plan.append(("create", path))
            elif roll < META_MIX[0][1] + META_MIX[1][1]:
                plan.append(("getattr", rng.choice(live)))
            elif roll < sum(share for _, share in META_MIX):
                plan.append(("open", rng.choice(live)))
            else:
                path = live.pop(rng.randrange(len(live)))
                plan.append(("unlink", path))
        return plan

    def setup(self, block, tracer=None):
        cluster = build_cluster("falconfs", num_mnodes=4, num_storage=4,
                                seed=self.seed, tracer=tracer)
        client = cluster.add_client(mode=self.client_mode)
        cluster.bulk_load(self.tree)
        return {"cluster": cluster, "clients": [client]}

    def run(self, state):
        cluster = state["cluster"]
        client = state["clients"][0]
        tally = SimRound(cluster.env)
        calls = {"create": client.create, "getattr": client.getattr,
                 "open": client.open_file, "unlink": client.unlink}

        def worker(plan):
            for op, path in plan:
                yield from tally.timed(op, calls[op](path))

        return tally.drive([worker(plan) for plan in self.plans])

    def check(self, state, result):
        """Every acked create that was never unlinked answers getattr,
        every unlinked file is gone, and the cluster audit passes."""
        cluster = state["cluster"]
        client = state["clients"][0]
        live, gone = set(), set()
        for plan in self.plans:
            for op, path in plan:
                if op == "create":
                    live.add(path)
                elif op == "unlink":
                    live.discard(path)
                    gone.add(path)

        def audit():
            wrong = []
            for path in sorted(live | gone):
                present = yield from client.exists(path)
                if present != (path in live):
                    wrong.append(path)
            return wrong

        wrong = cluster.run_process(audit())
        if wrong:
            raise OutputError("{} files disagree with the plan, first {}"
                              .format(len(wrong), wrong[0]))
        cluster.verify()


class DlTraverse:
    """One random-order read epoch over a tree far larger than the
    client's dentry cache, through a ``vfs``-mode client.

    ``threads`` closed-loop sim threads (data-loader workers) draw the
    next file from one shuffled epoch list and read it whole.
    """

    name = "dl_traverse"
    exact = True
    blocks = 1
    client_mode = "vfs"
    file_size = 64 * 1024

    def __init__(self, seed, levels=3, fanout=10, files_per_leaf=20,
                 threads=128, cache_share=0.10):
        self.seed = seed
        self.threads = threads
        self.tree = uniform_tree(levels, fanout, files_per_leaf,
                                 file_size=self.file_size)
        self.order = list(self.tree.file_paths())
        random.Random("dl_traverse:{}".format(seed)).shuffle(self.order)
        self.cache_budget = int(cache_share * self.tree.num_dirs
                                * DENTRY_CACHE_COST_BYTES)

    def setup(self, block, tracer=None):
        cluster = build_cluster("falconfs", num_mnodes=4, num_storage=12,
                                seed=self.seed, tracer=tracer)
        client = cluster.add_client(mode=self.client_mode,
                                    cache_budget_bytes=self.cache_budget)
        cluster.bulk_load(self.tree)
        return {"cluster": cluster, "clients": [client]}

    def run(self, state):
        cluster = state["cluster"]
        client = state["clients"][0]
        tally = SimRound(cluster.env)
        iterator = iter(self.order)
        sizes = state["sizes"] = []

        def worker():
            for path in iterator:
                size = yield from tally.timed("read", client.read_file(path))
                sizes.append(size)

        return tally.drive([worker() for _ in range(self.threads)])

    def check(self, state, result):
        """Every file was read exactly once and returned its size."""
        sizes = state["sizes"]
        if len(sizes) != len(self.order) or result["failed"]:
            raise OutputError("{} of {} reads completed ({} failed)".format(
                len(sizes), len(self.order), result["failed"]))
        wrong = [s for s in sizes if s != self.file_size]
        if wrong:
            raise OutputError("{} reads returned a wrong size, e.g. {}"
                              .format(len(wrong), wrong[0]))
