"""``check_sweep``: fixed blocks of simulation-checker seeds, serially.

Each of ``blocks`` blocks holds ``pairs`` seeds from each of the
``mixed`` (crash, corruption, hang, partition and gray faults) and
``election`` (consensus-tier) nemesis mixes, drawn from the run's seed.
Round ``i`` of a run runs block ``i mod blocks``: more distinct
schedules than one round could hold, yet every block recurs, so the
rounds of one block must agree exactly.  It is the only workload that
injects faults, so it is the one that runs ``check``, ``faults``,
``storage.replication`` and ``storage.consensus``.

A schedule whose verdict is dirty (the checker found a violation) is a
failed op of the run: it counts in the result's ``failed``, out of
every schedule run in ``attempted``.  The run's output is wrong when the
checker itself misbehaves: a schedule whose history misses some of its
ops yet a clean verdict, or a verdict that differs between rounds of one
block.

On this workload the wall-clock op is a *pair*: one schedule of each
mix, run back to back.  An election schedule takes about twice as long
as a mixed one, so a median over single schedules of an even block falls
between the two and swings with the block; a pair's time does not.
Schedules per host minute are ``120 x wall_ops_per_s``.  As on the other
workloads, the wall metrics come in chunks (of ``CHUNK`` pairs), each
followed by a calibration sample.

The simulated-clock latencies are over the schedules' client operations,
and ``sim_ops_per_s`` is the mean over schedules of each one's client
ops per simulated second: the time an election takes varies far more
between schedules than the ops do, so the total of the spans would make
the rate follow the few slowest elections of the block.
"""

import random
import sys
import time

from common import OutputError, calibrate
from repro.check.runner import run_schedule
from repro.check.schedule import generate_schedule

MIXES = ("mixed", "election")
#: Pairs per wall-rate sample.
CHUNK = 5


class CheckSweep:
    """The checker over ``blocks`` seed-determined blocks of schedules,
    one block per round."""

    name = "check_sweep"
    exact = True
    blocks = 3

    def __init__(self, seed, pairs=30):
        rng = random.Random("check_sweep:{}".format(seed))
        self.seed_blocks = [[(mix, rng.randrange(1 << 30))
                             for _ in range(pairs) for mix in MIXES]
                            for _ in range(self.blocks)]

    def setup(self, block, tracer=None):
        """Expand every seed of the round's block into its schedule."""
        timings = []
        schedules = []
        for mix, seed in self.seed_blocks[block]:
            start = time.perf_counter()
            schedules.append(generate_schedule(seed, nemesis_mix=mix))
            timings.append(time.perf_counter() - start)
        return {"block": self.seed_blocks[block], "schedules": schedules,
                "generate_s": timings}

    def run(self, state):
        sim_lat_us = []
        sim_s = 0.0
        sim_rates = []
        per_schedule = []
        dirty = []
        chunks = []
        chunk_start = 0
        wall_start = time.perf_counter()
        block = state["block"]
        for index, ((mix, seed), schedule) in enumerate(
                zip(block, state["schedules"])):
            start = time.perf_counter()
            result = run_schedule(schedule)
            per_schedule.append((mix, time.perf_counter() - start))
            if result["violations"]:
                dirty.append((mix, seed, result["violations"][0]["invariant"]))
            elif len(result["history"]) != len(schedule["ops"]):
                raise OutputError("{} seed {} is clean with {} of {} ops "
                                  "in its history".format(
                                      mix, seed, len(result["history"]),
                                      len(schedule["ops"])))
            history = [e for e in result["history"] if e["status"] == "ok"]
            sim_lat_us.extend(e["end_us"] - e["start_us"] for e in history)
            if history:
                span_s = (max(e["end_us"] for e in history)
                          - min(e["start_us"] for e in history)) / 1e6
                sim_s += span_s
                sim_rates.append(len(history) / span_s)
            if (index + 1) % (CHUNK * len(MIXES)) == 0 or (
                    index + 1 == len(block)):
                times = [s for _, s in per_schedule[chunk_start:]]
                chunk_start = len(per_schedule)
                pairs_ms = [(a + b) * 1e3
                            for a, b in zip(times[::2], times[1::2])]
                chunks.append((sum(times), len(pairs_ms), calibrate(),
                               pairs_ms))
        wall = time.perf_counter() - wall_start
        state["per_schedule"] = per_schedule
        return {
            "wall_s": wall,
            "ops": len(per_schedule),
            "failed": len(dirty),
            "dirty": tuple(dirty),
            "sim_s": sim_s,
            "sim_ops_per_s": sum(sim_rates) / len(sim_rates),
            "sim_ops": len(sim_lat_us),
            "sim_lat_us": sim_lat_us,
            "chunks": chunks,
        }

    def check(self, state, result):
        """Dirty verdicts are failed ops, not wrong output (see the
        module docstring); ``run`` checks each history as it goes."""
        for mix, seed, kind in result["dirty"]:
            print("dirty schedule: {} seed {}: {}".format(mix, seed, kind),
                  file=sys.stderr)
