"""What the benchmark measures, in one place.

``BENCHMARK.json`` at the repository root is generated from this file
(``python3 perfbench/spec.py`` rewrites it) and holds only its fixed set
of keys.  Everything else a later change needs to cite a number -- each
workload's loop type, client count and seed use, the serving tier's
flush policy, which workloads measure each per-layer metric, and which
end-to-end metric it should move -- lives here.
"""

import json
import os
import re

RUN_SECONDS = 20

#: Layers of the repository (packages under ``src/repro``) that the
#: traced run splits self time and calls across; ``core``'s modules and
#: the two replication modules of ``storage`` are also split out.
PACKAGES = ("sim", "net", "storage", "vfs", "core", "obs", "metrics",
            "runtime", "check", "faults", "serve")
CORE_MODULES = ("client", "mnode", "merging", "replica", "filestore",
                "coordinator", "shared")
STORAGE_MODULES = ("replication", "consensus")
#: Root operations whose simulated latency the traced run splits by
#: component (:func:`repro.analysis.breakdown.breakdown_rows`).
SIMLAT_OPS = ("create", "getattr", "open", "unlink", "read")
SIMLAT_PARTS = ("net", "queue", "lock", "wal", "disk", "cpu", "retry",
                "other")
SERVE_OPS = ("create", "stat", "open", "rename", "ls")
CHECK_MIXES = ("mixed", "election")

WORKLOADS = [
    {
        "name": "meta_mix",
        "why": "write-heavy metadata path: 64 closed-loop sim threads in "
               "private dirs, 40% create / 35% stat / 15% open / 10% "
               "unlink on 4 MNodes via libfs; merging, WAL, locks, RPC",
        "loop": "closed",
        "clients": "64 DES threads, one libfs client",
        "seed": "per-thread op mix and file choice",
        "size": "16000 ops per round",
    },
    {
        "name": "dl_traverse",
        "why": "paper's DL read pattern: one random-order epoch over 20k "
               "64 KiB files in 1,111 dirs, 128 sim threads, vfs client "
               "with a dcache of 10% of dirs; no WAL writes",
        "loop": "closed",
        "clients": "128 DES threads, one vfs client (near the knee: "
                   "at 256 the saturated queues random-walk and the "
                   "simulated p99 swings by 30% between seeds)",
        "seed": "epoch order",
        "size": "20000 reads per round (one epoch)",
    },
    {
        "name": "serve_mixed",
        "why": "real clock: repro.serve coordinator + 3 MNodes in one "
               "server process on loopback TCP, one client with 2 "
               "requests in flight running the seeded repro.serve mix",
        "loop": "closed",
        "clients": "one process, at most 2 requests in flight",
        "seed": "repro.serve build_workload plan",
        "size": "2400 real ops per round; the DES replay runs the "
                "seed's 6000-op plan, of which the real plan is a prefix",
        "flush_policy": "none: WAL in memory (no --wal-dir)",
    },
    {
        "name": "check_sweep",
        "why": "fault path: blocks of repro.check seeds from the mixed "
               "and election nemesis mixes run serially; only workload "
               "running check, faults, replication and consensus",
        "loop": "closed",
        "clients": "3 checker clients per schedule, schedules serial",
        "seed": "three blocks of 30 checker seeds per mix",
        "size": "30 pairs (one mixed + one election schedule) per round; "
                "round i runs block i mod 3",
        "failed": "a schedule with a dirty verdict is a failed op; the "
                  "mixed mix still has real defects (see README.md), so "
                  "some seeds report failed > 0",
    },
]

ALL = tuple(w["name"] for w in WORKLOADS)
SIM = ("meta_mix", "dl_traverse")

#: End-to-end metrics, reported by every workload with tracing off.
#: ``op`` is the workload's unit of work: a metadata op on meta_mix and
#: serve_mixed, a whole-file read on dl_traverse; on check_sweep the
#: ``sim_*`` latencies are over the schedules' client ops,
#: ``sim_ops_per_s`` is the mean over schedules of each one's rate, the
#: ``wall_*`` metrics are over pairs of schedules, one of each mix
#: (schedules/min = 120 x wall_ops_per_s), and ``attempted`` and
#: ``failed`` count schedules.  serve_mixed's ``sim_*``
#: metrics replay its plan on the DES clock.  The sim metrics are exact
#: for a seed.
END_TO_END = [
    {"name": "sim_ops_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.1,
     "meaning": "ops per simulated second"},
    {"name": "sim_p50_us", "unit": "us", "better": "lower", "bound": 0.1,
     "meaning": "median simulated op latency, all ops"},
    {"name": "sim_p99_us", "unit": "us", "better": "lower", "bound": 0.25,
     "meaning": "99th percentile simulated op latency, all ops"},
    {"name": "wall_ops_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.25,
     "meaning": "ops per host second: median rate over 1000-op chunks "
                "(200 plan ops on serve_mixed, 5 pairs of schedules on "
                "check_sweep) of every round"},
    {"name": "wall_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25,
     "meaning": "median host time an op is in flight, median over "
                "the same chunks"},
    {"name": "wall_p99_ms", "unit": "ms", "better": "lower", "bound": 0.25,
     "meaning": "99th percentile host time an op is in flight, median "
                "over the same chunks"},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25,
     "meaning": "median per-round set-up: cluster build + bulk_load; "
                "server spawn until every port answers; schedule "
                "generation"},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.15,
     "meaning": "peak RSS of the bench process, plus the servers' summed "
                "VmHWM on serve_mixed"},
]


def _layer(name, unit, better, workloads, moves):
    return {"name": name, "unit": unit, "better": better,
            "workloads": workloads, "moves": moves}


def per_layer():
    """Per-layer metrics of the traced run.  ``workloads`` lists where a
    metric is measured (elsewhere it reads 0: the layer does no work
    there, or the checker builds its clusters out of reach);
    ``moves`` lists the (end-to-end metric, workload) pairs it should
    move."""
    out = []
    wall_all = [["wall_ops_per_s", w] for w in ALL]
    for pkg in PACKAGES + tuple("core." + m for m in CORE_MODULES) \
            + tuple("storage." + m for m in STORAGE_MODULES) + ("other",):
        moves = wall_all
        if pkg in ("check", "faults") or pkg.startswith("storage."):
            moves = [["wall_ops_per_s", "check_sweep"]]
        elif pkg == "serve":
            moves = [["wall_ops_per_s", "serve_mixed"]]
        out.append(_layer("cpu.{}.self_pct".format(pkg), "%", "lower",
                          list(ALL), moves))
        if pkg != "other":
            out.append(_layer("calls.{}.per_op".format(pkg), "count",
                              "lower", list(ALL), moves))
    out.append(_layer("calls.total.per_op", "count", "lower", list(ALL),
                      wall_all))
    out.append(_layer("sim.events_per_op", "count", "lower",
                      list(SIM) + ["serve_mixed"], wall_all))
    for op in SIMLAT_OPS:
        where = ["dl_traverse"] if op == "read" else ["meta_mix"]
        if op in ("create", "getattr", "open"):
            where.append("serve_mixed")
        moves = [[m, w] for w in where for m in ("sim_p50_us", "sim_p99_us")]
        for part in SIMLAT_PARTS:
            out.append(_layer("simlat.{}.{}_us".format(op, part), "us",
                              "lower", where, moves))
    meta_only = [["sim_ops_per_s", "meta_mix"], ["sim_p99_us", "meta_mix"]]
    out.append(_layer("core.merging.batch_size_mean", "count", "higher",
                      list(SIM) + ["serve_mixed"], meta_only))
    for what in ("flushes", "bytes"):
        out.append(_layer("storage.wal.{}_per_op".format(what),
                          "count" if what == "flushes" else "B", "lower",
                          list(SIM) + ["serve_mixed"], meta_only))
    for what in ("messages", "bytes"):
        out.append(_layer("net.{}_per_op".format(what),
                          "count" if what == "messages" else "B", "lower",
                          list(SIM) + ["serve_mixed"],
                          [["sim_p50_us", w] for w in SIM]))
    dl_only = [["sim_ops_per_s", "dl_traverse"]]
    out.append(_layer("vfs.dcache.hit_ratio", "ratio", "higher",
                      list(SIM), dl_only))
    out.append(_layer("vfs.dcache.evictions_per_op", "count", "lower",
                      list(SIM), dl_only))
    out.append(_layer("core.client.requests_per_op", "count", "lower",
                      list(SIM) + ["serve_mixed"], dl_only))
    out.append(_layer("core.replica.remote_lookups_per_op", "count",
                      "lower", list(SIM) + ["serve_mixed"], dl_only))
    out.append(_layer("obs.retry.retries_per_op", "count", "lower",
                      list(SIM) + ["serve_mixed"],
                      [["sim_p99_us", w] for w in SIM]
                      + [["wall_p99_ms", "serve_mixed"]]))
    serve_wall = [[m, "serve_mixed"]
                  for m in ("wall_ops_per_s", "wall_p50_ms", "wall_p99_ms")]
    for op in SERVE_OPS:
        for q in ("p50", "p99"):
            out.append(_layer("serve.{}.{}_ms".format(op, q), "ms", "lower",
                              ["serve_mixed"], serve_wall))
    for what, unit, better in (("client_cpu_ms_per_op", "ms", "lower"),
                               ("server_cpu_ms_per_op", "ms", "lower"),
                               ("fsyncs_per_op", "count", "lower"),
                               ("messages_per_op", "count", "lower"),
                               ("batch_size_mean", "count", "higher")):
        out.append(_layer("serve." + what, unit, better, ["serve_mixed"],
                          serve_wall))
    check_wall = [["wall_ops_per_s", "check_sweep"]]
    out.append(_layer("check.generate_ms_per_schedule", "ms", "lower",
                      ["check_sweep"], [["setup_s", "check_sweep"]]))
    out.append(_layer("check.run_ms_per_schedule", "ms", "lower",
                      ["check_sweep"], check_wall))
    for mix in CHECK_MIXES:
        out.append(_layer("check.{}.schedules_per_min".format(mix), "1/min",
                          "higher", ["check_sweep"], check_wall))
    out.append(_layer("trace_overhead_pct", "%", "lower", list(ALL), []))
    return out


PER_LAYER = per_layer()

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def benchmark_json():
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": w["why"]}
                      for w in WORKLOADS],
        "end_to_end": [{k: m[k] for k in ("name", "unit", "better",
                                          "bound")}
                       for m in END_TO_END],
        "per_layer": [{k: m[k] for k in ("name", "unit", "better")}
                      for m in PER_LAYER],
    }


def render():
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), "w") as handle:
        handle.write(render())
