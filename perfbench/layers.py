"""Per-layer numbers for the traced run, read from outside the program.

Nothing under ``src/`` knows it is being measured: self time and call
counts come from ``cProfile`` keyed by source file, simulated-latency
components from the ``Tracer`` the cluster already accepts, and counts
from the metrics registries, the client's dentry cache and the serving
tier's Prometheus endpoints.
"""

import os

from common import calibrate, percentile
from repro.analysis.breakdown import breakdown_rows
from repro.obs.tracer import CAT_RETRY
from spec import (
    CHECK_MIXES,
    CORE_MODULES,
    PACKAGES,
    PER_LAYER,
    SERVE_OPS,
    SIMLAT_OPS,
    SIMLAT_PARTS,
    STORAGE_MODULES,
)

_SRC_MARK = os.sep + os.path.join("src", "repro") + os.sep
CALIBRATE_FILE = calibrate.__code__.co_filename


def layer_of(filename):
    """``(package, submodule layer or None)`` for a profiled source
    file; code outside ``src/repro`` (stdlib, builtins, the benchmark
    itself, repro's experiment and workload helpers) is ``other``."""
    at = filename.find(_SRC_MARK)
    if at < 0:
        return "other", None
    parts = filename[at + len(_SRC_MARK):].split(os.sep)
    package = parts[0]
    if package not in PACKAGES:
        return "other", None
    module = parts[1][:-3] if len(parts) > 1 else None
    if package == "core" and module in CORE_MODULES:
        return package, "core." + module
    if package == "storage" and module in STORAGE_MODULES:
        return package, "storage." + module
    return package, None


def profile_split(stats, ops):
    """``cpu.<layer>.self_pct`` and ``calls.<layer>.per_op`` from a
    :class:`pstats.Stats`; the calibration loop is left out."""
    self_s = {}
    calls = {}
    total_s = 0.0
    total_calls = 0
    for (filename, _line, func), row in stats.stats.items():
        if func == calibrate.__name__ and filename == CALIBRATE_FILE:
            continue
        ncalls, tottime = row[1], row[2]
        total_s += tottime
        total_calls += ncalls
        for layer in layer_of(filename):
            if layer is not None:
                self_s[layer] = self_s.get(layer, 0.0) + tottime
                calls[layer] = calls.get(layer, 0) + ncalls
    out = {}
    for name in list(PACKAGES) + ["core." + m for m in CORE_MODULES] \
            + ["storage." + m for m in STORAGE_MODULES] + ["other"]:
        out["cpu.{}.self_pct".format(name)] = (
            100.0 * self_s.get(name, 0.0) / total_s if total_s else 0.0)
        if name != "other":
            out["calls.{}.per_op".format(name)] = calls.get(name, 0) / ops
    out["calls.total.per_op"] = total_calls / ops
    return out


def simlat(spans):
    """``simlat.<op>.<component>_us``: mean simulated microseconds per
    root op spent in each component, batch work amortized."""
    rows = {row["op"]: row for row in breakdown_rows(spans)}
    out = {}
    for op in SIMLAT_OPS:
        row = rows.get(op, {})
        for part in SIMLAT_PARTS:
            out["simlat.{}.{}_us".format(op, part)] = row.get(
                part + "_us", 0.0)
    return out


def retries(spans):
    return sum(1 for span in spans if span.category == CAT_RETRY)


def cluster_counts(cluster, client, ops):
    """Counts a simulated cluster already keeps, per op."""
    def total(registries, counter):
        return sum(r.counter(counter).total() for r in registries)

    mnodes = [m.metrics for m in cluster.mnodes]
    batches = [v for m in cluster.mnodes
               for v in m.metrics.histogram("batch_size").values]
    dcache = client.dcache
    lookups = dcache.hits + dcache.misses
    return {
        "core.merging.batch_size_mean":
            sum(batches) / len(batches) if batches else 0.0,
        "storage.wal.flushes_per_op": total(mnodes, "wal_flushes") / ops,
        "storage.wal.bytes_per_op": total(mnodes, "wal_bytes") / ops,
        "net.messages_per_op":
            cluster.network.metrics.counter("messages").total() / ops,
        "net.bytes_per_op":
            cluster.network.metrics.counter("bytes").total() / ops,
        "vfs.dcache.hit_ratio": dcache.hits / lookups if lookups else 0.0,
        "vfs.dcache.evictions_per_op": dcache.evictions / ops,
        "core.client.requests_per_op":
            client.metrics.counter("requests").total() / ops,
        "core.replica.remote_lookups_per_op":
            total(mnodes, "remote_lookups") / ops,
    }


def serve_counts(state, result):
    """The serving tier's own numbers: per-op-kind latency, CPU from
    /proc, and fsync / message / batch counts scraped from Prometheus."""
    ops = result["ops"]
    out = {}
    for op in SERVE_OPS:
        values = result["wall_by_op_ms"].get(op, [])
        out["serve.{}.p50_ms".format(op)] = (
            percentile(values, 50) if values else 0.0)
        out["serve.{}.p99_ms".format(op)] = (
            percentile(values, 99) if values else 0.0)
    prom = {}
    for scraped in state["prom"]:
        for (name, _label), value in scraped.items():
            prom[name] = prom.get(name, 0.0) + value
    server_cpu = sum(state["cpu_s"]) - sum(state["cpu_start_s"])
    out.update({
        "serve.client_cpu_ms_per_op": result["client_cpu_s"] * 1e3 / ops,
        "serve.server_cpu_ms_per_op": server_cpu * 1e3 / ops,
        "serve.fsyncs_per_op":
            prom.get("falconfs_wal_flushes_total", 0.0) / ops,
        "serve.messages_per_op":
            prom.get("falconfs_received_total", 0.0) / ops,
        "serve.batch_size_mean":
            prom.get("falconfs_batch_size_sum", 0.0)
            / prom["falconfs_batch_size_count"]
            if prom.get("falconfs_batch_size_count") else 0.0,
    })
    return out


def check_counts(state, result):
    """Checker phase timings: schedule generation, schedule runs, and
    schedules per host minute for each nemesis mix."""
    gen = state["generate_s"]
    runs = state["per_schedule"]
    out = {
        "check.generate_ms_per_schedule": 1e3 * sum(gen) / len(gen),
        "check.run_ms_per_schedule":
            1e3 * sum(s for _, s in runs) / len(runs),
    }
    for mix in CHECK_MIXES:
        times = [s for m, s in runs if m == mix]
        out["check.{}.schedules_per_min".format(mix)] = (
            60.0 * len(times) / sum(times) if times else 0.0)
    return out


def complete(metrics):
    """Every per-layer metric, 0.0 where this workload does not
    measure it."""
    return {m["name"]: float(metrics.get(m["name"], 0.0)) for m in PER_LAYER}
