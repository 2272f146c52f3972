"""``serve_mixed``: the real-clock serving tier on loopback.

Each round starts a coordinator and ``MNODES`` MNodes -- the unchanged
``repro.serve`` node code, hosted together in one process by
``serve_host.py`` -- on a free port range, then runs the seeded
``repro.serve`` create/stat/open/rename/ls mix from this process over
real TCP with at most ``CONCURRENCY`` requests in flight, checks the
final namespace, stops the server process and asserts none is left.
The WALs are in memory: the servers get no ``--wal-dir``.

The seed's plan, 2.5 times longer, also runs on the DES clock (an
in-process FalconCluster with the serving config), which gives the
workload its simulated-clock numbers and a bit-identical determinism
guard across rounds.
"""

import argparse
import asyncio
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
import urllib.request

from common import OutputError, calibrate
from repro.core.client import FalconClient
from repro.core.cluster import FalconCluster
from repro.core.shared import ClusterShared
from repro.net.costs import CostModel
from repro.net.rpc import RpcFailure
from repro.runtime.aio import AsyncioEnv
from repro.runtime.net import AioNetwork
from repro.serve.main import (
    METRICS_PORT_OFFSET,
    build_workload,
    client_op,
    plan_deps,
    serve_config,
    topology,
)

MNODES = 3
CONCURRENCY = 2
DIRS = 8
HOST = "127.0.0.1"
#: Ops per wall-rate sample.
CHUNK = 200
HOST_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "serve_host.py")


def serve_args(base_port):
    """The option set ``repro.serve`` parses, with its defaults."""
    return argparse.Namespace(
        host=HOST, base_port=base_port, mnodes=MNODES,
        rpc_timeout_ms=2000.0, op_deadline_ms=15000.0)


def free_base_port(rng):
    """A base port whose RPC and metrics ports are all bindable now."""
    for _ in range(200):
        base = rng.randrange(20000, 55000)
        ports = [base + i for i in range(MNODES + 1)]
        ports += [p + METRICS_PORT_OFFSET for p in ports]
        socks = []
        try:
            for port in ports:
                sock = socket.socket()
                socks.append(sock)
                sock.bind((HOST, port))
        except OSError:
            continue
        finally:
            for sock in socks:
                sock.close()
        return base
    raise RuntimeError("no free port range found")


def _port_open(port):
    try:
        with socket.create_connection((HOST, port), timeout=1.0):
            return True
    except OSError:
        return False


def proc_cpu_s(pid):
    """User + system CPU seconds of a live process, from /proc."""
    with open("/proc/{}/stat".format(pid)) as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_hwm_mb(pid):
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open("/proc/{}/status".format(pid)) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def scrape(port):
    """``{(metric, label): value}`` summed over a Prometheus endpoint."""
    url = "http://{}:{}/metrics".format(HOST, port + METRICS_PORT_OFFSET)
    with urllib.request.urlopen(url, timeout=5) as response:
        text = response.read().decode()
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_labels, value = line.rsplit(" ", 1)
        name, _, labels = name_labels.partition("{")
        label = None
        for part in labels.rstrip("}").split(","):
            if part.startswith("label="):
                label = part[len("label="):].strip('"')
            elif part.startswith("quantile="):
                label = "q" + part[len("quantile="):].strip('"')
        key = (name, label)
        out[key] = out.get(key, 0.0) + float(value)
    return out


class Servers:
    """The serving tier's server process on loopback, owned by the
    benchmark: started, stopped, and checked gone."""

    def __init__(self, scratch, src, rng):
        self.base_port = free_base_port(rng)
        self.args = serve_args(self.base_port)
        self.log_dir = tempfile.mkdtemp(prefix="serve-", dir=scratch)
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.log = open(os.path.join(self.log_dir, "servers.log"), "wb")
        argv = [sys.executable, HOST_SCRIPT, "--mnodes", str(MNODES),
                "--base-port", str(self.base_port), "--host", HOST]
        self.procs = [subprocess.Popen(
            argv, env=env, stdout=subprocess.DEVNULL, stderr=self.log,
            start_new_session=True)]

    def ports(self):
        return [port for _, port in topology(
            HOST, self.base_port, MNODES).values()]

    def wait_ready(self, timeout_s=60.0):
        deadline = time.monotonic() + timeout_s
        pending = list(self.ports())
        while pending:
            for proc in self.procs:
                if proc.poll() is not None:
                    raise RuntimeError("server exited with {} during "
                                       "start-up".format(proc.returncode))
            if time.monotonic() > deadline:
                raise RuntimeError("servers not ready after {}s"
                                   .format(timeout_s))
            if _port_open(pending[0]):
                pending.pop(0)
            else:
                time.sleep(0.01)

    def stop(self):
        """SIGTERM the servers, wait, kill stragglers; then assert that
        no server process of this port range is left."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
        self.log.close()
        shutil.rmtree(self.log_dir, ignore_errors=True)
        left = leftover_servers(self.base_port)
        if left:
            raise OutputError("server processes left running: {}"
                              .format(left))


def leftover_servers(base_port):
    """PIDs of live server processes on ``base_port``."""
    left = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/{}/cmdline".format(entry), "rb") as handle:
                argv = handle.read().decode(errors="replace").split("\0")
            with open("/proc/{}/stat".format(entry)) as handle:
                state = handle.read().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if (state != "Z" and HOST_SCRIPT in argv
                and str(base_port) in argv):
            left.append(int(entry))
    return left


def expected_listing(plan):
    """Directory -> sorted ``[name, is_dir]`` entries the plan implies."""
    listing = {}
    for op, path, dest in plan:
        if op == "mkdir":
            listing[path] = set()
        elif op == "create":
            directory, name = path.rsplit("/", 1)
            listing[directory].add(name)
        elif op == "rename":
            directory, name = path.rsplit("/", 1)
            listing[directory].discard(name)
            directory, name = dest.rsplit("/", 1)
            listing[directory].add(name)
    return {d: sorted([n, False] for n in names)
            for d, names in listing.items()}


async def _drive(env, client, plan, deps, record):
    """Run ``plan`` with at most CONCURRENCY ops in flight, respecting
    the plan's happens-before edges; mkdirs go first, serially.  The
    other ops run in chunks of CHUNK in plan order, each drained before
    the next starts; the calibration loop runs between chunks, when no
    op is in flight.  Returns ``(host seconds, ops, calibration seconds,
    acked ops' ms)`` per chunk."""
    done = [asyncio.Event() for _ in plan]
    gate = asyncio.Semaphore(CONCURRENCY)
    latencies = []

    async def run_one(index, op, path, dest):
        for edge in deps[index]:
            await done[edge].wait()
        async with gate:
            start = time.perf_counter()
            try:
                await env.run_process(client_op(client, op, path, dest))
                ms = (time.perf_counter() - start) * 1e3
                latencies.append(ms)
                record(op, ms, None)
            except RpcFailure as failure:
                record(op, None, failure.code)
        done[index].set()

    for index, (op, path, dest) in enumerate(plan):
        if op == "mkdir":
            await run_one(index, op, path, dest)
    rest = [index for index, step in enumerate(plan) if step[0] != "mkdir"]
    chunks = []
    for first in range(0, len(rest), CHUNK):
        chunk = rest[first:first + CHUNK]
        acked = len(latencies)
        start = time.perf_counter()
        await asyncio.gather(*(run_one(index, *plan[index])
                               for index in chunk))
        seconds = time.perf_counter() - start
        chunks.append((seconds, len(chunk), calibrate(), latencies[acked:]))
    return chunks


class ServeMixed:
    """The serving tier under a seeded metadata mix (real clock)."""

    name = "serve_mixed"
    exact = False
    blocks = 1

    def __init__(self, seed, scratch, src, ops=2400, sim_ops=6000):
        self.plan = build_workload(seed, ops, DIRS)
        self.deps = plan_deps(self.plan)
        self.expected = expected_listing(self.plan)
        #: The DES replay runs a longer plan of the same seed (the real
        #: plan is its prefix): the simulated tail of a 1,200-op plan
        #: swung with its rename count, and the replay is cheap.
        self.sim_plan = build_workload(seed, sim_ops, DIRS)
        self.sim_deps = plan_deps(self.sim_plan)
        self.scratch = scratch
        self.src = src
        #: Port choice is not an input of the workload: draw it from
        #: the OS so two concurrent runs of one seed do not collide.
        self.port_rng = random.SystemRandom()

    def setup(self, block, tracer=None):
        servers = Servers(self.scratch, self.src, self.port_rng)
        try:
            servers.wait_ready()
        except BaseException:
            servers.stop()
            raise
        return {"servers": servers, "tracer": tracer}

    def close(self, state):
        state["servers"].stop()

    def run(self, state):
        servers = state["servers"]
        state["cpu_start_s"] = [proc_cpu_s(p.pid) for p in servers.procs]
        real = asyncio.run(self._run_real(servers))
        state["cpu_s"] = [proc_cpu_s(p.pid) for p in servers.procs]
        state["hwm_mb"] = [proc_hwm_mb(p.pid) for p in servers.procs]
        state["prom"] = [scrape(port) for port in servers.ports()]
        state["listing"] = real.pop("listing")
        real.update(self._run_sim(state["tracer"]))
        return real

    async def _run_real(self, servers):
        env = AsyncioEnv()
        args = servers.args
        shared = ClusterShared(env, CostModel(), serve_config(args))
        network = AioNetwork(env, shared.costs,
                             topology(HOST, args.base_port, MNODES))
        client = FalconClient(env, network, shared, "bench", mode="vfs")
        by_op = {}
        failed = []

        def record(op, ms, code):
            if code is None:
                by_op.setdefault(op, []).append(ms)
            else:
                failed.append((op, code))

        cpu_start = time.process_time()
        try:
            start = time.perf_counter()
            chunks = await _drive(env, client, self.plan, self.deps, record)
            # Take the calibration loop (pure CPU) out of both clocks.
            calibrating = sum(calib for _, _, calib, _ in chunks)
            wall = time.perf_counter() - start - calibrating
            cpu = time.process_time() - cpu_start - calibrating
            listing = {}
            for directory in self.expected:
                entries = await env.run_process(client.readdir(directory))
                listing[directory] = sorted(list(e) for e in entries)
        finally:
            await network.close()
        acked = sum(len(values) for values in by_op.values())
        return {
            "wall_s": wall,
            "client_cpu_s": cpu,
            "ops": len(self.plan),
            "acked": acked,
            "failed": len(failed),
            "chunks": chunks,
            "wall_by_op_ms": by_op,
            "listing": listing,
        }

    def _run_sim(self, tracer):
        """The seed's plan with the same dependencies and concurrency on
        the DES clock."""
        cluster = FalconCluster(config=serve_config(serve_args(0)),
                                tracer=tracer)
        env = cluster.env
        client = cluster.add_client(mode="vfs", name="bench")
        lat = []
        done = [env.event() for _ in self.sim_plan]
        iterator = iter(i for i, step in enumerate(self.sim_plan)
                        if step[0] != "mkdir")

        def run_one(index):
            op, path, dest = self.sim_plan[index]
            for edge in self.sim_deps[index]:
                if not done[edge].triggered:
                    yield done[edge]
            start = env.now
            yield from client_op(client, op, path, dest)
            lat.append(env.now - start)
            done[index].succeed()

        def worker():
            for index in iterator:
                yield from run_one(index)

        def mkdirs():
            for index, step in enumerate(self.sim_plan):
                if step[0] == "mkdir":
                    yield from run_one(index)

        events_before = env.events_scheduled
        sim_start = env.now
        cluster.run_process(mkdirs())
        procs = [env.process(worker()) for _ in range(CONCURRENCY)]
        env.run(until=env.all_of(procs))
        sim_s = (env.now - sim_start) / 1e6
        return {
            "sim_s": sim_s,
            "sim_ops_per_s": len(lat) / sim_s,
            "events": env.events_scheduled - events_before,
            "sim_ops": len(lat),
            "sim_lat_us": lat,
            "sim_cluster": cluster,
        }

    def check(self, state, result):
        """No op lost or failed, and a final ``ls`` of each directory
        matches what the plan implies."""
        lost = result["ops"] - result["acked"] - result["failed"]
        if lost or result["failed"]:
            raise OutputError("{} ops lost, {} failed".format(
                lost, result["failed"]))
        if state["listing"] != self.expected:
            wrong = [d for d in self.expected
                     if state["listing"].get(d) != self.expected[d]]
            raise OutputError("ls differs from the plan in {}".format(wrong))
        if len(result["sim_lat_us"]) != len(self.sim_plan):
            raise OutputError("DES replay completed {} of {} ops".format(
                len(result["sim_lat_us"]), len(self.sim_plan)))
