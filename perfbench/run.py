"""Benchmark of the FalconFS reproduction: one workload per invocation.

    python3 perfbench/run.py --workload meta_mix --seed 1 --seconds 20 --trace 0

Workloads (``spec.py`` says why each exists; ``README.md`` describes
them): ``meta_mix``, ``dl_traverse``, ``serve_mixed`` and
``check_sweep``.  ``--workload all`` runs each in its own process.

A run repeats one seed-determined round of work (fresh set-up, the
work, output checks) until ``--seconds`` have passed, then reports
medians.  A workload has ``blocks`` distinct rounds (three on
check_sweep, one elsewhere) and round ``i`` runs block ``i mod blocks``.
Every round of one block must agree exactly on the simulated-clock
metrics, which is the benchmark's determinism guard.  Where the seed
fixes every output (``workload.exact``), the outputs are checked in the
first round of each block and the guard covers the rest; serve_mixed's
real-clock outputs are checked every round.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs four
rounds (untraced, two under ``cProfile``, one with the cluster
``Tracer``) and prints the per-layer metrics, including
``trace_overhead_pct``.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A wrong output
prints ``"correct": false`` and exits 1.
"""

import argparse
import cProfile
import gc
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch files (the server log) live here, inside the checkout, one
#: directory per benchmark process.
SCRATCH_ROOT = os.path.join(ROOT, ".perfbench_tmp")
SCRATCH = os.path.join(SCRATCH_ROOT, str(os.getpid()))

#: Per-workload sizes for ``--scale smoke`` (the benchmark's own tests).
SMOKE = {
    "meta_mix": {"ops": 640},
    "dl_traverse": {"levels": 2, "fanout": 4, "files_per_leaf": 4,
                    "threads": 16},
    "serve_mixed": {"ops": 80, "sim_ops": 400},
    "check_sweep": {"pairs": 1},
}


def make_workload(name, seed, scale):
    from checkload import CheckSweep
    from serveload import ServeMixed
    from simload import DlTraverse, MetaMix

    kwargs = SMOKE[name] if scale == "smoke" else {}
    if name == "serve_mixed":
        return ServeMixed(seed, SCRATCH, SRC, **kwargs)
    cls = {"meta_mix": MetaMix, "dl_traverse": DlTraverse,
           "check_sweep": CheckSweep}[name]
    return cls(seed, **kwargs)


def one_round(workload, block=0, tracer=None, profiler=None, check=True):
    """Set up, run and (with ``check``) check one round of the
    workload's ``block`` (only check_sweep has more than one); returns
    its raw numbers with ``block``, ``setup_s`` (calibrated like the
    wall metrics) and the workload state under ``state`` added."""
    from common import CALIBRATION_REF_S, calibrate

    # Free the previous round's cluster before building the next, so
    # peak RSS is one round's, not two.
    gc.collect()
    start = time.perf_counter()
    state = workload.setup(block, tracer=tracer)
    setup_s = (time.perf_counter() - start) * CALIBRATION_REF_S / calibrate()
    try:
        # Start the work from an empty collector: garbage left by set-up
        # (finalizing generators count as profiled calls) must not be
        # collected inside it.
        gc.collect()
        if profiler is not None:
            profiler.enable()
        try:
            result = workload.run(state)
        finally:
            if profiler is not None:
                profiler.disable()
        if check:
            workload.check(state, result)
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close(state)
    result["block"] = block
    result["setup_s"] = setup_s
    result["state"] = state
    return result


def lean(result):
    """Reduce a finished round to the numbers the report needs.  A run
    keeps every round, so keeping cluster objects or per-op lists would
    make peak RSS grow with the number of rounds."""
    from common import percentile

    state = result.pop("state")
    result.pop("sim_cluster", None)
    result["hwm_mb"] = state.get("hwm_mb", [])
    sim_lat_us = result.pop("sim_lat_us")
    result["sim_lat_hash"] = hash(tuple(sim_lat_us))
    result["sim_p50_us"] = percentile(sim_lat_us, 50)
    result["sim_p99_us"] = percentile(sim_lat_us, 99)
    result["chunks"] = [
        (seconds, ops, calib, percentile(lat_ms, 50), percentile(lat_ms, 99))
        for seconds, ops, calib, lat_ms in result["chunks"]]
    return result


def guard_keys(result):
    """The simulated-clock numbers (and check_sweep's verdicts) a seed
    fixes exactly."""
    return [k for k in ("sim_s", "sim_lat_hash", "events", "sim_ops",
                        "dirty") if k in result]


def end_to_end(rounds):
    """The end-to-end metrics of an untraced run.  Wall metrics are
    medians over every chunk of every round (1000 completions on the
    DES workloads, 200 plan ops on serve_mixed, 5 pairs of schedules on
    check_sweep), each calibrated: scaled by the calibration loop's
    host time measured next to it over its reference time (see
    ``common.calibrate``).  The simulated metrics are the median over
    the workload's blocks."""
    from common import CALIBRATION_REF_S, median, peak_rss_mb

    # Round i runs block i mod blocks, so round i is its block's first
    # when i equals the block; each block's simulated numbers are exact.
    firsts = [r for index, r in enumerate(rounds) if r["block"] == index]
    rates, p50s, p99s = [], [], []
    for seconds, ops, calib, p50, p99 in (
            chunk for r in rounds for chunk in r["chunks"]):
        speed = calib / CALIBRATION_REF_S
        rates.append(ops / seconds * speed)
        p50s.append(p50 / speed)
        p99s.append(p99 / speed)
    return {
        "sim_ops_per_s": median(r["sim_ops_per_s"] for r in firsts),
        "sim_p50_us": median(r["sim_p50_us"] for r in firsts),
        "sim_p99_us": median(r["sim_p99_us"] for r in firsts),
        "wall_ops_per_s": median(rates),
        "wall_p50_ms": median(p50s),
        "wall_p99_ms": median(p99s),
        "setup_s": median(r["setup_s"] for r in rounds),
        "peak_rss_mb": peak_rss_mb() + max(sum(r["hwm_mb"]) for r in rounds),
    }


def per_layer(workload):
    """Per-layer metrics from four rounds of one seed: an untraced
    round (the overhead baseline), two rounds under ``cProfile`` (self
    time and calls per layer; their exact call counts must agree) and
    one round with the cluster ``Tracer`` (simulated latency split and
    retries).  The profiler and the tracer never run together, so each
    measures the program without the other's code."""
    import pstats

    import layers
    from common import OutputError, same_across_rounds
    from repro.obs import Tracer

    plain = one_round(workload)
    profiled = []
    for _ in range(2):
        profiler = cProfile.Profile()
        result = one_round(workload, profiler=profiler)
        result["split"] = layers.profile_split(pstats.Stats(profiler),
                                               result["ops"])
        profiled.append(lean(result))
    tracer = Tracer()
    spanned = lean(one_round(workload, tracer=tracer))
    calls = [r["split"]["calls.total.per_op"] for r in profiled]
    if workload.exact and calls[0] != calls[1]:
        raise OutputError("calls per op differ across profiled rounds: "
                          "{}".format(calls))

    # Timings and counts come from the untraced round; only the
    # self-time and call split needs the profiler.
    state = plain["state"]
    sim_ops = plain["sim_ops"]
    metrics = dict(profiled[-1]["split"])
    metrics["trace_overhead_pct"] = 100.0 * (
        profiled[-1]["wall_s"] / plain["wall_s"] - 1.0)
    if "events" in plain:
        metrics["sim.events_per_op"] = plain["events"] / sim_ops
    if workload.name in ("meta_mix", "dl_traverse"):
        metrics.update(layers.cluster_counts(
            state["cluster"], state["clients"][0], sim_ops))
    elif workload.name == "serve_mixed":
        cluster = plain["sim_cluster"]
        metrics.update(layers.cluster_counts(
            cluster, cluster.clients[0], sim_ops))
        metrics.update(layers.serve_counts(state, plain))
    else:
        metrics.update(layers.check_counts(state, plain))
    if tracer.spans:
        metrics.update(layers.simlat(tracer.spans))
        metrics["obs.retry.retries_per_op"] = (
            layers.retries(tracer.spans) / sim_ops)
    rounds = [lean(plain)] + profiled + [spanned]
    same_across_rounds(rounds, guard_keys(plain))
    return layers.complete(metrics), rounds


def run_one(args):
    from common import OutputError, run_rounds, same_across_rounds
    from spec import END_TO_END, PER_LAYER

    os.makedirs(SCRATCH, exist_ok=True)
    workload = make_workload(args.workload, args.seed, args.scale)
    units = {m["name"]: m["unit"] for m in END_TO_END + PER_LAYER}
    rounds = []
    try:
        if args.trace:
            metrics, rounds = per_layer(workload)
        else:
            rounds = run_rounds(args.seconds, lambda i: lean(one_round(
                workload, i % workload.blocks,
                check=i < workload.blocks or not workload.exact)))
            same_across_rounds(rounds, guard_keys(rounds[0]))
            metrics = end_to_end(rounds)
        correct = True
    except OutputError as error:
        print("WRONG OUTPUT: {}".format(error), file=sys.stderr)
        metrics = {}
        correct = False
    attempted = max(1, sum(r["ops"] for r in rounds))
    failed = sum(r["failed"] for r in rounds) if correct else max(
        1, sum(r["failed"] for r in rounds))
    for name, value in metrics.items():
        print("{:<40} {:>16.4f} {}".format(name, value, units[name]))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


def run_all(args):
    """Each benchmark workload in its own process; one combined result
    line."""
    from spec import ALL

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ALL:
        argv = [sys.executable, os.path.abspath(__file__),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--scale", args.scale]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              check=False)
        lines = proc.stdout.strip().splitlines()
        print("== {} (exit {})".format(name, proc.returncode))
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"]["{}.{}".format(name, metric)] = value
    print(json.dumps(merged), flush=True)
    return 0 if merged["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("meta_mix", "dl_traverse", "serve_mixed",
                                 "check_sweep", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"),
                        default="full")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no FalconFS sources at {}".format(SRC),
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    # SIGTERM unwinds like an exception, so the ``finally`` blocks that
    # stop serve_mixed's server processes still run.
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        try:
            os.rmdir(SCRATCH_ROOT)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
