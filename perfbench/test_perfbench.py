"""The benchmark's own tests: ``python3 -m pytest perfbench -q``.

Each workload runs at smoke size through the same entry point the full
benchmark uses; the metric names and the per-layer -> end-to-end map
are checked against ``spec.py`` and ``BENCHMARK.json``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
E2E = [m["name"] for m in spec.END_TO_END]
LAYER = [m["name"] for m in spec.PER_LAYER]


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--scale", "smoke", "--seconds", "0", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300, check=False)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", spec.ALL)
def test_smoke_end_to_end(workload):
    result = result_of(bench("--workload", workload, "--seed", "3"))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(E2E)
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", spec.ALL)
def test_smoke_per_layer(workload):
    result = result_of(bench("--workload", workload, "--seed", "3",
                             "--trace", "1"))
    assert result["correct"] is True
    assert sorted(result["metrics"]) == sorted(LAYER)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    # A metric listed as measured on this workload must see work there.
    measured = [m["name"] for m in spec.PER_LAYER
                if workload in m["workloads"]]
    assert values["calls.total.per_op"] > 0
    assert any(values[name] > 0 for name in measured)


def test_sim_metrics_repeat_across_runs():
    """Determinism guard across processes: one seed, same simulated
    numbers and exact counts."""
    runs = [result_of(bench("--workload", "meta_mix", "--seed", "5"))
            for _ in range(2)]
    sims = [{k: v["value"] for k, v in r["metrics"].items()
             if k.startswith("sim_")} for r in runs]
    assert sims[0] == sims[1]
    traced = [result_of(bench("--workload", "meta_mix", "--seed", "5",
                              "--trace", "1")) for _ in range(2)]
    for key in ("sim.events_per_op", "calls.total.per_op"):
        assert (traced[0]["metrics"][key] == traced[1]["metrics"][key])


def test_metric_names_and_units():
    doc = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert spec.NAME_RE.match(name), name
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert spec.UNIT_RE.match(metric["unit"]), metric


def test_per_layer_maps_to_end_to_end():
    for metric in spec.PER_LAYER:
        assert set(metric["workloads"]) <= set(spec.ALL), metric["name"]
        if metric["name"] != "trace_overhead_pct":
            assert metric["moves"], metric["name"]
        for target, workload in metric["moves"]:
            assert target in E2E, metric["name"]
            assert workload in spec.ALL, metric["name"]


def test_benchmark_json_is_generated_from_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        assert handle.read() == spec.render()


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "meta_mix", "--seed", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_dirty_schedule_is_a_failed_op():
    """A dirty checker verdict counts as a failed op of check_sweep and
    does not make the output wrong.  Checker seed 115912682 of the
    ``mixed`` mix loses an acked create (see README.md)."""
    sys.path[:0] = [os.path.join(ROOT, "src")]
    try:
        from checkload import CheckSweep

        workload = CheckSweep(seed=0, pairs=1)
        workload.seed_blocks = [[("mixed", 115912682), ("election", 1)]]
        state = workload.setup(0)
        result = workload.run(state)
        workload.check(state, result)
    finally:
        del sys.path[0]
    assert result["ops"] == 2
    assert result["failed"] == 1
    assert result["dirty"] == (("mixed", 115912682, "durability"),)
