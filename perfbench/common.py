"""Helpers shared by the benchmark's workloads: statistics, memory and
the round loop that turns a fixed unit of work into a timed run."""

import resource
import statistics
import time


class OutputError(AssertionError):
    """A workload produced a wrong answer (the run is not correct)."""


def percentile(values, q):
    """The ``q``-th percentile (0..100) of ``values``, linearly
    interpolated between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values):
    return statistics.median(values)


def peak_rss_mb():
    """Peak resident set of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Host seconds :func:`calibrate` takes on the reference host (a 2-vCPU
#: cloud VM, Python 3.11).  Wall metrics are scaled by
#: ``calibrate() / CALIBRATION_REF_S`` measured next to the work, which
#: takes out most of a shared host's speed drift: there, the same
#: pure-Python loop timed over consecutive 8-second periods varies by
#: 12-19 % (quartile spread over median).
CALIBRATION_REF_S = 0.004


def calibrate():
    """Host seconds of a fixed pure-Python loop.  It makes no calls, so
    under ``cProfile`` it adds only its own entry, which the per-layer
    split leaves out."""
    start = time.perf_counter()
    table = [0] * 1024
    for i in range(50000):
        table[i & 1023] += i
    return time.perf_counter() - start


#: Rounds a run makes even past its ``--seconds``: enough for a median.
MIN_ROUNDS = 3


def run_rounds(seconds, one_round):
    """Call ``one_round(index)`` until ``seconds`` of host time have
    passed and at least :data:`MIN_ROUNDS` rounds ran; returns their
    results in order.  Each round is the same unit of work, so the
    caller reports medians over rounds rather than one noisy sample."""
    start = time.perf_counter()
    results = []
    while (len(results) < MIN_ROUNDS
           or time.perf_counter() - start < seconds):
        results.append(one_round(len(results)))
    return results


def same_across_rounds(rounds, keys):
    """Determinism guard: every round of one seed must agree exactly on
    the simulated-clock metrics and exact counts in ``keys`` with the
    first round of the same block."""
    firsts = {}
    for index, other in enumerate(rounds):
        base, first = firsts.setdefault(other["block"], (index, other))
        for key in keys:
            if other[key] != first[key]:
                raise OutputError(
                    "round {} differs from round {} on {}: {!r} != {!r}"
                    .format(index, base, key, other[key], first[key]))
