"""Statistics used by the benchmark: medians, quartiles, the tail rule, self time."""

import math
import statistics

# Candidate tail percentiles, highest first. The reported tail is the highest
# one that still has at least MIN_BEYOND samples above it, so a tail is never
# read off a handful of samples. A run lasts a fixed time, so its sample count
# follows the host's speed, which drifts by half between runs on a shared
# host. The rungs are far enough apart that a workload stays on one rung:
# per-step workloads yield 1000-2500 samples (p95 needs 200, p99 would need
# 1000), the farm 80-130 lease samples (p75 needs 40, p90 would need 100).
TAIL_LADDER = (95.0, 75.0, 50.0)
MIN_BEYOND = 10


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two samples")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def samples_beyond(n, pct):
    """Samples strictly above the nearest-rank pct-th percentile of n samples."""
    return n - math.ceil(pct / 100.0 * n)


def percentile(values, pct):
    """Nearest-rank percentile: the smallest sample with pct% of samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values):
    """(pct, value, n, beyond) for the highest ladder percentile with >= MIN_BEYOND samples beyond it.

    Raises ValueError when even the median has fewer than MIN_BEYOND samples
    beyond it: such a run has no tail worth reporting.
    """
    n = len(values)
    for pct in TAIL_LADDER:
        beyond = samples_beyond(n, pct)
        if beyond >= MIN_BEYOND:
            return pct, percentile(values, pct), n, beyond
    raise ValueError(f"{n} samples cannot support a tail with {MIN_BEYOND} samples beyond it")


def covered(intervals):
    """Total length of the union of (begin, end) intervals."""
    total, end = 0.0, -math.inf
    for b, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(b, end)
        end = e
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part its children cover.

    `spans` are dicts with id, parent, begin, end. Children may run on other
    threads and overlap each other; only the union of their intervals, clipped
    to the parent, is subtracted.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c["begin"], s["begin"]), min(c["end"], s["end"]))
                for c in children.get(s["id"], [])]
        out[s["id"]] = (s["end"] - s["begin"]) - covered([k for k in kids if k[1] > k[0]])
    return out
