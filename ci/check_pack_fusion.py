#!/usr/bin/env python3
"""Pack gate: the packed dynamics chain must beat the same chain at width 1.

Reads one Google Benchmark JSON file (the perf-smoke run) and compares the
pack-width ablation legs bench_model_kernels exports for the readyt/readyc
chain (density+pressure, tendencies+vertical means):

  BM_DynChainFusedScalar     — the chain at pack width 1 (scalar lowering)
  BM_DynChainFusedPacked/8   — the chain at pack width 8 (SIMD lanes)

Fails (exit 1) when pack width 8 is not at least --min-speedup faster than
pack width 1. The default of 1.05 is deliberately loose for a smoke-sized
grid (the chain is partly memory-bound and the smoke domain fits in cache);
it exists to catch the packed path silently lowering to scalar-per-lane,
not to certify the paper's full-resolution speedups.

Exit 2 with a diagnostic when a leg is missing or the file is not benchmark
JSON (same contract as ci/check_perf.py).
"""
import argparse
import json
import sys

_SCALAR = "BM_DynChainFusedScalar"
_PACKED = "BM_DynChainFusedPacked/8"


def load_times(path):
    with open(path) as f:
        doc = json.load(f)
    if "benchmarks" not in doc:
        raise ValueError(f"{path}: no 'benchmarks' array — not Google Benchmark JSON")
    times = {}
    for b in doc["benchmarks"]:
        if b.get("run_type") == "aggregate":
            continue
        if "name" in b and "real_time" in b:
            times[b["name"]] = b["real_time"]  # legs share one time_unit
    return times


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("bench_json", help="Google Benchmark JSON of the smoke run")
    ap.add_argument("--min-speedup", type=float, default=1.05,
                    help="fail when pack-1/pack-8 time is below this "
                         "(default 1.05)")
    args = ap.parse_args()

    try:
        times = load_times(args.bench_json)
    except (ValueError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    missing = [n for n in (_SCALAR, _PACKED) if n not in times]
    if missing:
        for n in missing:
            print(f"error: {args.bench_json}: ablation leg '{n}' missing "
                  "(rebuild bench_model_kernels and rerun the smoke bench)",
                  file=sys.stderr)
        return 2

    scalar, packed = times[_SCALAR], times[_PACKED]
    if packed <= 0:
        print(f"error: {_PACKED} reported nonpositive time {packed}", file=sys.stderr)
        return 2

    speedup = scalar / packed
    print(f"{_SCALAR:<32} {scalar:10.4f}")
    print(f"{_PACKED:<32} {packed:10.4f}  ({speedup:.2f}x vs pack width 1)")

    if speedup < args.min_speedup:
        print(f"\npack gate FAILED: pack width 8 is only {speedup:.2f}x "
              f"the pack-width-1 chain (need >= {args.min_speedup}x)",
              file=sys.stderr)
        return 1
    print(f"\npack gate passed: {speedup:.2f}x >= {args.min_speedup}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
