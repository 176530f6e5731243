#!/usr/bin/env python3
"""Perf gate: compare a Google Benchmark JSON run against a checked-in baseline.

Fails (exit 1) when any benchmark present in the baseline regresses by more
than --max-ratio in real_time, or is missing from the new run entirely.
Benchmarks only present in the new run are reported but do not fail the gate
(they have no baseline yet — regenerate with ci/update_baseline.sh).

The smoke baseline is intentionally coarse (2x gate, ~0.05 s/benchmark): it
catches order-of-magnitude regressions like an accidentally serialized kernel
or a telemetry branch left enabled, not single-digit-percent drift.
"""
import argparse
import json
import sys

# Normalize every timing to nanoseconds regardless of the reported time_unit.
_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


class BenchFormatError(Exception):
    """A benchmark JSON file is missing a key the gate needs."""


def load_times(path, role):
    with open(path) as f:
        doc = json.load(f)
    if "benchmarks" not in doc:
        raise BenchFormatError(
            f"{role} {path}: no 'benchmarks' array — not Google Benchmark JSON "
            "(regenerate with ci/update_baseline.sh)")
    times = {}
    for i, b in enumerate(doc["benchmarks"]):
        if b.get("run_type") == "aggregate":
            continue  # use raw iterations; aggregates only exist with repetitions
        name = b.get("name")
        if name is None:
            raise BenchFormatError(
                f"{role} {path}: benchmarks[{i}] has no 'name' key "
                "(regenerate with ci/update_baseline.sh)")
        if "real_time" not in b:
            raise BenchFormatError(
                f"{role} {path}: benchmark '{name}' has no 'real_time' key "
                "(regenerate with ci/update_baseline.sh)")
        unit = b.get("time_unit", "ns")
        if unit not in _TO_NS:
            raise BenchFormatError(
                f"{role} {path}: benchmark '{name}' has unknown time_unit "
                f"'{unit}' (expected one of {sorted(_TO_NS)})")
        times[name] = b["real_time"] * _TO_NS[unit]
    return times


def check_build_type(path, role):
    """Refuse timings from a debug build of LICOMK.

    The bench binary records its own compile mode as `licomk_build_type` in
    the benchmark context (the stock `library_build_type` field describes the
    system libbenchmark package, which Debian ships without NDEBUG).
    Comparing a debug baseline against a release candidate (or vice versa)
    renders the ratio gate meaningless, so both sides must be release.
    Returns an error string, or None when the run is acceptable.
    """
    with open(path) as f:
        context = json.load(f).get("context", {})
    build_type = context.get("licomk_build_type")
    if build_type is None:
        return (f"{role} {path}: no licomk_build_type in context "
                "(regenerate with ci/update_baseline.sh from a Release build)")
    if build_type != "release":
        return f"{role} {path}: built in {build_type}; perf gating needs a Release build"
    return None


# Gauge keys every tenant section of licomk_farm_gauges must carry — the
# minimum needed to interpret the timings' multi-tenant regime (how many
# steps each member ran, at what throughput, and whether it completed).
_FARM_TENANT_KEYS = ("state", "steps", "sypd")


def check_farm_context(path, role):
    """Validate the OPTIONAL `licomk_farm_gauges` baseline-context section.

    ci/update_baseline.sh records the forecast-farm ensemble gauges (one
    section per tenant) next to the timings, the same way it records the halo
    gauges. Absence is fine — pre-farm baselines stay valid — but a present
    section must be well-formed: a half-written farm context means the
    baseline was regenerated against a broken farm run, and the regime the
    timings were taken under is unknowable. Returns a list of error strings
    (empty when acceptable); callers report them and exit 2, never a
    traceback.
    """
    with open(path) as f:
        context = json.load(f).get("context", {})
    farm = context.get("licomk_farm_gauges")
    if farm is None:
        return []
    where = f"{role} {path}: licomk_farm_gauges"
    if not isinstance(farm, dict):
        return [f"{where} must be an object, got {type(farm).__name__} "
                "(regenerate with ci/update_baseline.sh)"]
    tenants = farm.get("tenants")
    if not isinstance(tenants, dict) or not tenants:
        return [f"{where} has no tenant sections — expected a non-empty "
                "'tenants' object keyed by tenant name "
                "(regenerate with ci/update_baseline.sh)"]
    errors = []
    for name, gauges in sorted(tenants.items()):
        if not isinstance(gauges, dict):
            errors.append(f"{where}: tenant '{name}' section must be an "
                          f"object, got {type(gauges).__name__}")
            continue
        for key in _FARM_TENANT_KEYS:
            if key not in gauges:
                errors.append(f"{where}: tenant '{name}' is missing gauge "
                              f"'{key}' (regenerate with ci/update_baseline.sh)")
            elif not isinstance(gauges[key], (int, float)):
                errors.append(f"{where}: tenant '{name}' gauge '{key}' must "
                              f"be a number, got {type(gauges[key]).__name__}")
    return errors


# Gauge keys a licomk_pack_gauges section must carry — the SIMD regime the
# timings were taken under (how many lanes did useful work, how many were
# masked off at tails/land, and how many bytes of intermediate-field traffic
# kernel fusion elided).
_PACK_GAUGE_KEYS = ("kxx.pack.lanes_active", "kxx.pack.lanes_masked",
                    "kxx.fusion.views_elided_bytes")


def check_pack_context(path, role):
    """Validate the OPTIONAL `licomk_pack_gauges` baseline-context section.

    ci/update_baseline.sh records the kxx pack/fusion gauges from a
    telemetry-enabled bench run next to the timings. Absence is fine —
    pre-pack baselines stay valid — but a present section must carry every
    gauge as a number: a half-written pack context means the vectorization
    regime behind the timings is unknowable. Returns a list of error strings
    (empty when acceptable); callers report them and exit 2.
    """
    with open(path) as f:
        context = json.load(f).get("context", {})
    pack = context.get("licomk_pack_gauges")
    if pack is None:
        return []
    where = f"{role} {path}: licomk_pack_gauges"
    if not isinstance(pack, dict):
        return [f"{where} must be an object, got {type(pack).__name__} "
                "(regenerate with ci/update_baseline.sh)"]
    errors = []
    for key in _PACK_GAUGE_KEYS:
        if key not in pack:
            errors.append(f"{where} is missing gauge '{key}' "
                          "(regenerate with ci/update_baseline.sh)")
        elif not isinstance(pack[key], (int, float)):
            errors.append(f"{where}: gauge '{key}' must be a number, "
                          f"got {type(pack[key]).__name__}")
    if not errors and pack.get("kxx.pack.lanes_active", 0) <= 0:
        errors.append(f"{where}: kxx.pack.lanes_active is "
                      f"{pack.get('kxx.pack.lanes_active')} — the bench run "
                      "never took the packed path (regenerate with "
                      "ci/update_baseline.sh from a Release build)")
    return errors


# Gauges a licomk_halo_gauges section must carry — the halo message regime
# behind the timings, recorded from a batched halo_batching_smoke run (plan
# cache reuse, local self-copies, barotropic-subcycle message count).
_HALO_GAUGE_KEYS = ("halo.group.plan_builds", "halo.group.plan_hits",
                    "halo.group.self_copies", "halo_smoke.subcycle_messages")


def check_halo_context(path, role):
    """Validate the OPTIONAL `licomk_halo_gauges` baseline-context section.

    Absence is fine, but a present section must carry every gauge above as a
    number under its engine-neutral name; the retired `halo.persistent.*`
    names mean the baseline predates the single group engine. Returns a list
    of error strings (empty when acceptable); callers report them and exit 2.
    """
    with open(path) as f:
        context = json.load(f).get("context", {})
    halo = context.get("licomk_halo_gauges")
    if halo is None:
        return []
    where = f"{role} {path}: licomk_halo_gauges"
    if not isinstance(halo, dict):
        return [f"{where} must be an object, got {type(halo).__name__} "
                "(regenerate with ci/update_baseline.sh)"]
    errors = [f"{where}: retired gauge name '{key}' "
              "(regenerate with ci/update_baseline.sh)"
              for key in sorted(halo) if key.startswith("halo.persistent.")]
    for key in _HALO_GAUGE_KEYS:
        if key not in halo:
            errors.append(f"{where} is missing gauge '{key}' "
                          "(regenerate with ci/update_baseline.sh)")
        elif not isinstance(halo[key], (int, float)):
            errors.append(f"{where}: gauge '{key}' must be a number, "
                          f"got {type(halo[key]).__name__}")
    return errors


# Keys a licomk_elasticity_gauges section must carry — the elastic-resilience
# regime recorded from the growback soak drill (shrink chain, a single
# grow-back, final size) plus the weighted-decomposition imbalance pair.
_ELASTICITY_KEYS = ("resilience.growbacks", "soak.shrinks", "soak.growbacks",
                    "soak.final_nranks", "soak.final_crc_match",
                    "decomp.weighted.imbalance_uniform",
                    "decomp.weighted.imbalance_weighted")


def check_elasticity_context(path, role):
    """Validate the OPTIONAL `licomk_elasticity_gauges` baseline-context section.

    ci/update_baseline.sh records the growback soak drill's counters and
    gauges next to the timings. Absence is fine — pre-elasticity baselines
    stay valid — but a present section must carry every key as a number, the
    drill must actually have grown back (growbacks >= 1, CRC match), and the
    weighted planner must not have done worse than the uniform split. Returns
    a list of error strings (empty when acceptable); callers report them and
    exit 2.
    """
    with open(path) as f:
        context = json.load(f).get("context", {})
    ela = context.get("licomk_elasticity_gauges")
    if ela is None:
        return []
    where = f"{role} {path}: licomk_elasticity_gauges"
    if not isinstance(ela, dict):
        return [f"{where} must be an object, got {type(ela).__name__} "
                "(regenerate with ci/update_baseline.sh)"]
    errors = []
    for key in _ELASTICITY_KEYS:
        if key not in ela:
            errors.append(f"{where} is missing '{key}' "
                          "(regenerate with ci/update_baseline.sh)")
        elif not isinstance(ela[key], (int, float)):
            errors.append(f"{where}: '{key}' must be a number, "
                          f"got {type(ela[key]).__name__}")
    if errors:
        return errors
    if ela["resilience.growbacks"] < 1:
        errors.append(f"{where}: resilience.growbacks is "
                      f"{ela['resilience.growbacks']} — the soak drill never "
                      "grew back (regenerate with ci/update_baseline.sh)")
    if ela["soak.final_crc_match"] != 1:
        errors.append(f"{where}: soak.final_crc_match is "
                      f"{ela['soak.final_crc_match']} — the healed run was "
                      "not bit-identical to its uninterrupted twin")
    if ela["decomp.weighted.imbalance_weighted"] > \
            ela["decomp.weighted.imbalance_uniform"] + 1e-12:
        errors.append(f"{where}: weighted imbalance "
                      f"{ela['decomp.weighted.imbalance_weighted']} exceeds "
                      f"uniform {ela['decomp.weighted.imbalance_uniform']} — "
                      "the ocean-aware planner did worse than the uniform split")
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--max-ratio", type=float, default=2.0,
                    help="fail when current/baseline exceeds this (default 2.0)")
    args = ap.parse_args()

    build_errors = [e for e in (check_build_type(args.baseline, "baseline"),
                                check_build_type(args.current, "current"))
                    if e is not None]
    build_errors += check_farm_context(args.baseline, "baseline")
    build_errors += check_farm_context(args.current, "current")
    build_errors += check_pack_context(args.baseline, "baseline")
    build_errors += check_pack_context(args.current, "current")
    build_errors += check_halo_context(args.baseline, "baseline")
    build_errors += check_halo_context(args.current, "current")
    build_errors += check_elasticity_context(args.baseline, "baseline")
    build_errors += check_elasticity_context(args.current, "current")
    if build_errors:
        for e in build_errors:
            print(f"error: {e}", file=sys.stderr)
        return 2

    try:
        baseline = load_times(args.baseline, "baseline")
        current = load_times(args.current, "current")
    except BenchFormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if not baseline:
        print(f"error: no benchmarks in baseline {args.baseline}", file=sys.stderr)
        return 2

    failures = []
    print(f"{'benchmark':<40} {'baseline':>12} {'current':>12} {'ratio':>7}")
    for name, base_ns in sorted(baseline.items()):
        cur_ns = current.get(name)
        if cur_ns is None:
            failures.append(f"{name}: missing from current run")
            print(f"{name:<40} {base_ns/1e6:>10.3f}ms {'MISSING':>12}")
            continue
        ratio = cur_ns / base_ns if base_ns > 0 else float("inf")
        flag = " <-- FAIL" if ratio > args.max_ratio else ""
        print(f"{name:<40} {base_ns/1e6:>10.3f}ms {cur_ns/1e6:>10.3f}ms {ratio:>6.2f}x{flag}")
        if ratio > args.max_ratio:
            failures.append(f"{name}: {ratio:.2f}x baseline (limit {args.max_ratio}x)")

    for name in sorted(set(current) - set(baseline)):
        print(f"{name:<40} {'(no baseline)':>12} {current[name]/1e6:>10.3f}ms")

    if failures:
        print("\nperf gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nperf gate passed: {len(baseline)} benchmarks within "
          f"{args.max_ratio}x of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
