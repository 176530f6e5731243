#!/usr/bin/env python3
"""LDM staging gate: assert the telemetry metrics.json from the perf smoke
shows the AthreadSim tile-staging pipeline actually engaged.

Checks, per converted kernel (the ones carrying a kxx_access descriptor):
  * a flat AthreadSim span exists with per-span DMA counters attached;
  * the staged path issued at least 10x fewer DMA commands than elements
    touched (strided slab staging vs element-wise access);
and globally:
  * dma.async_in_flight_max >= 1 — the double-buffered prefetch genuinely
    had transfers in flight while a tile computed;
  * kxx.athread_fallbacks == 0 — every dispatched kernel ran CPE-resident;
  * kxx.ldm_stage_fallbacks == 0 — no staged kernel fell back to direct
    main-memory access for want of LDM;
  * ldm.staged_bytes > 0 — slabs actually moved through LDM.
"""
import argparse
import json
import sys

STAGED_KERNELS = ["adv_flux_east", "adv_flux_north", "trc_hdiff_pair"]
MIN_TRANSFER_RATIO = 10


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("metrics", help="telemetry metrics.json from the smoke run")
    args = ap.parse_args()

    with open(args.metrics) as f:
        doc = json.load(f)
    counters = doc.get("counters", {})
    kernels = {(k["name"], k["backend"]): k for k in doc.get("kernels", [])}

    failures = []
    print(f"{'kernel':<18} {'items':>12} {'DMA cmds':>10} {'ratio':>8}")
    for name in STAGED_KERNELS:
        entry = kernels.get((name, "AthreadSim"))
        if entry is None:
            failures.append(f"{name}: no AthreadSim span in metrics")
            print(f"{name:<18} {'MISSING':>12}")
            continue
        items = entry.get("items", 0)
        transfers = entry.get("counters", {}).get("dma.transfers", 0)
        if transfers <= 0:
            failures.append(f"{name}: no DMA transfers attributed (staging inactive?)")
            print(f"{name:<18} {items:>12} {transfers:>10} {'-':>8}")
            continue
        ratio = items / transfers
        flag = "" if transfers * MIN_TRANSFER_RATIO <= items else " <-- FAIL"
        print(f"{name:<18} {items:>12} {transfers:>10} {ratio:>7.1f}x{flag}")
        if flag:
            failures.append(
                f"{name}: {transfers} DMA commands for {items} elements "
                f"(< {MIN_TRANSFER_RATIO}x batching)")

    inflight = counters.get("dma.async_in_flight_max", 0)
    print(f"\ndma.async_in_flight_max   {inflight}")
    if inflight < 1:
        failures.append("dma.async_in_flight_max < 1: double buffering never "
                        "overlapped a transfer with compute")

    for name in ("kxx.athread_fallbacks", "kxx.ldm_stage_fallbacks"):
        value = counters.get(name, 0)
        print(f"{name:<25} {value}")
        if value != 0:
            failures.append(f"{name} = {value} (must be 0)")

    staged = counters.get("ldm.staged_bytes", 0)
    print(f"ldm.staged_bytes          {staged}")
    if staged <= 0:
        failures.append("ldm.staged_bytes == 0: nothing was staged through LDM")

    if failures:
        print("\nLDM staging gate FAILED:", file=sys.stderr)
        for f_ in failures:
            print(f"  {f_}", file=sys.stderr)
        return 1
    print("\nLDM staging gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
