#!/usr/bin/env python3
"""Halo group gate: assert the planned multi-field exchange actually engaged
and actually cut the message count, from the halo_batching_smoke telemetry
dumps of the batched and per-field modes (same model, same steps).

Checks on the batched run:
  * halo_smoke.messages > 0 and halo_smoke.batches > 0 — grouping engaged;
  * halo_smoke.equiv_messages / halo_smoke.messages >= MIN_RATIO — the
    group's own accounting of the per-field-equivalent work it carried;
  * per-field messages / batched messages >= MIN_RATIO — the MEASURED
    cross-run reduction, not just self-reported accounting;
  * halo_smoke.subcycle_messages <= MAX_SUBCYCLE_MESSAGES — the barotropic
    subcycle keeps its per-peer fusion, self-copies and zonal-only refreshes;
  * halo.group.plan_builds > 0 and halo.group.plan_hits > 0 — the cached
    plans were built and actually reused.
Checks on the per-field run:
  * halo_smoke.batches == 0 — the ablation really ran per-field.
Checks on both runs:
  * resilience.halo_crc_failures == 0 — every message passed CRC
    verification;
  * halo_smoke.state_crc identical — both communication paths produce
    bit-identical final prognostic state.
"""
import argparse
import json
import sys

# The reduction the 4-rank, 2-step smoke reached before the group engines
# were merged (6225 per-field-equivalent messages in 930); the merged engine
# must not fall below it.
MIN_RATIO = 6.69
# Subcycle messages of the same smoke before the merge.
MAX_SUBCYCLE_MESSAGES = 624


def load(path):
    with open(path) as f:
        doc = json.load(f)
    assert doc.get("schema") == "licomk.telemetry.v1", doc.get("schema")
    return doc


def gauge(doc, name):
    return doc.get("gauges", {}).get(name, 0.0)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("batched", help="metrics.json from halo_batching_smoke batched")
    ap.add_argument("perfield", help="metrics.json from halo_batching_smoke perfield")
    args = ap.parse_args()

    bat = load(args.batched)
    per = load(args.perfield)

    failures = []
    bat_msgs = gauge(bat, "halo_smoke.messages")
    bat_equiv = gauge(bat, "halo_smoke.equiv_messages")
    bat_batches = gauge(bat, "halo_smoke.batches")
    bat_sub = gauge(bat, "halo_smoke.subcycle_messages")
    per_msgs = gauge(per, "halo_smoke.messages")
    per_batches = gauge(per, "halo_smoke.batches")

    print(f"{'mode':<10} {'messages':>10} {'equiv':>10} {'batches':>8} {'subcycle':>9}")
    print(f"{'batched':<10} {bat_msgs:>10.0f} {bat_equiv:>10.0f} {bat_batches:>8.0f} "
          f"{bat_sub:>9.0f}")
    print(f"{'perfield':<10} {per_msgs:>10.0f} {gauge(per, 'halo_smoke.equiv_messages'):>10.0f} "
          f"{per_batches:>8.0f} {gauge(per, 'halo_smoke.subcycle_messages'):>9.0f}")

    if bat_msgs <= 0:
        failures.append("batched run sent no messages")
    if bat_batches <= 0:
        failures.append("batched run recorded no batches (grouping never engaged)")
    if per_batches != 0:
        failures.append(f"per-field run recorded {per_batches:.0f} batches (ablation "
                        "did not run per-field)")

    if bat_msgs > 0:
        self_ratio = bat_equiv / bat_msgs
        print(f"\nself-reported reduction   {self_ratio:.2f}x (>= {MIN_RATIO}x required)")
        if self_ratio < MIN_RATIO:
            failures.append(f"equiv/actual = {self_ratio:.2f}x < {MIN_RATIO}x")

    if bat_msgs > 0 and per_msgs > 0:
        measured = per_msgs / bat_msgs
        print(f"measured reduction        {measured:.2f}x (>= {MIN_RATIO}x required)")
        if measured < MIN_RATIO:
            failures.append(f"perfield/batched messages = {measured:.2f}x < {MIN_RATIO}x")

    print(f"subcycle messages         {bat_sub:.0f} (<= {MAX_SUBCYCLE_MESSAGES} required)")
    if bat_sub <= 0:
        failures.append("batched run recorded no subcycle messages")
    elif bat_sub > MAX_SUBCYCLE_MESSAGES:
        failures.append(f"subcycle messages = {bat_sub:.0f} > {MAX_SUBCYCLE_MESSAGES}")

    plan_builds = gauge(bat, "halo.group.plan_builds")
    plan_hits = gauge(bat, "halo.group.plan_hits")
    print(f"plans                     {plan_builds:.0f} built, {plan_hits:.0f} hit")
    if plan_builds <= 0:
        failures.append("batched run built no plans")
    if plan_hits <= 0:
        failures.append("batched run never reused a cached plan (plan_hits == 0)")

    docs = [("batched", bat), ("perfield", per)]
    for label, doc in docs:
        crc = doc.get("counters", {}).get("resilience.halo_crc_failures", 0)
        print(f"crc failures ({label:<8})    {crc}")
        if crc != 0:
            failures.append(f"{label}: resilience.halo_crc_failures = {crc} (must be 0)")

    state_crcs = {label: doc.get("labels", {}).get("halo_smoke.state_crc")
                  for label, doc in docs}
    print("state crc                ", " ".join(
        f"{label}={crc}" for label, crc in state_crcs.items()))
    if any(crc is None for crc in state_crcs.values()):
        failures.append("missing halo_smoke.state_crc label in "
                        + ", ".join(l for l, c in state_crcs.items() if c is None))
    elif len(set(state_crcs.values())) != 1:
        failures.append("final state CRCs differ across modes: "
                        + ", ".join(f"{l}={c}" for l, c in state_crcs.items()))

    if failures:
        print("\nhalo batching gate FAILED:", file=sys.stderr)
        for f_ in failures:
            print(f"  {f_}", file=sys.stderr)
        return 1
    print("\nhalo batching gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
