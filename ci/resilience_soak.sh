#!/usr/bin/env bash
# Resilience soak: deterministic fault-injection drills (ISSUE 2 + ISSUE 3).
#
# Runs examples/soak_run four times, one scenario per run, each into its own
# artifact subdirectory, and gates on the exported metrics.json:
#
#   default  — three TRANSIENT faults (comm message drop, DMA transfer error,
#              torn checkpoint generation) on a 2-rank run; the supervisor
#              must recover through all of them with a final state
#              bit-for-bit identical to the fault-free twin, and must never
#              shrink.
#   rankloss — a PERSISTENT crash kills rank 1 of a 2-rank run on every
#              relaunch; the supervisor must shrink to 1 rank exactly once,
#              redistribute the newest verified checkpoint onto the smaller
#              decomposition with per-field global CRC-64 equality, resume,
#              and finish. The final state's per-field CRCs are exported as
#              soak.final_crc.* counters and gated on here.
#   detect   — silent-corruption drill on 2 ranks (a one-rank model's halo
#              links are local copies with no message to corrupt): a
#              halo-message bit flip must be caught by the per-message CRC, an injected LDM allocation
#              inflation must surface as a typed overflow, and the recovered
#              run must match the fault-free twin bit for bit.
#   growback — the full elasticity loop on the weighted decomposition:
#              permanent loss of ranks 2 and 3 forces the shrink chain
#              4 -> 3 -> 2; mid-run the capacity returns and the supervisor
#              must grow back 2 -> 4 (CRC-proved redistribution under grow1/)
#              and finish with a final state bit-identical to an
#              uninterrupted 4-rank run.
#
# Usage: ci/resilience_soak.sh [build-dir] [artifact-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-ci-release}"
OUT_DIR="${2:-artifacts/resilience-soak}"

for scenario in default rankloss detect growback; do
  mkdir -p "$OUT_DIR/$scenario"
  "$BUILD_DIR/examples/soak_run" \
    --scenario "$scenario" \
    --seed 20260805 \
    --steps 24 \
    --out "$OUT_DIR/$scenario/metrics.json" \
    --dir "$OUT_DIR/$scenario/checkpoints" \
    | tee "$OUT_DIR/$scenario/soak.log"
done

# The recovery events must be visible in the exported metrics documents.
python3 - "$OUT_DIR" <<'EOF'
import json, sys, os

def load(scenario):
    m = json.load(open(os.path.join(sys.argv[1], scenario, "metrics.json")))
    assert m["schema"] == "licomk.telemetry.v1", m.get("schema")
    return m["counters"], m["gauges"]

# default: transient faults, full recovery, no shrink.
c, g = load("default")
assert c.get("resilience.faults_injected", 0) == 3, c
assert c.get("resilience.faults_detected", 0) >= 1, c
assert c.get("resilience.retries", 0) >= 2, c
assert c.get("resilience.dropped_generations", 0) >= 1, c
assert c.get("resilience.checkpoints_written", 0) >= 3, c
assert c.get("resilience.shrinks", 0) == 0, c
assert g.get("soak.bit_identical") == 1.0, g

# rankloss: permanent rank death -> exactly one shrink, CRC-verified
# redistribution, and a pinned final state (14 per-field global CRCs).
c, g = load("rankloss")
assert c.get("resilience.faults_injected", 0) >= 1, c
assert c.get("resilience.shrinks", 0) == 1, c
assert c.get("resilience.redistributed_bytes", 0) > 0, c
assert g.get("soak.shrinks") == 1.0, g
assert g.get("soak.final_nranks") == 1.0, g
assert g.get("soak.redistribution_crc_match") == 1.0, g
assert g.get("soak.bit_identical") == 1.0, g
final_crcs = {k: v for k, v in c.items() if k.startswith("soak.final_crc.")}
assert len(final_crcs) == 14, sorted(final_crcs)
assert all(v != 0 for v in final_crcs.values()), final_crcs

# growback: shrink chain 4 -> 3 -> 2 under injected rank loss, then a single
# grow-back 2 -> 4 once capacity returns, final state CRC-matched against the
# uninterrupted 4-rank twin — all on the ocean-aware weighted decomposition.
c, g = load("growback")
assert c.get("resilience.shrinks", 0) == 2, c
assert c.get("resilience.growbacks", 0) == 1, c
assert c.get("resilience.redistributed_bytes", 0) > 0, c
assert g.get("soak.shrinks") == 2.0, g
assert g.get("soak.growbacks") == 1.0, g
assert g.get("soak.final_nranks") == 4.0, g
assert g.get("soak.final_crc_match") == 1.0, g
assert g.get("soak.bit_identical") == 1.0, g
final_crcs = {k: v for k, v in c.items() if k.startswith("soak.final_crc.")}
assert len(final_crcs) == 14, sorted(final_crcs)
assert all(v != 0 for v in final_crcs.values()), final_crcs
# The weighted planner ran and never did worse than the uniform split.
assert "decomp.weighted.imbalance_uniform" in g, sorted(g)
assert "decomp.weighted.imbalance_weighted" in g, sorted(g)
assert g["decomp.weighted.imbalance_weighted"] <= g["decomp.weighted.imbalance_uniform"] + 1e-12, g

# detect: both corruptions detected loudly and recovered bit-identically.
c, g = load("detect")
assert c.get("resilience.faults_injected", 0) == 2, c
assert c.get("resilience.halo_crc_failures", 0) >= 1, c
assert c.get("resilience.ldm_overflows", 0) >= 1, c
assert g.get("soak.bit_identical") == 1.0, g

print("resilience soak metrics OK (default, rankloss, detect, growback)")
EOF
