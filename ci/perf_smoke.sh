#!/usr/bin/env bash
# Perf smoke: run bench_model_kernels briefly with telemetry on, export the
# benchmark JSON plus telemetry metrics.json/trace.json as CI artifacts, and
# gate on the checked-in baseline (fail when any tier-1 kernel regresses >2x).
#
# Usage: ci/perf_smoke.sh [build-dir] [artifact-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-ci-release}"
OUT_DIR="${2:-artifacts/perf-smoke}"
mkdir -p "$OUT_DIR"

LICOMK_TELEMETRY=1 LICOMK_TELEMETRY_OUT="$OUT_DIR" \
  "$BUILD_DIR/bench/bench_model_kernels" \
  --benchmark_min_time=0.05 \
  --benchmark_out="$OUT_DIR/bench_smoke.json" \
  --benchmark_out_format=json

# The telemetry artifacts must be valid JSON documents.
python3 - "$OUT_DIR" <<'EOF'
import json, sys, os
out = sys.argv[1]
m = json.load(open(os.path.join(out, "metrics.json")))
assert m["schema"] == "licomk.telemetry.v1", m.get("schema")
t = json.load(open(os.path.join(out, "trace.json")))
assert isinstance(t["traceEvents"], list) and t["traceEvents"], "empty trace"
print(f"telemetry artifacts OK: {len(m['kernels'])} kernels, "
      f"{len(t['traceEvents'])} trace events")
EOF

python3 ci/check_perf.py bench/baseline_smoke.json "$OUT_DIR/bench_smoke.json" \
  --max-ratio 2.0

# The LDM staging pipeline must have engaged on the converted kernels:
# batched DMA, transfer/compute overlap, no MPE or staging fallbacks.
python3 ci/check_ldm_staging.py "$OUT_DIR/metrics.json"

# SIMD pack + kernel fusion: the fused+packed readyt/readyc dynamics chain
# must measurably beat the scalar-unfused chain (guards against the packed
# path silently lowering to scalar or a fusion regression).
python3 ci/check_pack_fusion.py "$OUT_DIR/bench_smoke.json"

# Halo group engine: the same small 4-rank model with grouped vs per-field
# exchanges (CRC on everywhere). Gate on the overall message reduction, the
# barotropic-subcycle message ceiling, plan-cache reuse, identical final
# state CRCs in both modes, and zero CRC failures (ci/check_halo_batching.py).
mkdir -p "$OUT_DIR/halo-batched" "$OUT_DIR/halo-perfield"
"$BUILD_DIR/examples/halo_batching_smoke" batched "$OUT_DIR/halo-batched"
"$BUILD_DIR/examples/halo_batching_smoke" perfield "$OUT_DIR/halo-perfield"
python3 ci/check_halo_batching.py \
  "$OUT_DIR/halo-batched/metrics.json" "$OUT_DIR/halo-perfield/metrics.json"
