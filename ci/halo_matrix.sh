#!/usr/bin/env bash
# Halo configuration matrix: run every halo-touching test suite with message
# aggregation on and off (LICOMK_BATCH_HALO).
#
# ModelConfig::testing() honors that env var, so the same binaries exercise:
#   0  per-field exchanges (the paper's Fig. 8 per-field arm)
#   1  planned ExchangeGroups (the default)
# Tests that pin the flag explicitly (e.g. the bit-identity comparisons) stay
# deterministic regardless of the env; the rest follow the matrix cell.
#
# The model suite additionally sweeps LICOMK_PACK_SIZE in {1,4,8} inside every
# halo cell: pack-width dispatch must compose with the halo engine (the CRC
# matrix tests inside test_model then prove bit-identity on top of whatever
# cell the env selected).
#
# Usage: ci/halo_matrix.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-ci-release}"
SUITES=(test_halo test_exchange_group test_persistent_group)

for batch in 0 1; do
  echo "=== LICOMK_BATCH_HALO=$batch ==="
  for suite in "${SUITES[@]}"; do
    LICOMK_BATCH_HALO=$batch "$BUILD_DIR/tests/$suite" --gtest_brief=1
  done
  for pack in 1 4 8; do
    echo "--- test_model (LICOMK_PACK_SIZE=$pack) ---"
    LICOMK_BATCH_HALO=$batch LICOMK_PACK_SIZE=$pack \
      "$BUILD_DIR/tests/test_model" --gtest_brief=1
  done
done
echo "halo matrix: both batch settings passed (x3 pack widths on the model suite)"
