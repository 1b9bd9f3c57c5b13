#!/usr/bin/env bash
# Full verification: plain build + tests, then the same suite under
# AddressSanitizer + UndefinedBehaviorSanitizer (the asan-ubsan preset).
# Run from the repository root:  ./scripts/verify.sh
#   --lint   also run the static-analysis gate (scripts/lint.sh) and the
#            parva_audit golden-fixture suite before the sanitizer stages.
set -euo pipefail
cd "$(dirname "$0")/.."

RUN_LINT=0
for arg in "$@"; do
  case "${arg}" in
    --lint) RUN_LINT=1 ;;
    *)
      echo "usage: $0 [--lint]" >&2
      exit 2
      ;;
  esac
done

echo "== configure + build (default preset) =="
cmake --preset default >/dev/null
cmake --build --preset default -j "$(nproc)"

echo "== ctest (default preset) =="
ctest --preset default

if [[ "${RUN_LINT}" == 1 ]]; then
  echo "== lint: parva_audit contracts + golden fixtures =="
  ./scripts/lint.sh
  ctest --preset default -L lint
fi

echo "== telemetry: exporter goldens + output byte-identity =="
ctest --preset default -L telemetry
# With telemetry enabled the simulator must produce byte-identical output:
# instrumentation only reads state, it never perturbs the RNG or schedule.
TELEMETRY_TMP="$(mktemp -d)"
trap 'rm -rf "${TELEMETRY_TMP}"' EXIT
./build/examples/parvactl simulate --scenario S2 --seed 7 \
  > "${TELEMETRY_TMP}/plain.txt"
./build/examples/parvactl simulate --scenario S2 --seed 7 \
  --telemetry-out "${TELEMETRY_TMP}/tel" 2>/dev/null \
  > "${TELEMETRY_TMP}/instrumented.txt"
diff "${TELEMETRY_TMP}/plain.txt" "${TELEMETRY_TMP}/instrumented.txt"
for ext in prom jsonl csv; do
  test -s "${TELEMETRY_TMP}/tel.${ext}" || {
    echo "missing telemetry export: tel.${ext}" >&2
    exit 1
  }
done

echo "== configure + build (asan-ubsan preset) =="
cmake --preset asan-ubsan >/dev/null
cmake --build --preset asan-ubsan -j "$(nproc)"

echo "== ctest (asan-ubsan preset) =="
ctest --preset asan-ubsan

echo "== benchmark self-tests (parvabench, Release) =="
python3 parvabench/test_bench.py

echo "verify: OK"
