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
# S2 runs the fixed-latency path; S7 under evict runs the LLM path, whose
# event log must also carry the evictions it made.
TELEMETRY_TMP="$(mktemp -d)"
trap 'rm -rf "${TELEMETRY_TMP}"' EXIT
# same_with_telemetry NAME ARGS...: `parvactl simulate ARGS...` prints the
# same bytes with --telemetry-out NAME, and writes all three exports.
same_with_telemetry() {
  local name="$1"
  shift
  ./build/examples/parvactl simulate "$@" > "${TELEMETRY_TMP}/${name}.plain.txt"
  ./build/examples/parvactl simulate "$@" \
    --telemetry-out "${TELEMETRY_TMP}/${name}" 2>/dev/null \
    > "${TELEMETRY_TMP}/${name}.instrumented.txt"
  diff "${TELEMETRY_TMP}/${name}.plain.txt" "${TELEMETRY_TMP}/${name}.instrumented.txt"
  for ext in prom jsonl csv; do
    test -s "${TELEMETRY_TMP}/${name}.${ext}" || {
      echo "missing telemetry export: ${name}.${ext}" >&2
      exit 1
    }
  done
}
same_with_telemetry s2 --scenario S2 --seed 7
same_with_telemetry s7 --scenario S7 --llm-admission evict
grep -q '"kind":"llm_eviction"' "${TELEMETRY_TMP}/s7.jsonl" || {
  echo "S7 --llm-admission evict exported no llm_eviction record" >&2
  exit 1
}

echo "== shard-count identity: parvactl simulate at --shards 1 and 4 =="
# same_across_shards NAME ARGS...: `parvactl simulate ARGS...` prints the
# same bytes and writes the same .prom/.jsonl/.csv exports at --shards 1 and
# --shards 4 (DESIGN.md §4.5). The S2 fault walkthrough's event log is
# mostly the sheds of one GPU loss, written by the coordinator; S7 under
# evict runs the LLM path with its evictions.
same_across_shards() {
  local name="$1"
  shift
  for shards in 1 4; do
    ./build/examples/parvactl simulate "$@" --shards "${shards}" \
      --telemetry-out "${TELEMETRY_TMP}/${name}.shards${shards}" 2>/dev/null \
      > "${TELEMETRY_TMP}/${name}.shards${shards}.txt"
  done
  for ext in txt prom jsonl csv; do
    cmp "${TELEMETRY_TMP}/${name}.shards1.${ext}" "${TELEMETRY_TMP}/${name}.shards4.${ext}"
  done
}
same_across_shards s2-fault --scenario S2 --inject-fault gpu=0@t=10000 --transient-p 0.15 \
  --seed 7 --duration-ms 28000
same_across_shards s7-evict --scenario S7 --llm-admission evict

echo "== configure + build (asan-ubsan preset) =="
cmake --preset asan-ubsan >/dev/null
cmake --build --preset asan-ubsan -j "$(nproc)"

echo "== ctest (asan-ubsan preset) =="
ctest --preset asan-ubsan

echo "== benchmark self-tests (parvabench, Release) =="
python3 parvabench/test_bench.py

echo "verify: OK"
