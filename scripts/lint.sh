#!/usr/bin/env bash
# Static-analysis gate: parva_audit (the project-specific determinism and
# concurrency contract checker) plus clang-tidy when available.
#
# Usage:
#   ./scripts/lint.sh                 # audit the tree and run clang-tidy
#   ./scripts/lint.sh --audit-only    # skip clang-tidy even if installed
#   ./scripts/lint.sh --diff          # clang-tidy only on files changed vs HEAD
#
# parva_audit is always required (it builds from this repo, or set
# PARVA_AUDIT_BIN to an existing binary to skip the build); clang-tidy is
# optional because the default container does not ship clang. When it is
# absent the stage is reported as skipped, not passed. A dropped status is
# the compiler's to reject, not the audit's (parva_warnings in
# CMakeLists.txt).
#
# The canary runs the audit over the committed fixtures in
# tests/tools/fixtures/, which plant a violation of every rule: it must exit
# 1 and report each of R1-R15, so a rule that stops firing fails the gate.
#
# Exit codes: 0 clean, 1 findings (or canary failure), 2 usage error.
# parva_audit's own exit codes are distinguished: 1 (findings) and >= 2
# (usage/IO error) both fail this script -- a crashed checker must never
# read as a clean pass.
set -euo pipefail
cd "$(dirname "$0")/.."

AUDIT_ONLY=0
DIFF_ONLY=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --audit-only) AUDIT_ONLY=1 ;;
    --diff) DIFF_ONLY=1 ;;
    *)
      echo "usage: $0 [--audit-only] [--diff]" >&2
      exit 2
      ;;
  esac
  shift
done

if [[ -n "${PARVA_AUDIT_BIN:-}" ]]; then
  AUDIT="${PARVA_AUDIT_BIN}"
  [[ -x "${AUDIT}" ]] || { echo "lint: PARVA_AUDIT_BIN=${AUDIT} is not executable" >&2; exit 2; }
else
  echo "== build parva_audit =="
  cmake --preset default >/dev/null
  cmake --build --preset default --target parva_audit -j "$(nproc)"
  AUDIT=./build/tools/parva_audit
fi

SCRATCH_DIR="$(mktemp -d)"
trap 'rm -rf "${SCRATCH_DIR}"' EXIT
RULE_LOG="${SCRATCH_DIR}/rules.log"
: > "${RULE_LOG}"

# One summary line over every audit scan (canary excluded): total findings
# plus per-rule counts.
print_summary() {
  local total per_rule
  total="$(wc -l < "${RULE_LOG}" | tr -d ' ')"
  per_rule="$(sort -V "${RULE_LOG}" | uniq -c | awk '{printf " %s=%s", substr($2, 2, length($2) - 2), $1}')"
  echo "lint: audit summary: ${total} finding(s)${per_rule}"
}

# Runs the audit and maps its exit codes: 0 passes through, 1 (findings)
# and >= 2 (usage/IO error) are reported distinctly and fail the script.
# Per-rule finding markers feed the summary line.
run_audit() {
  local rc=0
  local log="${SCRATCH_DIR}/audit.log"
  "${AUDIT}" "$@" >"${log}" 2>&1 || rc=$?
  cat "${log}"
  grep -oE '\[R[0-9]+\]' "${log}" >> "${RULE_LOG}" || true
  if [[ "${rc}" -ge 2 ]]; then
    echo "lint: parva_audit failed to run (exit ${rc}) -- not a clean pass" >&2
    exit "${rc}"
  elif [[ "${rc}" -ne 0 ]]; then
    print_summary
    echo "lint: parva_audit found violations (exit ${rc})" >&2
    exit 1
  fi
}

echo "== parva_audit: determinism/concurrency contracts (R1-R15) =="
run_audit --rules R1-R15 src/

echo "== parva_audit: self-check (the checker obeys its own rules, R1-R15) =="
run_audit tools/parva_audit/

echo "== parva_audit: tree scan (bench/ examples/ tools/) =="
run_audit bench/ examples/ tools/
print_summary

echo "== parva_audit: canary (the committed fixtures must trip every rule R1-R15) =="
CANARY_RC=0
CANARY_OUT="$("${AUDIT}" tests/tools/fixtures/ 2>/dev/null)" || CANARY_RC=$?
if [[ "${CANARY_RC}" -ne 1 ]]; then
  echo "lint: canary failed -- expected exit 1 on the planted fixtures, got ${CANARY_RC}" >&2
  exit 1
fi
for n in $(seq 1 15); do
  if ! grep -q "\[R${n}\]" <<< "${CANARY_OUT}"; then
    echo "lint: canary failed -- the planted R${n} violation was not detected" >&2
    exit 1
  fi
done

if [[ "${AUDIT_ONLY}" == 1 ]]; then
  echo "lint: OK (clang-tidy skipped: --audit-only)"
  exit 0
fi

if ! command -v clang-tidy >/dev/null 2>&1; then
  echo "lint: OK (clang-tidy skipped: not installed; CI runs it)"
  exit 0
fi

echo "== clang-tidy (.clang-tidy profile) =="
# The default preset exports compile_commands.json (CMAKE_EXPORT_COMPILE_COMMANDS).
if [[ "${DIFF_ONLY}" == 1 ]]; then
  mapfile -t FILES < <(git diff --name-only HEAD -- 'src/*.cpp' 'tools/*.cpp')
else
  mapfile -t FILES < <(git ls-files 'src/*.cpp' 'tools/*.cpp')
fi
if [[ "${#FILES[@]}" == 0 ]]; then
  echo "lint: OK (no files for clang-tidy)"
  exit 0
fi
clang-tidy -p build --quiet "${FILES[@]}"

echo "lint: OK"
