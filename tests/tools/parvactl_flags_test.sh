#!/usr/bin/env bash
# Regression test for parvactl simulate's numeric flags: a malformed or
# out-of-range --seed, --duration-ms or --inject-fault value must exit 1
# with a message naming the flag, never run with a silently substituted
# value. A valid short simulation must still exit 0.
#
# Usage: parvactl_flags_test.sh <parvactl_binary>
#
# Each run is capped at 20 s: an accepted infinite duration never ends.
set -u

PARVACTL="$1"
FAILURES=0

run() { timeout 20 "${PARVACTL}" simulate --scenario S2 "$@"; }

expect_rejected() {
  local flag="$1"
  shift
  local err
  err="$(run "$@" 2>&1 >/dev/null)"
  local rc=$?
  if [[ "${rc}" -eq 1 && "${err}" == *"${flag}"* ]]; then
    echo "ok: $* (exit 1)"
  else
    echo "FAIL: $*: expected exit 1 naming ${flag}, got exit ${rc}: ${err}"
    FAILURES=$((FAILURES + 1))
  fi
}

expect_rejected --duration-ms --duration-ms abc
expect_rejected --duration-ms --duration-ms 5000x
expect_rejected --duration-ms --duration-ms inf
expect_rejected --duration-ms --duration-ms nan
expect_rejected --duration-ms --duration-ms 0
expect_rejected --seed --seed abc
expect_rejected --seed --seed 1.5
expect_rejected --seed --seed -1
expect_rejected --inject-fault --inject-fault gpu=0@t=nan
expect_rejected --inject-fault --inject-fault gpu=0@t=inf
expect_rejected --inject-fault --inject-fault gpu=1.9@t=5000

run --seed 7 --duration-ms 1000 --inject-fault gpu=0@t=500 >/dev/null 2>&1
rc=$?
if [[ "${rc}" -eq 0 ]]; then
  echo "ok: a valid short simulation (exit 0)"
else
  echo "FAIL: a valid short simulation: expected exit 0, got ${rc}"
  FAILURES=$((FAILURES + 1))
fi

if [[ "${FAILURES}" -ne 0 ]]; then
  echo "parvactl_flags_test: ${FAILURES} failure(s)"
  exit 1
fi
echo "parvactl_flags_test: all checks passed"
