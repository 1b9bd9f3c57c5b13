#!/usr/bin/env bash
# Regression test for parvactl simulate's numeric flags: a malformed or
# out-of-range --seed, --duration-ms, --inject-fault or --transient-p value
# must exit 1 with a message naming the flag, never run with a silently
# substituted value. A valid short simulation must still exit 0. The
# autoscaling example's --epoch-minutes gets the same treatment, and an
# epoch shorter than one minute (1e-9 would run until killed) is refused.
# Two runs of parvactl schedule print the same stdout, with the wall-clock
# delay on stderr. A services row whose rate needs more segments than one
# service may hold is refused before anything is allocated. A flag the
# subcommand does not read (a typo, or a retired flag such as the LLM
# eviction, dispatch and decode-chunk knobs) exits 2 naming it, and so does
# an argument after the subcommand. The cloud_deployment, capacity_planning
# and profile_explorer examples refuse a flag they do not read (exit 2) and
# a malformed, non-finite or out-of-range value (exit 1) the same way.
#
# Usage: parvactl_flags_test.sh <parvactl> <autoscaling> <cloud_deployment>
#                               <capacity_planning> <profile_explorer>
#
# Each run is capped at 20 s: an accepted infinite duration never ends.
set -u

PARVACTL="$1"
AUTOSCALING="$2"
CLOUD_DEPLOYMENT="$3"
CAPACITY_PLANNING="$4"
PROFILE_EXPLORER="$5"
FAILURES=0

run() { timeout 20 "${PARVACTL}" simulate --scenario S2 "$@"; }
run_parvactl() { timeout 20 "${PARVACTL}" "$@"; }
run_autoscaling() { timeout 20 "${AUTOSCALING}" "$@"; }
run_cloud_deployment() { timeout 20 "${CLOUD_DEPLOYMENT}" "$@"; }
run_capacity_planning() { timeout 20 "${CAPACITY_PLANNING}" "$@"; }
run_profile_explorer() { timeout 20 "${PROFILE_EXPLORER}" "$@"; }

# expect_rejected_by RUNNER FLAG ARGS...: RUNNER ARGS... must exit 1 with a
# message naming FLAG.
expect_rejected_by() {
  local runner="$1"
  local flag="$2"
  shift 2
  local err
  err="$("${runner}" "$@" 2>&1 >/dev/null)"
  local rc=$?
  if [[ "${rc}" -eq 1 && "${err}" == *"${flag}"* ]]; then
    echo "ok: $* (exit 1)"
  else
    echo "FAIL: $*: expected exit 1 naming ${flag}, got exit ${rc}: ${err}"
    FAILURES=$((FAILURES + 1))
  fi
}

expect_rejected() { expect_rejected_by run "$@"; }

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
expect_rejected --transient-p --transient-p nan
for epoch in nan 0 -5 inf abc 0.5 1e-9; do
  expect_rejected_by run_autoscaling --epoch-minutes --epoch-minutes "${epoch}"
done
for duration in abc 5000x inf nan 0 -1; do
  expect_rejected_by run_cloud_deployment --duration-ms --duration-ms "${duration}"
done
expect_rejected_by run_cloud_deployment --scenario --scenario S9
for fold in 0 -2 abc 2.5 1001; do
  expect_rejected_by run_capacity_planning --max-fold --max-fold "${fold}"
done
for price in nan inf -1 abc; do
  expect_rejected_by run_capacity_planning --gpu-hour-usd --gpu-hour-usd "${price}"
done
for rate in abc nan inf -1; do
  expect_rejected_by run_profile_explorer --rate --rate "${rate}"
done
for slo in abc nan inf 0 -5; do
  expect_rejected_by run_profile_explorer --slo-ms --slo-ms "${slo}"
done

# expect_usage_error_by RUNNER TEXT ARGS...: RUNNER ARGS... must exit 2 with
# a message containing TEXT.
expect_usage_error_by() {
  local runner="$1"
  local text="$2"
  shift 2
  local err
  err="$("${runner}" "$@" 2>&1 >/dev/null)"
  local rc=$?
  if [[ "${rc}" -eq 2 && "${err}" == *"${text}"* ]]; then
    echo "ok: $* (exit 2)"
  else
    echo "FAIL: $*: expected exit 2 naming ${text}, got exit ${rc}: ${err}"
    FAILURES=$((FAILURES + 1))
  fi
}

# expect_unknown FLAG ARGS...: parvactl ARGS... must exit 2 naming --FLAG.
expect_unknown() {
  local flag="$1"
  shift
  expect_usage_error_by run_parvactl "--${flag}" "$@"
}

expect_unknown shard simulate --scenario S2 --shard 4
expect_unknown bogus-flag simulate --scenario S2 --shards 4 --bogus-flag 7
expect_unknown llm-eviction simulate --scenario S7 --llm-eviction lru
expect_unknown llm-dispatch simulate --scenario S7 --llm-dispatch p2c
expect_unknown llm-chunk simulate --scenario S7 --llm-chunk 8
expect_unknown seed schedule --scenario S2 --seed 7
expect_usage_error_by run_parvactl "'S3'" simulate --scenario S2 S3 --duration-ms 1000
expect_usage_error_by run_parvactl "'extra'" scenarios extra
expect_usage_error_by run_autoscaling --epoch-minute --epoch-minute 30
expect_usage_error_by run_cloud_deployment --typo --duration-ms abc --typo 3
expect_usage_error_by run_capacity_planning --max-folds --max-folds 3
expect_usage_error_by run_profile_explorer --slo --slo 100

run --seed 7 --duration-ms 1000 --inject-fault gpu=0@t=500 >/dev/null 2>&1
rc=$?
if [[ "${rc}" -eq 0 ]]; then
  echo "ok: a valid short simulation (exit 0)"
else
  echo "FAIL: a valid short simulation: expected exit 0, got ${rc}"
  FAILURES=$((FAILURES + 1))
fi

# schedule's stdout is a pure function of the plan: the wall-clock delay
# goes to stderr.
SCRATCH="$(mktemp -d)"
trap 'rm -rf "${SCRATCH}"' EXIT
for i in 1 2; do
  timeout 20 "${PARVACTL}" schedule --scenario S2 >"${SCRATCH}/out${i}" 2>"${SCRATCH}/err${i}"
done
if cmp -s "${SCRATCH}/out1" "${SCRATCH}/out2" && grep -q "delay:" "${SCRATCH}/err1" &&
    ! grep -q "delay:" "${SCRATCH}/out1"; then
  echo "ok: schedule stdout is identical across runs, delay on stderr"
else
  echo "FAIL: schedule stdout differs across runs or the delay is not on stderr"
  FAILURES=$((FAILURES + 1))
fi

# 1e12 req/s of resnet-50 would be about 1.7e8 segments: refused by the
# per-service ceiling (core::kMaxSegmentsPerService), not run out of memory.
printf 'id,model,slo_latency_ms,request_rate\n0,resnet-50,50,1e12\n' >"${SCRATCH}/huge.csv"
err="$(timeout 20 "${PARVACTL}" schedule --services "${SCRATCH}/huge.csv" 2>&1 >/dev/null)"
rc=$?
if [[ "${rc}" -eq 1 && "${err}" == *"capacity_exceeded"*"needs more than 65536 whole segments"* ]]; then
  echo "ok: a services row above the per-service segment ceiling (exit 1)"
else
  echo "FAIL: a services row above the segment ceiling: expected exit 1 naming the ceiling," \
    "got exit ${rc}: ${err}"
  FAILURES=$((FAILURES + 1))
fi

if [[ "${FAILURES}" -ne 0 ]]; then
  echo "parvactl_flags_test: ${FAILURES} failure(s)"
  exit 1
fi
echo "parvactl_flags_test: all checks passed"
