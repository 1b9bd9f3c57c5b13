#!/usr/bin/env bash
# Compile-fail test: builds one fixture target that must not compile. It
# passes only when the build fails, every line of the fixture marked
# `// rejected` carries an unused-result or unused-value error, and no other
# line carries an error.
#
# Usage: compile_fail_test.sh <cmake> <build_dir> <target> <fixture_source>
set -u

CMAKE="$1"
BUILD_DIR="$2"
TARGET="$3"
FIXTURE="$4"
NAME="$(basename "${FIXTURE}")"

OUT="$("${CMAKE}" --build "${BUILD_DIR}" --target "${TARGET}" 2>&1)"
RC=$?
if [[ "${RC}" -eq 0 ]]; then
  echo "FAIL: ${TARGET} compiled; every line marked '// rejected' should have failed it"
  exit 1
fi

mapfile -t WANT < <(grep -n '// rejected$' "${FIXTURE}" | cut -d: -f1)
mapfile -t GOT < <(grep -oE "${NAME}:[0-9]+:[0-9]+: error: .*unused-(result|value)" <<< "${OUT}" |
  cut -d: -f2 | sort -un)
mapfile -t ANY < <(grep -oE "${NAME}:[0-9]+:[0-9]+: error:" <<< "${OUT}" | cut -d: -f2 | sort -un)

FAILURES=0
for line in "${WANT[@]}"; do
  if printf '%s\n' "${GOT[@]}" | grep -qx "${line}"; then
    echo "ok: ${NAME}:${line} rejected: $(sed -n "${line}p" "${FIXTURE}" | sed 's/^ *//')"
  else
    echo "FAIL: ${NAME}:${line} compiled without an unused-result/unused-value error"
    FAILURES=$((FAILURES + 1))
  fi
done
for line in "${ANY[@]}"; do
  if ! printf '%s\n' "${WANT[@]}" | grep -qx "${line}"; then
    echo "FAIL: ${NAME}:${line} has an error but is not marked '// rejected'"
    FAILURES=$((FAILURES + 1))
  fi
done
if [[ "${#WANT[@]}" -eq 0 || "${FAILURES}" -ne 0 ]]; then
  echo "${OUT}"
  echo "compile_fail_test: ${FAILURES} failure(s)"
  exit 1
fi
echo "compile_fail_test: all ${#WANT[@]} marked lines rejected"
